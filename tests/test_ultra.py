import random
import time
from bisect import bisect_left
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stonework.errors import (
    CarrierMismatch,
    ChainNotMonotone,
    ResourceLimit,
)
from stonework import finmon, ultra
from stonework.contrast import build_contrast
from stonework.finmon import FiniteMonoid, full_selfmap_monoid, is_submonoid, validate_monoid
from stonework.generators import (
    random_chain,
    random_one_sided_metric,
    random_transformation_monoid,
    random_ultrametric,
)
from stonework.navector import FreeVector, free_space, vector
from stonework.ultra import (
    MonotoneChain,
    Partition,
    UltraPseudometric,
    _widest_path_depths,
    check_left_congruence,
    d_from_chain,
    enumerate_theta,
    epsilon_A_relation,
    epsilon_A_relates,
    metric_from_json,
    minimax_path_distance,
    nonexpansive_counterexample,
    partition_from_json,
    sup_combine,
)

HALF = Fraction(1, 2)


# --- partitions -----------------------------------------------------------


def test_partition_normalization_and_equality():
    p = Partition.from_class_ids([5, 5, 9, 5])
    q = Partition.from_classes(4, [[0, 1, 3], [2]])
    assert p == q
    assert p.class_id == (0, 0, 1, 0)
    with pytest.raises(ValueError):
        Partition(carrier_size=2, class_id=(1, 0))  # not first-occurrence form
    with pytest.raises(ValueError):
        Partition(carrier_size=2, class_id=(0, -1))  # a negative id


def _setdefault_normal_form(labels):
    """The first-occurrence renumbering, written out as a loop."""
    seen = {}
    return tuple(seen.setdefault(k, len(seen)) for k in labels)


hashable_labels = st.one_of(
    st.lists(st.integers(-3, 3), max_size=12),
    st.lists(st.tuples(st.integers(0, 2), st.sampled_from("ab")), max_size=12),
    st.lists(st.integers(0, 3), max_size=12).flatmap(
        lambda xs: st.lists(st.integers(0, 1), min_size=len(xs), max_size=len(xs))
        .map(lambda ys: zip(xs, ys))),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(hashable_labels)
def test_from_class_ids_is_the_first_occurrence_normal_form(labels):
    labels = list(labels)
    p = Partition.from_class_ids(iter(labels))
    assert p.class_id == _setdefault_normal_form(labels)
    assert p.carrier_size == len(labels)
    assert Partition(carrier_size=p.carrier_size, class_id=p.class_id) == p


def test_partition_meet_and_refines():
    p = Partition.from_classes(4, [[0, 1], [2, 3]])
    q = Partition.from_classes(4, [[0, 1, 2], [3]])
    met = p.meet(q)
    assert met == Partition.from_classes(4, [[0, 1], [2], [3]])
    assert met.refines(p) and met.refines(q)
    assert not p.refines(q)


def test_partition_json_round_trip():
    p = Partition.from_classes(3, [[0, 2], [1]])
    assert partition_from_json(3, p.to_json()) == p


# --- metric validation ----------------------------------------------------


def test_metric_validation_catches_asymmetry_and_triangle():
    with pytest.raises(ValueError):
        UltraPseudometric.from_rows([[0, 1], [HALF, 0]])
    # two short sides and one long side cannot happen in an ultrametric
    with pytest.raises(ValueError):
        UltraPseudometric.from_rows(
            [[0, 1, HALF], [1, 0, HALF], [HALF, HALF, 0]]
        )
    with pytest.raises(ValueError):
        UltraPseudometric.from_rows([[1]])
    with pytest.raises(ValueError):
        UltraPseudometric.from_rows([[0, -1], [-1, 0]])


@pytest.mark.parametrize("levels", [
    [0, 1, HALF],       # ball(0, 3/4) would miss the point at distance 1/2
    [1, 2, 3],          # d(0, 0) would be 1
    [0, 1, 1, 2],
    [0, 0.5, 1],
    [0, True, 2],
    [],
])
def test_metric_refuses_levels_not_ascending_strictly_from_zero(levels):
    rank = [[0, 1, 2], [1, 0, 1], [2, 1, 0]][:len(levels)]
    with pytest.raises(ValueError, match="not exact rationals ascending strictly from 0"):
        UltraPseudometric(levels, [row[:len(levels)] for row in rank])


def test_metric_takes_int_and_fraction_levels():
    d = UltraPseudometric([0, HALF, np.int64(1)], [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    assert d == UltraPseudometric.from_rows([[0, HALF, 1], [HALF, 0, 1], [1, 1, 0]])
    assert d.ball(0, Fraction(3, 4)) == [0, 1]


@pytest.mark.parametrize("center,message", [
    (-1, "ball center outside the carrier"),        # read as point 2 before
    (3, "ball center outside the carrier"),         # a raw IndexError before
    (True, "ball center True is not an integer"),   # flat indices of a mask before
    (1.0, "ball center 1.0 is not an integer"),     # a raw IndexError before
])
def test_ball_refuses_a_center_that_is_no_point(center, message):
    d = UltraPseudometric.discrete(3)
    with pytest.raises(ValueError, match=message):
        d.ball(center, HALF)
    assert d.ball(np.int64(2), HALF) == [2] and d.ball(np.uint8(0), 2) == [0, 1, 2]


def test_metric_needs_a_point():
    with pytest.raises(ValueError, match="at least one point"):
        UltraPseudometric.discrete(0)
    with pytest.raises(ValueError, match="at least one point"):
        UltraPseudometric.from_rows([])


def test_metric_json_round_trip_exact():
    d = UltraPseudometric.from_rows([[0, HALF, 1], [HALF, 0, 1], [1, 1, 0]])
    blob = d.to_json()
    assert blob["dist"][0][1] == "1/2"
    assert metric_from_json(blob) == d


# --- chain metrization ----------------------------------------------------


def test_empty_chain_gives_discrete_metric():
    chain = MonotoneChain(carrier_size=3, chain=())
    assert d_from_chain(chain) == UltraPseudometric.discrete(3)


def test_single_level_chain_closed_form():
    chain = MonotoneChain(
        carrier_size=3, chain=(Partition.from_classes(3, [[0, 1], [2]]),)
    )
    d = d_from_chain(chain)
    assert d.d(0, 1) == HALF
    assert d.d(0, 2) == 1 and d.d(1, 2) == 1
    # literal path infimum agrees
    for x in range(3):
        for y in range(3):
            assert minimax_path_distance(chain, x, y) == d.d(x, y)


def test_chain_json_round_trip():
    from stonework.ultra import chain_from_json

    chain = MonotoneChain(
        carrier_size=3,
        chain=(
            Partition.from_classes(3, [[0, 1], [2]]),
            Partition.from_classes(3, [[0], [1], [2]]),
        ),
    )
    assert chain_from_json(chain.to_json()) == chain


def test_chain_not_monotone_raises():
    with pytest.raises(ChainNotMonotone):
        MonotoneChain(
            carrier_size=3,
            chain=(
                Partition.from_classes(3, [[0], [1], [2]]),
                Partition.from_classes(3, [[0, 1], [2]]),
            ),
        )


def test_random_chains_match_minimax_oracle_and_sandwich():
    rng = random.Random(20)
    for _ in range(25):
        n = rng.randint(2, 6)
        chain = random_chain(rng, n, depth=3)
        d = d_from_chain(chain)
        for x in range(n):
            for y in range(x + 1, n):
                assert d.d(x, y) == minimax_path_distance(chain, x, y)
        for level in range(len(chain)):
            bound = Fraction(1, 2**level)
            finer = chain.level(level + 1)
            coarser = chain.level(level)
            for x in range(n):
                for y in range(n):
                    if finer.relates(x, y):
                        assert d.d(x, y) < bound
                    if d.d(x, y) < bound:
                        assert coarser.relates(x, y)


@st.composite
def chains(draw, max_points):
    """A chain on 1..max_points points: each level the meet of the last with drawn ids."""
    n = draw(st.integers(1, max_points))
    levels = []
    for ids in draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                             max_size=4)):
        level = Partition.from_class_ids(ids)
        levels.append(levels[-1].meet(level) if levels else level)
    return MonotoneChain(carrier_size=n, chain=tuple(levels))


@st.composite
def chain_and_pullback_metrics(draw):
    """A chain metric on up to 8 points, or its pullback along a drawn map,
    which puts distinct points at distance 0."""
    d = d_from_chain(draw(chains(8)))
    if draw(st.booleans()):
        m = draw(st.integers(1, 8))
        f = draw(st.lists(st.integers(0, d.carrier_size - 1), min_size=m, max_size=m))
        d = UltraPseudometric.from_rows([[d.dist[a][b] for b in f] for a in f])
    return d


@settings(derandomize=True, deadline=None, max_examples=200)
@given(chain_and_pullback_metrics())
def test_stored_form_agrees_with_the_fraction_rows(d):
    n = d.carrier_size
    assert UltraPseudometric.from_rows(d.dist) == d
    assert d.levels == tuple(sorted({v for row in d.dist for v in row}))
    assert d.levels[0] == 0
    for x in range(n):
        for y in range(n):
            assert d.d(x, y) == d.dist[x][y] and type(d.d(x, y)) is Fraction
    radii = {*d.levels, *(v * 3 / 2 for v in d.levels), Fraction(1, 10**6)} - {0}
    for r in radii:
        part = d.ball_partition(r)
        for x in range(n):
            assert d.ball(x, r) == [y for y in range(n) if d.dist[x][y] < r]
            for y in range(n):
                assert part.relates(x, y) == (d.dist[x][y] < r)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(chains(6))
def test_closed_form_agrees_with_the_minimax_oracle(chain):
    d = d_from_chain(chain)
    n = chain.carrier_size
    for x in range(n):
        for y in range(n):
            assert d.d(x, y) == minimax_path_distance(chain, x, y)


@st.composite
def depth_tables(draw):
    """A symmetric integer table on 2..7 points, neither nested nor ultrametric,
    so a detour can beat the direct step."""
    n = draw(st.integers(2, 7))
    depth = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            depth[a][b] = depth[b][a] = draw(st.integers(0, 5))
    return depth


def widest_path_brute_force(depth, x, y):
    others = [p for p in range(len(depth)) if p not in (x, y)]
    return max(
        min(depth[a][b] for a, b in zip(path, path[1:]))
        for k in range(len(others) + 1)
        for path in ((x, *mids, y) for mids in permutations(others, k))
    )


@settings(derandomize=True, deadline=None, max_examples=300)
@given(depth_tables())
def test_path_search_agrees_with_brute_force_on_any_table(depth):
    n = len(depth)
    closure = _widest_path_depths(depth)
    for x in range(n):
        for y in range(n):
            if x != y:
                assert closure[x][y] == widest_path_brute_force(depth, x, y)


@pytest.mark.parametrize("levels", [
    (0, Fraction(1, 3), Fraction(2, 7) * 2, 1),
    (Fraction(0), Fraction(2, 7), Fraction(1, 3), Fraction(5, 2), 7),
    (0,),
])
def test_below_counts_the_levels_under_any_radius(levels):
    n = len(levels)
    # a chain of points, point x at level x from every point before it
    rank = np.array([[0 if x == y else max(x, y) for y in range(n)] for x in range(n)])
    d = UltraPseudometric(levels, rank)
    between = [(a + b) / 2 for a, b in zip(d.levels, d.levels[1:])]
    radii = [*d.levels, *between, *(v + Fraction(1, 1000) for v in d.levels),
             0, -1, Fraction(-1, 3), d.levels[-1] + 1,
             *map(float, d.levels), 0.3, 1 / 3, -0.5,
             *map(np.int64, (0, 1, 7, -2)), np.uint8(1), True]
    # Fraction compares with a float exactly, so the bisect is exact too
    for r in radii:
        assert d.below(r) == bisect_left(d.levels, r), r


def test_chain_metrics_share_their_level_fractions():
    chain = random_chain(random.Random(4), 5, depth=3)
    a, b = d_from_chain(chain), d_from_chain(chain)
    assert a == b and all(x is y for x, y in zip(a.levels[1:], b.levels[1:]))
    # the path oracle builds its own
    x, y = next((x, y) for x in range(5) for y in range(x) if a.d(x, y))
    assert minimax_path_distance(chain, x, y) == a.d(x, y)
    assert minimax_path_distance(chain, x, y) is not a.d(x, y)


def test_depth_table_is_the_literal_depth():
    chain = random_chain(random.Random(3), 6, depth=4)
    n = chain.carrier_size
    assert chain.depths == tuple(tuple(chain.depth(x, y) for y in range(n)) for x in range(n))
    assert chain.depths is chain.depths
    assert chain == MonotoneChain(carrier_size=n, chain=chain.chain)


@pytest.mark.parametrize("n", [11, 16])
def test_path_oracle_is_polynomial_on_a_one_level_chain(n):
    # one big class and a lone point: every simple path inside the class
    # beats the direct step, which made a simple-path search exponential
    # (1.2 s for one pair at n = 11)
    chain = MonotoneChain(carrier_size=n, chain=(Partition.from_class_ids([0] * (n - 1) + [1]),))
    d = d_from_chain(chain)
    start = time.perf_counter()
    for x in range(n):
        for y in range(n):
            assert minimax_path_distance(chain, x, y) == d.dist[x][y]
    assert time.perf_counter() - start < 0.25


def test_sup_combine():
    d1 = UltraPseudometric.discrete(3)
    assert sup_combine([d1], cap=2) == d1
    near01 = UltraPseudometric.from_rows([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    near12 = UltraPseudometric.from_rows([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    # pointwise OR of the two distinct-point indicators
    assert sup_combine([near01, near12], cap=1) == d1
    capped = sup_combine([d1], cap=HALF)
    assert capped.d(0, 1) == HALF
    with pytest.raises(CarrierMismatch):
        sup_combine([d1, UltraPseudometric.discrete(2)], cap=1)


def test_sup_combine_strong_triangle_random():
    rng = random.Random(4)
    for _ in range(10):
        metrics = [d_from_chain(random_chain(rng, 5, depth=2)) for _ in range(3)]
        sup_combine(metrics, cap=1)  # constructor re-validates the triangle


# --- nonexpansiveness and balls -------------------------------------------


def test_discrete_metric_left_nonexpansive_on_group():
    z3 = validate_monoid([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0)
    assert nonexpansive_counterexample(z3, UltraPseudometric.discrete(3), "left") is None
    assert nonexpansive_counterexample(z3, UltraPseudometric.discrete(3), "right") is None


def test_right_nonexpansive_with_constant_translation():
    # two-level metric: identity far from both absorbing elements
    table = [[0, 1, 2], [1, 1, 2], [2, 1, 2]]  # x*y = y for x,y nonidentity
    m = validate_monoid(table, 0)
    d = UltraPseudometric.from_rows([[0, 1, 1], [1, 0, HALF], [1, HALF, 0]])
    assert nonexpansive_counterexample(m, d, "right") is None


# (first defective row, rows per block): the row is the first or the last
# row of a block past the first, and every instance spans 3 blocks or more
PLACEMENTS = [(None, 1), (0, 1), (1, 1), (2, 2), (3, 2), (3, 3), (5, 3)]


def _first_true_by_cube(bad):
    """The whole-array reference: the first True index in C order."""
    return tuple(np.argwhere(bad)[0].tolist()) if bad.any() else None


def _spoiled_rows(bad):
    return np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1))


def _relabeled_ranks(rank, perm):
    out = np.empty_like(rank)
    out[np.ix_(perm, perm)] = rank
    return out


@pytest.mark.parametrize("row, step", PLACEMENTS)
def test_blocked_strong_triangle_matches_the_whole_cube(monkeypatch, relabeling, row, step):
    rng, nprng = random.Random(row), np.random.default_rng(row)
    for n in (9, 16):
        while True:     # a random ultrametric with one pair's rank replaced
            rank = random_ultrametric(rng, n).rank_matrix().copy()
            if row is None:
                perm = nprng.permutation(n)
                break
            x, y = nprng.choice(n, 2, replace=False)
            rank[x, y] = rank[y, x] = nprng.integers(rank.max() + 2)
            spoiled = _spoiled_rows(rank[:, None, :] > np.maximum(rank[:, :, None], rank))
            if len(spoiled) and n - len(spoiled) >= row:
                perm = relabeling(spoiled, n, row, nprng)
                break
        rank = _relabeled_ranks(rank, perm)
        # the whole-cube form: d(x, z) against max(d(x, y), d(y, z)) on all triples
        expected = _first_true_by_cube(rank[:, None, :] > np.maximum(rank[:, :, None], rank[None]))
        assert (expected[0] if expected else None) == row
        monkeypatch.setattr(finmon, "CHUNK_ENTRIES", step * n * n)   # the helper's value
        assert ultra._strong_triangle_violation(rank) == expected


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("row, step", PLACEMENTS)
def test_blocked_nonexpansiveness_matches_the_whole_cube(monkeypatch, relabeling, side, row, step):
    rng, nprng = random.Random(row), np.random.default_rng(row)
    for m in (full_selfmap_monoid(3).to_monoid(), build_contrast(3).monoid):
        n = m.size
        moved = m.values if side == "right" else m.values.T
        while True:     # a random metric, or one nonexpansive on that side
            if row is None:
                d = random_one_sided_metric(rng, m, side)
                perm = nprng.permutation(n)
                break
            d = random_ultrametric(rng, n)
            rank = d.rank_matrix()
            spoiled = _spoiled_rows(rank[moved[:, None, :], moved[None, :, :]] > rank[:, :, None])
            if len(spoiled) and n - len(spoiled) >= row:
                perm = relabeling(spoiled, n, row, nprng)
                break
        table = np.empty_like(m.values)
        table[np.ix_(perm, perm)] = perm[m.values]
        m = FiniteMonoid(table, perm[m.identity])
        d = UltraPseudometric(d.levels, _relabeled_ranks(d.rank_matrix(), perm))
        # the whole-cube form: d(x*s, y*s) or d(s*x, s*y) against d(x, y)
        rank, moved = d.rank_matrix(), m.values if side == "right" else m.values.T
        expected = _first_true_by_cube(
            rank[moved[:, None, :], moved[None, :, :]] > rank[:, :, None])
        assert (expected[0] if expected else None) == row
        monkeypatch.setattr(finmon, "CHUNK_ENTRIES", step * n * n)   # the helper's value
        assert nonexpansive_counterexample(m, d, side) == expected


@pytest.mark.parametrize("row, step", PLACEMENTS)
def test_blocked_left_congruence_matches_the_whole_cube(monkeypatch, row, step):
    nprng = np.random.default_rng(row)
    for n in (7, 12):
        ids = np.asarray(Partition.from_class_ids(nprng.permutation(n) % 3).class_id)
        # row s sends each class c into class g[s, c], at random points of it
        g = nprng.integers(3, size=(n, 3))
        table = np.array([[nprng.choice(np.flatnonzero(ids == g[s, ids[x]])) for x in range(n)]
                          for s in range(n)])
        if row is not None:     # one point of row's table leaves its class's image
            x = nprng.integers(n)
            table[row, x] = nprng.choice(np.flatnonzero(ids != g[row, ids[x]]))
        m = FiniteMonoid(table.astype(np.min_scalar_type(n - 1)), 0)
        # the whole-cube form: x ~ y but s*x and s*y in different classes
        moved = ids[m.values]
        expected = _first_true_by_cube((moved[:, :, None] != moved[:, None, :])
                                       & (ids[:, None] == ids[None, :]))
        assert (expected[0] if expected else None) == row
        monkeypatch.setattr(finmon, "CHUNK_ENTRIES", step * n)   # the helper's value
        assert check_left_congruence(m, Partition.from_class_ids(ids)) == (row is None)


def test_nonexpansive_counterexample_is_canonical_and_real():
    # right translation by the absorbing element collapses 0 and 1 but
    # moves them close to 2, which is far from both: expansion
    table = [[0, 1, 2], [1, 0, 2], [2, 2, 2]]
    m = validate_monoid(table, 0)
    d = UltraPseudometric.from_rows(
        [[0, HALF, 1], [HALF, 0, 1], [1, 1, 0]]
    )
    witness = nonexpansive_counterexample(m, d, "left")
    assert witness is None
    # make translation by 2 send far-apart points to far-apart points only
    d2 = UltraPseudometric.from_rows(
        [[0, 1, 1], [1, 0, HALF], [1, HALF, 0]]
    )
    w = nonexpansive_counterexample(m, d2, "right")
    assert w is not None
    x, y, s = w
    assert d2.d(m.mul(x, s), m.mul(y, s)) > d2.d(x, y)


def test_side_argument_checked():
    m = validate_monoid([[0]], 0)
    with pytest.raises(ValueError):
        nonexpansive_counterexample(m, UltraPseudometric.discrete(1), "sideways")
    with pytest.raises(CarrierMismatch):
        nonexpansive_counterexample(m, UltraPseudometric.discrete(2), "left")


def test_ball_submonoid_trivial_radii():
    rng = random.Random(11)
    m, _ = random_transformation_monoid(rng, 3, max_size=6)
    d = random_one_sided_metric(rng, m, "right")
    positive = d.levels[1:]
    top = positive[-1] if positive else Fraction(1)
    assert nonexpansive_counterexample(m, d, "right") is None
    assert is_submonoid(m, d.ball(m.identity, top * 2))               # whole monoid
    assert is_submonoid(m, d.ball(m.identity, Fraction(1, 1000)))     # just {e}


def test_ball_submonoid_sweep_random_instances():
    rng = random.Random(12)
    for _ in range(10):
        m, _ = random_transformation_monoid(rng, rng.randint(2, 4), max_size=6)
        d = random_one_sided_metric(rng, m, "right")
        radii = d.levels[1:] or [Fraction(1)]
        assert nonexpansive_counterexample(m, d, "right") is None
        for r in radii:
            assert is_submonoid(m, d.ball(m.identity, r))


def test_left_congruence_basics():
    m = validate_monoid([[0, 1], [1, 1]], 0)
    assert check_left_congruence(m, Partition.indiscrete(2))
    assert check_left_congruence(m, Partition.discrete(2))
    # balls of a left-nonexpansive metric induce left congruences
    rng = random.Random(13)
    for _ in range(10):
        mm, _ = random_transformation_monoid(rng, rng.randint(2, 4), max_size=6)
        d = random_one_sided_metric(rng, mm, "left")
        for r in d.levels:
            assert check_left_congruence(mm, d.ball_partition(r))


def test_left_congruence_failure_detected():
    # collapsing the two absorbing elements of the right-zero monoid is a
    # left congruence, but collapsing identity with one of them is not
    table = [[0, 1, 2], [1, 1, 2], [2, 1, 2]]
    m = validate_monoid(table, 0)
    assert check_left_congruence(m, Partition.from_classes(3, [[0], [1, 2]]))
    assert not check_left_congruence(m, Partition.from_classes(3, [[0, 1], [2]]))


# --- the 1-Lipschitz monoid ------------------------------------------------


def test_theta_discrete_is_everything():
    for n in (1, 2, 3):
        theta = enumerate_theta(UltraPseudometric.discrete(n))
        assert len(theta) == n**n


def test_theta_two_level_count_against_filter():
    d = UltraPseudometric.from_rows([[0, HALF, 1], [HALF, 0, 1], [1, 1, 0]])
    theta = enumerate_theta(d)
    # literal filter: the near pair {0,1} must stay within distance 1/2
    from itertools import product

    expected = [
        f
        for f in product(range(3), repeat=3)
        if all(
            d.d(f[x], f[y]) <= d.d(x, y)
            for x in range(3)
            for y in range(3)
        )
    ]
    assert list(theta.elements) == expected
    assert len(theta) == 15
    assert theta.verify_closure()
    assert tuple(range(3)) in theta.elements


def test_theta_matches_literal_filter_on_random_ultrametrics():
    from itertools import product

    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 5)
        d = random_ultrametric(rng, n)
        expected = tuple(
            f
            for f in product(range(n), repeat=n)
            if all(d.d(f[x], f[y]) <= d.d(x, y) for x in range(n) for y in range(n))
        )
        assert enumerate_theta(d).elements == expected


def test_theta_resource_limit(monkeypatch):
    monkeypatch.setenv("STONEWORK_MAX_ENUM", "26")
    with pytest.raises(ResourceLimit):
        enumerate_theta(UltraPseudometric.discrete(3))


def lipschitz_count(d):
    """Number of 1-Lipschitz self-maps, by backtracking over f(0), f(1), ..."""
    rank = d.rank_matrix().tolist()
    n = len(rank)
    f = [0] * n

    def extend(x):
        if x == n:
            return 1
        total = 0
        for v in range(n):
            if all(rank[f[y]][v] <= rank[y][x] for y in range(x)):
                f[x] = v
                total += extend(x + 1)
        return total

    return extend(0)


def test_theta_bound_counts_live_candidates():
    # 8**8 maps in all, but only the live prefixes of each step count
    d = random_ultrametric(random.Random(1), 8)
    theta = enumerate_theta(d)
    assert len(theta) == lipschitz_count(d) == 22560
    assert list(theta.elements) == sorted(theta.elements)
    with pytest.raises(ResourceLimit, match="16777216"):     # 8**7 prefixes times 8
        enumerate_theta(UltraPseudometric.discrete(8))


def test_epsilon_relation_extremes():
    d = UltraPseudometric.discrete(2)
    theta = enumerate_theta(d)
    wide = epsilon_A_relation(theta, d, [0, 1], eps=Fraction(5))
    assert wide == Partition.indiscrete(len(theta))
    tight = epsilon_A_relation(theta, d, [0, 1], eps=HALF)
    assert tight == Partition.discrete(len(theta))
    with pytest.raises(ValueError):
        epsilon_A_relation(theta, d, [], eps=HALF)
    with pytest.raises(ValueError):
        epsilon_A_relation(theta, d, [0], eps=0)
    # maps and metric on carriers of 3 and 4 points, either way round, with
    # points of both carriers or of the larger one only
    on3, on4 = enumerate_theta(UltraPseudometric.discrete(3)), UltraPseudometric.discrete(4)
    for maps, metric in ((on3, on4), (enumerate_theta(on4), UltraPseudometric.discrete(3))):
        for points in ([0, 1], [3]):
            with pytest.raises(CarrierMismatch):
                epsilon_A_relation(maps, metric, points, 1)
            with pytest.raises(CarrierMismatch):
                epsilon_A_relates(maps, metric, points, 1, 0, 1)


@pytest.mark.parametrize("points,message", [
    ([True, 2], "evaluation point True is not an integer"),   # read as point 1 before
    ([1.0], "evaluation point 1.0 is not an integer"),        # a raw IndexError before
    ([np.float64(0)], "evaluation point np.float64\\(0.0\\) is not an integer"),
    ([Fraction(1)], "evaluation point Fraction\\(1, 1\\) is not an integer"),
    ([0, 3], "evaluation point outside the carrier"),
    ([-1], "evaluation point outside the carrier"),           # read as point 2 by relates
])
def test_epsilon_relation_refuses_values_that_are_no_points(points, message):
    d = UltraPseudometric.discrete(3)
    theta = enumerate_theta(d)
    with pytest.raises(ValueError, match=message):
        epsilon_A_relation(theta, d, points, 1)
    with pytest.raises(ValueError, match=message):
        epsilon_A_relates(theta, d, points, 1, 0, 1)
    # numpy integers are points
    assert epsilon_A_relation(theta, d, [np.int64(0), np.uint8(2)], 1) == \
        epsilon_A_relation(theta, d, [0, 2], 1)
    assert epsilon_A_relates(theta, d, [np.int64(1)], 1, 0, 0)


def test_epsilon_relation_saturation_instance():
    d = UltraPseudometric.from_rows([[0, HALF, 1], [HALF, 0, 1], [1, 1, 0]])
    theta = enumerate_theta(d)
    eps = Fraction(3, 4)
    for s0 in range(len(theta)):
        s0_map = theta.elements[s0]
        for points in ([0], [0, 1], [0, 1, 2]):
            moved = sorted({s0_map[a] for a in points})
            for i in range(len(theta)):
                for j in range(len(theta)):
                    if epsilon_A_relates(theta, d, moved, eps, i, j):
                        assert epsilon_A_relates(
                            theta, d, points, eps,
                            theta.compose(i, s0), theta.compose(j, s0),
                        )


def test_epsilon_relation_check_runs_in_row_blocks(monkeypatch):
    d = UltraPseudometric.from_rows([[0, HALF, 1], [HALF, 0, 1], [1, 1, 0]])
    theta = enumerate_theta(d)
    whole = epsilon_A_relation(theta, d, [0, 1], eps=Fraction(3, 4))
    monkeypatch.setattr(finmon, "CHUNK_ENTRIES", 5)     # one row of maps at a time
    assert epsilon_A_relation(theta, d, [0, 1], eps=Fraction(3, 4)) == whole
    for i in range(len(theta)):
        for j in range(len(theta)):
            assert whole.relates(i, j) == epsilon_A_relates(theta, d, [0, 1], Fraction(3, 4), i, j)


def test_epsilon_relation_rejects_a_keying_that_disagrees(monkeypatch):
    d = UltraPseudometric.discrete(2)
    theta = enumerate_theta(d)
    real = ultra.epsilon_A_relates
    monkeypatch.setattr(ultra, "epsilon_A_relates", lambda *args: ~real(*args))
    with pytest.raises(AssertionError, match="not an equivalence"):
        epsilon_A_relation(theta, d, [0], eps=HALF)


def test_producers_pass_the_public_validators():
    """Values built by the private unchecked constructors are valid."""
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 7)
        d = d_from_chain(random_chain(rng, n, depth=rng.randint(0, 4)))
        assert UltraPseudometric(d.levels, d.rank_matrix()) == d
        assert UltraPseudometric.from_rows(d.dist) == d
        p = Partition.from_class_ids(rng.randrange(3) for _ in range(n))
        assert Partition(carrier_size=p.carrier_size, class_id=p.class_id) == p
        space = free_space(d)
        u = vector(space, rng.sample(range(n), rng.randint(0, n)))
        w = vector(space, rng.sample(range(n), rng.randint(0, n)))
        total = u.add(w)
        assert FreeVector(space=total.space, support=total.support) == total
        assert total == vector(space, [*u.support, *w.support])
    # no chain metric on an empty carrier, as the public constructors refuse one
    with pytest.raises(ValueError, match="at least one point"):
        d_from_chain(MonotoneChain(carrier_size=0, chain=()))
    with pytest.raises(ValueError, match="at least one point"):
        UltraPseudometric.from_rows([])
