import random
from itertools import product

import numpy as np
import pytest

from stonework.errors import AssociativityViolation, IdentityViolation
from stonework.finmon import validate_action, validate_monoid
from stonework.generators import (
    congruence_closure,
    enumerate_actions,
    enumerate_small_monoids,
    randbelow,
    random_chain,
    random_cover,
    random_one_sided_metric,
    random_partition,
    random_transformation_monoid,
    random_ultrametric,
    sample_mask,
)
from stonework.ultra import (
    Partition,
    UltraPseudometric,
    check_left_congruence,
    nonexpansive_counterexample,
)
from stonework.unif import partition_lattice


def test_generators_are_deterministic_for_a_seed():
    a = random_ultrametric(random.Random("s"), 4)
    b = random_ultrametric(random.Random("s"), 4)
    assert a == b
    c1 = random_cover(random.Random(1), 5)
    c2 = random_cover(random.Random(1), 5)
    assert c1 == c2


def test_randbelow_draws_what_randrange_and_randint_draw():
    for seed in range(300):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in range(1, 70):
            assert randbelow(ours, n) == theirs.randrange(n)
            a, b = n - 35, 2 * n - 35
            assert a + randbelow(ours, b - a + 1) == theirs.randint(a, b)
        assert ours.getstate() == theirs.getstate()


def test_randbelow_refuses_an_empty_range():
    rng = random.Random(0)
    state = rng.getstate()
    for n in (0, -1):
        with pytest.raises(ValueError):
            randbelow(rng, n)
    assert rng.getstate() == state
    for generator in (random_partition, random_cover):
        with pytest.raises(ValueError):
            generator(random.Random(0), 0)


def test_sample_mask_draws_the_points_sample_draws():
    for seed in range(300):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in range(22):
            for k in range(n + 1):
                assert sample_mask(ours, n, k) == sum(1 << x for x in theirs.sample(range(n), k))
        assert ours.getstate() == theirs.getstate()
    rng = random.Random(0)
    state = rng.getstate()
    for n, k in ((3, 4), (3, -1)):
        with pytest.raises(ValueError):
            sample_mask(rng, n, k)
    assert rng.getstate() == state


def test_random_metrics_are_valid():
    rng = random.Random(2)
    for _ in range(20):
        d = random_ultrametric(rng, rng.randint(1, 5))
        UltraPseudometric.from_rows(d.dist)  # revalidates everything


def test_random_chain_is_nested():
    rng = random.Random(8)
    for _ in range(10):
        chain = random_chain(rng, 5, depth=4)
        for i in range(1, len(chain.chain)):
            assert chain.chain[i].refines(chain.chain[i - 1])


def test_congruence_closure_is_a_congruence():
    rng = random.Random(6)
    for _ in range(10):
        m, _ = random_transformation_monoid(rng, 3, max_size=6)
        p = random_partition(rng, m.size)
        left = congruence_closure(m, p, "left")
        assert check_left_congruence(m, left)
        right = congruence_closure(m, p, "right")
        for x in range(m.size):
            for y in range(m.size):
                if right.relates(x, y):
                    for s in range(m.size):
                        assert right.relates(m.mul(x, s), m.mul(y, s))


def congruence_closure_by_relation_matrix(m, p: Partition, side: str) -> Partition:
    """The reference: the relation matrix of p, grown by the translated
    pairs and every two-step chain of them until it is a fixed point."""
    moved = m.values if side == "right" else m.values.T
    ids = np.asarray(p.class_id)
    rel = ids[:, None] == ids
    while True:
        xs, ys = np.nonzero(rel)
        grown = rel.copy()
        grown[moved[xs], moved[ys]] = True
        grown = grown @ grown
        if np.array_equal(grown, rel):
            return Partition.from_class_ids(rel.argmax(axis=1).tolist())
        rel = grown


def test_congruence_closure_matches_the_relation_matrix_on_every_small_monoid():
    for size in (1, 2, 3):
        for m in enumerate_small_monoids(size):
            for p in partition_lattice(size).partitions:
                for side in ("left", "right"):
                    assert congruence_closure(m, p, side) == \
                        congruence_closure_by_relation_matrix(m, p, side)


def test_congruence_closure_matches_the_relation_matrix_on_random_monoids():
    rng = random.Random(24)
    sizes = set()
    for _ in range(200):
        m, _ = random_transformation_monoid(rng, rng.randint(2, 4), max_size=6)
        sizes.add(m.size)
        p = random_partition(rng, m.size)
        for side in ("left", "right"):
            assert congruence_closure(m, p, side) == \
                congruence_closure_by_relation_matrix(m, p, side)
    assert max(sizes) == 6


def test_congruence_closure_names_a_bad_side():
    m = enumerate_small_monoids(2)[0]
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        congruence_closure(m, Partition.discrete(2), "both")


def test_one_sided_metrics_are_one_sided():
    rng = random.Random(7)
    for _ in range(15):
        m, _ = random_transformation_monoid(rng, rng.randint(2, 4), max_size=6)
        for side in ("right", "left"):
            d = random_one_sided_metric(rng, m, side)
            assert nonexpansive_counterexample(m, d, side) is None


def test_transformation_monoids_fit_the_bound():
    rng = random.Random(10)
    for _ in range(20):
        m, maps = random_transformation_monoid(rng, rng.randint(2, 4), max_size=6)
        assert m.size <= 6
        assert maps.verify_closure()


def test_enumerate_small_monoids_and_actions():
    monoids = enumerate_small_monoids(2)
    # tables over {identity, a} are pinned by a*a, which can be anything
    assert len(monoids) == 2
    threes = enumerate_small_monoids(3)
    assert all(m.identity == 0 for m in threes)
    assert len(threes) > 5
    m = threes[0]
    actions = enumerate_actions(m, 2)
    assert actions  # the trivial action always exists
    for action in actions:
        for s in range(m.size):
            for t in range(m.size):
                st = m.mul(s, t)
                for x in range(2):
                    assert action.act[st][x] == action.act[s][action.act[t][x]]


def monoids_by_filter(size):
    """Every table of the given size with identity 0, one candidate at a time."""
    free = [(x, y) for x in range(1, size) for y in range(1, size)]
    out = []
    for values in product(range(size), repeat=len(free)):
        table = [[0] * size for _ in range(size)]
        for x in range(size):
            table[0][x] = x
            table[x][0] = x
        for (x, y), v in zip(free, values):
            table[x][y] = v
        try:
            out.append(validate_monoid(table, 0))
        except (AssociativityViolation, IdentityViolation):
            continue
    return out


def test_enumerate_small_monoids_matches_the_per_table_filter():
    for size in (1, 2, 3):
        got, expected = enumerate_small_monoids(size), monoids_by_filter(size)
        assert [m.values.tolist() for m in got] == [m.values.tolist() for m in expected]
        for m, ref in zip(got, expected):
            assert m == ref and m.identity == ref.identity == 0
            assert m.values.dtype == ref.values.dtype and m.values.flags.c_contiguous
            assert not m.values.flags.writeable
    # 156 labeled monoids of order 4 with identity 0, in ascending order
    fours = enumerate_small_monoids(4)
    assert len(fours) == 156
    assert [validate_monoid(m.values, 0) for m in fours] == fours
    tables = [m.values.ravel().tolist() for m in fours]
    assert tables == sorted(tables)
    with pytest.raises(ValueError, match="empty multiplication table"):
        enumerate_small_monoids(0)


def actions_by_loop(m, carrier):
    """Every action of m on the carrier, one candidate at a time."""
    ident = tuple(range(carrier))
    maps = list(product(range(carrier), repeat=carrier))
    non_identity = [s for s in range(m.size) if s != m.identity]
    out = []
    for choice in product(maps, repeat=len(non_identity)):
        act = [ident] * m.size
        for s, f in zip(non_identity, choice):
            act[s] = f
        if all(act[s][act[t][x]] == act[m.table[s][t]][x]
               for s in range(m.size) for t in range(m.size) for x in range(carrier)):
            out.append(validate_action(m, carrier, act))
    return out


def test_enumerated_actions_keep_their_block_and_find_generators_on_use():
    m = enumerate_small_monoids(3)[-1]
    actions = enumerate_actions(m, 3)
    assert len(actions) > 1
    # each action adopts its rows of one read-only block, not a copy
    assert all(not a.values.flags.writeable for a in actions)
    assert np.shares_memory(actions[0].values.base, actions[-1].values)
    assert not any("generating_set" in a.__dict__ for a in actions)


def test_enumerate_actions_matches_the_candidate_loop():
    for size in (1, 2, 3):
        for m in enumerate_small_monoids(size):
            for carrier in (0, 1, 2, 3):
                assert enumerate_actions(m, carrier) == actions_by_loop(m, carrier)
    # 199 actions of the 11 three-element monoids on 3 points
    assert sum(len(enumerate_actions(m, 3)) for m in enumerate_small_monoids(3)) == 199
