import random
from fractions import Fraction

import pytest

from stonework.errors import NotLipschitz, ResourceLimit
from stonework.generators import random_ultrametric
from stonework.navector import (
    FreeVector,
    _best_matching,
    free_space,
    kantorovich_norm,
    kantorovich_norm_with_auxiliary,
    lipschitz_linear_extend,
    optimal_pairing,
    vector,
)
from stonework.ultra import UltraPseudometric, enumerate_theta

HALF = Fraction(1, 2)

TWO_LEVEL = UltraPseudometric.from_rows(
    [[0, HALF, 1], [HALF, 0, 1], [1, 1, 0]]
)


def test_free_space_points_the_zero_at_distance_one():
    space = free_space(TWO_LEVEL)
    assert space.carrier_size == 4
    for x in range(3):
        assert space.d(x, 3) == 1
    assert space.d(0, 1) == HALF


def test_free_space_truncates_at_one():
    wide = UltraPseudometric.from_rows([[0, 3], [3, 0]])
    space = free_space(wide)
    assert space.d(0, 1) == 1


def test_vector_guards():
    space = free_space(TWO_LEVEL)
    with pytest.raises(ValueError):
        vector(space, [3])  # the zero point is not a basis point
    close_pair = UltraPseudometric.from_rows([[0, HALF], [HALF, 0]])
    with pytest.raises(ValueError):
        FreeVector(space=close_pair, support=frozenset({0}))  # not pointed


def test_repeated_points_cancel_in_pairs():
    space = free_space(TWO_LEVEL)
    assert not vector(space, [0, 0]).support
    assert kantorovich_norm(vector(space, [0, 0])) == 0
    assert vector(space, [0, 1, 0]) == vector(space, [1])
    assert vector(space, [2, 2, 2]) == vector(space, [2])


def test_norm_zero_singleton_and_pair():
    space = free_space(TWO_LEVEL)
    assert kantorovich_norm(vector(space, [])) == 0
    assert kantorovich_norm(vector(space, [0])) == 1
    assert kantorovich_norm(vector(space, [0, 1])) == HALF
    assert kantorovich_norm(vector(space, [0, 2])) == 1
    # pairing the two points beats sending each to the zero point
    norm, pairing = optimal_pairing(vector(space, [0, 1]))
    assert norm == HALF and pairing == [(0, 1)]


def test_norm_odd_support_pads_with_zero_point():
    space = free_space(TWO_LEVEL)
    norm, pairing = optimal_pairing(vector(space, [0, 1, 2]))
    assert norm == 1
    flattened = {p for pair in pairing for p in pair}
    assert flattened == {0, 1, 2, 3}  # the zero point participates


def test_auxiliary_oracle_agrees():
    rng = random.Random(5)
    for _ in range(15):
        base = random_ultrametric(rng, rng.randint(1, 4))
        space = free_space(base)
        n = space.carrier_size - 1
        for mask in range(1 << n):
            support = [x for x in range(n) if mask >> x & 1]
            v = vector(space, support)
            assert kantorovich_norm(v) == kantorovich_norm_with_auxiliary(v)


def test_ultranorm_max_law_small():
    space = free_space(TWO_LEVEL)
    supports = [frozenset(s) for s in ([], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2])]
    norm = {s: kantorovich_norm(FreeVector(space=space, support=s)) for s in supports}
    for a in supports:
        for b in supports:
            assert norm[a ^ b] <= max(norm[a], norm[b])


def test_extension_identity_constant_and_guards():
    space = free_space(TWO_LEVEL)
    v = vector(space, [0, 1])
    assert lipschitz_linear_extend((0, 1, 2), v) == v
    collapsed = lipschitz_linear_extend((2, 2, 2), v)
    assert not collapsed.support
    assert kantorovich_norm(collapsed) == 0
    with pytest.raises(ValueError):
        lipschitz_linear_extend((0, 1), v)
    with pytest.raises(ValueError):
        lipschitz_linear_extend((0, 1, 3), v)


@pytest.mark.parametrize("f", [(0.7, 1.2, 2), (True, False, 2), (0.0, 1, 2)])
def test_extension_takes_only_integer_base_points(f):
    # int() would read (0.7, 1.2, 2) as (0, 1, 2) and extend v along it
    v = vector(free_space(TWO_LEVEL), [0, 1])
    with pytest.raises(ValueError, match="map must send base points to base points"):
        lipschitz_linear_extend(f, v)


def test_extension_rejects_expanding_maps():
    space = free_space(TWO_LEVEL)
    v = vector(space, [0])
    # sending the close pair {0,1} onto the far pair {0,2} expands
    with pytest.raises(NotLipschitz):
        lipschitz_linear_extend((0, 2, 1), v)


def test_extension_contracts_norm_exhaustively():
    space = free_space(TWO_LEVEL)
    theta = enumerate_theta(TWO_LEVEL)
    for f in theta.elements:
        for mask in range(8):
            support = [x for x in range(3) if mask >> x & 1]
            v = vector(space, support)
            image = lipschitz_linear_extend(f, v)
            assert kantorovich_norm(image) <= kantorovich_norm(v)


def test_extension_respects_composition():
    space = free_space(TWO_LEVEL)
    theta = enumerate_theta(TWO_LEVEL)
    v = vector(space, [0, 2])
    for f in theta.elements:
        for g in theta.elements:
            fg = tuple(f[g[x]] for x in range(3))
            assert lipschitz_linear_extend(fg, v) == lipschitz_linear_extend(
                f, lipschitz_linear_extend(g, v)
            )


def test_support_resource_limit():
    for n in (9, 16):
        v = vector(free_space(UltraPseudometric.discrete(n)), range(n))
        assert kantorovich_norm(v) == 1
        with pytest.raises(ResourceLimit):
            kantorovich_norm_with_auxiliary(v)


def _search(v):
    """The matching search on the padded support, as the closed form pads it."""
    points = sorted(v.support)
    if len(points) % 2:
        points.append(v.zero_point)
    return _best_matching(v.space, points) if points else (0, [])


def test_closed_form_matches_the_search():
    rng = random.Random(11)
    for trial in range(600):
        n = rng.randint(1, 8)
        base = random_ultrametric(rng, n)
        if trial % 2:
            # a pseudometric with zero distances: pulled back along a random map
            f = [rng.randrange(n) for _ in range(n)]
            base = UltraPseudometric.from_rows(
                [[base.d(f[x], f[y]) for y in range(n)] for x in range(n)])
        space = free_space(base)
        for _ in range(6):
            v = vector(space, [x for x in range(n) if rng.random() < 0.5])
            assert optimal_pairing(v) == _search(v)


def _all_matchings(points):
    """Every perfect matching of an even-length list, unpruned, first point first."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i, partner in enumerate(rest):
        for tail in _all_matchings(rest[:i] + rest[i + 1:]):
            yield [(first, partner)] + tail


def _reference(space, points):
    """The first matching of least maximal distance, compared as Fractions."""
    best = None
    for pairs in _all_matchings(points):
        worst = max((space.d(a, b) for a, b in pairs), default=Fraction(0))
        if best is None or worst < best[0]:
            best = worst, pairs
    return best


def _random_space(rng, n, pullback):
    base = random_ultrametric(rng, n)
    if pullback:
        # a pseudometric with zero distances: pulled back along a random map
        f = [rng.randrange(n) for _ in range(n)]
        base = UltraPseudometric.from_rows(
            [[base.d(f[x], f[y]) for y in range(n)] for x in range(n)])
    return free_space(base)


def test_pruned_search_is_the_first_minimal_matching():
    rng = random.Random(23)
    for trial in range(150):
        n = rng.randint(1, 8)
        space = _random_space(rng, n, trial % 2)
        points = sorted(rng.sample(range(n), rng.randint(0, n)))
        if len(points) % 2:
            points.append(n)            # padded with the zero point
        assert _best_matching(space, points) == _reference(space, points)
        for z in range(n + 1):
            doubled = points + [z, z]
            norm, pairs = _reference(space, doubled)
            assert _best_matching(space, doubled) == (norm, pairs)
            # a bound admits only strictly shorter pairings
            assert _best_matching(space, doubled, below=norm) is None
            for bound in space.levels:
                if norm < bound:
                    assert _best_matching(space, doubled, below=bound) == (norm, pairs)


def test_auxiliary_norm_is_the_least_over_every_doubled_point():
    rng = random.Random(29)
    for trial in range(120):
        n = rng.randint(1, 8)
        space = _random_space(rng, n, trial % 2)
        v = vector(space, rng.sample(range(n), rng.randint(0, n)))
        points = sorted(v.support)
        if len(points) % 2:
            points.append(v.zero_point)
        expected = min(_reference(space, pts)[0]
                       for pts in [points, *(points + [z, z] for z in range(n + 1))])
        assert kantorovich_norm_with_auxiliary(v) == expected
