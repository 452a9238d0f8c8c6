import random
import re
import tracemalloc

import numpy as np
import pytest

from stonework import finmon
from stonework.boolring import (
    additive_monoid,
    enumerate_group_endos,
    enumerate_ring_endos,
)
from stonework.contrast import build_contrast, rna_certificate
from stonework.errors import AssociativityViolation, IdentityViolation, ResourceLimit
from stonework.finmon import (
    FiniteMonoid,
    MonoidAction,
    SelfMapMonoid,
    cayley_embed,
    digit_weights,
    full_selfmap_monoid,
    generated_selfmap_monoid,
    is_submonoid,
    monoid_from_json,
    validate_action,
    validate_monoid,
)
from stonework.generators import enumerate_actions, random_ultrametric
from stonework.ultra import UltraPseudometric, enumerate_theta, nonexpansive_counterexample
from stonework.unif import partition_lattice, saturate, saturate_worklist

Z2 = [[0, 1], [1, 0]]
SEMILATTICE = [[0, 1], [1, 1]]


def test_validate_trivial_monoid():
    m = validate_monoid([[0]], 0)
    assert m.size == 1 and m.identity == 0


def test_validate_z2_and_semilattice():
    assert validate_monoid(Z2, 0).size == 2
    # exhaustive associativity over all 8 triples
    m = validate_monoid(SEMILATTICE, 0)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                assert m.mul(m.mul(x, y), z) == m.mul(x, m.mul(y, z))


def test_identity_violation():
    with pytest.raises(IdentityViolation):
        validate_monoid([[0, 0], [1, 0]], 0)


def test_associativity_violation_carries_triple():
    with pytest.raises(AssociativityViolation) as exc:
        validate_monoid([[0, 1, 2], [1, 2, 1], [2, 2, 2]], 0)
    x, y, z = exc.value.triple
    m = [[0, 1, 2], [1, 2, 1], [2, 2, 2]]
    assert m[m[x][y]][z] != m[x][m[y][z]]


def test_table_shape_and_range_errors():
    with pytest.raises(ValueError):
        validate_monoid([[0, 1]], 0)
    with pytest.raises(ValueError):
        validate_monoid([[0, 2], [2, 0]], 0)
    with pytest.raises(ValueError):
        validate_monoid(Z2, 5)


def test_full_selfmap_counts():
    assert len(full_selfmap_monoid(1)) == 1
    assert len(full_selfmap_monoid(2)) == 4
    theta = full_selfmap_monoid(3)
    assert len(theta) == 27
    assert theta.verify_closure()
    assert tuple(range(3)) in theta.elements


def test_full_selfmap_resource_limit(monkeypatch):
    with pytest.raises(ResourceLimit):
        full_selfmap_monoid(10)
    monkeypatch.setenv("STONEWORK_MAX_ENUM", "27")
    assert len(full_selfmap_monoid(3)) == 27
    monkeypatch.setenv("STONEWORK_MAX_ENUM", "26")
    with pytest.raises(ResourceLimit):
        full_selfmap_monoid(3)


def test_cayley_trivial_and_z2():
    m = validate_monoid([[0]], 0)
    maps, to_map = cayley_embed(m)
    assert maps.elements == ((0,),)
    m = validate_monoid(Z2, 0)
    maps, to_map = cayley_embed(m)
    assert set(maps.elements) == {(0, 1), (1, 0)}
    assert maps.elements[to_map[0]] == (0, 1)
    assert maps.elements[to_map[1]] == (1, 0)


def test_cayley_semilattice_homomorphism():
    m = validate_monoid(SEMILATTICE, 0)
    maps, to_map = cayley_embed(m)
    assert len(set(to_map)) == m.size
    for s in range(m.size):
        for t in range(m.size):
            assert to_map[m.mul(s, t)] == maps.compose(to_map[s], to_map[t])


@pytest.mark.parametrize("builder", [
    lambda: full_selfmap_monoid(3).to_monoid(),          # 27 elements
    lambda: validate_monoid(SEMILATTICE, 0),
    lambda: validate_monoid(Z2, 0),
])
def test_cayley_injective_homomorphism_small_monoids(builder):
    m = builder()
    assert m.size <= 30
    maps, to_map = cayley_embed(m)
    assert len(set(to_map)) == m.size
    for s in range(m.size):
        for t in range(m.size):
            assert to_map[m.mul(s, t)] == maps.compose(to_map[s], to_map[t])


def test_cayley_lands_in_full_selfmap_monoid():
    m = validate_monoid(SEMILATTICE, 0)
    maps, _ = cayley_embed(m)
    assert set(maps.elements) <= set(full_selfmap_monoid(m.size).elements)


def test_is_submonoid():
    m = validate_monoid(SEMILATTICE, 0)
    assert is_submonoid(m, {0, 1})
    assert is_submonoid(m, {0})
    assert not is_submonoid(m, {1})  # idempotent but misses the identity
    with pytest.raises(ValueError):
        is_submonoid(m, {0, 5})


def test_adjoin_identity():
    # a left-zero semigroup has no identity; adjoining one as a new last
    # element fixes that
    semigroup = [[0, 0], [1, 1]]
    with pytest.raises(IdentityViolation):
        validate_monoid(semigroup, 0)
    m = validate_monoid([row + [i] for i, row in enumerate(semigroup)] + [[0, 1, 2]], 2)
    assert m.size == 3 and m.identity == 2
    assert m.mul(0, 1) == 0 and m.mul(2, 1) == 1


def test_selfmap_monoid_constructor_guards():
    with pytest.raises(ValueError):
        SelfMapMonoid([(0, 0)])  # identity missing
    with pytest.raises(ValueError):
        SelfMapMonoid([(1, 0), (0, 1)])  # bad order
    with pytest.raises(ValueError):
        SelfMapMonoid([(0, 1), (0, 1)])  # repeated map
    with pytest.raises(ValueError):
        SelfMapMonoid([(0, 1), (0, 2)])  # value off the carrier
    with pytest.raises(ValueError):
        SelfMapMonoid([0, 1])  # one map, not a (k, n) array
    with pytest.raises(ValueError):
        SelfMapMonoid([(0, 1), (0,)])  # ragged rows
    with pytest.raises(ValueError):
        SelfMapMonoid(np.zeros((1, 0), dtype=int))  # no carrier points
    # on 256 points a -1 narrowed to uint8 would wrap to 255, a point of the
    # carrier, and the two rows would then pass as a monoid
    shifted = np.arange(256)
    shifted[0] = -1
    with pytest.raises(ValueError, match="outside the carrier"):
        SelfMapMonoid([np.arange(256), shifted])


def test_monoid_json_round_trip():
    m = validate_monoid(SEMILATTICE, 0)
    assert monoid_from_json(m.to_json()) == m


def test_action_validation():
    m = validate_monoid(SEMILATTICE, 0)
    # the monoid acting on itself by left translations
    act = validate_action(m, m.size, m.values)
    assert act.act == m.table
    again = validate_action(m, m.size, m.table)
    assert again == act == MonoidAction(m, m.values)
    with pytest.raises(ValueError):
        validate_action(m, 2, [[0, 1], [0, 0]][::-1])  # identity must act as identity
    # the self-action of a monoid always validates; that of a table which
    # is not associative breaks the action law
    full = full_selfmap_monoid(3).to_monoid()
    assert validate_action(full, full.size, full.values).act == full.table
    broken = FiniteMonoid(np.array([[0, 1, 2], [1, 2, 1], [2, 2, 2]], dtype=np.uint8), 0)
    with pytest.raises(ValueError, match="action law fails"):
        validate_action(broken, 3, broken.values)


def test_cayley_of_contrast_reproduces_the_table():
    # carrier 37 needs several key blocks: a base-37 key of 37 digits
    # does not fit one machine word
    m = build_contrast(5).monoid
    maps, to_map = cayley_embed(m)
    assert maps.carrier_size == 37 and len(set(to_map)) == m.size
    table = maps.to_monoid().table
    for s in range(m.size):
        for t in range(m.size):
            assert table[to_map[s]][to_map[t]] == to_map[m.table[s][t]]


def test_stored_tables_are_read_only_and_narrowed():
    m = validate_monoid(SEMILATTICE, 0)
    action = validate_action(validate_monoid([[0]], 0), 300, [list(range(300))])
    for values, dtype in ((m.values, np.uint8), (full_selfmap_monoid(4).to_monoid().values, np.uint8),
                          (FiniteMonoid(m.values.T, m.identity).values, np.uint8),
                          (action.values, np.uint16)):
        assert values.dtype == dtype and values.flags.c_contiguous
        with pytest.raises(ValueError):
            values[0, 0] = 1
    # the constructors check shape and dtype only, and keep a copy
    own = np.array(SEMILATTICE, dtype=np.uint8)
    kept = FiniteMonoid(own, 0)
    own[1, 1] = 0
    assert kept == m
    # so is a read-only view of a writeable array, which its base could change
    view = own.view()
    view.flags.writeable = False
    assert not np.shares_memory(FiniteMonoid(view, 0).values, own)
    # and a read-only array that owns its data, which its owner can make
    # writeable again
    own = np.array(SEMILATTICE, dtype=np.uint8)
    own.flags.writeable = False
    kept = FiniteMonoid(own, 0)
    acting = MonoidAction(m, own)
    own.flags.writeable = True
    own[:] = 0
    assert kept == m and hash(kept) == hash(m) and kept.table == m.table
    assert acting.values.tolist() == SEMILATTICE
    for bad in (SEMILATTICE, np.array(SEMILATTICE), np.zeros((300, 300), dtype=np.uint8),
                np.zeros((2, 3), dtype=np.uint8), np.zeros(2, dtype=np.uint8)):
        with pytest.raises(ValueError):
            FiniteMonoid(bad, 0)
    assert FiniteMonoid(np.zeros((300, 300), dtype=np.uint16), 0).size == 300
    with pytest.raises(ValueError):
        MonoidAction(m, [[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        MonoidAction(m, np.zeros((3, 2), dtype=np.uint8))     # one row per element


def test_a_negative_entry_is_refused_before_narrowing():
    # on 256 elements or points a -1 narrowed to uint8 would wrap to 255,
    # and each table below would then pass
    cyclic = [[(x + y) % 256 for y in range(256)] for x in range(256)]
    cyclic[0][255] = -1
    with pytest.raises(ValueError, match="table entry out of range"):
        validate_monoid(cyclic, 0)
    with pytest.raises(ValueError, match="action entry out of range"):
        validate_action(validate_monoid([[0]], 0), 256, [[*range(255), -1]])


def test_equality_and_hashing_go_by_value():
    m = validate_monoid(Z2, 0)
    same = FiniteMonoid(np.array(Z2, dtype=np.uint8), 0)
    assert m == same and hash(m) == hash(same) and len({m, same}) == 1
    assert m != FiniteMonoid(np.array(Z2, dtype=np.uint8), 1)
    assert m != validate_monoid(SEMILATTICE, 0)
    act = validate_action(m, 2, [[0, 1], [1, 0]])
    again = validate_action(same, 2, ((0, 1), (1, 0)))
    assert act == again and hash(act) == hash(again)
    assert act != validate_action(m, 2, [[0, 1], [0, 1]])


def test_the_table_views_are_built_only_on_demand():
    m = full_selfmap_monoid(3).to_monoid()
    d = UltraPseudometric.discrete(m.size)
    assert is_submonoid(m, range(m.size)) and FiniteMonoid(m.values.T, m.identity) != m
    assert nonexpansive_counterexample(m, d, "left") is None
    maps, to_map = cayley_embed(m)
    assert len(maps) == m.size and len(set(to_map)) == m.size
    assert validate_action(m, m.size, m.values).monoid is m
    assert "table" not in m.__dict__
    assert m.table == tuple(map(tuple, m.values.tolist())) and "table" in m.__dict__

    small = validate_monoid(SEMILATTICE, 0)
    actions = enumerate_actions(small, 3)
    lattice = partition_lattice(3)
    for action in actions:
        saturate(action, lattice.partitions[1:2])
    assert not any("act" in a.__dict__ or "table" in a.monoid.__dict__ for a in actions)
    saturate_worklist(actions[-1], lattice.partitions[1:2])
    assert actions[-1].act == tuple(map(tuple, actions[-1].values.tolist()))


def test_validate_monoid_on_256_elements_stays_small():
    m = full_selfmap_monoid(4).to_monoid()
    table = m.table
    tracemalloc.start()
    try:
        assert validate_monoid(table, m.identity) == m
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20       # 273 MiB when the triples were compared as intp


def test_all_triples_laws_stay_small():
    m = full_selfmap_monoid(4).to_monoid()
    instance = build_contrast(7)
    # 48.1, 21.7 and 21.2 MiB when each law was one whole (n, n, n) array
    for run in (lambda: validate_monoid(m.values, m.identity),
                lambda: build_contrast(7),
                lambda: rna_certificate(instance)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def _first_true_by_cube(bad):
    """The whole-array reference: the first True index in C order."""
    return tuple(np.argwhere(bad)[0].tolist()) if bad.any() else None


def test_first_true_scans_row_blocks_in_order(monkeypatch):
    rng = np.random.default_rng(5)
    monkeypatch.setattr(finmon, "CHUNK_ENTRIES", 3 * 4 * 5)    # blocks of 3 rows of (4, 5)
    built = []

    def rows_of(bad):
        def rows(start, stop):
            built.append((start, stop))
            return bad[start:stop]
        return rows

    assert finmon.first_true((0, 4, 5), rows_of(np.ones((0, 4, 5), dtype=bool))) is None
    assert finmon.first_true((10, 0), rows_of(np.ones((10, 0), dtype=bool))) is None
    built.clear()
    assert finmon.first_true((10, 4, 5), rows_of(np.zeros((10, 4, 5), dtype=bool))) is None
    assert built == [(0, 3), (3, 6), (6, 9), (9, 10)]
    # a defect on the first and on the last row of a block, and on the last row
    for row in (0, 2, 3, 5, 6, 8, 9):
        bad = np.zeros((10, 4, 5), dtype=bool)
        bad[row, rng.integers(4), rng.integers(5)] = True
        bad[row + 1:] = rng.random((9 - row, 4, 5)) < 0.3      # later defects must not win
        assert finmon.first_true(bad.shape, rows_of(bad)) == _first_true_by_cube(bad)
    for _ in range(20):
        bad = rng.random((10, 4, 5)) < 0.01
        assert finmon.first_true(bad.shape, rows_of(bad)) == _first_true_by_cube(bad)


# (first defective row, rows per block): the row is the first or the last
# row of a block past the first, and every instance spans 3 blocks or more
PLACEMENTS = [(None, 1), (0, 1), (1, 1), (2, 2), (3, 2), (3, 3), (5, 3)]


def _relabeled(m: FiniteMonoid, table: np.ndarray, perm: np.ndarray):
    """m with table and element x renamed perm[x]."""
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out, int(perm[m.identity])


def _spoiled_rows(bad: np.ndarray) -> np.ndarray:
    return np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1))


@pytest.mark.parametrize("row, step", PLACEMENTS)
def test_blocked_associativity_matches_the_whole_cube(monkeypatch, relabeling, row, step):
    rng = np.random.default_rng(row)
    # contrast k = 7 (135 elements) is checked on generators first, at the
    # default CHUNK_ENTRIES and at these; full3 too in blocks of one row
    for m in (full_selfmap_monoid(3).to_monoid(), build_contrast(3).monoid,
              build_contrast(7).monoid):
        n, others = m.size, np.delete(np.arange(m.size), m.identity)
        while True:     # replace one product off the identity's row and column
            table = m.values.copy()
            if row is None:
                perm = rng.permutation(n)
                break
            x, y = rng.choice(others, 2)
            table[x, y] = (table[x, y] + rng.integers(1, n)) % n
            spoiled = _spoiled_rows(table[table, :] != table[:, table])
            if len(spoiled) and n - len(spoiled) >= row:
                perm = relabeling(spoiled, n, row, rng)
                break
        table, identity = _relabeled(m, table, perm)
        # the whole-cube form: (x*y)*z against x*(y*z) on all triples at once
        expected = _first_true_by_cube(table[table, :] != table[:, table])
        assert (expected[0] if expected else None) == row
        monkeypatch.setattr(finmon, "CHUNK_ENTRIES", step * n * n)
        try:
            validate_monoid(table, identity)
            assert expected is None
        except AssociativityViolation as exc:
            assert exc.triple == expected


@pytest.mark.parametrize("row, step", PLACEMENTS)
def test_blocked_action_law_matches_the_whole_cube(monkeypatch, relabeling, row, step):
    rng = np.random.default_rng(row)
    full, contrast, large = (full_selfmap_monoid(3), build_contrast(3).monoid,
                             build_contrast(7).monoid)
    for m, act in ((full.to_monoid(), full.values), (contrast, contrast.values),
                   (large, large.values)):
        k, n = act.shape
        while True:     # replace one image off the identity's row
            values = act.copy()
            if row is None:
                perm = rng.permutation(k)
                break
            values[rng.choice(np.delete(np.arange(k), m.identity)), rng.integers(n)] = rng.integers(n)
            spoiled = _spoiled_rows(values[m.values, :] != values[:, values])
            if len(spoiled) and k - len(spoiled) >= row:
                perm = relabeling(spoiled, k, row, rng)
                break
        relabeled = FiniteMonoid(*_relabeled(m, m.values, perm))
        values[perm] = values.copy()
        # the whole-cube form: act[s*t][x] against act[s][act[t][x]]
        expected = _first_true_by_cube(values[relabeled.values, :] != values[:, values])
        assert (expected[0] if expected else None) == row
        monkeypatch.setattr(finmon, "CHUNK_ENTRIES", step * k * n)
        try:
            validate_action(relabeled, n, values)
            assert expected is None
        except ValueError as exc:
            assert str(exc) == "action law fails at (s, t, x) = ({}, {}, {})".format(*expected)


_FULL_SCAN = finmon._action_defect


def _counted_full_scans(monkeypatch, fail: bool) -> list:
    """Replace finmon._action_defect, the scan of all triples, by one that
    records each call and then fails or scans."""
    calls = []

    def counted(table, act):
        calls.append(act.shape)
        assert not fail, "the scan of all triples ran"
        return _FULL_SCAN(table, act)
    monkeypatch.setattr(finmon, "_action_defect", counted)
    return calls


def test_large_laws_run_on_generators_and_scan_only_to_name_a_defect(monkeypatch):
    m = full_selfmap_monoid(4).to_monoid()
    assert len(finmon._generating_set(m.values, m.identity, m.size)) == 4
    _counted_full_scans(monkeypatch, fail=True)
    assert validate_monoid(m.values, m.identity) == m
    assert validate_action(m, m.size, m.values).values.shape == (256, 256)

    # the first defect, in scan order, of a spoiled table and of its self-action
    spoiled = m.values.copy()
    spoiled[200, 100] = (int(spoiled[200, 100]) + 1) % m.size
    expected = _first_true_by_cube(spoiled[spoiled, :] != spoiled[:, spoiled])
    calls = _counted_full_scans(monkeypatch, fail=False)
    with pytest.raises(AssociativityViolation) as exc:
        validate_monoid(spoiled, m.identity)
    assert exc.value.triple == expected and len(calls) == 1
    calls.clear()
    with pytest.raises(ValueError, match=r"action law fails at \(s, t, x\) = \({}, {}, {}\)".format(
            *expected)):
        validate_action(FiniteMonoid(spoiled, m.identity), m.size, spoiled)
    assert len(calls) == 1


def test_the_action_law_of_a_table_that_is_no_monoid_is_scanned():
    # the left translations of a monoid, as an action of its table spoiled
    # on one product off the generators, or on the identity's square: the
    # action law holds against every generator, so only the checks of the
    # table's own laws keep the generator path from accepting it
    full, contrast = full_selfmap_monoid(4).to_monoid(), build_contrast(7).monoid
    for m, (x, y), value in ((full, (200, 100), 0), (contrast, (127, 127), 0)):
        table = m.values.copy()
        table[x, y] = value
        expected = _first_true_by_cube(m.values[table, :] != m.values[:, m.values])
        with pytest.raises(ValueError) as exc:
            validate_action(FiniteMonoid(table, m.identity), m.size, m.values)
        assert str(exc.value) == "action law fails at (s, t, x) = ({}, {}, {})".format(*expected)


def test_laws_needing_every_element_as_a_generator_keep_their_verdicts(monkeypatch):
    # the identity and an 80-element left-zero band (z*y = z): a product
    # is its left factor, so the band is its own least generating set
    k = 81
    table = np.repeat(np.arange(k, dtype=np.uint8)[:, None], k, axis=1)
    table[0] = np.arange(k)
    # in blocks of k * k entries, 80 generators cost more than the full
    # scan of associativity, but not than that of an action on 2k points,
    # where the band acts by constant maps
    monkeypatch.setattr(finmon, "CHUNK_ENTRIES", k * k)
    assert finmon._generating_set(table, 0, k) is None
    assert len(finmon._generating_set(table, 0, 2 * k)) == k - 1
    m = validate_monoid(table, 0)
    act = np.repeat(np.arange(k, dtype=np.uint8)[:, None], 2 * k, axis=1)
    act[0] = np.arange(2 * k)
    assert validate_action(m, 2 * k, act).carrier_size == 2 * k

    spoiled = table.copy()
    spoiled[40, 30] = 50
    expected = _first_true_by_cube(spoiled[spoiled, :] != spoiled[:, spoiled])
    with pytest.raises(AssociativityViolation) as exc:
        validate_monoid(spoiled, 0)
    assert exc.value.triple == expected
    act[40, 100] = 7                    # no longer constant, so no longer a left zero
    expected = _first_true_by_cube(act[m.values, :] != act[:, act])
    with pytest.raises(ValueError) as exc:
        validate_action(m, 2 * k, act)
    assert str(exc.value) == "action law fails at (s, t, x) = ({}, {}, {})".format(*expected)


def test_validate_monoid_on_the_960_map_theta_stays_small(monkeypatch):
    m = _theta6().to_monoid()
    _counted_full_scans(monkeypatch, fail=True)     # seconds on all triples
    tracemalloc.start()
    try:
        assert validate_monoid(m.values, m.identity) == m
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20       # of which 1.8 MiB is the checked copy of the table


def test_blocked_action_law_on_no_points(monkeypatch):
    m = full_selfmap_monoid(3).to_monoid()
    monkeypatch.setattr(finmon, "CHUNK_ENTRIES", 1)
    assert validate_action(m, 0, np.zeros((m.size, 0), dtype=np.uint8)).carrier_size == 0


def _selfmap_cases():
    rng = random.Random(11)
    theta = enumerate_theta(random_ultrametric(rng, 4))
    return [
        full_selfmap_monoid(3),
        theta,
        cayley_embed(validate_monoid(SEMILATTICE, 0))[0],
        cayley_embed(build_contrast(3).monoid)[0],
    ]


@pytest.mark.parametrize("chunk", [None, 5])
def test_batched_compose_matches_scalar_compose(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(finmon, "CHUNK_ENTRIES", chunk)   # force the chunked path
    for maps in _selfmap_cases():
        k, n = len(maps), maps.carrier_size
        ids = np.arange(k)
        table = maps.compose(ids[:, None], ids)
        assert table.shape == (k, k)
        for i in range(k):
            for j in range(k):
                f, g = maps.elements[i], maps.elements[j]
                assert maps.compose(i, j) == table[i, j]
                assert maps.elements[table[i, j]] == tuple(f[g[x]] for x in range(n))
        assert np.array_equal(maps.compose(ids, ids[:, None]), table.T)
        assert np.array_equal(maps.compose(ids[::-1], 1), table[::-1, 1])
        assert maps.compose(np.int64(k - 1), np.intp(0)) == table[k - 1, 0]
        assert maps.to_monoid().table == tuple(map(tuple, table.tolist()))
        assert maps.verify_closure()


def test_non_closed_map_set_is_detected():
    maps = SelfMapMonoid([(0, 1, 2), (1, 2, 0)])
    assert not maps.verify_closure()
    with pytest.raises(KeyError):
        maps.compose(1, 1)          # (1,2,0) twice is (2,0,1), not listed
    with pytest.raises(KeyError):
        maps.compose(np.arange(2)[:, None], np.arange(2))
    # composing needs the whole set closed, even where the composite is listed
    for i, j in ((0, 1), (np.array([0]), np.array([1]))):
        with pytest.raises(KeyError):
            maps.compose(i, j)      # the identity after (1,2,0)
    with pytest.raises(KeyError):
        maps.to_monoid()


@pytest.mark.parametrize("chunk", [None, 1])
def test_a_composite_missing_after_the_first_row_block_is_caught(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(finmon, "CHUNK_ENTRIES", chunk)     # one row a block
    gone = (0, 0, 1)
    maps = SelfMapMonoid([f for f in full_selfmap_monoid(3).elements if f != gone])
    # row 0 is the constant 0 map, whose composites are all itself
    assert maps.elements[0] == (0, 0, 0)
    assert maps.composites() is None and not maps.verify_closure()
    with pytest.raises(KeyError) as exc:
        maps.compose(np.arange(3), 0)
    assert exc.value.args == (gone,)


def _dihedral_and_constants(n: int) -> SelfMapMonoid:
    """The 2n symmetries of an n-gon and the n constant maps, 3n maps
    closed under composition."""
    x = np.arange(n)
    rows = [(x + r) % n for r in range(n)] + [(r - x) % n for r in range(n)]
    rows += [np.full(n, c) for c in range(n)]
    return SelfMapMonoid(np.unique(rows, axis=0))


def _additive_8() -> SelfMapMonoid:
    """The 512 additive maps of the 8-point group (Z/2)**3."""
    endos = enumerate_group_endos(3)
    return additive_monoid([e.rows for e in endos], 3)[0]


def _ring_endos_16() -> SelfMapMonoid:
    """The 256 ring endomorphisms of the 16-element Boolean ring, as maps."""
    endos = enumerate_ring_endos(4)
    return additive_monoid([e.atom_images for e in endos], 4)[0]


# the level shapes of the lookup (see SelfMapMonoid._key_levels): builder and
# (addressed, checked) levels at the default CHUNK_ENTRIES
LEVEL_SHAPES = {
    # one table of all n**n keys
    "full-3": (lambda: full_selfmap_monoid(3), (1, 0)),
    "full-4": (lambda: full_selfmap_monoid(4), (1, 0)),
    # addressed levels, then checked ones
    "additive-8": (_additive_8, (1, 1)),
    "ring-endos-16": (_ring_endos_16, (2, 1)),
    "dihedral-16": (lambda: _dihedral_and_constants(16), (1, 1)),
    # many checked levels
    "dihedral-86": (lambda: _dihedral_and_constants(86), (1, 11)),
}


def _assert_composes_like_scalar_composition(maps: SelfMapMonoid, table: np.ndarray):
    """table[i, j] indexes map i after map j, checked one row of f at a time."""
    values = maps.values
    assert table.shape == (len(maps), len(maps))
    for f in range(len(maps)):
        assert np.array_equal(values[table[f]], values[f][values])


@pytest.mark.parametrize("shape", LEVEL_SHAPES)
@pytest.mark.parametrize("chunk", [None, 1])
def test_composites_match_scalar_composition_on_each_level_shape(monkeypatch, shape, chunk):
    if chunk is not None:
        monkeypatch.setattr(finmon, "CHUNK_ENTRIES", chunk)     # one row a block
    maps = LEVEL_SHAPES[shape][0]()
    _assert_composes_like_scalar_composition(maps, maps.composites())


@pytest.mark.parametrize("shape", LEVEL_SHAPES)
@pytest.mark.parametrize("chunk", [None, 1])
def test_addressed_tables_stay_within_their_bound(monkeypatch, shape, chunk):
    if chunk is not None:
        monkeypatch.setattr(finmon, "CHUNK_ENTRIES", chunk)
    make, levels = LEVEL_SHAPES[shape]
    maps = make()
    k, n = len(maps), maps.carrier_size
    addressed, checked = maps._key_levels
    if chunk is None:
        assert (len(addressed), len(checked)) == levels
    if n ** n <= k * k:
        assert len(addressed) == 1 and not checked and len(addressed[0][3]) == n ** n
    else:
        for lo, hi, _, table in addressed:
            count = len(table) // n ** (hi - lo)
            assert count * n ** (hi - lo) == len(table) <= max(finmon.CHUNK_ENTRIES, count * n)
    # the levels read every point once, in order
    assert [x for lo, hi, _, _ in addressed + checked for x in range(lo, hi)] == list(range(n))


def _assert_lookup_misses_exactly_the_non_elements(maps: SelfMapMonoid):
    k, n = len(maps), maps.carrier_size
    index = {f: i for i, f in enumerate(maps.elements)}
    # every element with one point moved, so a miss shows at every level
    rng = np.random.default_rng(n)
    rows = {f[:x] + (int(v),) + f[x + 1:]
            for f in maps.elements for x in range(n) for v in ((f[x] + 1) % n, rng.integers(n))}
    hits = [r for r in rows if r in index]
    assert np.array_equal(maps.lookup(np.array(hits).reshape(-1, n)), [index[r] for r in hits])
    for row in rows - set(hits):
        with pytest.raises(KeyError) as exc:
            maps.lookup(np.array(row))
        assert exc.value.args == (row,)
    assert np.array_equal(maps.lookup(maps.values), np.arange(k))


@pytest.mark.parametrize("shape", ["additive-8", "ring-endos-16"])
def test_lookup_misses_exactly_the_non_elements(shape):
    _assert_lookup_misses_exactly_the_non_elements(LEVEL_SHAPES[shape][0]())


# (points, checked levels) of the 3n dihedral maps and constants where each
# addressed level reads one digit: two of them tell the maps apart
MULTI_LEVEL = [(16, 2), (20, 2), (40, 5)]


@pytest.mark.parametrize("n, levels", MULTI_LEVEL)
@pytest.mark.parametrize("chunk", [None, 1])
def test_multi_level_composites_match_scalar_composition(monkeypatch, n, levels, chunk):
    if chunk is not None:
        monkeypatch.setattr(finmon, "CHUNK_ENTRIES", chunk)     # one row a block
    maps = _dihedral_and_constants(n)
    if chunk == 1:
        assert [hi - lo for lo, hi, _, _ in maps._key_levels[0]] == [1, 1]
        assert len(maps._key_levels[1]) == levels
    _assert_composes_like_scalar_composition(maps, maps.composites())


@pytest.mark.parametrize("n, levels", MULTI_LEVEL)
def test_multi_level_lookup_misses_exactly_the_non_elements(monkeypatch, n, levels):
    monkeypatch.setattr(finmon, "CHUNK_ENTRIES", 1)     # one digit an addressed level
    maps = _dihedral_and_constants(n)
    assert len(maps._key_levels[1]) == levels
    _assert_lookup_misses_exactly_the_non_elements(maps)


@pytest.mark.parametrize("chunk", [None, 1])
def test_the_first_missing_position_in_c_order_is_named(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(finmon, "CHUNK_ENTRIES", chunk)     # one row a block
    # the 48 dihedral maps on 16 points and the identity with 1 sent to 0,
    # which the first three points tell from the constant 0 map
    sent = (0, 0) + tuple(range(2, 16))
    maps = SelfMapMonoid(sorted({*_dihedral_and_constants(16).elements, sent}))
    first_checked = maps._key_levels[1][0][0]
    prefixes = {f[:first_checked] for f in maps.elements}
    elements = set(maps.elements)
    missing = [h for h in _scalar_composition(maps).values() if h not in elements]
    # the first missing composite has an element's addressed prefix, so it
    # misses only at a checked level; a later one misses at an addressed level
    assert missing[0][:first_checked] in prefixes
    late = next(h for h in missing if h[:first_checked] not in prefixes)
    with pytest.raises(KeyError) as exc:
        maps.compose(slice(None), slice(None))
    assert exc.value.args == (missing[0],)
    for rows, first in (([maps.elements[3], missing[0], late], missing[0]),
                        ([late, missing[0]], late)):
        with pytest.raises(KeyError) as exc:
            maps.lookup(np.array(rows))
        assert exc.value.args == (first,)


@pytest.mark.parametrize("chunk", [None, 1])
def test_keys_just_under_the_bound_compose_exactly(monkeypatch, chunk):
    # 294 maps on 98 points, checked in levels of 8 digits: the constant
    # maps' keys reach 98**8 - 1, 5.5% under 2**53
    if chunk is not None:
        monkeypatch.setattr(finmon, "CHUNK_ENTRIES", chunk)     # one row a block
    maps = _dihedral_and_constants(98)
    top = max(int(own.max()) for _, _, _, own in maps._key_levels[1])
    assert top == 98 ** 8 - 1 and 0.9 * 2 ** 53 < top < finmon._KEY_BOUND == 2 ** 53
    _assert_composes_like_scalar_composition(maps, maps.composites())


def _theta6() -> SelfMapMonoid:
    """The 960 1-Lipschitz self-maps of a 6-point tree ultrametric:
    {0, 1} and {2, 3} at distance 1 within, 2 apart; {4, 5} at distance 1
    within, 3 from the rest."""
    tree = [[0, 1, 2, 2, 3, 3], [1, 0, 2, 2, 3, 3], [2, 2, 0, 1, 3, 3],
            [2, 2, 1, 0, 3, 3], [3, 3, 3, 3, 0, 1], [3, 3, 3, 3, 1, 0]]
    theta = enumerate_theta(UltraPseudometric.from_rows(tree))
    assert len(theta) == 960
    return theta


def test_the_composition_table_holds_no_block_of_composite_maps():
    # a (k, k, n) block of composite maps would be 5.3 MiB and 46.6 MiB here
    for maps in (_theta6(), full_selfmap_monoid(5)):
        tracemalloc.start()
        try:
            table = maps.composites()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (len(maps), len(maps))
        assert peak - table.nbytes < 2 * 2**20


def test_to_monoid_shares_the_composition_table():
    maps = _theta6()
    table = maps.composites()
    tracemalloc.start()
    try:
        m = maps.to_monoid()
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(m.values, table) and m.values.shape == table.shape
    assert allocated < 64 * 2**10       # a copy of the 960-map table is 1.8 MiB


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_digit_weights_key_every_composite(n):
    # the base-n key of labels[maps[s]] is w[s] @ labels, whatever the labels
    rng = np.random.default_rng(n)
    maps = rng.integers(0, n, size=(40, 7)).astype(np.uint8)
    labels = rng.integers(0, n, size=(n, 30))
    powers = n ** np.arange(6, -1, -1, dtype=np.int64)
    w = digit_weights(maps, n)
    assert w.shape == (40, n) and w.dtype == np.int64
    assert np.array_equal(w @ labels, np.einsum("skj,k->sj", labels[maps], powers))


def _scalar_composition(maps: SelfMapMonoid) -> dict:
    """(i, j) -> the composite map i after j, in C order, as a tuple."""
    el = maps.elements
    return {(i, j): tuple(f[x] for x in g) for i, f in enumerate(el) for j, g in enumerate(el)}


# on each side of n**n <= k * k: the keys read in one direct-address table of
# every key (27 and 256 maps), and level by level (12 maps on 4 points, 144 < 4**4)
ADDRESSING = [(lambda: full_selfmap_monoid(3), True), (lambda: full_selfmap_monoid(4), True),
              (lambda: _dihedral_and_constants(4), False)]


@pytest.mark.parametrize("make, direct", ADDRESSING)
@pytest.mark.parametrize("chunk", [None, 1])
def test_composites_on_each_side_of_direct_addressing(monkeypatch, make, direct, chunk):
    maps = make()
    assert (maps.carrier_size ** maps.carrier_size <= len(maps) ** 2) == direct
    if chunk is not None:
        monkeypatch.setattr(finmon, "CHUNK_ENTRIES", chunk)     # one row a block
    index = {f: i for i, f in enumerate(maps.elements)}
    table = maps.composites()
    assert table.shape == (len(maps), len(maps))
    assert {at: int(table[at]) for at in np.ndindex(table.shape)} == \
        {at: index[h] for at, h in _scalar_composition(maps).items()}


@pytest.mark.parametrize("make, direct", ADDRESSING)
@pytest.mark.parametrize("chunk", [None, 1])
def test_lookup_and_composition_misses_on_each_side_of_direct_addressing(
        monkeypatch, make, direct, chunk):
    whole = make()
    if chunk is not None:
        monkeypatch.setattr(finmon, "CHUNK_ENTRIES", chunk)     # one row a block
    found = whole.lookup(whole.values)
    assert found.dtype == np.intp and np.array_equal(found, np.arange(len(whole)))
    assert whole.lookup(whole.values[3]).dtype == np.intp
    # drop the last element that is no constant map: row 0, the constant 0
    # map, composes to itself only, so the first miss is past the first row
    gone = next(f for f in reversed(whole.elements) if len(set(f)) > 1)
    maps = SelfMapMonoid([f for f in whole.elements if f != gone])
    assert (maps.carrier_size ** maps.carrier_size <= len(maps) ** 2) == direct
    assert maps.elements[0] == (0,) * maps.carrier_size
    elements = set(maps.elements)
    first = next(h for h in _scalar_composition(maps).values() if h not in elements)
    with pytest.raises(KeyError) as exc:
        maps.compose(slice(None), slice(None))
    assert exc.value.args == (first,)
    assert maps.composites() is None
    # lookup names the first missing row in C order, wherever it sits
    rows = np.array([[maps.elements[1], gone], [gone[::-1], maps.elements[2]]])
    with pytest.raises(KeyError) as exc:
        maps.lookup(rows)
    missing = [tuple(r) for r in rows.reshape(-1, maps.carrier_size).tolist()
               if tuple(r) not in elements]
    assert exc.value.args == (missing[0],)


def test_selfmap_values_and_index():
    maps = full_selfmap_monoid(3)
    assert maps.values.shape == (27, 3) and maps.values.dtype == np.uint8
    assert [tuple(row) for row in maps.values.tolist()] == list(maps.elements)
    assert maps.lookup(np.array([0, 1, 2])) == maps.identity_index == 5
    with pytest.raises(ValueError):
        maps.lookup(np.array([0, 1]))      # a map of another carrier


def test_lookup_rejects_rows_off_the_carrier():
    # base-n keys alias once a digit leaves range(n): each of these rows
    # has the key of a real element
    maps = full_selfmap_monoid(3)
    for row in ([0, 0, 3], [1, -1, 0]):
        with pytest.raises(KeyError):
            maps.lookup(np.array([row]))
    cycle = SelfMapMonoid([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    with pytest.raises(KeyError):
        cycle.lookup(np.array([0, 0, 5]))
    with pytest.raises(ValueError):
        cycle.lookup(np.array([[0, 1, 2, 0]]))


def test_the_tuple_view_is_built_only_on_demand():
    theta = enumerate_theta(UltraPseudometric.discrete(6))
    assert len(theta) == 6 ** 6 and "elements" not in theta.__dict__
    theta = enumerate_theta(random_ultrametric(random.Random(5), 5))
    assert theta.verify_closure() and "elements" not in theta.__dict__
    assert theta.elements == tuple(map(tuple, theta.values.tolist()))
    again = SelfMapMonoid(list(theta.elements))
    assert again == theta and hash(again) == hash(theta)


def test_adopted_selfmap_monoids_equal_the_checked_constructor():
    # enumerate_theta and full_selfmap_monoid skip the constructor's checks
    rng = random.Random(19)
    built = [enumerate_theta(random_ultrametric(rng, n)) for n in range(1, 8) for _ in range(4)]
    built += [enumerate_theta(UltraPseudometric.discrete(n)) for n in (1, 2, 5)]
    built += [full_selfmap_monoid(n) for n in range(1, 6)]
    for maps in built:
        checked = SelfMapMonoid(maps.values)
        assert np.array_equal(maps.values, checked.values)
        assert maps.values.dtype == checked.values.dtype and maps.values.flags.c_contiguous
        assert maps.identity_index == checked.identity_index
        assert maps.carrier_size == checked.carrier_size
        assert maps == checked and hash(maps) == hash(checked)
        assert not maps.values.flags.writeable
        with pytest.raises(ValueError):
            maps.values[0, 0] = 0


def _closure_by_all_pairs(n, gens):
    """Brute-force closure: compose every new map with every map seen, both sides."""
    seen = {tuple(range(n)), *gens}
    new = list(seen)
    while new:
        fresh = []
        for f in new:
            for g in list(seen):
                for h in (tuple(f[g[x]] for x in range(n)), tuple(g[f[x]] for x in range(n))):
                    if h not in seen:
                        seen.add(h)
                        fresh.append(h)
        new = fresh
    return tuple(sorted(seen))


def test_generated_monoid_matches_all_pairs_closure():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(2, 5)
        gens = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        closure = _closure_by_all_pairs(n, gens)
        assert generated_selfmap_monoid(n, gens).elements == closure
        assert len(generated_selfmap_monoid(n, gens, max_size=len(closure))) == len(closure)
        with pytest.raises(ValueError):
            generated_selfmap_monoid(n, gens, max_size=len(closure) - 1)


def test_adopted_generated_monoids_equal_the_checked_constructor():
    # generated_selfmap_monoid adopts its BFS rows without the constructor's checks
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 6)
        gens = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        try:
            maps = generated_selfmap_monoid(n, gens, max_size=500)
        except ValueError:
            continue
        checked = SelfMapMonoid(maps.values.tolist())
        assert np.array_equal(maps.values, checked.values)
        assert maps.values.dtype == checked.values.dtype and maps.values.flags.c_contiguous
        assert maps.identity_index == checked.identity_index
        assert maps.carrier_size == checked.carrier_size == n
        assert maps == checked and hash(maps) == hash(checked)
        assert not maps.values.flags.writeable
        assert maps.verify_closure()


@pytest.mark.parametrize("n,gens,bad", [
    (3, [(-1, 0, 0)], [-1, 0, 0]),      # not read as point 2
    (3, [(0, 5, 1)], [0, 5, 1]),
    (3, [(0, 1, 2), (0, 1)], [0, 1]),
    (2, [(0, 1, 1)], [0, 1, 1]),
    # no silent coercion: a float is not truncated, a bool is no point
    (2, [[1.5, 0.9]], [1.5, 0.9]),
    (2, [[True, False]], [True, False]),
    (2, [np.array([1.0, 0.0])], [1.0, 0.0]),
])
def test_generated_monoid_checks_its_generators(n, gens, bad):
    with pytest.raises(ValueError, match=re.escape(f"generator {bad} is not a self-map of {n} points")):
        generated_selfmap_monoid(n, gens)
    with pytest.raises(ValueError, match="carrier must be nonempty"):
        generated_selfmap_monoid(0, [])


@pytest.mark.parametrize("row,accepted", [
    ([1, 0], True),
    ([np.int64(1), np.uint8(0)], True),
    (np.array([1, 0], dtype=np.uint8), True),
    ([1.5, 0.9], False),
    ([1.0, 0.0], False),
    ([True, False], False),
    (np.array([1.0, 0.0]), False),
])
def test_generated_monoid_takes_the_entries_the_constructor_takes(row, accepted):
    # the swap next to the identity, in the entries' own dtype
    rows = np.array([[0, 1], row], dtype=np.asarray(row).dtype)
    if accepted:
        swap = SelfMapMonoid(rows)
        assert generated_selfmap_monoid(2, [row]) == swap
        assert generated_selfmap_monoid(2, [row]).elements == ((0, 1), (1, 0))
    else:
        with pytest.raises(ValueError):
            SelfMapMonoid(rows)
        with pytest.raises(ValueError, match="is not a self-map of 2 points"):
            generated_selfmap_monoid(2, [row])
