import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stonework import finmon, unif
from stonework.errors import CarrierMismatch, ResourceLimit
from stonework.finmon import (
    FiniteMonoid,
    MonoidAction,
    full_selfmap_monoid,
    generated_selfmap_monoid,
    validate_action,
    validate_monoid,
)
from stonework.generators import (
    enumerate_actions,
    enumerate_small_monoids,
    random_cover,
    random_partition,
    random_transformation_monoid,
)
from stonework.ultra import Partition
from stonework.unif import (
    Cover,
    PartitionFamily,
    cover_blocks_from_json,
    cover_order,
    cover_star,
    cover_wedge,
    family_from_json,
    is_meet_closed,
    is_saturated_under,
    make_family,
    ord_at,
    partition_lattice,
    preimage_partition,
    refines,
    saturate,
    saturate_worklist,
    star,
)


def chain_action():
    """Three maps on three points: identity, clamp-up, constant-top."""
    ident = (0, 1, 2)
    up = (1, 2, 2)
    top = (2, 2, 2)
    table = [[0, 1, 2], [1, 2, 2], [2, 2, 2]]
    m = validate_monoid(table, 0)
    return validate_action(m, 3, (ident, up, top))


# --- preimages and kernels --------------------------------------------------


def test_preimage_identity_and_constant():
    p = Partition.from_classes(3, [[0, 1], [2]])
    assert preimage_partition((0, 1, 2), p) == p
    assert preimage_partition((1, 1, 1), p) == Partition.indiscrete(3)


def test_preimage_matches_relation_oracle():
    rng = random.Random(3)
    for _ in range(20):
        s = tuple(rng.randrange(5) for _ in range(5))
        p = random_partition(rng, 5)
        pulled = preimage_partition(s, p)
        for x in range(5):
            for y in range(5):
                assert pulled.relates(x, y) == p.relates(s[x], s[y])


def test_preimage_carrier_mismatch():
    with pytest.raises(CarrierMismatch):
        preimage_partition((0, 1), Partition.indiscrete(3))
    with pytest.raises(CarrierMismatch):
        preimage_partition(np.array([0, 1, 2, 0]), Partition.indiscrete(3))


def test_preimage_reads_tuple_and_numpy_rows_alike():
    p = Partition.from_classes(4, [[0, 3], [1], [2]])
    for s in full_selfmap_monoid(4).values[::7]:
        pulled = preimage_partition(tuple(s.tolist()), p)
        assert preimage_partition(s, p) == pulled
        assert preimage_partition(list(s.tolist()), p) == pulled
        assert Partition(carrier_size=4, class_id=pulled.class_id) == pulled


# --- saturation -------------------------------------------------------------


def test_saturate_trivial_action_is_meet_closure():
    ident = (0, 1, 2)
    m = validate_monoid([[0]], 0)
    action = validate_action(m, 3, (ident,))
    p = Partition.from_classes(3, [[0, 1], [2]])
    q = Partition.from_classes(3, [[0], [1, 2]])
    fam = saturate(action, [p, q])
    assert set(fam.members) == {p, q, p.meet(q)}
    assert is_meet_closed(fam) and is_saturated_under(fam, action)


def test_saturate_clamp_map_example():
    action = chain_action()
    given = Partition.from_classes(3, [[0], [1, 2]])
    fam = saturate(action, [given])
    assert set(fam.members) == {given, Partition.indiscrete(3)}


def test_saturate_fixed_point_and_closures():
    action = chain_action()
    given = Partition.from_classes(3, [[0, 1], [2]])
    fam = saturate(action, [given])
    assert given in fam
    assert is_meet_closed(fam)
    assert is_saturated_under(fam, action)
    assert saturate(action, fam) == fam


def test_saturate_monotone_in_generators():
    action = chain_action()
    p = Partition.from_classes(3, [[0, 1], [2]])
    q = Partition.from_classes(3, [[0], [1, 2]])
    small = saturate(action, [p])
    big = saturate(action, [p, q])
    assert set(small.members) <= set(big.members)


def test_composite_law_single_instance():
    action = chain_action()
    m = action.monoid
    eps = Partition.from_classes(3, [[0], [1, 2]])
    for s in range(3):
        for t in range(3):
            nested = preimage_partition(
                action.act[t], preimage_partition(action.act[s], eps)
            )
            assert nested == preimage_partition(action.act[m.mul(s, t)], eps)


# --- the indexed partition lattice -------------------------------------------


def restricted_growth_strings(n):
    """Class-id strings in first-occurrence form, by depth-first descent."""
    out = []

    def descend(ids, next_id):
        if len(ids) == n:
            out.append(tuple(ids))
            return
        for k in range(next_id + 1):
            descend(ids + [k], max(next_id, k + 1))

    descend([], 0)
    return out


def test_lattice_rows_are_the_restricted_growth_strings_in_order():
    counts = []
    for n in range(8):
        lattice = partition_lattice(n)
        rows = [tuple(r) for r in lattice.rows.tolist()]
        assert rows == restricted_growth_strings(n) == sorted(rows)
        assert [p.class_id for p in lattice.partitions] == rows
        counts.append(len(lattice))
    assert counts == [1, 1, 2, 5, 15, 52, 203, 877]


def test_lattice_lookup_of_any_labels():
    lattice = partition_lattice(5)
    rng = np.random.default_rng(0)
    labels = rng.integers(-3, 40, size=(6, 50, 5))
    found = lattice.lookup(labels)
    assert found.shape == (6, 50)
    for row, i in zip(labels.reshape(-1, 5).tolist(), found.ravel().tolist()):
        assert lattice.partitions[i] == Partition.from_class_ids(row)
        assert lattice.index_of(Partition.from_class_ids(row)) == i


def test_pullback_is_the_preimage_on_every_self_map():
    for n in range(1, 5):
        lattice = partition_lattice(n)
        maps = full_selfmap_monoid(n).elements
        pull = lattice.pullback(maps)
        assert pull.shape == (len(maps), len(lattice))
        assert pull.dtype == np.min_scalar_type(len(lattice) - 1) and not pull.flags.writeable
        for s, f in enumerate(maps):
            for i, p in enumerate(lattice.partitions):
                assert lattice.partitions[pull[s, i]] == preimage_partition(f, p)
        assert lattice.pullback(np.zeros((0, n), dtype=np.uint8)).shape == (0, len(lattice))
    # the one map of no points pulls the one partition back to itself
    pull = partition_lattice(0).pullback(np.zeros((3, 0), dtype=np.uint8))
    assert pull.shape == (3, 1) and not pull.any()
    assert partition_lattice(0).pullback(np.zeros((0, 0), dtype=np.uint8)).shape == (0, 1)


def test_meet_table_is_the_partition_meet():
    for n in range(1, 6):
        lattice = partition_lattice(n)
        parts = lattice.partitions
        meet = lattice.meet.tolist()
        for i, p in enumerate(parts):
            for j, q in enumerate(parts):
                assert parts[meet[i][j]] == p.meet(q)


def test_saturate_above_the_lattice_bound_raises():
    ident = tuple(range(8))
    action = validate_action(validate_monoid([[0]], 0), 8, (ident,))
    with pytest.raises(ResourceLimit, match="17139600"):  # 4140**2 meets
        saturate(action, [Partition.indiscrete(8)])
    # the worklist oracle has no bound
    assert len(saturate_worklist(action, [Partition.indiscrete(8)])) == 1


@st.composite
def actions_with_generators(draw):
    """An action of a monoid of self-maps on 2-6 points and 1-2 partitions."""
    n = draw(st.integers(2, 6))
    point_lists = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    gens = draw(st.lists(point_lists, min_size=1, max_size=2))
    try:
        maps = generated_selfmap_monoid(n, gens, max_size=40)
    except ValueError:      # one map generates at most a few dozen
        maps = generated_selfmap_monoid(n, gens[:1])
    action = validate_action(maps.to_monoid(), n, maps.elements)
    labels = draw(st.lists(point_lists, min_size=1, max_size=2))
    return action, [Partition.from_class_ids(ids) for ids in labels]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(actions_with_generators())
def test_saturate_agrees_with_the_worklist(case):
    action, gamma = case
    family = saturate(action, gamma)
    assert family == saturate_worklist(action, gamma)


def ref_saturate_worklist(action, gamma):
    """The saturation as a worklist over Partition objects: the reference
    of saturate_worklist's class_id tuples."""
    members = set(gamma)
    frontier = list(members)
    while frontier:
        fresh = []

        def add(p):
            if p not in members:
                members.add(p)
                fresh.append(p)

        for p in frontier:
            for s in range(action.monoid.size):
                add(preimage_partition(action.act[s], p))
            for q in list(members):
                add(p.meet(q))
        frontier = fresh
    return make_family(action.carrier_size, members)


def test_worklist_matches_the_partition_object_reference():
    # every distinct 3-point action table of the 3-element monoids, with
    # each generator, then seeded 4-point actions with 0-2 generators
    tables = {}
    for m in enumerate_small_monoids(3):
        for action in enumerate_actions(m, 3):
            tables.setdefault(action.values.tobytes(), action)
    assert len(tables) == 108
    cases = [(action, [eps]) for action in tables.values()
             for eps in partition_lattice(3).partitions]
    rng = random.Random(22)
    for _ in range(60):
        m, maps = random_transformation_monoid(rng, 4, max_size=16)
        cases.append((validate_action(m, 4, maps.elements),
                      [random_partition(rng, 4) for _ in range(rng.randint(0, 2))]))
    assert len(cases) == 540 + 60
    for action, gamma in cases:
        family = saturate_worklist(action, gamma)
        assert family == ref_saturate_worklist(action, gamma)
        assert all(p == Partition.from_class_ids(p.class_id) for p in family.members)


# --- the saturation oracles against their literal forms ----------------------


def literal_meet_closed(family):
    members = set(family.members)
    return all(p.meet(q) in members for p in members for q in members)


def literal_saturated(family, action):
    members = set(family.members)
    return all(preimage_partition(action.act[s], p) in members
               for p in members for s in range(action.monoid.size))


def drop(family, i):
    """The family without member i, or the family itself for None."""
    if i is None:
        return family
    return PartitionFamily(family.carrier_size, family.members[:i] + family.members[i + 1:])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(actions_with_generators(), st.data())
def test_oracles_agree_with_the_literal_forms(case, data):
    action, gamma = case
    family = saturate(action, gamma)
    n = action.carrier_size
    random_family = make_family(n, map(Partition.from_class_ids, data.draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n), max_size=4))))
    for fam in (drop(family, data.draw(st.none() | st.integers(0, len(family) - 1))),
                random_family):
        assert is_meet_closed(fam) == literal_meet_closed(fam)
        assert is_saturated_under(fam, action) == literal_saturated(fam, action)


def test_oracles_on_every_drop_one_family_of_a_large_saturation():
    # the frontier benchmark's saturate-6 instance before its seeded relabeling
    maps = generated_selfmap_monoid(6, [(3, 4, 5, 2, 0, 0), (2, 1, 1, 3, 0, 1)])
    action = validate_action(maps.to_monoid(), 6, maps.elements)
    family = saturate(action, [Partition.from_class_ids((0, 1, 1, 0, 1, 2))])
    assert (len(maps), len(family)) == (376, 99)
    assert is_meet_closed(family) and is_saturated_under(family, action)
    # the literal forms, once: which other members pull back or meet to each
    index = {p: i for i, p in enumerate(family.members)}
    reached = [set() for _ in family.members]
    for i, p in enumerate(family.members):
        for f in action.act:
            reached[index[preimage_partition(f, p)]].add(i)
    met = [set() for _ in family.members]
    for i, p in enumerate(family.members):
        for j, q in enumerate(family.members):
            met[index[p.meet(q)]].add((i, j))
    outcomes = set()
    for i in range(len(family)):
        # dropping member i leaves a closure iff no other member reaches it
        fam = drop(family, i)
        got = is_saturated_under(fam, action), is_meet_closed(fam)
        assert got == (reached[i] <= {i}, all(i in pair for pair in met[i]))
        outcomes.add(got)
    assert {sat for sat, _ in outcomes} == {closed for _, closed in outcomes} == {True, False}


@pytest.mark.parametrize("n", [0, 1, 9])
def test_oracles_at_the_key_widths(n):
    if n == 9:      # 81 key bits, 11 bytes: 24 maps, 46 members
        maps = generated_selfmap_monoid(9, [(0, 0, 2, 3, 3, 5, 6, 6, 8), (1, 2, 0, 4, 5, 3, 7, 8, 6)])
        action = validate_action(maps.to_monoid(), 9, maps.elements)
        gamma = [Partition.from_class_ids((0, 0, 1, 1, 2, 2, 3, 3, 3))]
    else:           # the one-element monoid; the one partition, or none
        action = validate_action(validate_monoid([[0]], 0), n, [list(range(n))])
        gamma = [Partition.indiscrete(n)]
    family = saturate_worklist(action, gamma)
    assert len(family) == (46 if n == 9 else 1)
    assert is_meet_closed(family) and is_saturated_under(family, action)
    for i in [None, *range(len(family))]:
        fam = drop(family, i)
        assert is_meet_closed(fam) == literal_meet_closed(fam)
        assert is_saturated_under(fam, action) == literal_saturated(fam, action)


def test_oracles_on_the_empty_family_and_other_carriers():
    action = chain_action()
    for n in (0, 3, 5):
        empty = make_family(n, [])
        assert is_meet_closed(empty) and is_saturated_under(empty, action)
    with pytest.raises(CarrierMismatch):
        is_saturated_under(make_family(4, [Partition.indiscrete(4)]), action)


def test_blocked_oracles_match_the_unblocked(monkeypatch):
    maps = generated_selfmap_monoid(4, [(1, 2, 3, 0), (0, 0, 2, 2)])
    action = validate_action(maps.to_monoid(), 4, maps.elements)
    family = saturate(action, [Partition.from_classes(4, [[0, 1], [2], [3]])])
    families = [drop(family, i) for i in [None, *range(len(family))]]
    expected = [(is_meet_closed(f), is_saturated_under(f, action)) for f in families]
    assert {e for e, _ in expected} == {e for _, e in expected} == {True, False}
    k, n, size = len(maps), 4, len(family)
    # one member's pullbacks, or one member's meets, per block; two; then three
    for rows in (1, 2, 3):
        for entries in (rows * k * n * n, rows * size * n * n):
            monkeypatch.setattr(finmon, "CHUNK_ENTRIES", entries)
            assert [(is_meet_closed(f), is_saturated_under(f, action))
                    for f in families] == expected


# Actions read their monoid's generating set, which finmon._generating_set
# finds at the monoid's size 3.  With one entry a block, that search leaves
# the full scan, as 3 * 3 * 3 > 16 entries, but gives up past 3 // 2 = 1
# generator.  So only the actions of the one-generator monoids of 3 elements
# take the generator path, 54 on 3 points and 321 on 4, and pull back along
# one of their two non-identity maps: the case that tells the generator path
# from the full one.
@pytest.mark.parametrize("n", [3, 4])
def test_saturation_on_generators_matches_the_oracles(monkeypatch, n):
    chunk = finmon.CHUNK_ENTRIES
    monkeypatch.setattr(finmon, "CHUNK_ENTRIES", 1)
    lattice, taken, verdicts = partition_lattice(n), 0, set()
    for m in enumerate_small_monoids(3):
        if finmon._generating_set(m.values, m.identity) is None:
            continue
        # in blocks of one candidate each, enumerate_actions takes seconds
        with monkeypatch.context() as default:
            default.setattr(finmon, "CHUNK_ENTRIES", chunk)
            actions = enumerate_actions(m, n)
        for action in actions:
            gens = action.generating_set
            if gens is None:
                continue
            assert len(gens) == 1
            taken += 1
            # a caller's pullback table, along every map
            pull = lattice.pullback(action.values)
            for eps in lattice.partitions:
                family = saturate(action, [eps])
                assert family == saturate_worklist(action, [eps])
                assert saturate(action, [eps], pull) == family
                families = [drop(family, i) for i in (None, *range(len(family)))] if n == 3 \
                    else [make_family(n, [eps])]
                for fam in families:
                    verdict = is_saturated_under(fam, action)
                    assert verdict == literal_saturated(fam, action)
                    verdicts.add(verdict)
    assert taken == {3: 54, 4: 321}[n] and verdicts == {True, False}


def _cyclic_action(table, act) -> MonoidAction:
    """An action on 4 points of a 3-element table whose one generator is
    element 1, through the unchecked constructors."""
    m = FiniteMonoid(np.array(table, dtype=np.uint8), 0)
    assert finmon._generating_set(m.values, 0).tolist() == [1]
    return MonoidAction(m, np.array(act, dtype=np.uint8))


def test_saturation_falls_back_to_every_map_where_the_generators_fail(monkeypatch):
    monkeypatch.setattr(finmon, "CHUNK_ENTRIES", 1)     # 3 * 3 * 3 entries take generators
    cyclic = [[0, 1, 2], [1, 2, 2], [2, 2, 2]]
    # the law fails on the generator: act[1 * 1] is not the swap twice;
    # the identity acts as a projection, under which the law holds on G
    spoiled_law = _cyclic_action(cyclic, [(0, 1, 2, 3), (1, 0, 2, 3), (0, 0, 2, 3)])
    spoiled_identity = _cyclic_action(cyclic, [(0, 1, 2, 2), (0, 0, 0, 1), (0, 0, 0, 0)])
    assert finmon._action_defect(spoiled_law.monoid.values, spoiled_law.values,
                                 np.array([1])) is not None
    assert finmon._action_defect(spoiled_identity.monoid.values, spoiled_identity.values,
                                 np.array([1])) is None
    eps = Partition.discrete(4)
    lattice = partition_lattice(4)
    for action in (spoiled_law, spoiled_identity):
        assert action.generating_set is None
        family = saturate(action, [eps])
        assert family == saturate_worklist(action, [eps])
        assert family == saturate(action, [eps], lattice.pullback(action.values))
        # closed under the generator's pullbacks alone, but not a saturation
        on_generator = lattice.saturation(lattice.pullback(action.values[[1]]), [eps])
        assert len(on_generator) < len(family)
        assert not is_saturated_under(on_generator, action)
        assert not literal_saturated(on_generator, action)
        assert is_saturated_under(family, action)


def test_an_action_of_a_table_that_is_not_associative_has_no_generating_set(monkeypatch):
    monkeypatch.setattr(finmon, "CHUNK_ENTRIES", 1)
    # (2*2)*1 = 1 but 2*(2*1) = 2, and the action law fails at (2, 2); it
    # holds on the generator 1, whose map f, a 3-cycle, has act[2] = f**2,
    # but a generating set is kept only where associativity is proven
    cycle = [(0, 1, 2, 3), (1, 2, 0, 3), (2, 0, 1, 3)]
    action = _cyclic_action([[0, 1, 2], [1, 2, 0], [2, 0, 0]], cycle)
    assert action.generating_set is None
    for eps in partition_lattice(4).partitions:
        family = saturate(action, [eps])
        assert family == saturate_worklist(action, [eps])
        for fam in (family, make_family(4, [eps])):
            assert is_saturated_under(fam, action) == literal_saturated(fam, action)


def test_an_action_of_a_table_with_no_left_identity_has_no_generating_set(monkeypatch):
    monkeypatch.setattr(finmon, "CHUNK_ENTRIES", 1)
    # 0 is a right identity only (0*1 = 2), so the products
    # ((0*g1)*g2)*... of the generator 1 reach 0 and 2 but not 1 itself,
    # and a generating set is kept only where the identity is two-sided
    table = np.array([[0, 2, 0], [1, 0, 0], [2, 0, 2]], dtype=np.uint8)
    assert (table[:, 0] == np.arange(3)).all() and not (table[0] == np.arange(3)).all()
    swap = (2, 3, 0, 1)
    action = MonoidAction(FiniteMonoid(table, 0), np.array([(0, 1, 2, 3), swap, swap],
                                                          dtype=np.uint8))
    assert action.generating_set is None
    for eps in partition_lattice(4).partitions:
        assert saturate(action, [eps]) == saturate_worklist(action, [eps])


def test_the_action_keeps_the_generating_set_validate_action_checked(monkeypatch):
    maps = generated_selfmap_monoid(6, [(3, 4, 5, 2, 0, 0), (2, 1, 1, 3, 0, 1)])
    m, calls = maps.to_monoid(), []
    literal = finmon._generating_set
    monkeypatch.setattr(finmon, "_generating_set",
                        lambda *args: calls.append(args) or literal(*args))
    checked = validate_action(m, 6, maps.elements)
    assert len(calls) == 1
    wrapped = MonoidAction(m, checked.values)
    eps = [Partition.from_class_ids((0, 1, 1, 0, 1, 2))]
    # both actions read the set the monoid proved in validate_action
    for action, looked in ((checked, 0), (wrapped, 0)):
        before = len(calls)
        family = saturate(action, eps)
        assert is_saturated_under(family, action)
        assert len(calls) - before == looked
    assert not checked.generating_set.flags.writeable
    assert np.array_equal(wrapped.generating_set, checked.generating_set)


def test_an_action_whose_law_fails_on_its_monoids_generating_set_has_none(monkeypatch):
    monkeypatch.setattr(finmon, "CHUNK_ENTRIES", 1)     # 3 * 3 * 3 entries take generators
    m = validate_monoid([[0, 1, 2], [1, 2, 2], [2, 2, 2]], 0)
    assert m.generating_set.tolist() == [1]
    # act[1 * 1] = act[2] is not the swap after the swap
    act = np.array([(0, 1, 2, 3), (1, 0, 2, 3), (0, 0, 2, 3)], dtype=np.uint8)
    action = MonoidAction(m, act)
    assert action.generating_set is None
    for eps in partition_lattice(4).partitions:
        assert saturate(action, [eps]) == saturate_worklist(action, [eps])
    with pytest.raises(ValueError, match=r"action law fails at \(s, t, x\) = \(1, 1, 1\)"):
        validate_action(m, 4, act)


def test_the_three_point_actions_of_the_small_monoids_have_no_generating_set():
    # the actions the suite's action-saturation check saturates: too small
    # for a generating set to pay off, so saturate pulls back along every map
    actions = [a for m in enumerate_small_monoids(3) for a in enumerate_actions(m, 3)]
    assert len(actions) == 199
    assert all(a.generating_set is None for a in actions)


def test_the_frontier_saturation_action_keeps_its_generators():
    # the saturate-6 instance of the frontier benchmark, unshuffled: its
    # action reads the generating set validate_monoid proves for its monoid
    maps = generated_selfmap_monoid(6, [(3, 4, 5, 2, 0, 0), (2, 1, 1, 3, 0, 1)])
    action = validate_action(maps.to_monoid(), 6, maps.elements)
    assert action.generating_set is action.monoid.generating_set
    assert action.generating_set.tolist() == [259, 119]


def test_oracles_build_each_distinct_partition_once(monkeypatch):
    maps = generated_selfmap_monoid(6, [(3, 4, 5, 2, 0, 0), (2, 1, 1, 3, 0, 1)])
    action = validate_action(maps.to_monoid(), 6, maps.elements)
    family = saturate(action, [Partition.from_class_ids((0, 1, 1, 0, 1, 2))])
    # is_saturated_under pulls back along the checked generators only
    gens = action.generating_set
    assert gens is not None and len(gens) < len(maps)
    pullbacks = {preimage_partition(action.act[g], p) for p in family.members for g in gens}
    meets = {p.meet(q) for p in family.members for q in family.members}
    assert (len(pullbacks), len(meets)) == (47, 99)
    built = []
    literal_pullback, literal_meet = unif.preimage_partition, Partition.meet
    monkeypatch.setattr(unif, "preimage_partition",
                        lambda s, p: built.append("pullback") or literal_pullback(s, p))
    monkeypatch.setattr(Partition, "meet",
                        lambda p, q: built.append("meet") or literal_meet(p, q))
    monkeypatch.setattr(finmon, "CHUNK_ENTRIES", 4 * 36 * len(gens))   # blocks of 4 members
    assert is_saturated_under(family, action) and is_meet_closed(family)
    assert (built.count("pullback"), built.count("meet")) == (len(pullbacks), len(meets))


def test_family_membership_is_set_membership():
    family = make_family(4, partition_lattice(4).partitions[::3])
    members = set(family.members)
    for n in (3, 4, 5):
        for p in partition_lattice(n).partitions:
            assert (p in family) == (p in members)
    assert "not a partition" not in family
    assert Partition.indiscrete(4) not in make_family(4, [])


def test_family_json_round_trip():
    fam = make_family(3, [Partition.indiscrete(3), Partition.discrete(3)])
    assert family_from_json(fam.to_json()) == fam


# --- covers -----------------------------------------------------------------


def test_cover_validation():
    with pytest.raises(ValueError):
        Cover.from_blocks([[0], [2]])  # does not cover point 1
    with pytest.raises(ValueError):
        Cover.from_blocks([[0, 1], []])
    with pytest.raises(ValueError):
        Cover.from_blocks([[0, 1, 5]])
    with pytest.raises(ValueError):
        Cover.from_blocks([[0], [-1, 1]])
    for point in (1.9, "1", Fraction(1, 1), True):
        with pytest.raises(ValueError, match="is not an integer"):
            Cover.from_blocks([[0, point], [2]])
    assert Cover.from_blocks([[np.int64(0), np.uint8(1)], [2]]) == Cover.from_blocks([[0, 1], [2]])


def test_the_carrier_of_a_cover_is_the_extent_of_its_blocks():
    assert Cover.from_blocks([[0, 1], [2]]).carrier_size == 3
    assert Cover(frozenset({0b1, 0b1110})).carrier_size == 4
    assert Cover(frozenset()).carrier_size == 0
    assert Cover.from_blocks([[1, 0]]) == Cover(frozenset({0b11}))
    with pytest.raises(TypeError):
        Cover(frozenset({0b11}), carrier_size=2)


def test_wedge_identities_and_explicit_three_block_case():
    q = Cover.from_blocks([[0, 1, 2], [3]])
    assert cover_wedge(q, q) == q
    whole = Cover.from_blocks([[0, 1, 2, 3]])
    assert cover_wedge(whole, q) == q
    p = Cover.from_blocks([[0, 1], [2, 3]])
    wedged = cover_wedge(p, q)
    assert wedged == Cover.from_blocks([[0, 1], [2], [3]])
    assert refines(wedged, p) and refines(wedged, q)
    with pytest.raises(CarrierMismatch):
        cover_wedge(p, Cover.from_blocks([[0, 1]]))


def test_star_whole_cover_and_partition():
    whole = Cover.from_blocks([[0, 1, 2]])
    assert star([1], whole) == frozenset({0, 1, 2})
    parts = Cover.from_blocks([[0, 1], [2, 3]])
    assert star([0], parts) == frozenset({0, 1})
    for point in (1.5, "1", Fraction(1, 1), True):
        with pytest.raises(ValueError, match="is not an integer"):
            star([point], parts)
    assert star([np.int64(2), np.uint8(9)], parts) == frozenset({2, 3})
    assert cover_star(parts) == parts  # disjoint blocks meet only themselves


def test_star_of_overlapping_cover():
    p = Cover.from_blocks([[0, 1], [1, 2], [2, 3]])
    starred = cover_star(p)
    assert starred == Cover.from_blocks([[0, 1, 2], [0, 1, 2, 3], [1, 2, 3]])
    assert refines(p, starred)  # P always refines its own star


def test_refines_and_star_refines():
    whole = Cover.from_blocks([[0, 1, 2]])
    singletons = Cover.from_blocks([[0], [1], [2]])
    assert refines(singletons, whole)
    assert refines(cover_star(singletons), singletons)  # stars of singletons stay singletons
    # mutual refinement between distinct covers: refinement is not antisymmetric
    p = Cover.from_blocks([[0, 1], [2]])
    q = Cover.from_blocks([[0, 1], [2], [0]])
    assert p != q and refines(p, q) and refines(q, p)


def test_cover_order():
    assert cover_order(Cover.from_blocks([[0], [1], [2]])) == 1
    lopsided = Cover.from_blocks([[0, 1, 2], [1]])
    assert cover_order(lopsided) == 2
    assert ord_at(lopsided, 1) == 2 and ord_at(lopsided, 0) == 1


def test_wedge_order_bound_random():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(2, 6)
        p, q = random_cover(rng, n), random_cover(rng, n)
        assert cover_order(cover_wedge(p, q)) <= cover_order(p) * cover_order(q)
        assert refines(p, cover_star(p))


def test_cover_json_round_trip():
    p = Cover.from_blocks([[0, 1], [1, 2], [2, 3]])
    assert Cover.from_blocks(cover_blocks_from_json(p.to_json())) == p
    assert p.to_json()["blocks"] == [[0, 1], [1, 2], [2, 3]]


# --- the frozenset reference for the bitmask covers -------------------------
# Covers as sets of frozensets of points, with the calculus written on them
# directly: the form the bitmask Cover replaced, kept as its oracle.


def ref_blocks(p: Cover) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(b) for b in p.sorted_blocks())


def ref_random_cover(rng, n, max_blocks=6):
    blocks = set()
    for _ in range(rng.randint(1, max_blocks)):
        size = rng.randint(1, n)
        blocks.add(frozenset(rng.sample(range(n), size)))
    missing = set(range(n)) - set().union(*blocks)
    if missing:
        blocks.add(frozenset(missing))
    return frozenset(blocks)


def ref_wedge(p, q):
    return frozenset(a & b for a in p for b in q if a & b)


def ref_star(points, p):
    pts = frozenset(points)
    return frozenset().union(*(block for block in p if block & pts))


def ref_cover_star(p):
    return frozenset(ref_star(b, p) for b in p)


def ref_refines(q, p):
    return all(any(a <= b for b in p) for a in q)


def ref_ord_at(p, x):
    return sum(1 for block in p if x in block)


def ref_order(p, n):
    return max(ref_ord_at(p, x) for x in range(n))


def ref_sorted(p):
    return sorted(sorted(b) for b in p)


def seeded_cover_pairs(seed=31, count=300):
    """(n, p, q) for seeded random covers p, q of 1-6 points."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        yield n, random_cover(rng, n), random_cover(rng, n)


def test_random_covers_draw_the_reference_blocks():
    for seed in range(200):
        n = seed % 6 + 1
        assert ref_blocks(random_cover(random.Random(seed), n)) == \
            ref_random_cover(random.Random(seed), n)


def test_bitmask_covers_match_the_frozenset_reference():
    for n, p, q in seeded_cover_pairs():
        rp, rq = ref_blocks(p), ref_blocks(q)
        assert p.sorted_blocks() == ref_sorted(rp) and p.carrier_size == n
        assert ref_blocks(cover_wedge(p, q)) == ref_wedge(rp, rq)
        assert ref_blocks(cover_star(p)) == ref_cover_star(rp)
        for a, b, ra, rb in [(p, q, rp, rq), (q, p, rq, rp),
                             (p, cover_star(p), rp, ref_cover_star(rp)),
                             (cover_star(p), q, ref_cover_star(rp), rq),
                             (cover_wedge(p, q), q, ref_wedge(rp, rq), rq)]:
            assert refines(a, b) == ref_refines(ra, rb)
        for mask in range(1 << n):
            points = [x for x in range(n) if mask >> x & 1]
            assert star(points, p) == ref_star(points, rp)
        assert star([n, -1], p) == frozenset()      # points off the carrier meet no block
        assert [ord_at(p, x) for x in range(-1, n + 1)] == \
            [ref_ord_at(rp, x) for x in range(-1, n + 1)]
        assert cover_order(p) == ref_order(rp, n)
        assert cover_order(cover_wedge(p, q)) == ref_order(ref_wedge(rp, rq), n)
        part = random_partition(random.Random(n * 1000 + len(rp)), n)
        assert ref_blocks(Cover.from_partition(part)) == frozenset(map(frozenset, part.classes()))


def test_bitmask_covers_reject_what_the_frozenset_covers_rejected():
    # a width past 64 bits, and each of the three defects with its message
    assert Cover.from_blocks([range(70), [69]]).sorted_blocks() == [list(range(70)), [69]]
    for blocks, message in [([[0, 1], []], "empty block"),
                            ([[0], [-1, 1]], "block point outside the carrier"),
                            ([[0, 2]], "blocks do not cover the carrier")]:
        with pytest.raises(ValueError, match=message):
            Cover.from_blocks(blocks)
    for masks, message in [({0b11, 0}, "empty block"), ({-1}, "block point outside the carrier"),
                           ({0b01, 0b100}, "blocks do not cover the carrier")]:
        with pytest.raises(ValueError, match=message):
            Cover(frozenset(masks))
