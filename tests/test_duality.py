from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stonework.boolring import (
    GroupEndo,
    RingEndo,
    enumerate_group_endos,
    enumerate_ring_endos,
    parity,
    ring_homs_to_Z2,
)
from stonework.duality import (
    ON_DUAL_ENDOS,
    ON_MAPS,
    ON_RING_ENDOS,
    TAGS,
    delta_adjoint,
    delta_eval,
    entourage_keys,
    entourage_partition,
    entourage_transport,
    hom_embed,
    phi,
    phi_array,
    phi_inverse,
    preimage_mask,
    preimage_masks,
)
from stonework.errors import DimensionMismatch, ResourceLimit
from stonework.finmon import SelfMapMonoid, full_selfmap_monoid, is_self_map


def test_phi_identity_and_constant():
    assert phi((0, 1)).atom_images == (1, 2)
    # constant-0 map: the set {0} pulls back to everything, {1} to nothing
    assert phi((0, 0)).atom_images == (3, 0)


def test_phi_anti_multiplicative_exhaustive_three_points():
    maps = full_selfmap_monoid(3)
    for s in maps.elements:
        for t in maps.elements:
            st = tuple(s[t[x]] for x in range(3))
            assert phi(st).atom_images == phi(t).compose(phi(s)).atom_images


@pytest.mark.parametrize("n", [1, 2, 3])
def test_phi_bijective_with_inverse(n):
    endos = enumerate_ring_endos(n)
    images = {phi(f).atom_images for f in full_selfmap_monoid(n).elements}
    assert images == {e.atom_images for e in endos}
    for e in endos:
        assert phi(phi_inverse(e)) == e


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phi_array_matches_phi(n):
    maps = full_selfmap_monoid(n)
    images = phi_array(maps.values).tolist()
    assert [tuple(row) for row in images] == [phi(f).atom_images for f in maps.elements]


@pytest.mark.parametrize("embed", [phi, hom_embed])
@pytest.mark.parametrize("s", [[1.9, 0.2], [True, False], [0, 2], [-1, 0]])
def test_phi_takes_only_integer_points_of_the_carrier(embed, s):
    # int() would read [1.9, 0.2] as the swap and [True, False] as (1, 0)
    with pytest.raises(ValueError, match=r"is not a self-map of 2 points"):
        embed(s)


@pytest.mark.parametrize("embed", [phi_array, hom_embed])
@pytest.mark.parametrize("rows", [[[0, 5]], [[True, 0]], [[0.0, 1.0]], [[-1, 0]],
                                  [[1, 0], [0, 2]]])
def test_the_array_forms_refuse_what_phi_refuses(embed, rows):
    bad = next(row for row in rows if not is_self_map(row, 2))
    with pytest.raises(ValueError) as exc:
        phi(bad)
    with pytest.raises(ValueError) as arr:
        embed(rows)
    assert str(arr.value) == str(exc.value)
    if rows != [[True, 0]]:         # as an array, [True, 0] is the swap's row of ints
        with pytest.raises(ValueError) as arr:
            embed(np.array(rows))
        assert str(arr.value) == str(exc.value).replace("True", "1")


@pytest.mark.parametrize("rows", [np.array([[True, False]]), np.array([[1.0, 0.0]])])
def test_phi_array_refuses_arrays_of_no_points(rows):
    with pytest.raises(ValueError, match=r"is not a self-map of 2 points"):
        phi_array(rows)


def test_phi_array_refuses_maps_on_no_points_as_phi_does():
    with pytest.raises(ValueError) as exc:
        phi(())
    for rows in ([()], np.zeros((2, 0), dtype=np.int64)):
        with pytest.raises(ValueError) as arr:
            phi_array(rows)
        assert str(arr.value) == str(exc.value)
    assert phi_array(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hom_embed_of_an_array_gives_the_rows_of_each_map(n):
    maps = full_selfmap_monoid(n)
    rows = hom_embed(maps.values)
    assert rows.shape == (len(maps), n)
    assert [tuple(r) for r in rows.tolist()] == [hom_embed(s).rows for s in maps.elements]
    assert isinstance(hom_embed(maps.elements[0]), GroupEndo)


def test_the_array_forms_hold_maps_on_up_to_63_points():
    # bit 63 of an int64 mask is its sign: phi_array gave -2**63 for the
    # last atom of the identity on 64 points, and hom_embed zeros on 70
    values = np.array([np.arange(63), np.arange(63)[::-1], np.arange(63) // 2, np.zeros(63, int)])
    assert phi_array(values).tolist() == [list(phi(s).atom_images) for s in values.tolist()]
    chi = 1 << 62 | 1
    assert preimage_masks(values, chi).tolist() == [preimage_mask(s, chi) for s in values.tolist()]
    for width in (64, 70):
        wide = np.arange(width)[None]
        for entry in (phi_array, hom_embed, lambda v: preimage_masks(v, 1),
                      lambda v: entourage_keys(v, 1)):
            with pytest.raises(ValueError, match=f"maps on {width} points exceed the 63 points"):
                entry(wide)


def test_the_dual_builds_are_capped(monkeypatch):
    maps = full_selfmap_monoid(2).values
    # 4 maps against the 4 characters of a 2-atom ring; the 2 x 2 bits of phi
    monkeypatch.setenv("STONEWORK_MAX_ENUM", "16")
    assert entourage_keys(maps, 1)[2].shape == (4, 4)
    monkeypatch.setenv("STONEWORK_MAX_ENUM", "15")
    with pytest.raises(ResourceLimit, match="parities of 4 maps .* needs 16 items"):
        entourage_keys(maps, 1)
    monkeypatch.setenv("STONEWORK_MAX_ENUM", "4")
    assert phi((1, 0)).atom_images == (2, 1)
    monkeypatch.setenv("STONEWORK_MAX_ENUM", "3")
    for embed in (phi, hom_embed):
        with pytest.raises(ResourceLimit, match="the 2x2 bits of phi .* needs 4 items"):
            embed((1, 0))


def test_phi_takes_numpy_integer_points():
    assert phi(np.array([1, 0])) == phi((np.uint8(1), np.int64(0))) == phi((1, 0))


def test_delta_identity_and_swap():
    ident = GroupEndo((1, 2))
    assert delta_adjoint(ident).rows == (1, 2)
    swap = GroupEndo((2, 1))
    assert delta_adjoint(swap).rows == (2, 1)  # a swap matrix is its own transpose


def test_delta_anti_homomorphism_all_pairs_two_atoms():
    endos = enumerate_group_endos(2)
    assert len(endos) == 16
    for sigma in endos:
        for tau in endos:
            lhs = delta_adjoint(sigma.compose(tau))
            rhs = delta_adjoint(tau).compose(delta_adjoint(sigma))
            assert lhs.rows == rhs.rows


def test_delta_realizes_precomposition_pointwise():
    # the transpose matrix must act on characters exactly as f -> f . sigma
    for n in (2, 3):
        for sigma in enumerate_group_endos(n):
            adj = delta_adjoint(sigma)
            for f in range(2**n):
                g = adj.apply(f)
                for chi in range(2**n):
                    assert parity(chi & g) == parity(sigma.apply(chi) & f)


def test_delta_bijective_involution():
    endos = enumerate_group_endos(3)
    transposed = {delta_adjoint(e).rows for e in endos}
    assert transposed == {e.rows for e in endos}
    for e in endos[:32]:
        assert delta_adjoint(delta_adjoint(e)).rows == e.rows


def test_delta_eval_tiny_and_image():
    assert delta_eval(0, 1) == 1
    image = {delta_eval(y, 3) for y in range(3)}
    assert image == set(ring_homs_to_Z2(3))
    assert len(image) == 3
    with pytest.raises(ValueError):
        delta_eval(3, 3)
    # read as point 1, and a raw TypeError, before
    for y in (True, 1.0):
        with pytest.raises(ValueError, match=f"point {y!r} is not an integer"):
            delta_eval(y, 3)
    assert delta_eval(np.int64(1), 3) == 2
    assert type(delta_eval(np.int64(1), 3)) is int        # np.int64(2), which json refuses


def test_evaluation_equivariance_exhaustive():
    for s in full_selfmap_monoid(3).elements:
        endo = hom_embed(s)
        for y in range(3):
            assert endo.apply(delta_eval(y, 3)) == delta_eval(s[y], 3)


def test_hom_embed_is_a_homomorphism():
    maps = full_selfmap_monoid(2)
    for s in maps.elements:
        for t in maps.elements:
            st = tuple(s[t[x]] for x in range(2))
            assert hom_embed(st).rows == hom_embed(s).compose(hom_embed(t)).rows


def phi_at(s, chi):
    return phi(s).apply(chi)


def oracle_transport(chi, s1, s2, preimage=preimage_mask, image=phi_at):
    """Memberships of one pair, computed per pair: preimage masks, phi(...).apply,
    and a literal loop over every character of the ring."""
    a, b = image(s1, chi), image(s2, chi)
    return (
        preimage(s1, chi) == preimage(s2, chi),
        a == b,
        all(parity(psi & a) == parity(psi & b) for psi in range(1 << len(s1))),
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_entourages_match_the_oracle(n):
    maps = full_selfmap_monoid(n)
    k = len(maps)
    s1, s2 = np.repeat(maps.values, k, axis=0), np.tile(maps.values, (k, 1))
    for chi in range(1 << n):
        memberships = entourage_transport(chi, s1, s2)
        assert memberships.shape == (3, k * k) and memberships.dtype == bool
        parts = [entourage_partition(maps, chi, tag) for tag in TAGS]
        for p, (i, j) in enumerate(product(range(k), repeat=2)):
            f, g = maps.elements[i], maps.elements[j]
            expected = oracle_transport(chi, f, g)
            assert tuple(memberships[:, p]) == expected
            assert tuple(part.relates(i, j) for part in parts) == expected
            assert entourage_transport(chi, f, g) == expected


def test_scalar_transport_returns_a_tuple_of_bools():
    for result in (entourage_transport(1, (0, 1), (1, 0)),
                   entourage_transport(3, range(3), [2, 1, 0]),
                   entourage_transport(1, (0, 1), (0, 0))):
        assert type(result) is tuple and len(result) == 3
        assert all(type(x) is bool for x in result)


def test_transport_broadcasts_one_map_against_many():
    maps = full_selfmap_monoid(2)
    row = entourage_transport(1, (0, 1), maps.values)
    assert row.shape == (3, 4)
    assert row.tolist() == [[entourage_transport(1, (0, 1), f)[t] for f in maps.elements]
                            for t in range(3)]


@pytest.mark.parametrize("s1,s2,error", [
    ((0, 1), (0, 1, 2), DimensionMismatch),
    ((0, 2), (0, 1), ValueError),          # a value outside the carrier
    # entries that are no points, as phi refuses them, whatever numpy reads
    ((1.5, 0), (0, 1), ValueError),
    ((True, 0), (0, 1), ValueError),
    ([(0, 1), (True, 0)], (0, 1), ValueError),
    (np.array([[True, False]]), (0, 1), ValueError),
    (np.array([[1.0, 0.0]]), (0, 1), ValueError),
])
def test_transport_rejects_bad_maps(s1, s2, error):
    with pytest.raises(error):
        entourage_transport(1, s1, s2)


def test_transport_rejects_chi_out_of_range():
    for chi in (4, -1):
        with pytest.raises(ValueError, match="chi out of range"):
            entourage_transport(chi, (0, 1), (1, 0))
    # a ring element is a point: no bool or float, as is_point reads it
    maps = full_selfmap_monoid(2)
    for chi in (True, 1.0, np.float64(1)):
        with pytest.raises(ValueError, match="is not an integer"):
            entourage_transport(chi, (0, 1), (1, 0))
        with pytest.raises(ValueError, match="is not an integer"):
            entourage_partition(maps, chi, ON_MAPS)
    assert entourage_transport(np.int64(1), (0, 1), (1, 0)) == (False, False, False)


def test_preimage_masks_check_chi_as_entourage_keys_does():
    # numpy would read 1 << 63 as an overflow and -1 as every point
    values = np.array([[0, 1]])
    for entry in (preimage_masks, entourage_keys):
        for chi in (1 << 63, -1, 4):
            with pytest.raises(ValueError, match="chi out of range"):
                entry(values, chi)
        for chi in (True, 1.0):
            with pytest.raises(ValueError, match="is not an integer"):
                entry(values, chi)
    assert preimage_masks(values, 3).tolist() == [3]


def test_zero_point_maps_are_refused():
    # the powerset ring of no points has no atoms
    with pytest.raises(ValueError, match="ring needs at least one atom"):
        entourage_transport(0, (), ())
    with pytest.raises(ValueError, match="ring needs at least one atom"):
        entourage_transport(0, np.zeros((2, 0), dtype=int), np.zeros((2, 0), dtype=int))
    # no public constructor builds a monoid on no points; adopt its one map
    maps = SelfMapMonoid._adopt(np.zeros((1, 0), dtype=np.uint8), 0)
    for tag in TAGS:
        with pytest.raises(ValueError, match="ring needs at least one atom"):
            entourage_partition(maps, 0, tag)


@pytest.mark.parametrize("entry", [
    lambda: RingEndo(()),
    lambda: GroupEndo(()),
    lambda: enumerate_ring_endos(0),
    lambda: enumerate_group_endos(0),
    lambda: ring_homs_to_Z2(0),
    lambda: phi(()),
    lambda: delta_eval(0, 0),
], ids=["RingEndo", "GroupEndo", "enumerate_ring_endos", "enumerate_group_endos",
        "ring_homs_to_Z2", "phi", "delta_eval"])
def test_zero_atoms_are_refused_at_every_entry(entry):
    with pytest.raises(ValueError, match="ring needs at least one atom"):
        entry()


@st.composite
def transport_cases(draw):
    n = draw(st.integers(4, 6))
    maps = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    pairs = draw(st.lists(st.tuples(maps, maps), min_size=1, max_size=8))
    return n, draw(st.integers(0, (1 << n) - 1)), pairs


@settings(derandomize=True, deadline=None, max_examples=100)
@given(transport_cases())
def test_batched_transport_matches_the_oracle_past_the_suite_cap(case):
    n, chi, pairs = case
    memberships = entourage_transport(chi, [f for f, _ in pairs], [g for _, g in pairs])
    assert [tuple(col) for col in memberships.T.tolist()] == \
        [oracle_transport(chi, f, g) for f, g in pairs]


def test_entourage_transport_examples():
    assert entourage_transport(1, (0, 1), (0, 1)) == (True, True, True)
    # identity versus swap disagree on the preimage of {0}
    assert entourage_transport(1, (0, 1), (1, 0)) == (False, False, False)


def test_entourage_transport_triple_constant_exhaustive():
    maps = full_selfmap_monoid(2).elements
    for chi in range(4):
        for s1 in maps:
            for s2 in maps:
                triple = entourage_transport(chi, s1, s2)
                assert len(set(triple)) == 1


def test_entourage_relations_are_equivalences():
    maps = full_selfmap_monoid(2)
    for chi in range(4):
        for t, tag in enumerate((ON_MAPS, ON_RING_ENDOS, ON_DUAL_ENDOS)):
            rel = {
                (i, j): entourage_transport(chi, maps.elements[i], maps.elements[j])[t]
                for i, j in product(range(len(maps)), repeat=2)
            }
            part = entourage_partition(maps, chi, tag)
            for i, j in product(range(len(maps)), repeat=2):
                assert rel[(i, j)] == rel[(j, i)]
                assert rel[(i, i)]
                assert rel[(i, j)] == part.relates(i, j)
            for i, j, k in product(range(len(maps)), repeat=3):
                if rel[(i, j)] and rel[(j, k)]:
                    assert rel[(i, k)]


def test_entourage_chi_validation():
    maps = full_selfmap_monoid(2)
    with pytest.raises(ValueError, match="unknown representation tag 'elsewhere'"):
        entourage_partition(maps, 1, "elsewhere")
    with pytest.raises(ValueError, match="chi out of range"):
        entourage_partition(maps, 9, ON_MAPS)
    with pytest.raises(ValueError, match="chi out of range"):
        entourage_transport(9, (0, 1), (0, 0))


def test_dual_endo_tag_quantifies_over_characters():
    # the third representation must agree with the shortcut on a case
    # where the compared images differ in exactly one coordinate
    dual = TAGS.index(ON_DUAL_ENDOS)
    assert entourage_transport(1, (0, 0), (0, 1))[dual] == (
        phi((0, 0)).apply(1) == phi((0, 1)).apply(1)
    )
    assert parity(1 & 1) != parity(1 & 2)  # some character separates masks 1 and 2
