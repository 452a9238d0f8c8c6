from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stonework.boolring import (
    BoolRing,
    GroupEndo,
    enumerate_group_endos,
    enumerate_ring_endos,
    parity,
    pontryagin_dual,
    ring_homs_to_Z2,
)
from stonework.duality import (
    ON_DUAL_ENDOS,
    ON_MAPS,
    ON_RING_ENDOS,
    TAGS,
    EntourageChi,
    delta_adjoint,
    delta_eval,
    entourage_partition,
    entourage_transport,
    hom_embed,
    phi,
    phi_array,
    phi_inverse,
    preimage_mask,
)
from stonework.errors import DimensionMismatch
from stonework.finmon import full_selfmap_monoid


def test_phi_identity_and_constant():
    ring = BoolRing(2)
    assert phi((0, 1), ring).atom_images == (1, 2)
    # constant-0 map: the set {0} pulls back to everything, {1} to nothing
    assert phi((0, 0), ring).atom_images == (3, 0)


def test_phi_anti_multiplicative_exhaustive_three_points():
    ring = BoolRing(3)
    maps = full_selfmap_monoid(3)
    for s in maps.elements:
        for t in maps.elements:
            st = tuple(s[t[x]] for x in range(3))
            assert phi(st, ring).atom_images == \
                phi(t, ring).compose(phi(s, ring)).atom_images


@pytest.mark.parametrize("n", [1, 2, 3])
def test_phi_bijective_with_inverse(n):
    ring = BoolRing(n)
    endos = enumerate_ring_endos(ring)
    images = {phi(f, ring).atom_images for f in full_selfmap_monoid(n).elements}
    assert images == {e.atom_images for e in endos}
    for e in endos:
        assert phi(phi_inverse(e), ring) == e


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phi_array_matches_phi(n):
    maps = full_selfmap_monoid(n)
    images = phi_array(maps.values).tolist()
    assert [tuple(row) for row in images] == [phi(f).atom_images for f in maps.elements]


def test_phi_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        phi((0, 1), BoolRing(3))


@pytest.mark.parametrize("embed", [phi, hom_embed])
@pytest.mark.parametrize("s", [[1.9, 0.2], [True, False], [0, 2], [-1, 0]])
def test_phi_takes_only_integer_points_of_the_carrier(embed, s):
    # int() would read [1.9, 0.2] as the swap and [True, False] as (1, 0)
    with pytest.raises(ValueError, match=r"is not a self-map of 2 points"):
        embed(s)


def test_phi_takes_numpy_integer_points():
    assert phi(np.array([1, 0])) == phi((np.uint8(1), np.int64(0))) == phi((1, 0))


def test_delta_identity_and_swap():
    ring = BoolRing(2)
    ident = GroupEndo(ring=ring, rows=(1, 2))
    assert delta_adjoint(ident).rows == (1, 2)
    swap = GroupEndo(ring=ring, rows=(2, 1))
    assert delta_adjoint(swap).rows == (2, 1)  # a swap matrix is its own transpose


def test_delta_anti_homomorphism_all_pairs_two_atoms():
    ring = BoolRing(2)
    endos = enumerate_group_endos(ring)
    assert len(endos) == 16
    for sigma in endos:
        for tau in endos:
            lhs = delta_adjoint(sigma.compose(tau))
            rhs = delta_adjoint(tau).compose(delta_adjoint(sigma))
            assert lhs.rows == rhs.rows


def test_delta_realizes_precomposition_pointwise():
    # the transpose matrix must act on characters exactly as f -> f . sigma
    for n in (2, 3):
        ring = BoolRing(n)
        dual = pontryagin_dual(ring)
        for sigma in enumerate_group_endos(ring):
            adj = delta_adjoint(sigma)
            for f in dual.elements():
                g = adj.apply(f)
                for chi in ring.elements():
                    assert dual.pairing(chi, g) == dual.pairing(sigma.apply(chi), f)


def test_delta_bijective_involution():
    ring = BoolRing(3)
    endos = enumerate_group_endos(ring)
    transposed = {delta_adjoint(e).rows for e in endos}
    assert transposed == {e.rows for e in endos}
    for e in endos[:32]:
        assert delta_adjoint(delta_adjoint(e)).rows == e.rows


def test_delta_eval_tiny_and_image():
    ring1 = BoolRing(1)
    assert delta_eval(0, ring1) == 1
    ring = BoolRing(3)
    image = {delta_eval(y, ring) for y in range(3)}
    assert image == set(ring_homs_to_Z2(ring))
    assert len(image) == 3
    with pytest.raises(ValueError):
        delta_eval(3, ring)


def test_evaluation_equivariance_exhaustive():
    ring = BoolRing(3)
    for s in full_selfmap_monoid(3).elements:
        endo = hom_embed(s, ring)
        for y in range(3):
            assert endo.apply(delta_eval(y, ring)) == delta_eval(s[y], ring)


def test_hom_embed_is_a_homomorphism():
    ring = BoolRing(2)
    maps = full_selfmap_monoid(2)
    for s in maps.elements:
        for t in maps.elements:
            st = tuple(s[t[x]] for x in range(2))
            assert hom_embed(st, ring).rows == \
                hom_embed(s, ring).compose(hom_embed(t, ring)).rows


def phi_at(s, ring, chi):
    return phi(s, ring).apply(chi)


def oracle_transport(chi, s1, s2, ring, preimage=preimage_mask, image=phi_at):
    """Memberships of one pair, computed per pair: preimage masks, phi(...).apply,
    and a literal loop over every character of the ring."""
    a, b = image(s1, ring, chi), image(s2, ring, chi)
    return (
        preimage(s1, chi) == preimage(s2, chi),
        a == b,
        all(parity(psi & a) == parity(psi & b) for psi in pontryagin_dual(ring).elements()),
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_entourages_match_the_oracle(n):
    ring = BoolRing(n)
    maps = full_selfmap_monoid(n)
    k = len(maps)
    s1, s2 = np.repeat(maps.values, k, axis=0), np.tile(maps.values, (k, 1))
    for chi in ring.elements():
        memberships = entourage_transport(chi, s1, s2, ring)
        assert memberships.shape == (3, k * k) and memberships.dtype == bool
        parts = [entourage_partition(maps, chi, tag, ring) for tag in TAGS]
        ents = [EntourageChi(ring=ring, chi=chi, tag=tag) for tag in TAGS]
        for p, (i, j) in enumerate(product(range(k), repeat=2)):
            f, g = maps.elements[i], maps.elements[j]
            expected = oracle_transport(chi, f, g, ring)
            assert tuple(memberships[:, p]) == expected
            assert tuple(part.relates(i, j) for part in parts) == expected
            assert tuple(ent.relates(f, g) for ent in ents) == expected


def test_scalar_transport_returns_a_tuple_of_bools():
    for result in (entourage_transport(1, (0, 1), (1, 0)),
                   entourage_transport(3, range(3), [2, 1, 0], BoolRing(3))):
        assert type(result) is tuple and len(result) == 3
        assert all(type(x) is bool for x in result)
    assert type(EntourageChi(ring=BoolRing(2), chi=1, tag=ON_MAPS).relates((0, 1), (0, 0))) is bool


def test_transport_broadcasts_one_map_against_many():
    maps = full_selfmap_monoid(2)
    row = entourage_transport(1, (0, 1), maps.values)
    assert row.shape == (3, 4)
    assert row.tolist() == [[entourage_transport(1, (0, 1), f)[t] for f in maps.elements]
                            for t in range(3)]


@pytest.mark.parametrize("s1,s2,error", [
    ((0, 1), (0, 1, 2), DimensionMismatch),
    ((0, 2), (0, 1), ValueError),          # a value outside the carrier
])
def test_transport_rejects_bad_maps(s1, s2, error):
    with pytest.raises(error):
        entourage_transport(1, s1, s2)


def test_transport_rejects_chi_and_ring_mismatch():
    with pytest.raises(ValueError):
        entourage_transport(4, (0, 1), (1, 0))
    with pytest.raises(DimensionMismatch):
        entourage_transport(1, (0, 1), (1, 0), BoolRing(3))


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
    ring = BoolRing(n)
    memberships = entourage_transport(chi, [f for f, _ in pairs], [g for _, g in pairs], ring)
    assert [tuple(col) for col in memberships.T.tolist()] == \
        [oracle_transport(chi, f, g, ring) for f, g in pairs]


def test_entourage_transport_examples():
    assert entourage_transport(1, (0, 1), (0, 1)) == (True, True, True)
    # identity versus swap disagree on the preimage of {0}
    assert entourage_transport(1, (0, 1), (1, 0)) == (False, False, False)


def test_entourage_transport_triple_constant_exhaustive():
    ring = BoolRing(2)
    maps = full_selfmap_monoid(2).elements
    for chi in ring.elements():
        for s1 in maps:
            for s2 in maps:
                triple = entourage_transport(chi, s1, s2, ring)
                assert len(set(triple)) == 1


def test_entourage_relations_are_equivalences():
    ring = BoolRing(2)
    maps = full_selfmap_monoid(2)
    for chi in ring.elements():
        for tag in (ON_MAPS, ON_RING_ENDOS, ON_DUAL_ENDOS):
            ent = EntourageChi(ring=ring, chi=chi, tag=tag)
            rel = {
                (i, j): ent.relates(maps.elements[i], maps.elements[j])
                for i, j in product(range(len(maps)), repeat=2)
            }
            part = entourage_partition(maps, chi, tag, ring)
            for i, j in product(range(len(maps)), repeat=2):
                assert rel[(i, j)] == rel[(j, i)]
                assert rel[(i, i)]
                assert rel[(i, j)] == part.relates(i, j)
            for i, j, k in product(range(len(maps)), repeat=3):
                if rel[(i, j)] and rel[(j, k)]:
                    assert rel[(i, k)]


def test_entourage_chi_validation():
    ring = BoolRing(2)
    with pytest.raises(ValueError):
        EntourageChi(ring=ring, chi=1, tag="elsewhere")
    with pytest.raises(ValueError):
        EntourageChi(ring=ring, chi=9, tag=ON_MAPS)


def test_dual_endo_tag_quantifies_over_characters():
    # the third representation must agree with the shortcut on a case
    # where the compared images differ in exactly one coordinate
    ring = BoolRing(2)
    ent = EntourageChi(ring=ring, chi=1, tag=ON_DUAL_ENDOS)
    assert ent.relates((0, 0), (0, 1)) == (
        phi((0, 0), ring).apply(1) == phi((0, 1), ring).apply(1)
    )
    assert parity(1 & 1) != parity(1 & 2)  # some character separates masks 1 and 2
