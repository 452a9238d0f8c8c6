import numpy as np
import pytest

from stonework.boolring import (
    GroupEndo,
    RingEndo,
    additive_monoid,
    enumerate_group_endos,
    enumerate_ring_endos,
    mask_to_bits,
    parity,
    ring_homs_to_Z2,
    transpose_masks,
)
from stonework.errors import DimensionMismatch
from stonework.finmon import full_selfmap_monoid
from stonework.duality import phi


def gf2_rank(matrix: np.ndarray) -> int:
    mat = (np.array(matrix, dtype=np.uint8) % 2).copy()
    m, n = mat.shape
    rank = row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if mat[r, col]), None)
        if pivot is None:
            continue
        mat[[row, pivot]] = mat[[pivot, row]]
        for r in range(m):
            if r != row and mat[r, col]:
                mat[r, :] ^= mat[row, :]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def test_bitstring_convention_atom_zero_leftmost():
    assert mask_to_bits(1, 3) == "100"
    assert mask_to_bits(6, 3) == "011"


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 27)])
def test_ring_endo_counts(n, count):
    assert len(enumerate_ring_endos(n)) == count


def test_ring_endo_count_matches_literal_filter_n2():
    # independent oracle: filter every generator assignment directly
    hits = [
        (a, b)
        for a in range(4)
        for b in range(4)
        if a & b == 0 and a ^ b == 3
    ]
    assert len(hits) == 4
    enumerated = [e.atom_images for e in enumerate_ring_endos(2)]
    assert sorted(hits) == enumerated


def test_ring_endo_invariants_enforced():
    with pytest.raises(ValueError):
        RingEndo((3, 1))  # overlapping images
    with pytest.raises(ValueError):
        RingEndo((1, 0))  # does not cover the unit


def test_ring_endo_apply_is_ring_homomorphism():
    # addition is XOR and multiplication AND of the 3-bit masks; the unit is 7
    for endo in enumerate_ring_endos(3):
        for x in range(8):
            for y in range(8):
                assert endo.apply(x ^ y) == endo.apply(x) ^ endo.apply(y)
                assert endo.apply(x & y) == endo.apply(x) & endo.apply(y)
        assert endo.apply(7) == 7


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ring_endos_closed_and_anti_isomorphic_to_selfmaps(n):
    endos = enumerate_ring_endos(n)
    index = {e.atom_images: i for i, e in enumerate(endos)}
    maps = full_selfmap_monoid(n)
    table = maps.to_monoid()
    to_endo = [index[phi(f).atom_images] for f in maps.elements]
    assert sorted(to_endo) == list(range(len(endos)))
    for s in range(len(maps)):
        for t in range(len(maps)):
            # the endomorphism table is the relabelled opposite table
            composed = endos[to_endo[t]].compose(endos[to_endo[s]])
            assert index[composed.atom_images] == to_endo[table.table[s][t]]


@pytest.mark.parametrize("n,count", [(1, 2), (2, 16), (3, 512)])
def test_group_endo_counts(n, count):
    assert len(enumerate_group_endos(n)) == count


def test_group_endo_apply_and_compose():
    swap = GroupEndo((2, 1))
    assert swap.apply(1) == 2 and swap.apply(2) == 1
    assert swap.compose(swap).rows == (1, 2)  # the identity matrix
    for sigma in enumerate_group_endos(2):
        for x in range(4):
            for y in range(4):
                assert sigma.apply(x ^ y) == sigma.apply(x) ^ sigma.apply(y)


@pytest.mark.parametrize("endo", [RingEndo, GroupEndo])
def test_compose_refuses_endomorphisms_of_different_rings(endo):
    three, two = endo((1, 2, 4)), endo((1, 2))
    for outer, inner in ((three, two), (two, three)):
        with pytest.raises(DimensionMismatch):
            outer.compose(inner)


def test_pontryagin_dual_counts_and_pairing_rank():
    # the characters of the n-atom ring are the n-bit masks f, pairing as parity(chi & f)
    for n in (1, 2, 3):
        pairing = [
            [parity(chi & f) for f in range(2**n)] for chi in range(2**n)
        ]
        assert gf2_rank(np.array(pairing)) == n
        for chi in range(1, 2**n):
            assert any(pairing[chi])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_double_dual_canonical_map_bijective(n):
    # characters of the character group, enumerated by exhaustive filtering
    size = 1 << n
    candidates = np.arange(1 << size, dtype=np.int64)
    values = ((candidates[:, None] >> np.arange(size)[None, :]) & 1).astype(np.uint8)
    xor = np.arange(size)[:, None] ^ np.arange(size)[None, :]
    additive = (values[:, xor] == values[:, :, None] ^ values[:, None, :]).all(axis=(1, 2))
    homs = set(candidates[additive].tolist())
    assert len(homs) == size
    canonical = set()
    for chi in range(size):
        vec = sum(parity(g & chi) << g for g in range(size))
        canonical.add(vec)
    assert len(canonical) == size  # injective
    assert canonical == homs       # onto the double dual


def test_ring_homs_are_the_atom_evaluations():
    assert ring_homs_to_Z2(1) == [1]
    homs = ring_homs_to_Z2(3)
    assert homs == [1, 2, 4]
    for f in homs:
        hits = [a for a in range(3) if parity(f & (1 << a))]
        assert len(hits) == 1
    assert 0 not in homs  # the zero functional fails unitality


def test_ring_endo_to_group_endo_consistent():
    for endo in enumerate_ring_endos(3):
        sigma = endo.to_group_endo()
        for x in range(8):
            assert sigma.apply(x) == endo.apply(x)


def _compose_against_reference(endos, columns, n):
    """The additive monoid's batched compose against the endos' own compose."""
    maps, where = additive_monoid(columns, n)
    assert len(maps) == len(endos)
    index = {e: i for i, e in enumerate(endos)}
    table = maps.compose(where[:, None], where)
    for a, sigma in enumerate(endos):
        for b, tau in enumerate(endos):
            assert table[a, b] == where[index[sigma.compose(tau)]]
    for e, row in zip(endos, maps.values[where].tolist()):
        assert row == [e.apply(x) for x in range(1 << n)]


# n = 4 keys its 16-point maps in addressed, then checked levels (see SelfMapMonoid._key_levels)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_additive_monoid_composes_like_ring_endos(n):
    endos = enumerate_ring_endos(n)
    _compose_against_reference(endos, [e.atom_images for e in endos], n)


@pytest.mark.parametrize("n", [1, 2])
def test_additive_monoid_composes_like_group_endos(n):
    endos = enumerate_group_endos(n)
    _compose_against_reference(endos, transpose_masks([e.rows for e in endos], n), n)


def test_transpose_masks_matches_group_endo_transpose():
    endos = enumerate_group_endos(3)
    transposed = transpose_masks([e.rows for e in endos], 3)
    assert [tuple(row) for row in transposed.tolist()] == \
        [e.transpose().rows for e in endos]
