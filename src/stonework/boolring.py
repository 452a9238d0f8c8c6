"""Finite Boolean rings presented by atoms, their endomorphisms, and duals.

A ring with n atoms is the powerset of the atom set: elements are n-bit
masks (bit a = atom a), addition is XOR (symmetric difference) and
multiplication is AND (intersection).  So the ring is its atom count n,
and no object stands for it: an endomorphism reads n off the length of
its masks.  Ring endomorphisms are stored by their atom images, additive
(group) endomorphisms as bit matrices, and characters of the additive
group as masks f with f(x) = parity(f & x); their pointwise sum is the
XOR of masks, so the dual is again a Boolean group of the same size.

Sets of additive maps are also held as self-maps of the 2**n ring
elements: ``additive_monoid`` passes their distinct value tables, as the
rows of one array, to a SelfMapMonoid, which keys and composes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DimensionMismatch
from .finmon import SelfMapMonoid
from .limits import guard_enum


def parity(x: int) -> int:
    return bin(x).count("1") & 1


def mask_to_bits(mask: int, n: int) -> str:
    """Bitstring with atom 0 leftmost."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))


def xor_over_bits(masks, x: int) -> int:
    """XOR of masks[a] over the set bits a of x."""
    out = 0
    for a, mask in enumerate(masks):
        if x >> a & 1:
            out ^= mask
    return out


def require_atoms(n: int) -> int:
    """n, refused with a ValueError unless the ring has at least one atom."""
    if n < 1:
        raise ValueError("ring needs at least one atom")
    return n


def _same_atoms(x, y) -> None:
    if len(x) != len(y):
        raise DimensionMismatch("endomorphisms of rings with different atom counts")


@dataclass(frozen=True)
class RingEndo:
    """Unital multiplicative additive self-map, stored by atom images.

    Atom images must be pairwise disjoint and cover the unit; this is
    exactly multiplicativity and unitality on generators and additivity
    extends by XOR, so the two stored conditions pin the whole law set.
    """

    atom_images: tuple[int, ...]

    def __post_init__(self):
        n = require_atoms(len(self.atom_images))
        union = 0
        for a, img in enumerate(self.atom_images):
            if not 0 <= img < 1 << n:
                raise ValueError(f"atom image {a} out of range")
            if union & img:
                raise ValueError("atom images are not pairwise disjoint")
            union |= img
        if union != (1 << n) - 1:
            raise ValueError("atom images do not cover the unit")

    def apply(self, x: int) -> int:
        return xor_over_bits(self.atom_images, x)

    def compose(self, other: RingEndo) -> RingEndo:
        """self after other."""
        _same_atoms(self.atom_images, other.atom_images)
        images = tuple(self.apply(img) for img in other.atom_images)
        return RingEndo(images)

    def to_group_endo(self) -> GroupEndo:
        # the atom images are the matrix's columns
        return GroupEndo(self.atom_images).transpose()

    def to_json(self) -> dict:
        n = len(self.atom_images)
        return {"atom_images": [mask_to_bits(img, n) for img in self.atom_images]}


def identity_ring_endo(n: int) -> RingEndo:
    return RingEndo(tuple(1 << a for a in range(n)))


def enumerate_ring_endos(n: int) -> list[RingEndo]:
    """All ring endomorphisms, by brute force over atom-image assignments.

    Depth-first over atoms with disjointness pruning; results come out in
    ascending lexicographic order of the atom-image tuples.
    """
    require_atoms(n)
    guard_enum(n**n, f"ring endomorphisms of a {n}-atom ring")
    one = (1 << n) - 1
    out: list[RingEndo] = []
    images: list[int] = []

    def descend(used: int) -> None:
        depth = len(images)
        if depth == n:
            if used == one:
                out.append(RingEndo(tuple(images)))
            return
        for img in range(one + 1):
            if img & used:
                continue
            images.append(img)
            descend(used | img)
            images.pop()

    descend(0)
    return out


@dataclass(frozen=True)
class GroupEndo:
    """Additive self-map of the ring, an n-by-n bit matrix.

    rows[i] is the mask of input coordinates feeding output coordinate i,
    so the action on a mask x is y with y_i = parity(rows[i] & x).
    """

    rows: tuple[int, ...]

    def __post_init__(self):
        n = require_atoms(len(self.rows))
        if any(not 0 <= r < 1 << n for r in self.rows):
            raise ValueError("matrix row out of range")

    def apply(self, x: int) -> int:
        return sum(parity(row & x) << i for i, row in enumerate(self.rows))

    def compose(self, other: GroupEndo) -> GroupEndo:
        _same_atoms(self.rows, other.rows)
        # row_i of (self after other) collects other's rows selected by self's row_i
        rows = tuple(xor_over_bits(other.rows, r) for r in self.rows)
        return GroupEndo(rows)

    def transpose(self) -> GroupEndo:
        n = len(self.rows)
        rows = tuple(
            sum(((self.rows[j] >> i) & 1) << j for j in range(n))
            for i in range(n)
        )
        return GroupEndo(rows)

    def to_json(self) -> dict:
        n = len(self.rows)
        return {"matrix": [mask_to_bits(r, n) for r in self.rows]}


def enumerate_group_endos(n: int) -> list[GroupEndo]:
    """All additive endomorphisms: every n-by-n bit matrix, in row-lex order."""
    require_atoms(n)
    guard_enum(1 << (n * n), f"group endomorphisms of a {n}-atom ring")
    return [GroupEndo(rows) for rows in product(range(1 << n), repeat=n)]


def transpose_masks(masks, n: int) -> np.ndarray:
    """Transposes of n-by-n bit matrices given as an (E, n) array of masks:
    bit j of out[e, i] is bit i of masks[e, j], so rows become columns."""
    masks = np.asarray(masks, dtype=np.int64)
    bits = (masks[:, None, :] >> np.arange(n)[:, None]) & 1      # bits[e, i, j]
    return (bits << np.arange(n)).sum(axis=-1)


def additive_values(columns, n: int) -> np.ndarray:
    """Value tables of additive maps from their atom images (a matrix's
    columns): out[e, x] is the XOR of columns[e, a] over the bits a of x."""
    columns = np.asarray(columns, dtype=np.int64)
    out = np.zeros((len(columns), 1 << n), dtype=np.int64)
    for x in range(1, 1 << n):
        lsb = x & -x
        out[:, x] = out[:, x ^ lsb] ^ columns[:, lsb.bit_length() - 1]
    return out


def additive_monoid(columns, n: int) -> tuple[SelfMapMonoid, np.ndarray]:
    """Additive maps, given by atom images, as self-maps of the 2**n elements.

    Returns the SelfMapMonoid of their distinct value tables, which must
    include the identity, and the index of each input map in it.  Closure
    is not assumed.
    """
    values, where = np.unique(additive_values(columns, n), axis=0, return_inverse=True)
    return SelfMapMonoid(values), where.reshape(-1)


def _is_ring_hom(f: int, one: int) -> bool:
    if parity(one & f) != 1:
        return False
    for chi in range(one + 1):
        for psi in range(one + 1):
            if parity(chi & psi & f) != parity(chi & f) & parity(psi & f):
                return False
    return True


def ring_homs_to_Z2(n: int) -> list[int]:
    """Characters that are also multiplicative and unital (brute filter)."""
    one = (1 << require_atoms(n)) - 1
    return [f for f in range(one + 1) if _is_ring_hom(f, one)]
