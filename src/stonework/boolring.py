"""Finite Boolean rings presented by atoms, their endomorphisms, and duals.

A ring with n atoms is the powerset of the atom set: elements are n-bit
masks (bit a = atom a), addition is XOR (symmetric difference) and
multiplication is AND (intersection).  Ring endomorphisms are stored by
their atom images, additive (group) endomorphisms as bit matrices, and
characters of the additive group as masks pairing by overlap parity.

Sets of additive maps are also held as self-maps of the 2**n ring
elements: ``additive_monoid`` passes their distinct value tables, as the
rows of one array, to a SelfMapMonoid.  ``atom_keys`` keys a map by its
n atom images alone, packed into one int64; ``atom_composites`` composes
maps on those images and ``atom_index`` looks maps up by their keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DimensionMismatch
from .finmon import CHUNK_ENTRIES, SelfMapMonoid
from .limits import guard_enum
from .schema import expect_field, expect_int, expect_list, expect_object


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


def bits_to_mask(bits: str) -> int:
    mask = 0
    for i, ch in enumerate(bits):
        if ch == "1":
            mask |= 1 << i
        elif ch != "0":
            raise ValueError(f"bad bitstring character {ch!r}")
    return mask


@dataclass(frozen=True)
class BoolRing:
    atom_count: int

    def __post_init__(self):
        if self.atom_count < 1:
            raise ValueError("ring needs at least one atom")

    @property
    def size(self) -> int:
        return 1 << self.atom_count

    @property
    def one(self) -> int:
        return self.size - 1

    zero = 0

    def elements(self) -> range:
        return range(self.size)

    def add(self, x: int, y: int) -> int:
        return x ^ y

    def mul(self, x: int, y: int) -> int:
        return x & y

    def atom(self, a: int) -> int:
        if not 0 <= a < self.atom_count:
            raise ValueError(f"no atom {a}")
        return 1 << a

    def to_json(self) -> dict:
        return {"atoms": self.atom_count}


def ring_from_json(obj: dict) -> BoolRing:
    obj = expect_object(obj, "ring")
    return BoolRing(expect_int(expect_field(obj, "atoms", "ring"), "ring atoms", 1))


def _masks_from_json(ring: BoolRing, obj, key: str, what: str) -> tuple[int, ...]:
    """The field key of obj, one n-bit string per atom, read as masks."""
    n = ring.atom_count
    obj = expect_object(obj, what)
    entries = expect_list(expect_field(obj, key, what), f"{what} {key}")
    if len(entries) != n:
        raise ValueError(f"{what} {key} has {len(entries)} entries, not {n}")
    for i, bits in enumerate(entries):
        if not (isinstance(bits, str) and len(bits) == n and set(bits) <= {"0", "1"}):
            raise ValueError(
                f"{what} {key}[{i}] is {json.dumps(bits)}, not a bit string of length {n}")
    return tuple(bits_to_mask(bits) for bits in entries)


@dataclass(frozen=True)
class RingEndo:
    """Unital multiplicative additive self-map, stored by atom images.

    Atom images must be pairwise disjoint and cover the unit; this is
    exactly multiplicativity and unitality on generators and additivity
    extends by XOR, so the two stored conditions pin the whole law set.
    """

    ring: BoolRing
    atom_images: tuple[int, ...]

    def __post_init__(self):
        n = self.ring.atom_count
        if len(self.atom_images) != n:
            raise DimensionMismatch("one image per atom required")
        union = 0
        for a, img in enumerate(self.atom_images):
            if not 0 <= img < self.ring.size:
                raise ValueError(f"atom image {a} out of range")
            if union & img:
                raise ValueError("atom images are not pairwise disjoint")
            union |= img
        if union != self.ring.one:
            raise ValueError("atom images do not cover the unit")

    def apply(self, x: int) -> int:
        return xor_over_bits(self.atom_images, x)

    def compose(self, other: RingEndo) -> RingEndo:
        """self after other."""
        images = tuple(self.apply(img) for img in other.atom_images)
        return RingEndo(ring=self.ring, atom_images=images)

    def to_group_endo(self) -> GroupEndo:
        # the atom images are the matrix's columns
        return GroupEndo(ring=self.ring, rows=self.atom_images).transpose()

    def to_json(self) -> dict:
        n = self.ring.atom_count
        return {"atom_images": [mask_to_bits(img, n) for img in self.atom_images]}


def ring_endo_from_json(ring: BoolRing, obj: dict) -> RingEndo:
    images = _masks_from_json(ring, obj, "atom_images", "ring endomorphism")
    return RingEndo(ring=ring, atom_images=images)


def identity_ring_endo(ring: BoolRing) -> RingEndo:
    return RingEndo(ring=ring, atom_images=tuple(1 << a for a in range(ring.atom_count)))


def enumerate_ring_endos(ring: BoolRing) -> list[RingEndo]:
    """All ring endomorphisms, by brute force over atom-image assignments.

    Depth-first over atoms with disjointness pruning; results come out in
    ascending lexicographic order of the atom-image tuples.
    """
    n = ring.atom_count
    guard_enum(n**n, f"ring endomorphisms of a {n}-atom ring")
    out: list[RingEndo] = []
    images: list[int] = []

    def descend(used: int) -> None:
        depth = len(images)
        if depth == n:
            if used == ring.one:
                out.append(RingEndo(ring=ring, atom_images=tuple(images)))
            return
        for img in ring.elements():
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

    ring: BoolRing
    rows: tuple[int, ...]

    def __post_init__(self):
        n = self.ring.atom_count
        if len(self.rows) != n:
            raise DimensionMismatch("matrix must be square of atom size")
        if any(not 0 <= r < self.ring.size for r in self.rows):
            raise ValueError("matrix row out of range")

    def apply(self, x: int) -> int:
        return sum(parity(row & x) << i for i, row in enumerate(self.rows))

    def compose(self, other: GroupEndo) -> GroupEndo:
        # row_i of (self after other) collects other's rows selected by self's row_i
        rows = tuple(xor_over_bits(other.rows, r) for r in self.rows)
        return GroupEndo(ring=self.ring, rows=rows)

    def transpose(self) -> GroupEndo:
        n = self.ring.atom_count
        rows = tuple(
            sum(((self.rows[j] >> i) & 1) << j for j in range(n))
            for i in range(n)
        )
        return GroupEndo(ring=self.ring, rows=rows)

    def to_json(self) -> dict:
        n = self.ring.atom_count
        return {"matrix": [mask_to_bits(r, n) for r in self.rows]}


def group_endo_from_json(ring: BoolRing, obj: dict) -> GroupEndo:
    return GroupEndo(ring=ring, rows=_masks_from_json(ring, obj, "matrix", "group endomorphism"))


def enumerate_group_endos(ring: BoolRing) -> list[GroupEndo]:
    """All additive endomorphisms: every n-by-n bit matrix, in row-lex order."""
    n = ring.atom_count
    guard_enum(1 << (n * n), f"group endomorphisms of a {n}-atom ring")
    return [GroupEndo(ring=ring, rows=rows) for rows in product(ring.elements(), repeat=n)]


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


def atom_keys(columns, n: int) -> np.ndarray:
    """One int64 key per additive map from its atom images, an integer
    array (..., n): image a fills bits n*a to n*a + n - 1, so two maps key
    equal exactly when they are equal (for n up to 7)."""
    columns = np.asarray(columns, dtype=np.int64)
    return (columns << n * np.arange(n)).sum(axis=-1)


def atom_index(keys: np.ndarray, columns, n: int) -> np.ndarray | None:
    """Position in the sorted atom_keys keys of each additive map of an
    integer array (..., n) of atom images; None if one is not there."""
    query = atom_keys(columns, n)
    at = np.minimum(keys.searchsorted(query), len(keys) - 1)
    return at if np.array_equal(keys[at], query) else None


def atom_composites(columns, n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The distinct additive maps of an (E, n) array of atom images, and
    their composition table.

    Returns the sorted atom_keys of the distinct maps and out[i, j], the
    position there of map i after map j (maps in key order), or None for
    the table if a composite is not among the maps.  Composites are taken
    on atom images alone, in row blocks of at most CHUNK_ENTRIES images.
    """
    columns = np.asarray(columns, dtype=np.int64).reshape(-1, n)
    keys, first = np.unique(atom_keys(columns, n), return_index=True)
    columns = columns[first]
    values = additive_values(columns, n)
    out = np.empty((len(keys), len(keys)), dtype=np.min_scalar_type(len(keys) - 1))
    step = max(1, CHUNK_ENTRIES // (len(keys) * n))
    for start in range(0, len(keys), step):
        # map i after map j sends atom a to map i's value at map j's image of a
        at = atom_index(keys, values[start:start + step, columns], n)
        if at is None:
            return keys, None
        out[start:start + step] = at
    return keys, out


def additive_monoid(columns, n: int) -> tuple[SelfMapMonoid, np.ndarray]:
    """Additive maps, given by atom images, as self-maps of the 2**n elements.

    Returns the SelfMapMonoid of their distinct value tables, which must
    include the identity, and the index of each input map in it.  Closure
    is not assumed.
    """
    values, where = np.unique(additive_values(columns, n), axis=0, return_inverse=True)
    return SelfMapMonoid(values), where.reshape(-1)


@dataclass(frozen=True)
class DualGroup:
    """Characters of the additive group: masks f with f(x) = parity(f & x).

    Pointwise character addition is XOR of masks, so the dual is again a
    Boolean group of the same size.
    """

    ring: BoolRing

    def elements(self) -> range:
        return range(self.ring.size)

    def pairing(self, chi: int, f: int) -> int:
        return parity(chi & f)

    def is_ring_hom(self, f: int) -> bool:
        if self.pairing(self.ring.one, f) != 1:
            return False
        for chi in self.ring.elements():
            for psi in self.ring.elements():
                lhs = self.pairing(chi & psi, f)
                if lhs != self.pairing(chi, f) & self.pairing(psi, f):
                    return False
        return True


def pontryagin_dual(ring: BoolRing) -> DualGroup:
    return DualGroup(ring=ring)


def ring_homs_to_Z2(ring: BoolRing) -> list[int]:
    """Characters that are also multiplicative and unital (brute filter)."""
    dual = pontryagin_dual(ring)
    return [f for f in dual.elements() if dual.is_ring_hom(f)]
