"""Pre-uniformity bases on finite carriers: partition families, the
saturation fixed point, and covering combinators.

Families of equivalence relations stand in for entourage bases; covers
carry the star/wedge/order calculus.  Nothing here is filter-completed:
bases are kept as-is.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import CarrierMismatch
from .finmon import MonoidAction, blocks, is_point
from .limits import guard_enum
from .schema import expect_field, expect_int, expect_list, expect_object, expect_rows
from .ultra import Partition, _normalize, partition_from_json


# ---------------------------------------------------------------------------
# partition families and saturation


@dataclass(frozen=True)
class PartitionFamily:
    """A finite set of partitions of one carrier, canonically ordered."""

    carrier_size: int
    members: tuple[Partition, ...]

    def __post_init__(self):
        for p in self.members:
            if p.carrier_size != self.carrier_size:
                raise CarrierMismatch("family member on a different carrier")
        ids = [p.class_id for p in self.members]
        if len(set(ids)) != len(ids) or ids != sorted(ids):
            raise ValueError("members must be distinct and canonically ordered")

    @classmethod
    def _unchecked(cls, carrier_size: int, members: tuple[Partition, ...]) -> PartitionFamily:
        """A family of members on the carrier that their producer has made
        distinct and canonically ordered; skips __post_init__ (and the
        frozen __setattr__)."""
        f = object.__new__(cls)
        f.__dict__.update(carrier_size=carrier_size, members=members)
        return f

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, p: Partition) -> bool:
        """Membership by bisection on class_id, the members' order; a
        partition on another carrier is not a member."""
        if not isinstance(p, Partition):
            return False
        i = bisect_left(self.members, p.class_id, key=attrgetter("class_id"))
        return i < len(self.members) and self.members[i] == p

    def to_json(self) -> dict:
        return {
            "carrier_size": self.carrier_size,
            "members": [p.to_json() for p in self.members],
        }


def family_from_json(obj: dict) -> PartitionFamily:
    obj = expect_object(obj, "family")
    n = expect_int(expect_field(obj, "carrier_size", "family"), "family carrier_size", 0)
    members = expect_list(expect_field(obj, "members", "family"), "family members")
    return make_family(n, (partition_from_json(n, p) for p in members))


def make_family(carrier_size: int, parts) -> PartitionFamily:
    members = tuple(sorted(set(parts), key=lambda p: p.class_id))
    return PartitionFamily(carrier_size=carrier_size, members=members)


def preimage_partition(s, p: Partition) -> Partition:
    """Pull a partition back along a self-map: x ~ y iff s(x) ~ s(y).

    s is any sequence of points: a tuple, a list or a numpy row.  The
    pullback of an equivalence relation is again one, so the result is
    always a valid partition.
    """
    if len(s) != p.carrier_size:
        raise CarrierMismatch("map and partition carriers differ")
    return Partition.from_class_ids(map(p.class_id.__getitem__, s))


class PartitionLattice:
    """Every partition of an n-point carrier, indexed.

    ``rows`` is a read-only (B, n) array, B the Bell number of n: row i is
    the class_id of ``partitions[i]``, a restricted-growth string, and the
    rows ascend lexicographically (Knuth, TAOCP 7.2.1.5), which is the
    order a PartitionFamily keeps its members in.  ``index_of`` finds one
    partition; ``lookup`` finds the partitions of an array of class labels
    by their first-occurrence keys, and both tables read it: the (B, B)
    ``meet`` table, built on first use, and the (k, B) table ``pullback``
    builds per call, which ``saturation`` closes a family under.  Every
    table is guarded by guard_enum, so the default bound stops at 7 points
    (Bell(7) = 877): the meet table on 8 points has 4140**2 entries.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("carrier size must be nonnegative")
        self.n = n
        # extend every string by each class id up to one past its largest
        rows = np.zeros((1, 0), dtype=np.intp)
        blocks = np.zeros(1, dtype=np.intp)        # classes used so far
        for x in range(n):
            counts = blocks + 1
            guard_enum(int(counts.sum()) * n, f"partition lattice on {n} points")
            parent = np.repeat(np.arange(len(rows)), counts)
            ids = np.arange(len(parent)) - np.repeat(counts.cumsum() - counts, counts)
            rows = np.column_stack((rows[parent], ids))
            blocks = np.maximum(blocks[parent], ids + 1)
        rows.flags.writeable = False
        self.rows = rows
        self.partitions = tuple(Partition(carrier_size=n, class_id=tuple(row))
                                for row in rows.tolist())
        # first[x], the first point in the class of x, is at most x: mixed
        # radix x + 1 keys first-occurrence vectors exactly, and they ascend
        # with the restricted-growth strings
        self._weights = np.array([math.factorial(n) // math.factorial(x + 1)
                                  for x in range(n)], dtype=np.int64)
        self._keys = self._first_keys(rows)
        self._dtype = np.min_scalar_type(len(rows) - 1)
        self._meet = None

    def __len__(self) -> int:
        return len(self.rows)

    def index_of(self, p: Partition) -> int:
        """Index of a partition of the carrier."""
        if p.carrier_size != self.n:
            raise CarrierMismatch("partition and lattice carriers differ")
        return bisect_left(self.partitions, p.class_id, key=attrgetter("class_id"))

    def _first_keys(self, flat: np.ndarray) -> np.ndarray:
        """Mixed-radix key of the first-occurrence vector of each label row."""
        if self.n == 0:
            return np.zeros(len(flat), dtype=np.int64)
        first = (flat[:, :, None] == flat[:, None, :]).argmax(axis=2)
        return first @ self._weights

    def lookup(self, labels) -> np.ndarray:
        """Index of the partition x ~ y iff labels[..., x] == labels[..., y],
        for every row of an integer array of any shape (..., n)."""
        labels = np.asarray(labels)
        shape = labels.shape[:-1]
        keys = self._first_keys(labels.reshape(math.prod(shape), self.n))
        return self._keys.searchsorted(keys).reshape(shape)

    def _table(self, labels_of, count: int) -> np.ndarray:
        """A (count, B) index table, built in row blocks a:b of B * n class
        labels a row (see finmon.blocks): labels_of(a, b) is the (b - a, B,
        n) label array of the block."""
        B, n = len(self), self.n
        out = np.empty((count, B), dtype=self._dtype)
        for start, stop in blocks(count, B * n):
            out[start:stop] = self.lookup(labels_of(start, stop))
        out.flags.writeable = False
        return out

    @property
    def meet(self) -> np.ndarray:
        """meet[p, q] = index of the common refinement of p and q."""
        if self._meet is None:
            B, n, rows = len(self), self.n, self.rows
            guard_enum(B * B, f"meet table of the partition lattice on {n} points")
            self._meet = self._table(
                lambda a, b: rows[a:b, None, :] * n + rows[None, :, :], B)
        return self._meet

    def pullback(self, maps) -> np.ndarray:
        """pull[s, p] = index of the preimage of partition p under maps[s],
        for a (k, n) integer array: x ~ y iff maps[s, x] ~ maps[s, y] in p.

        The preimage is the partition of the label row rows[p, maps[s]],
        looked up by its first-occurrence key in row blocks of maps, as
        the meet table is (see _table).
        """
        maps = np.asarray(maps)
        k, n = len(maps), self.n
        guard_enum(k * len(self), f"pullback table of {k} maps on {n} points")
        # labels[s, p, x] = rows[p, maps[s, x]]
        return self._table(lambda a, b: self.rows[:, maps[a:b]].transpose(1, 0, 2), k)

    def saturation(self, pull: np.ndarray, gamma) -> PartitionFamily:
        """Least family containing gamma closed under the pullbacks of a
        (k, B) table pull, as built by pullback, and under pairwise meets.

        A closure over lattice indices: each round adds the pullbacks of
        the newest members and their meets with every member.  gamma is an
        iterable of partitions of the carrier.
        """
        pulls, meet = pull.T.tolist(), self.meet
        members: set[int] = set()
        fresh = {self.index_of(p) for p in gamma}
        while fresh:
            members |= fresh
            reached: set[int] = set()
            for p in fresh:
                reached.update(pulls[p])
                row = meet[p].tolist()
                reached.update(row[q] for q in members)
            fresh = reached - members
        # the partitions ascend, so sorted indices keep the canonical order
        family = tuple(self.partitions[i] for i in sorted(members))
        return PartitionFamily._unchecked(self.n, family)


@functools.cache
def partition_lattice(n: int) -> PartitionLattice:
    """The lattice on n points, built on first use and kept."""
    return PartitionLattice(n)


def _generators(action: MonoidAction, gamma) -> list[Partition]:
    gamma = list(gamma.members) if isinstance(gamma, PartitionFamily) else list(gamma)
    for p in gamma:
        if p.carrier_size != action.carrier_size:
            raise CarrierMismatch("generator partition on a different carrier")
    return gamma


def saturate(action: MonoidAction, gamma, pull: np.ndarray | None = None) -> PartitionFamily:
    """Least family containing gamma closed under translation preimages
    and pairwise meets.

    PartitionLattice.saturation on the action's pullback table: pull, if
    the caller has built it with PartitionLattice.pullback, else a table
    built here.  Where the action has a generating set G
    (MonoidAction.generating_set, derived from its monoid's), only
    the rows of G are pulled back along: the families closed under their
    pullbacks are those closed under every map's, so the least one is the
    same.  Raises ResourceLimit where the lattice tables exceed the
    enumeration bound (by default past 7 points); saturate_worklist, which
    pulls back along every map, is the oracle.
    """
    gamma = _generators(action, gamma)
    lattice = partition_lattice(action.carrier_size)
    gens = action.generating_set
    if pull is None:
        pull = lattice.pullback(action.values if gens is None else action.values[gens])
    elif gens is not None:
        pull = pull[gens]
    return lattice.saturation(pull, gamma)


def saturate_worklist(action: MonoidAction, gamma) -> PartitionFamily:
    """The saturation as a worklist over class_id tuples: the oracle for
    saturate.

    Members are first-occurrence class_id tuples.  Member p pulls back
    along map s to the labels p[s(x)], and meets member r in the label
    pairs (p[x], r[x]); either is renumbered by first occurrence, as
    Partition.from_class_ids does.  Each member leaves the worklist once,
    pulled back along every map and met with every member that left it
    before, so every pair of members meets once, and the family reached
    is closed: the least one, on a finite lattice.  Equal maps pull back
    alike and the identity map pulls p back to p, so each distinct
    non-identity map is pulled back along once.  Reads no
    PartitionLattice table.
    """
    gamma = _generators(action, gamma)
    identity = tuple(range(action.carrier_size))
    maps = [s for s in dict.fromkeys(action.act) if s != identity]
    members = {p.class_id for p in gamma}
    todo, done = list(members), []
    while todo:
        p = todo.pop()
        pulled = [_normalize(map(p.__getitem__, s)) for s in maps]
        met = [_normalize(zip(p, r)) for r in done]
        for q in pulled + met:
            if q not in members:
                members.add(q)
                todo.append(q)
        done.append(p)
    return PartitionFamily._unchecked(action.carrier_size,
                                      tuple(map(Partition._unchecked, sorted(members))))


def _relation_keys(labels: np.ndarray) -> np.ndarray:
    """Key of the relation x ~ y iff labels[..., x] == labels[..., y], for
    each row of an integer array (..., n): the n-by-n bit matrix of the
    relation, packed into one void scalar of ceil(n * n / 8) bytes.  Two
    rows key equal exactly when they give the same partition, for every n.
    """
    *shape, n = labels.shape
    if not n:           # no bits: the one partition of no points, one key
        return np.zeros(shape, dtype="V1")
    same = labels[..., :, None] == labels[..., None, :]
    packed = np.packbits(same.reshape(*shape, n * n), axis=-1)
    return packed.view(f"V{packed.shape[-1]}")[..., 0]


def _class_ids(family: PartitionFamily) -> np.ndarray:
    """The members' class_ids as an (M, n) array."""
    return np.array([p.class_id for p in family.members],
                    dtype=np.intp).reshape(len(family), family.carrier_size)


def _every_member(family: PartitionFamily, shape, labels_of, build) -> bool:
    """Whether the partition of every row of a label array is a member.

    labels_of(a, b) returns the rows a:b of an integer array (count, ..., n)
    of class labels, and shape is that of its relation bits, (count, ...,
    n, n): the rows are built in blocks of that many bits a row (see
    finmon.blocks).  The keys of _relation_keys only group the
    label rows that give one partition.  The partition of each distinct
    key is built once, by build(a, i) from the i-th label row, in C order,
    of the block from a, and looked up in the family, so the verdict is
    that of the literal construction.
    """
    seen: set[bytes] = set()
    for a, b in blocks(shape[0], math.prod(shape[1:])):
        keys = _relation_keys(labels_of(a, b)).ravel().tolist()
        for key in dict.fromkeys(keys):         # the distinct keys, in order
            if key not in seen:
                seen.add(key)
                if build(a, keys.index(key)) not in family:
                    return False
    return True


def is_meet_closed(family: PartitionFamily) -> bool:
    """Every pairwise meet of members is a member.

    The meet of p and q is the partition of the labels
    class_id_p[x] * n + class_id_q[x].  Meets commute, so a block of
    members p from a on pairs them with the members q from a on: a pair
    q < a was met in the block of q.  Each distinct meet is built once by
    Partition.meet (see _every_member).  Reads no PartitionLattice table,
    so it stays an oracle for saturate.
    """
    members, ids, n = family.members, _class_ids(family), family.carrier_size

    def meet(a: int, i: int) -> Partition:
        p, q = divmod(i, len(members) - a)
        return members[a + p].meet(members[a + q])
    return _every_member(family, (len(ids), len(ids), n, n), lambda a, b: (
        ids[a:b, None, :] * n + ids[None, a:, :]), meet)


def is_saturated_under(family: PartitionFamily, action: MonoidAction) -> bool:
    """Every translation preimage of a member is a member.

    Member p pulls back along map s to the partition of the labels
    class_id_p[s(x)].  Where the action has a generating set G
    (MonoidAction.generating_set), only the pairs (p, g), g in G, are
    keyed: closure under their pullbacks is closure under every map's.  Each
    distinct pullback is built once by preimage_partition (see
    _every_member).  Reads no PartitionLattice table, so it stays an
    oracle for saturate.  The empty family is saturated under any action.
    """
    if family.members and family.carrier_size != action.carrier_size:
        raise CarrierMismatch("family and action carriers differ")
    gens = action.generating_set
    maps = action.values if gens is None else action.values[gens]
    members, ids = family.members, _class_ids(family)
    k, n = len(maps), family.carrier_size

    def pullback(a: int, i: int) -> Partition:
        p, s = divmod(i, k)
        return preimage_partition(maps[s].tolist(), members[a + p])
    # take keeps the (rows, k, n) labels in C order, which keys them fastest
    return _every_member(family, (len(ids), k, n, n),
                         lambda a, b: ids[a:b].take(maps, axis=1), pullback)


# ---------------------------------------------------------------------------
# covers and the star/wedge/order calculus


def _points(mask: int) -> list[int]:
    """The points of a bitmask, ascending."""
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


@dataclass(frozen=True)
class Cover:
    """A family of nonempty subsets whose union is the carrier.

    Each block is an int bitmask: point x is in the block iff bit x is
    set.  Python ints have no width limit, so any carrier size fits.  The
    carrier, points 0 to n - 1 for n the union's bit length, is derived.
    """

    blocks: frozenset[int]
    carrier_size: int = field(init=False)

    def __post_init__(self):
        union = 0
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if block < 0:
                raise ValueError("block point outside the carrier")
            union |= block
        # the union covers the points below its bit length iff it is all ones
        if union & (union + 1):
            raise ValueError("blocks do not cover the carrier")
        object.__setattr__(self, "carrier_size", union.bit_length())

    @staticmethod
    def from_blocks(blocks) -> Cover:
        blocks = [list(block) for block in blocks]
        # the union holds every point below its largest, so a point at or past
        # the number of points listed leaves a gap: refuse it before its bit
        listed = sum(map(len, blocks))
        masks = set()
        for block in blocks:
            mask = 0
            for x in block:
                if not is_point(x):
                    raise ValueError(f"block point {x!r} is not an integer")
                if x < 0:
                    raise ValueError("block point outside the carrier")
                if x >= listed:
                    raise ValueError("blocks do not cover the carrier")
                mask |= 1 << int(x)
            masks.add(mask)
        return Cover(frozenset(masks))

    @staticmethod
    def from_partition(p: Partition) -> Cover:
        """The classes of p as blocks, each mask built from class_id."""
        masks = [0] * p.num_classes()
        for x, k in enumerate(p.class_id):
            masks[k] |= 1 << x
        return Cover(frozenset(masks))

    def sorted_blocks(self) -> list[list[int]]:
        return sorted(map(_points, self.blocks))

    def to_json(self) -> dict:
        return {"blocks": self.sorted_blocks()}


def cover_blocks_from_json(obj) -> list[list[int]]:
    obj = expect_object(obj, "cover")
    return expect_rows(expect_field(obj, "blocks", "cover"), "cover blocks")


def cover_wedge(p: Cover, q: Cover) -> Cover:
    """All nonempty pairwise intersections; refines both inputs."""
    if p.carrier_size != q.carrier_size:
        raise CarrierMismatch("covers on different carriers")
    blocks = {a & b for a in p.blocks for b in q.blocks}
    blocks.discard(0)
    return Cover(frozenset(blocks))


def _star_mask(mask: int, p: Cover) -> int:
    """Union of the blocks of p meeting the bitmask."""
    out = 0
    for block in p.blocks:
        if block & mask:
            out |= block
    return out


def star(points, p: Cover) -> frozenset[int]:
    """Union of the blocks meeting the given points (see finmon.is_point)."""
    mask = 0
    for x in points:
        if not is_point(x):
            raise ValueError(f"point {x!r} is not an integer")
        if 0 <= x < p.carrier_size:     # no block holds any other point
            mask |= 1 << int(x)
    return frozenset(_points(_star_mask(mask, p)))


def cover_star(p: Cover) -> Cover:
    """The cover of stars of blocks; every cover refines its own star."""
    return Cover(frozenset(_star_mask(b, p) for b in p.blocks))


def refines(q: Cover, p: Cover) -> bool:
    """Every block of q lies inside some block of p."""
    if p.carrier_size != q.carrier_size:
        raise CarrierMismatch("covers on different carriers")
    return all(any(not a & ~b for b in p.blocks) for a in q.blocks)


def ord_at(p: Cover, x: int) -> int:
    """Number of blocks through the point x (0 off the carrier)."""
    return sum(block >> x & 1 for block in p.blocks) if x >= 0 else 0


def cover_order(p: Cover) -> int:
    """Maximal number of blocks through one point (1 for partitions, 0 on
    the empty carrier).

    The counts of all points are kept bit-sliced: bit x of digits[i] is
    bit i of the number of blocks through x.  Adding a block is one
    ripple-carry addition of masks, and the largest count is read off
    from the top digit down, keeping the points that reach each digit.
    """
    digits: list[int] = []
    for block in p.blocks:
        carry = block
        for i, digit in enumerate(digits):
            digits[i], carry = digit ^ carry, digit & carry
        if carry:
            digits.append(carry)
    order, points = 0, -1            # -1: every point
    for i in reversed(range(len(digits))):
        if points & digits[i]:
            points &= digits[i]
            order |= 1 << i
    return order
