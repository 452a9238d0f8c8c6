"""Pre-uniformity bases on finite carriers: partition families, the
saturation fixed point, kernel partitions, and covering combinators.

Families of equivalence relations stand in for entourage bases; covers
carry the star/wedge/order calculus.  Nothing here is filter-completed:
bases are kept as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CarrierMismatch
from .finmon import MonoidAction
from .ultra import Partition, partition_from_json


# ---------------------------------------------------------------------------
# partition families and saturation


@dataclass(frozen=True)
class PartitionFamily:
    """A finite set of partitions of one carrier, canonically ordered.

    The closure flags record what is known about the family; saturate
    sets both, a raw constructor leaves them undetermined.
    """

    carrier_size: int
    members: tuple[Partition, ...]
    meet_closed: bool | None = field(default=None, compare=False)
    saturated: bool | None = field(default=None, compare=False)

    def __post_init__(self):
        for p in self.members:
            if p.carrier_size != self.carrier_size:
                raise CarrierMismatch("family member on a different carrier")
        ids = [p.class_id for p in self.members]
        if len(set(ids)) != len(ids) or ids != sorted(ids):
            raise ValueError("members must be distinct and canonically ordered")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, p: Partition) -> bool:
        return p in set(self.members)

    def to_json(self) -> dict:
        return {
            "carrier_size": self.carrier_size,
            "members": [p.to_json() for p in self.members],
        }


def family_from_json(obj: dict) -> PartitionFamily:
    n = int(obj["carrier_size"])
    return make_family(n, (partition_from_json(n, p) for p in obj["members"]))


def make_family(carrier_size: int, parts, **flags) -> PartitionFamily:
    members = tuple(sorted(set(parts), key=lambda p: p.class_id))
    return PartitionFamily(carrier_size=carrier_size, members=members, **flags)


def preimage_partition(s, p: Partition) -> Partition:
    """Pull a partition back along a self-map: x ~ y iff s(x) ~ s(y).

    The pullback of an equivalence relation is again one, so the result
    is always a valid partition.
    """
    s = tuple(int(v) for v in s)
    if len(s) != p.carrier_size:
        raise CarrierMismatch("map and partition carriers differ")
    return Partition.from_class_ids([p.class_id[s[x]] for x in range(len(s))])


def kernel_partition(f) -> Partition:
    """Level sets of a two-valued function."""
    values = list(f)
    if len(set(values)) > 2:
        raise ValueError("function takes more than two values")
    return Partition.from_class_ids(values)


def saturate(action: MonoidAction, gamma) -> PartitionFamily:
    """Least family containing gamma closed under translation preimages
    and pairwise meets.

    Monotone worklist iteration over a finite lattice, so the fixed point
    is reached after finitely many rounds.  The generators stay in the
    family because the identity translation pulls back to the identity.
    """
    gamma = list(gamma.members) if isinstance(gamma, PartitionFamily) else list(gamma)
    n = action.carrier_size
    for p in gamma:
        if p.carrier_size != n:
            raise CarrierMismatch("generator partition on a different carrier")
    members: set[Partition] = set(gamma)
    frontier = list(members)
    while frontier:
        fresh: list[Partition] = []

        def add(p: Partition) -> None:
            if p not in members:
                members.add(p)
                fresh.append(p)

        for p in frontier:
            for s in range(action.monoid.size):
                add(preimage_partition(action.act[s], p))
            for q in list(members):
                add(p.meet(q))
        frontier = fresh
    return make_family(n, members, meet_closed=True, saturated=True)


def is_meet_closed(family: PartitionFamily) -> bool:
    members = set(family.members)
    return all(p.meet(q) in members for p in members for q in members)


def is_saturated_under(family: PartitionFamily, action: MonoidAction) -> bool:
    members = set(family.members)
    return all(
        preimage_partition(action.act[s], p) in members
        for p in members
        for s in range(action.monoid.size)
    )


@dataclass(frozen=True)
class BoundednessReport:
    """Boundedness of a translation family on a finite discrete monoid.

    On a finite discrete monoid every singleton {s} is a neighborhood of
    s, so the boundedness condition holds with that witness for every
    entourage; the report says so explicitly instead of hiding the
    vacuity behind a bare True.
    """

    monoid_size: int
    carrier_size: int
    entourage_count: int
    bounded: bool
    witness: str

    def to_json(self) -> dict:
        return {
            "monoid_size": self.monoid_size,
            "carrier_size": self.carrier_size,
            "entourage_count": self.entourage_count,
            "bounded": self.bounded,
            "witness": self.witness,
        }


def boundedness_report(action: MonoidAction, family: PartitionFamily) -> BoundednessReport:
    if family.carrier_size != action.carrier_size:
        raise CarrierMismatch("family and action carriers differ")
    return BoundednessReport(
        monoid_size=action.monoid.size,
        carrier_size=action.carrier_size,
        entourage_count=len(family),
        bounded=True,
        witness=(
            "finite discrete monoid: for every element s and entourage e the "
            "singleton neighborhood {s} satisfies the boundedness condition "
            "vacuously (the only competing translation is s itself)"
        ),
    )


# ---------------------------------------------------------------------------
# covers and the star/wedge/order calculus


@dataclass(frozen=True)
class Cover:
    """A family of nonempty subsets whose union is the carrier."""

    carrier_size: int
    blocks: frozenset[frozenset[int]]

    def __post_init__(self):
        union: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if any(not 0 <= x < self.carrier_size for x in block):
                raise ValueError("block point outside the carrier")
            union |= block
        if union != set(range(self.carrier_size)):
            raise ValueError("blocks do not cover the carrier")

    @staticmethod
    def from_blocks(carrier_size: int, blocks) -> Cover:
        return Cover(
            carrier_size=carrier_size,
            blocks=frozenset(frozenset(map(int, b)) for b in blocks),
        )

    @staticmethod
    def from_partition(p: Partition) -> Cover:
        return Cover.from_blocks(p.carrier_size, p.classes())

    def is_partition(self) -> bool:
        return sum(len(b) for b in self.blocks) == self.carrier_size

    def sorted_blocks(self) -> list[list[int]]:
        return sorted(sorted(b) for b in self.blocks)

    def to_json(self) -> dict:
        return {"blocks": self.sorted_blocks()}


def cover_from_json(carrier_size: int, obj: dict) -> Cover:
    return Cover.from_blocks(carrier_size, obj["blocks"])


def cover_wedge(p: Cover, q: Cover) -> Cover:
    """All nonempty pairwise intersections; refines both inputs."""
    if p.carrier_size != q.carrier_size:
        raise CarrierMismatch("covers on different carriers")
    blocks = {a & b for a in p.blocks for b in q.blocks if a & b}
    return Cover(carrier_size=p.carrier_size, blocks=frozenset(blocks))


def star(points, p: Cover) -> frozenset[int]:
    """Union of the blocks meeting the given set."""
    pts = frozenset(map(int, points))
    out: set[int] = set()
    for block in p.blocks:
        if block & pts:
            out |= block
    return frozenset(out)


def cover_star(p: Cover) -> Cover:
    """The cover of stars of blocks; every cover refines its own star."""
    return Cover(
        carrier_size=p.carrier_size,
        blocks=frozenset(star(b, p) for b in p.blocks),
    )


def refines(q: Cover, p: Cover) -> bool:
    """Every block of q lies inside some block of p."""
    if p.carrier_size != q.carrier_size:
        raise CarrierMismatch("covers on different carriers")
    return all(any(a <= b for b in p.blocks) for a in q.blocks)


def star_refines(p: Cover, q: Cover) -> bool:
    """The star of p refines q."""
    return refines(cover_star(p), q)


def ord_at(p: Cover, x: int) -> int:
    return sum(1 for block in p.blocks if x in block)


def cover_order(p: Cover) -> int:
    """Maximal number of blocks through one point (1 for partitions)."""
    return max(ord_at(p, x) for x in range(p.carrier_size))
