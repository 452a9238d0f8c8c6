"""Partitions, ultra-pseudometrics, chain metrization, and 1-Lipschitz monoids.

An ultra-pseudometric is stored as its sorted distinct distances, exact
rationals, and the integer matrix of their ranks.  Every law is checked on
the ranks, so no tolerance enters anywhere; the Fraction rows are a view
derived for JSON, witnesses and the literal oracles.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational

import numpy as np

from .errors import (
    CarrierMismatch,
    ChainNotMonotone,
    PreconditionUnverified,
)
from .finmon import CHUNK_ENTRIES, FiniteMonoid, SelfMapMonoid, first_true, is_submonoid
from .limits import guard_enum
from .schema import (
    expect_field,
    expect_int,
    expect_list,
    expect_object,
    expect_rational,
    expect_rows,
)


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class Partition:
    """An equivalence relation on range(carrier_size).

    class_id maps each point to its class index, renumbered by first
    occurrence, so equal partitions have equal arrays.
    """

    carrier_size: int
    class_id: tuple[int, ...]

    def __post_init__(self):
        if len(self.class_id) != self.carrier_size:
            raise ValueError("class_id length differs from carrier size")
        seen = 0                # each id is one of the seen classes or the next one
        for k in self.class_id:
            if k == seen:
                seen += 1
            elif not 0 <= k < seen:
                raise ValueError("class_id is not in first-occurrence normal form")

    @staticmethod
    def from_class_ids(ids) -> Partition:
        """The partition x ~ y iff ids[x] == ids[y], for any hashable labels."""
        return Partition._unchecked(_normalize(ids))

    @classmethod
    def _unchecked(cls, class_id: tuple[int, ...]) -> Partition:
        """A partition from ids already in first-occurrence normal form;
        skips __post_init__ (and the frozen __setattr__)."""
        p = object.__new__(cls)
        fields = p.__dict__
        fields["carrier_size"] = len(class_id)
        fields["class_id"] = class_id
        return p

    @staticmethod
    def from_classes(carrier_size: int, classes) -> Partition:
        ids = [-1] * carrier_size
        for k, cls in enumerate(classes):
            for x in cls:
                if not 0 <= x < carrier_size:
                    raise ValueError(f"point {x} outside the carrier")
                if ids[x] != -1:
                    raise ValueError(f"point {x} listed twice")
                ids[x] = k
        if -1 in ids:
            raise ValueError("classes do not cover the carrier")
        return Partition.from_class_ids(ids)

    @staticmethod
    def indiscrete(n: int) -> Partition:
        return Partition.from_class_ids([0] * n)

    @staticmethod
    def discrete(n: int) -> Partition:
        return Partition.from_class_ids(range(n))

    def num_classes(self) -> int:
        return max(self.class_id) + 1 if self.class_id else 0

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_classes())]
        for x, k in enumerate(self.class_id):
            out[k].append(x)
        return out

    def relates(self, x: int, y: int) -> bool:
        return self.class_id[x] == self.class_id[y]

    def refines(self, coarser: Partition) -> bool:
        """True iff every class of self sits inside a class of coarser."""
        if coarser.carrier_size != self.carrier_size:
            raise CarrierMismatch("partitions on different carriers")
        image: dict[int, int] = {}
        for x in range(self.carrier_size):
            k = self.class_id[x]
            c = coarser.class_id[x]
            if image.setdefault(k, c) != c:
                return False
        return True

    def meet(self, other: Partition) -> Partition:
        """Common refinement: related iff related in both."""
        if other.carrier_size != self.carrier_size:
            raise CarrierMismatch("partitions on different carriers")
        return Partition.from_class_ids(zip(self.class_id, other.class_id))

    def to_json(self) -> dict:
        return {"classes": sorted(self.classes())}


def _normalize(ids) -> tuple[int, ...]:
    """Renumber hashable class keys by first occurrence, in one pass over
    any iterable of them."""
    seen: dict = {}
    return tuple([seen.setdefault(k, len(seen)) for k in ids])


def partition_from_json(carrier_size: int, obj: dict) -> Partition:
    obj = expect_object(obj, "partition")
    classes = expect_rows(expect_field(obj, "classes", "partition"), "partition classes")
    return Partition.from_classes(carrier_size, classes)


def meet_all(parts) -> Partition:
    parts = list(parts)
    if not parts:
        raise ValueError("meet of an empty family")
    out = parts[0]
    for p in parts[1:]:
        out = out.meet(p)
    return out


# ---------------------------------------------------------------------------
# ultra-pseudometrics


class UltraPseudometric:
    """Symmetric rational matrix with zero diagonal satisfying
    d(x,z) <= max(d(x,y), d(y,z)) on every triple.

    Stored once, as levels (the sorted distinct distances, 0 first, each
    one used) and the read-only integer rank_matrix(), with d(x, y) ==
    levels[rank[x, y]]; equal metrics have equal levels and ranks.  The
    constructor validates levels and ranks given in that form (levels
    exact rationals, ints or Fractions, ascending strictly from 0), and
    from_rows reads any rational matrix.  dist, the Fraction rows, is
    derived on first use.
    """

    def __init__(self, levels, rank):
        levels = tuple(levels)
        if not (levels and all(isinstance(v, Rational) and not isinstance(v, bool) for v in levels)
                and levels[0] == 0 and all(a < b for a, b in zip(levels, levels[1:]))):
            raise ValueError(f"levels {list(map(str, levels))} are not exact rationals "
                             "ascending strictly from 0")
        rank = np.array(rank, dtype=np.int64)
        if rank.ndim != 2 or rank.shape[0] != rank.shape[1]:
            raise ValueError("distance matrix has wrong shape")
        if len(rank) < 1:
            raise ValueError("ultra-pseudometric needs at least one point")
        # an asymmetry at (x, y < x) shows first at (y, x), so in scan order
        # the first defect of a row is its diagonal or lies to its right
        bad = (rank != rank.T) | np.diag(np.diagonal(rank) != 0)
        if bad.any():
            x, y = np.argwhere(bad)[0]
            raise ValueError(f"nonzero diagonal at {x}" if x == y else f"asymmetry at ({x}, {y})")
        if not np.array_equal(np.unique(rank), np.arange(len(levels))):
            raise ValueError(f"ranks must use each of the {len(levels)} levels")
        bad = _strong_triangle_violation(rank)
        if bad is not None:
            x, y, z = bad
            raise ValueError(
                f"strong triangle fails: d({x},{z}) > max(d({x},{y}), d({y},{z}))"
            )
        self._store(levels, rank)

    def _store(self, levels, rank: np.ndarray) -> None:
        rank.flags.writeable = False
        self.carrier_size = len(rank)
        self.levels = tuple(levels)
        self._rank = rank

    @classmethod
    def _unchecked(cls, levels, rank: np.ndarray) -> UltraPseudometric:
        """A metric from an int64 rank array its producer has made valid by
        construction; skips the checks of __init__."""
        d = object.__new__(cls)
        d._store(levels, rank)
        return d

    @staticmethod
    def from_rows(rows) -> UltraPseudometric:
        dist = [[Fraction(v) for v in row] for row in rows]
        if any(len(row) != len(dist) for row in dist):
            raise ValueError("distance matrix has wrong shape")
        # 0 is a level even where the diagonal misses it: a nonzero diagonal
        # then shows as a nonzero rank, and a negative distance ranks below it
        levels = sorted({Fraction(0)}.union(*dist))
        index = {v: i for i, v in enumerate(levels)}
        rank = np.array([[index[v] for v in row] for row in dist], dtype=np.int64)
        if index[0]:
            x, y = np.argwhere(rank < index[0])[0]
            raise ValueError(f"negative distance at ({x}, {y})")
        return UltraPseudometric(levels, rank.reshape(len(dist), len(dist)))

    @staticmethod
    def discrete(n: int) -> UltraPseudometric:
        return UltraPseudometric.from_rows(
            [[int(x != y) for y in range(n)] for x in range(n)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, UltraPseudometric) and self.levels == other.levels
                and np.array_equal(self._rank, other._rank))

    def __hash__(self) -> int:
        return hash((self.levels, self._rank.tobytes()))

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distances as Fraction rows, for JSON, witnesses and the oracles."""
        return tuple(tuple(self.levels[r] for r in row) for row in self._rank.tolist())

    def d(self, x: int, y: int) -> Fraction:
        return self.levels[self._rank[x, y]]

    def rank_matrix(self) -> np.ndarray:
        """The level of every pair: exact, ordered like the distances."""
        return self._rank

    def below(self, radius) -> int:
        """Number of levels under radius: d(x, y) < radius iff rank < below(radius)."""
        return bisect_left(self.levels, radius)

    def ball(self, center: int, radius: Fraction) -> list[int]:
        """Open ball, strict inequality."""
        return np.flatnonzero(self._rank[center] < self.below(radius)).tolist()

    def ball_partition(self, radius: Fraction) -> Partition:
        """Classes of the relation d(x,y) < radius (an equivalence relation)."""
        # key each point by the first point of its class (itself if radius <= 0)
        close = (self._rank < self.below(radius)) | np.eye(self.carrier_size, dtype=bool)
        return Partition.from_class_ids(close.argmax(axis=1).tolist())

    def to_json(self) -> dict:
        return {"dist": [[str(v) for v in row] for row in self.dist]}


def metric_from_json(obj: dict) -> UltraPseudometric:
    obj = expect_object(obj, "metric")
    rows = expect_rows(expect_field(obj, "dist", "metric"), "metric dist", expect_rational)
    return UltraPseudometric.from_rows(rows)


def _strong_triangle_violation(rank: np.ndarray):
    """First (x, y, z), ascending, with rank[x, z] > max(rank[x, y], rank[y, z]),
    or None; ranks are nonnegative."""
    rank = rank.astype(np.min_scalar_type(rank.max()))
    n = len(rank)
    return first_true((n, n, n), lambda a, b: rank[a:b, None, :] > np.maximum(
        rank[a:b, :, None], rank))


# ---------------------------------------------------------------------------
# metrization of nested chains


@dataclass(frozen=True)
class MonotoneChain:
    """Nested equivalence relations: each level refines the previous one.

    Level 0 (everything related) is implicit; chain[i] is level i+1.  A
    finite chain is read as if it continued with the equality relation,
    so distinct points related at the deepest explicit level m sit at
    distance 2**-m.
    """

    carrier_size: int
    chain: tuple[Partition, ...]

    def __post_init__(self):
        for i, part in enumerate(self.chain):
            if part.carrier_size != self.carrier_size:
                raise CarrierMismatch(f"chain level {i + 1} on a different carrier")
            if i > 0 and not part.refines(self.chain[i - 1]):
                raise ChainNotMonotone(i + 1)

    def __len__(self) -> int:
        return len(self.chain)

    def level(self, i: int) -> Partition:
        """Level i, with level 0 the indiscrete partition."""
        if i == 0:
            return Partition.indiscrete(self.carrier_size)
        return self.chain[i - 1]

    def depth(self, x: int, y: int) -> int:
        """Deepest explicit level relating x and y (0 if none)."""
        for i in range(len(self.chain), 0, -1):
            if self.chain[i - 1].relates(x, y):
                return i
        return 0

    @cached_property
    def depths(self) -> tuple[tuple[int, ...], ...]:
        """depth(x, y) for every pair, built once per chain for the path oracle."""
        n = self.carrier_size
        return tuple(tuple(self.depth(x, y) for y in range(n)) for x in range(n))

    @cached_property
    def path_depths(self) -> tuple[tuple[int, ...], ...]:
        """The widest-path closure of depths, built once per chain for the path oracle."""
        return _widest_path_depths(self.depths)

    def to_json(self) -> dict:
        return {
            "carrier_size": self.carrier_size,
            "chain": [p.to_json() for p in self.chain],
        }


def chain_from_json(obj: dict) -> MonotoneChain:
    obj = expect_object(obj, "chain")
    n = expect_int(expect_field(obj, "carrier_size", "chain"), "chain carrier_size", 0)
    levels = expect_list(expect_field(obj, "chain", "chain"), "chain levels")
    parts = tuple(partition_from_json(n, p) for p in levels)
    return MonotoneChain(carrier_size=n, chain=parts)


def d_from_chain(chain: MonotoneChain) -> UltraPseudometric:
    """Closed-form chain metric: d(x,y) = 2**-(deepest level relating x,y).

    The levels are nested, so that depth counts the levels whose class ids
    agree at x and y.  This equals the minimax over all point paths from x
    to y (see minimax_path_distance, the literal path-search form), and it
    satisfies the sandwich level(i+1) <= {d < 2**-i} <= level(i) at every
    explicit level.
    """
    n, m = chain.carrier_size, len(chain)
    if n < 1:
        raise ValueError("ultra-pseudometric needs at least one point")
    ids = np.array([p.class_id for p in chain.chain], dtype=np.intp).reshape(m, n)
    depth = (ids[:, :, None] == ids[:, None, :]).sum(axis=0)
    np.fill_diagonal(depth, m + 1)      # deeper than every level: distance 0
    # the deepest pairs are the closest, so ranks ascend down the depths
    # present, m + 1 first: a presence table over 0..m + 1 ranks them
    present = np.zeros(m + 2, dtype=bool)
    present[depth] = True
    used = np.flatnonzero(present[::-1])
    rank_of = np.empty(m + 2, dtype=np.int64)
    rank_of[m + 1 - used] = np.arange(len(used))
    levels = [Fraction(0) if k > m else Fraction(1, 2**k) for k in (m + 1 - used).tolist()]
    # on n >= 1 points, nested levels make the depths an ultrametric, 0 is the
    # first level (the diagonal), and every rank is used
    return UltraPseudometric._unchecked(levels, rank_of[depth])


def minimax_path_distance(chain: MonotoneChain, x: int, y: int) -> Fraction:
    """Infimum over point paths of the maximal single-step cost.

    A step from a to b costs 2**-depth(a, b), so the cheapest path is the
    one whose least step depth is largest.  That is the widest-path closure
    of the integer table chain.depths, read through chain.depth alone and
    never through d_from_chain.
    """
    if x == y:
        return Fraction(0)
    return Fraction(1, 2 ** chain.path_depths[x][y])


def _widest_path_depths(depth) -> tuple[tuple[int, ...], ...]:
    """Largest least step depth over the paths between every two points.

    The (max, min) Floyd-Warshall closure (T. C. Hu, Oper. Res. 9, 1961):
    after round k, w[a][b] is the best over the paths whose inner points
    are below k.  Off the diagonal that is also the best over the simple
    paths, since cutting out a cycle never lowers a path's least step.
    """
    n = len(depth)
    w = np.array(depth, dtype=np.int64).reshape(n, n)
    for k in range(n):
        # row and column k do not change in round k, so the update is in place
        np.maximum(w, np.minimum(w[:, k, None], w[k]), out=w)
    return tuple(map(tuple, w.tolist()))


def sup_combine(metrics, cap) -> UltraPseudometric:
    """Pointwise maximum of the metrics truncated at cap."""
    metrics = list(metrics)
    if not metrics:
        raise ValueError("sup of an empty family")
    cap = Fraction(cap)
    n = metrics[0].carrier_size
    if any(m.carrier_size != n for m in metrics):
        raise CarrierMismatch("metrics on different carriers")
    rows = [
        [max(min(m.dist[x][y], cap) for m in metrics) for y in range(n)]
        for x in range(n)
    ]
    return UltraPseudometric.from_rows(rows)


# ---------------------------------------------------------------------------
# nonexpansiveness, balls, congruences


def nonexpansive_counterexample(m: FiniteMonoid, d: UltraPseudometric, side: str):
    """First triple (x, y, s) violating the chosen translation law, or None.

    side "right" checks d(x*s, y*s) <= d(x, y); side "left" checks
    d(s*x, s*y) <= d(x, y).  Scan order is ascending (x, y, s).  The
    triples are compared in blocks of x (see finmon.first_true), which
    keeps that order, so no (n, n, n) array is built.
    """
    if d.carrier_size != m.size:
        raise CarrierMismatch("metric carrier differs from monoid size")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    n = m.size
    rank = d.rank_matrix()
    rank = rank.astype(np.min_scalar_type(rank.max()))
    flat = rank.ravel()
    moved = m.values if side == "right" else m.values.T     # moved[x, s]: x*s or s*x
    scaled = moved.astype(np.intp) * n
    # rank of (moved[x, s], moved[y, s]) against rank of (x, y), on (x, y, s)
    return first_true((n, n, n), lambda a, b: flat.take(
        scaled[a:b, None, :] + moved) > rank[a:b, :, None])


def check_nonexpansive(m: FiniteMonoid, d: UltraPseudometric, side: str) -> bool:
    return nonexpansive_counterexample(m, d, side) is None


def ball_submonoid_check(m: FiniteMonoid, d: UltraPseudometric, r,
                         side: str = "right") -> bool:
    """Is the open ball around the identity a submonoid?

    Requires the matching nonexpansiveness to hold (verified here; the
    conclusion is then forced, which is the point of the check).
    """
    witness = nonexpansive_counterexample(m, d, side)
    if witness is not None:
        raise PreconditionUnverified(
            f"{side}-nonexpansiveness fails at (x, y, s) = {witness}"
        )
    return is_submonoid(m, d.ball(m.identity, Fraction(r)))


def check_left_congruence(m: FiniteMonoid, p: Partition) -> bool:
    """True iff x ~ y implies s*x ~ s*y for every s.

    Each point is compared with the first point of its class only, which
    is the same law: x ~ y holds iff both share that first point.  The
    (k, n) array of those comparisons is scanned in row blocks of s (see
    finmon.first_true), so no (k, n, n) array is built.
    """
    if p.carrier_size != m.size:
        raise CarrierMismatch("partition carrier differs from monoid size")
    ids = np.asarray(p.class_id, dtype=np.intp)
    seen: dict = {}
    first = np.array([seen.setdefault(c, x) for x, c in enumerate(p.class_id)],
                     dtype=np.intp)                 # first point of x's class

    def split(a: int, b: int) -> np.ndarray:
        moved = ids.take(m.values[a:b])             # moved[s, x]: class of s*x
        return moved != moved.take(first, axis=1)
    return first_true(m.values.shape, split) is None


# ---------------------------------------------------------------------------
# the 1-Lipschitz monoid and its pointwise entourages


def enumerate_theta(d: UltraPseudometric) -> SelfMapMonoid:
    """All self-maps that do not increase any distance.

    Extends value prefixes f(0), ..., f(x-1) one coordinate at a time and
    keeps a prefix only while every pair it completes passes
    d(f(y), f(x)) <= d(y, x).  Prefixes stay in lexicographic order, and
    the maps are closed under composition and contain the identity, so
    the result is a transformation monoid in canonical order, adopted by
    SelfMapMonoid._adopt without the constructor's checks.  The identity's
    row is tracked as its prefix (0, ..., x - 1) is extended.  The bound
    applies to the candidates of each step, the live prefixes times the n
    values, so a metric with few such maps enumerates past 7 points.
    """
    n = d.carrier_size
    rank = d.rank_matrix()
    rank = rank.astype(np.min_scalar_type(rank.max()))
    prefixes = np.zeros((1, 0), dtype=np.min_scalar_type(n - 1))
    identity = 0
    for x in range(n):
        guard_enum(len(prefixes) * n, f"1-Lipschitz maps on {n} points")
        # ok[p, v]: prefix p extended by f(x) = v keeps every pair (y, x)
        ok = np.ones((len(prefixes), n), dtype=bool)
        for y in range(x):
            ok &= rank[prefixes[:, y]] <= rank[y, x]
        rows, vals = np.nonzero(ok)
        # the identity's prefix extended by x comes after the extensions of
        # the prefixes before it and its own extensions by values below x
        identity = int(rows.searchsorted(identity)) + int(np.count_nonzero(ok[identity, :x]))
        prefixes = np.column_stack([prefixes[rows], vals.astype(prefixes.dtype)])
    prefixes.flags.writeable = False
    return SelfMapMonoid._adopt(prefixes, identity)


def epsilon_A_relates(theta: SelfMapMonoid, d: UltraPseudometric, points, eps, i, j):
    """d(f_i(a), f_j(a)) < eps for every a in points: a bool for two int
    indices, a bool array of the broadcast shape for index arrays."""
    points = list(points)
    f, g = theta.values[i][..., points], theta.values[j][..., points]
    out = (d.rank_matrix()[f, g] < d.below(eps)).all(axis=-1)
    return out if out.ndim else bool(out)


def epsilon_A_relation(theta: SelfMapMonoid, d: UltraPseudometric,
                       points, eps) -> Partition:
    """The pointwise-closeness relation on theta over the given points.

    The strong triangle inequality makes this an equivalence relation;
    the classes are keyed by the ball class of every evaluation point,
    and the keying is verified against the literal pairwise relation.
    """
    points = sorted(set(points))
    if not points:
        raise ValueError("evaluation point set must be nonempty")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if any(not 0 <= a < d.carrier_size for a in points):
        raise ValueError("evaluation point outside the carrier")
    balls = np.asarray(d.ball_partition(eps).class_id)
    part = Partition.from_class_ids(map(tuple, balls[theta.values[:, points]].tolist()))
    ids = np.asarray(part.class_id)
    idx = np.arange(len(theta))
    # all pairs in one broadcast call, in row blocks of at most CHUNK_ENTRIES
    step = max(1, CHUNK_ENTRIES // (len(theta) * len(points)))
    for rows in np.split(idx, range(step, len(idx), step)):
        if not np.array_equal(epsilon_A_relates(theta, d, points, eps, rows[:, None], idx),
                              ids[rows, None] == ids):
            raise AssertionError("pointwise relation is not an equivalence")
    return part
