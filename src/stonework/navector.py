"""Free vectors over the two-element field on a pointed ultrametric base,
the Kantorovich maximal ultra-norm, and 1-Lipschitz linear extension.

Coefficients live in the two-element field, so a vector is just its
support set and addition is symmetric difference.  The base space is an
ultrametric carrier with one extra point adjoined: the zero of the
vector space, at distance exactly 1 from every base point (the input
metric is truncated at 1 first so this stays an ultrametric).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import NotLipschitz, ResourceLimit
from .finmon import is_point, is_self_map
from .ultra import UltraPseudometric

MAX_SUPPORT = 8


def free_space(d: UltraPseudometric) -> UltraPseudometric:
    """Adjoin the zero point (last index) at distance 1 from every point.

    The input is truncated at 1 beforehand; truncation preserves the
    strong triangle inequality and keeps the 1-Lipschitz monoid intact.
    """
    n = d.carrier_size
    one = d.below(1)            # the rank of distance 1 after truncation
    rank = np.full((n + 1, n + 1), one)
    rank[:n, :n] = np.minimum(d.rank_matrix(), one)
    rank[n, n] = 0
    return UltraPseudometric((*d.levels[:one], Fraction(1)), rank)


class FreeVector:
    """A two-element-field combination of base points, stored as its support.

    space must be a pointed metric as produced by free_space; the last
    index is the zero point and never appears in a support.
    """

    def __init__(self, space: UltraPseudometric, support: frozenset[int]):
        zero = space.carrier_size - 1
        if any(not 0 <= x < zero for x in support):
            raise ValueError("support must avoid the zero point and stay in range")
        column = space.rank_matrix()[:zero, zero].tolist()
        if any(space.levels[r] != 1 for r in set(column)):
            raise ValueError("space is not pointed: zero point not at distance 1")
        self.space = space
        self.support = support

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.space, self.support) == (other.space, other.support)

    def __hash__(self) -> int:
        return hash((self.space, self.support))

    @property
    def zero_point(self) -> int:
        return self.space.carrier_size - 1

    @classmethod
    def _unchecked(cls, space: UltraPseudometric, support: frozenset[int]) -> FreeVector:
        """A vector over a space already checked to be pointed, on a support
        already inside its base points; skips the checks of __init__."""
        v = object.__new__(cls)
        v.space = space
        v.support = support
        return v

    def add(self, other: FreeVector) -> FreeVector:
        if other.space is not self.space and other.space != self.space:
            raise ValueError("vectors over different spaces")
        # both supports avoid the zero point of this checked space, so their
        # symmetric difference does too
        return FreeVector._unchecked(self.space, self.support ^ other.support)


def _support(points) -> frozenset[int]:
    """The support of the sum of the given points; a repeated point cancels
    in pairs.  ValueError for a value that is no point (see is_point)."""
    support: set[int] = set()
    for x in points:
        if not is_point(x):
            raise ValueError(f"point {x!r} is not an integer")
        support ^= {int(x)}
    return frozenset(support)


def vector(space: UltraPseudometric, points) -> FreeVector:
    """The sum of the given base points; a repeated point cancels in pairs."""
    return FreeVector(space=space, support=_support(points))


def _best_matching(space: UltraPseudometric, points: list[int], below=None):
    """The first perfect matching of least maximal pair distance, with that
    distance, of an even-length list of point indices.

    An exhaustive branch-and-bound search over the pairings on integer
    ranks: the first free point pairs with each later free point in turn,
    in list order, and a branch is cut once its largest pair rank reaches
    that of the best complete pairing found so far.  The cut is strict, so
    the result is the first minimal pairing in that enumeration order.
    With below, a distance, only pairings whose maximal distance is less
    than it count, and None is returned when there is none.
    """
    rank = space.rank_matrix().take(points, 0).take(points, 1).tolist()
    best = [len(space.levels) if below is None else space.below(below), None]
    chosen: list[tuple[int, int]] = []

    def extend(free: list[int], worst: int) -> None:
        if not free:
            best[:] = worst, list(chosen)
            return
        first, rest = free[0], free[1:]
        row = rank[first]
        for i, partner in enumerate(rest):
            step = max(worst, row[partner])
            if step < best[0]:
                chosen.append((points[first], points[partner]))
                extend(rest[:i] + rest[i + 1:], step)
                chosen.pop()

    extend(list(range(len(points))), 0)
    r, pairs = best
    return None if pairs is None else (space.levels[r], pairs)


def optimal_pairing(v: FreeVector) -> tuple[Fraction, list[tuple[int, int]]]:
    """Norm together with a pairing of the support realizing it.

    The support, padded with the zero point when odd, is matched up
    perfectly; the norm is the smallest achievable maximum pair distance.
    By the strong triangle inequality {d <= r} is an equivalence relation,
    so a matching within distance r exists exactly when every class of it
    holds an even number of points: the norm is the least such r among
    the distances, and consecutive points of each class pair up.  Each
    class at r is a union of classes below r, so the scan runs from the
    top down and stops below the least feasible r.
    """
    points = sorted(v.support)
    if len(points) % 2:
        points.append(v.zero_point)
    rank = v.space.rank_matrix().take(points, 0).take(points, 1).tolist()
    best = 0, {}                # the zero vector: nothing to pair
    for r in sorted({s for row in rank for s in row}, reverse=True):
        classes: dict[int, list[int]] = {}
        for x, row in zip(points, rank):
            first = next(i for i, s in enumerate(row) if s <= r)
            classes.setdefault(first, []).append(x)
        if any(len(c) % 2 for c in classes.values()):
            break
        best = r, classes
    r, classes = best
    pairs = (pair for c in classes.values() for pair in zip(c[::2], c[1::2]))
    return v.space.levels[r], sorted(pairs)


def kantorovich_norm(v: FreeVector) -> Fraction:
    """Minimal over pairings of the maximal pair distance; 0 on the zero vector."""
    return optimal_pairing(v)[0]


def kantorovich_norm_with_auxiliary(v: FreeVector) -> Fraction:
    """Reference norm by search: every pairing, also with one doubled
    auxiliary point.

    A doubled point cancels over the two-element field, so this searches
    a strictly larger representation class than the pairings of the
    support; agreement with kantorovich_norm checks the closed form and
    the maximality argument on small instances.  Each search is the
    exhaustive _best_matching, bounded by the best norm found so far, and
    none of them uses the class parities of optimal_pairing.  Supports
    above MAX_SUPPORT points raise ResourceLimit.
    """
    points = sorted(v.support)
    if len(points) > MAX_SUPPORT:
        raise ResourceLimit(
            f"support of size {len(points)} above the pairing bound {MAX_SUPPORT}"
        )
    if len(points) % 2:
        points.append(v.zero_point)
    best, _ = _best_matching(v.space, points)
    for z in range(v.space.carrier_size):
        found = _best_matching(v.space, points + [z, z], below=best)
        if found is not None:
            best = found[0]
    return best


def lipschitz_linear_extend(f, v: FreeVector) -> FreeVector:
    """Push a vector forward along a 1-Lipschitz base self-map.

    f acts on the base points (the zero point stays fixed); colliding
    images cancel in the two-element field.  f takes entries as
    is_self_map does: no bool and no float is a point.  Raises
    NotLipschitz with a witness pair if f increases some base distance.
    """
    f = tuple(f)
    zero = v.zero_point
    if len(f) != zero:
        raise ValueError("map must be defined on exactly the base points")
    if not is_self_map(f, zero):
        raise ValueError("map must send base points to base points")
    rank = v.space.rank_matrix()
    for x in range(zero):
        for y in range(x + 1, zero):
            if rank[f[x], f[y]] > rank[x, y]:
                raise NotLipschitz(x, y)
    # f sends base points to base points of the space v has checked
    return FreeVector._unchecked(v.space, _support(f[x] for x in v.support))
