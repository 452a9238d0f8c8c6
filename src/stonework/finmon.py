"""Finite monoids, monoid actions, and transformation monoids.

Elements are integer indices, and each object is stored once, as one
read-only integer array of the smallest unsigned dtype: a monoid as its
(k, k) multiplication table (row = left factor), an action as its (k, n)
table of carrier images, and a self-map monoid as its (k, n) value rows
in lexicographic order, closed under composition.  Tuples of ints are
views derived on first use.  Everything is immutable after construction.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cached_property

import numpy as np

from .errors import AssociativityViolation, IdentityViolation
from .limits import guard_enum
from .schema import expect_field, expect_int, expect_rows, expect_object


class FiniteMonoid:
    """A monoid on range(k), stored once as ``values``: the read-only
    C-ordered (k, k) array x * y (row = left factor) of the smallest
    unsigned dtype that holds k - 1.  ``table``, its rows as tuples of
    ints, is derived on first use for witnesses and the scalar oracles.
    The constructor checks only the shape and dtype; validate_monoid
    checks the laws."""

    def __init__(self, values, identity: int):
        self.values = _stored(values, len(values))
        if self.values.shape[1] != len(values):
            raise ValueError("multiplication table is not square")
        self.identity = int(identity)

    @classmethod
    def _adopt(cls, values: np.ndarray, identity: int) -> FiniteMonoid:
        """The monoid on a square stored table that this module built
        read-only and hands to no caller writeable: kept, not copied."""
        m = cls.__new__(cls)
        m.values, m.identity = values, int(identity)
        return m

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteMonoid) and self.identity == other.identity
                and np.array_equal(self.values, other.values))

    def __hash__(self) -> int:
        return hash((self.identity, self.values.shape, self.values.tobytes()))

    @property
    def size(self) -> int:
        return len(self.values)

    def mul(self, x: int, y: int) -> int:
        return int(self.values[x, y])

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples of ints, for witnesses and the scalar oracles."""
        # shared int objects keep a large table small, and converting a
        # block of rows at a time keeps the temporaries small
        k = self.size
        shared = np.array(range(k), dtype=object)
        step = max(1, CHUNK_ENTRIES // k)
        rows = []
        for start in range(0, k, step):
            rows.extend(map(tuple, shared[self.values[start:start + step]].tolist()))
        return tuple(rows)

    def to_json(self) -> dict:
        return {"size": self.size, "identity": self.identity, "table": self.values.tolist()}


def _stored(values, rows: int) -> np.ndarray:
    """A read-only C-ordered copy of values, refused unless it is a 2-D
    array of the given number of rows whose dtype is the smallest unsigned
    one that holds every column index.  Even a read-only array is copied:
    whoever owns its data can make it writeable again."""
    values = np.asarray(values)
    if (values.ndim != 2 or len(values) != rows
            or values.dtype != np.min_scalar_type(max(values.shape[1] - 1, 0))):
        raise ValueError(f"not a stored table of {rows} rows: {values.dtype} {values.shape}")
    values = np.array(values, order="C")
    values.flags.writeable = False
    return values


def _narrowed(rows, shape, shape_error: str, range_error: str) -> np.ndarray:
    """rows as a read-only C-ordered array of the smallest unsigned dtype
    for its columns, refused unless it has the given shape (if None, any
    2-D shape with a column) and every entry indexes a column.  The entries
    are checked as given, before narrowing, so -1 cannot wrap into range."""
    try:
        arr = np.asarray(rows)
    except ValueError:              # ragged rows
        raise ValueError(shape_error) from None
    if (arr.shape != shape) if shape else (arr.ndim != 2 or not arr.shape[1]):
        raise ValueError(shape_error)
    cols = arr.shape[1]
    if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= cols):
        raise ValueError(range_error)
    arr = arr.astype(np.min_scalar_type(max(cols - 1, 0)), order="C")
    arr.flags.writeable = False
    return arr


def monoid_from_json(obj: dict) -> FiniteMonoid:
    obj = expect_object(obj, "monoid")
    return validate_monoid(
        expect_rows(expect_field(obj, "table", "monoid"), "monoid table"),
        expect_int(expect_field(obj, "identity", "monoid"), "monoid identity"),
    )


def validate_monoid(table, identity: int) -> FiniteMonoid:
    """Check the identity and associativity laws and build the monoid.

    Raises IdentityViolation or AssociativityViolation with the first
    offending element/triple in scan order, ascending (x, y, z).  The
    triples are compared in blocks of x (see first_true), which keeps
    that order, so no (n, n, n) array is built.

    Large tables are first checked on a generating set G (Light's test,
    see _generating_set): (x*g)*y = x*(g*y) for all x, y and every g in
    G.  That suffices.  The set A of the a with (x*a)*y = x*(a*y) for all
    x, y holds the identity and is closed under products, associative or
    not: for a, b in A, (x*(a*b))*y = ((x*a)*b)*y = (x*a)*(b*y) =
    x*(a*(b*y)) = x*((a*b)*y).  So A holds every product of members of G,
    which is every element.  Only if G is None or some g fails does the
    scan of all triples run, and it names the first defect.
    """
    n = len(table)
    if n == 0:
        raise ValueError("empty multiplication table")
    arr = _narrowed(table, (n, n), "multiplication table is not square", "table entry out of range")
    if not (0 <= identity < n):
        raise ValueError(f"identity index {identity} out of range")
    bad = _identity_defect(arr, identity)
    if bad is not None:
        raise IdentityViolation(bad)

    # (x*y)*z versus x*(y*z): associativity is the action law of m on itself
    gens = _generating_set(arr, identity, n)
    if gens is None or not _holds_on(arr, arr, gens):
        bad = _action_defect(arr, arr)
        if bad is not None:
            raise AssociativityViolation(*bad)

    return FiniteMonoid._adopt(arr, identity)


def _identity_defect(table: np.ndarray, identity: int):
    """The first x with identity*x != x, else the first with
    x*identity != x, or None if identity is a two-sided identity."""
    ident = np.arange(len(table))
    for bad in (table[identity] != ident, table[:, identity] != ident):
        if bad.any():
            return int(bad.argmax())
    return None


def opposite(m: FiniteMonoid) -> FiniteMonoid:
    """Reverse the multiplication order: the transposed table."""
    return FiniteMonoid(m.values.T, m.identity)


def is_submonoid(m: FiniteMonoid, subset) -> bool:
    """True iff the subset contains the identity and is product-closed."""
    sub = sorted(set(subset))
    if not set(sub) <= set(range(m.size)):
        raise ValueError("subset contains non-elements")
    inside = np.zeros(m.size, dtype=bool)
    inside[sub] = True
    return bool(inside[m.identity] and inside[m.values[np.ix_(sub, sub)]].all())


class MonoidAction:
    """A left action of a monoid on range(n), stored once as ``values``:
    the read-only C-ordered (k, n) array s.x of the smallest unsigned dtype
    that holds n - 1.  ``act``, its rows as tuples of ints, is derived on
    first use for the scalar oracles.  The constructor checks only the
    shape and dtype; validate_action checks the laws."""

    def __init__(self, monoid: FiniteMonoid, values):
        self.monoid = monoid
        self.values = _stored(values, monoid.size)
        self.carrier_size = self.values.shape[1]

    @classmethod
    def _adopt(cls, monoid: FiniteMonoid, values: np.ndarray,
               generating_set: np.ndarray | None) -> MonoidAction:
        """The action on a stored table that this module built read-only
        and hands to no caller writeable: kept, not copied, with its
        checked generating set."""
        a = cls.__new__(cls)
        a.monoid, a.values, a.carrier_size = monoid, values, values.shape[1]
        a.generating_set = generating_set
        return a

    @cached_property
    def generating_set(self) -> np.ndarray | None:
        """Indices G of monoid elements whose maps give every map act[s]
        as a composite, or None where no such set is known.

        G is _generating_set of the monoid's table at the carrier's width,
        so a small action gets None at once, kept only if act[identity] is
        the identity map and act[x*g] = act[x] after act[g] for every x and
        every g in G (_holds_on).  Then s is in G or a product
        ((identity*g1)*g2)*...*gm of members of G, and by the law act[s] =
        act[g1] after ... after act[gm], the empty composite being the
        identity.  Neither associativity nor a left identity is needed.
        So a family of partitions closed under the pullbacks along every
        act[g] is closed under those along every map, as pulling back
        along f after h is h's pullback of f's.  validate_action hands its
        action the set it has checked.
        """
        table, identity, act = self.monoid.values, self.monoid.identity, self.values
        gens = _generating_set(table, identity, self.carrier_size)
        if (gens is None or not np.array_equal(act[identity], np.arange(self.carrier_size))
                or not _holds_on(table, act, gens)):
            return None
        return gens

    def __eq__(self, other) -> bool:
        return (isinstance(other, MonoidAction) and self.monoid == other.monoid
                and np.array_equal(self.values, other.values))

    def __hash__(self) -> int:
        return hash((self.monoid, self.values.shape, self.values.tobytes()))

    @cached_property
    def act(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples of ints, for the scalar oracles."""
        return tuple(map(tuple, self.values.tolist()))

    def to_json(self) -> dict:
        return {
            "monoid": self.monoid.to_json(),
            "carrier_size": self.carrier_size,
            "act": self.values.tolist(),
        }


def action_from_json(obj: dict) -> MonoidAction:
    obj = expect_object(obj, "action")
    return validate_action(
        monoid_from_json(expect_field(obj, "monoid", "action")),
        expect_int(expect_field(obj, "carrier_size", "action"), "action carrier_size", 0),
        expect_rows(expect_field(obj, "act", "action"), "action act"),
    )


def validate_action(m: FiniteMonoid, carrier_size: int, act) -> MonoidAction:
    """Check act[e] = id and act[s*t] = act[s] after act[t].

    For a large monoid the law is first checked on a generating set G
    (see _generating_set), after m's own identity and its associativity
    on G (see validate_monoid), since m carries no proof of its laws.
    That suffices: in an associative monoid the set of the t with
    act[s*t] = act[s] after act[t] for every s holds the identity, and
    with t and u it holds t*u, as act[s*(t*u)] = act[(s*t)*u] =
    act[s*t] after act[u] = act[s] after act[t] after act[u] =
    act[s] after act[t*u].  Only if G is None or some check on it fails
    does the scan of all triples run, and it names the first defect.

    The action keeps G as its generating_set, or None where the scan ran.
    """
    arr = _narrowed(act, (m.size, carrier_size),
                    "action table has wrong shape", "action entry out of range")
    if not np.array_equal(arr[m.identity], np.arange(carrier_size)):
        raise ValueError("identity does not act as the identity map")
    table = m.values
    gens = (None if _identity_defect(table, m.identity) is not None
            else _generating_set(table, m.identity, carrier_size))
    if gens is None or not (_holds_on(table, table, gens) and _holds_on(table, arr, gens)):
        gens = None
        bad = _action_defect(table, arr)
        if bad is not None:
            raise ValueError("action law fails at (s, t, x) = ({}, {}, {})".format(*bad))
    return MonoidAction._adopt(m, arr, gens)


def _action_defect(table: np.ndarray, act: np.ndarray):
    """First (s, t, x), ascending, with act[s*t][x] != act[s][act[t][x]],
    or None; table is the (k, k) monoid, act a (k, n) stored table."""
    k, n = act.shape
    # act[s][act[t][x]]: one take from the block's rows, indexed by act itself
    return first_true((k, k, n), lambda a, b: act[table[a:b]] != act[a:b].take(act, axis=1))


def _holds_on(table: np.ndarray, act: np.ndarray, gens: np.ndarray) -> bool:
    """True iff act[s*g][x] = act[s][act[g][x]] for every s, x and every g
    in gens: the (k, len(gens), n) slice of _action_defect's law array,
    compared in row blocks through first_true."""
    k, n = act.shape
    right, images = table[:, gens], act[gens]
    return first_true((k, len(gens), n),
                      lambda a, b: act[right[a:b]] != act[a:b].take(images, axis=1)) is None


def _generating_set(table: np.ndarray, identity: int, width: int) -> np.ndarray | None:
    """Indices G of elements such that every element of range(k) is in G
    or a product ((identity*g1)*g2)*..., for g1, g2, ... in G, in the
    (k, k) table (with a two-sided identity, every member of G is such a
    product too); or None where a law with a last axis of the given width
    (k for associativity, n for an action on n points) is best compared
    on all (k, k, width) triples.

    Greedy: the candidates go in order of decreasing count of distinct
    products x*y in their row x, then by index.  A candidate already
    reached is skipped; any other joins G, and the reached set is closed
    under right multiplication by the members so far.

    Cost, in compared law entries: the full scan compares k*k*width.
    Where that is at most 16 blocks of CHUNK_ENTRIES, the table stays on
    it, since the candidate order and the closure cost about as much.
    Beyond, each member of G costs its k*k entries of associativity, but
    at least about one block for the numpy calls that pick and close it;
    G is given up, None, once that would pass half the full scan.
    """
    k = len(table)
    if k * k * width <= 16 * CHUNK_ENTRIES:
        return None
    limit = k * k * width // (2 * max(k * k, CHUNK_ENTRIES))
    distinct = np.empty(k, dtype=np.intp)
    wide = np.promote_types(table.dtype, np.uint16)     # 8-bit sorts are an order slower
    step = max(1, CHUNK_ENTRIES // k)
    for start in range(0, k, step):
        rows = np.sort(table[start:start + step].astype(wide), axis=1)
        distinct[start:start + step] = (rows[:, 1:] != rows[:, :-1]).sum(axis=1) + 1
    reached, hit = np.zeros(k, dtype=bool), np.zeros(k, dtype=bool)
    reached[identity] = True
    gens, right = [], np.empty((k, 8), dtype=table.dtype)      # right[x, i] = x * gens[i]
    for g in np.argsort(-distinct, kind="stable").tolist():
        if reached[g]:
            continue
        if len(gens) == limit:
            return None
        if len(gens) == right.shape[1]:
            right = np.hstack((right, np.empty_like(right)))
        right[:, len(gens)] = table[:, g]
        gens.append(g)
        hit[table[reached, g]] = True       # the identity's product reaches g itself
        hit[reached] = False
        while hit.any():                    # hit: the products new in this round
            reached |= hit
            products = right[hit, :len(gens)]
            hit[:] = False
            hit[products] = True
            hit[reached] = False
        if reached.all():
            break
    gens = np.array(gens, dtype=np.intp)
    gens.flags.writeable = False        # an action keeps it as its generating_set
    return gens


# Entries of one block of a computation done in row blocks, such as the rows
# of a law array (first_true) or of a composition table's keys, so that no
# (k, k, n) array is ever held.  Block temporaries stay near 256 KB: freeing
# blocks of several MB raises glibc's mmap and trim thresholds, and the heap
# then keeps what it freed.
CHUNK_ENTRIES = 1 << 15

# Tables of at most this many entries are built in Python: below it the
# fixed cost of the numpy calls and lookup keys exceeds the whole build.
# The suite's random transformation monoids have 1 to 6 elements.
SMALL_TABLE = 32


def first_true(shape, rows):
    """Index, in C order, of the first True entry of a boolean array of
    the given shape (count, ...), or None if there is none.

    rows(start, stop) returns the array's rows start:stop.  They are built
    and scanned in blocks of as many rows as fit in CHUNK_ENTRIES entries,
    one row at the least, so the whole array never exists; the blocks go in
    order, so the index is the one a scan of the whole array finds.
    """
    count, row = shape[0], math.prod(shape[1:])
    step = max(1, CHUNK_ENTRIES // max(1, row))
    for start in range(0, count, step):
        block = rows(start, min(start + step, count))
        if block.any():
            at = np.unravel_index(block.argmax(), block.shape)
            return (start + int(at[0]), *map(int, at[1:]))
    return None


def digit_weights(maps, n: int) -> np.ndarray:
    """w[s, y] = the sum of n**(m - 1 - x) over the columns x with
    maps[s, x] = y, for a (k, m) array of points of range(n).

    Base-n keys are linear in the digits: the key, first column most
    significant, of the composite f[maps[s]] is w[s] @ f for any f on
    range(n), so SelfMapMonoid._product keys the composites of a block
    of maps f with every map by one integer product.
    """
    m = maps.shape[1]
    powers = n ** np.arange(m - 1, -1, -1, dtype=np.int64)
    w, each = np.zeros((len(maps), n), dtype=np.int64), np.arange(len(maps))
    for x in range(m):      # one entry per row, so no index repeats
        w[each, maps[:, x]] += powers[x]
    return w


# Lookup keys pack a prefix rank and a block of base-n digits into an int64;
# every key stays below this bound.  At 2**53 every key, and every partial sum
# of its digit terms, is an integer that float64 holds exactly, so the key
# products of _product can run as float64 matrix products, which numpy hands
# to BLAS (it runs int64 products in its own loops, several times slower).
_KEY_BOUND = 1 << 53


class SelfMapMonoid:
    """A set of self-maps of a finite carrier, closed under composition.

    Stored once, as ``values``: a read-only (k, n) array of the smallest
    unsigned dtype that holds n - 1, one map of a carrier of n >= 1 points
    per row, rows in strictly ascending lexicographic order; the identity
    map must be present.  ``elements``, the maps as tuples of ints, is
    derived on first use for JSON, witnesses and the scalar oracles.

    ``compose(i, j)`` is the one composition primitive, and it reads one
    table: the (k, k) composition array, built on first use (see
    _product).  composites(), to_monoid() and verify_closure read it
    through compose.  So every composition, of two ints or of index
    arrays, needs the whole set closed: if any composite is not an
    element, compose raises KeyError.  ``lookup`` finds the index of any
    value row without the table.  Both find a map by its lookup key: in a
    direct-address table of all n**n keys where n**n <= k * k, else by
    binary search among the elements' sorted keys (see _key_levels).
    """

    def __init__(self, values):
        values = _narrowed(values, None, "maps must form a (k, n) array with n >= 1",
                           "map value outside the carrier")
        if not _strictly_ascending(values):
            raise ValueError("elements not in canonical order")
        n = values.shape[1]
        self.values, self.carrier_size = values, n
        found = np.flatnonzero((values == np.arange(n)).all(axis=1))
        if not found.size:
            raise ValueError("identity map missing")
        self.identity_index = int(found[0])

    @classmethod
    def _adopt(cls, values: np.ndarray, identity_index: int) -> SelfMapMonoid:
        """The monoid on value rows that this package built read-only and
        C-ordered, of the smallest unsigned dtype for their columns, in
        strictly ascending order and closed under composition, with the
        identity map at row identity_index: kept, not copied, not checked."""
        s = cls.__new__(cls)
        s.values, s.carrier_size, s.identity_index = values, values.shape[1], int(identity_index)
        return s

    def __eq__(self, other) -> bool:
        return isinstance(other, SelfMapMonoid) and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.values.shape, self.values.tobytes()))

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """The maps as tuples of ints, for JSON, witnesses and the scalar oracles."""
        return tuple(map(tuple, self.values.tolist()))

    def compose(self, i, j):
        """Index of map i after map j (apply j first).

        i and j index the composition table as they would any (k, k)
        array: two ints give an int; integer arrays that broadcast against
        each other, or slices, give the index array of every composite, a
        read-only view for two slices.  KeyError if the set is not closed,
        whichever composites are asked for.
        """
        if type(i) is int and type(j) is int:
            return int(self._product[i, j])
        out = self._product[i, j]
        return out if out.ndim else int(out)

    def lookup(self, maps) -> np.ndarray:
        """Indices of the value rows maps[..., :]; KeyError for a non-element.

        Exact for any carrier size: the key of a map is built block by
        block, each step packing the rank of the prefix so far with the
        next block of base-n digits (see _key_levels).  The indices are
        intp.  A row with a value outside the carrier raises KeyError
        before any key is built, since such digits would alias the key of
        an element; a row of another length raises ValueError.  A missing
        row raises KeyError naming the first one in C order.
        """
        maps, n = np.asarray(maps), self.carrier_size
        if maps.shape[-1:] != (n,):
            raise ValueError(f"maps of shape {maps.shape} on a {n}-point carrier")
        flat = maps.reshape(math.prod(maps.shape[:-1]), n)
        if flat.size and (flat.max() >= n or flat.dtype.kind != "u" and flat.min() < 0):
            off = ((flat < 0) | (flat >= n)).any(axis=1)
            raise KeyError(tuple(flat[off.argmax()].tolist()))
        digits = (flat[:, lo:hi] @ powers for lo, hi, powers, _ in self._key_levels)
        rank = self._ranks(digits, lambda at: tuple(flat[at[0]].tolist()))
        return rank.astype(np.intp, copy=False).reshape(maps.shape[:-1])

    @cached_property
    def _key_levels(self) -> list:
        """Lookup keys per block of coordinates.

        The n coordinates are cut into blocks of w base-n digits, with w
        as large as keeps rank * n**w + digits below _KEY_BOUND.  Level b
        holds the ascending distinct keys rank * n**w + digits_b of the
        elements, where rank is an element's index among the keys of level
        b - 1, followed by the sentinel _KEY_BOUND; after the last level
        that index is the element's own index.  A single block (wherever
        k * n**n < _KEY_BOUND, so every n <= 8) is the plain base-n key,
        below n**n; where n**n <= k * k,
        _ranks reads it in _inverse instead of searching the level's keys.
        """
        k, n = self.values.shape
        width = 1
        while width < n and k * n ** (width + 1) < _KEY_BOUND:
            width += 1
        levels = []
        rank = np.zeros(k, dtype=np.intp)
        for lo in range(0, n, width):
            hi = min(lo + width, n)
            powers = n ** np.arange(hi - lo - 1, -1, -1, dtype=np.int64)
            key = self.values[:, lo:hi] @ powers
            if lo:
                key += rank * (powers[0] * n)
            if hi < n:
                # the elements ascend, so equal keys are adjacent and ascend;
                # at the last level the keys of distinct elements are distinct
                new = np.ones(k, dtype=bool)
                np.not_equal(key[1:], key[:-1], out=new[1:])
                rank = new.cumsum() - 1
                key = key[new]
            levels.append((lo, hi, powers, np.concatenate((key, [_KEY_BOUND]))))
        return levels

    @cached_property
    def _inverse(self) -> np.ndarray | None:
        """The direct-address table of the single-level keys, where there
        are at most k * k of them: inverse[key] is the index of the element
        with that base-n key, or k if there is none.  None where the keys
        have several levels or n**n > k * k; those stay searched."""
        k, n = self.values.shape
        if n ** n > k * k or len(self._key_levels) > 1:
            return None
        inverse = np.full(n ** n, k, dtype=np.min_scalar_type(k))
        inverse[self._key_levels[0][3][:-1]] = np.arange(k)
        inverse.flags.writeable = False
        return inverse

    def _ranks(self, digits, row):
        """Element indices of the maps whose digit keys digits yields, one
        array per level of _key_levels, each read in _inverse or searched
        among that level's keys.  KeyError(row(at)) for the first position
        at, in C order, whose key is missing, at the first level that
        misses one."""
        n, inverse = self.carrier_size, self._inverse
        for (lo, _, powers, keys), key in zip(self._key_levels, digits):
            if lo:
                key += rank * (powers[0] * n)
            if inverse is None:
                rank = keys.searchsorted(key)
                missing = keys[rank] != key
            else:
                rank = inverse[key]
                missing = rank == len(self.values)
            if missing.any():
                raise KeyError(row(np.unravel_index(missing.argmax(), missing.shape)))
        return rank

    @cached_property
    def _product(self) -> np.ndarray:
        """The read-only (k, k) composition table; KeyError if a composite
        is not an element.

        Up to SMALL_TABLE entries it is built in Python.  Beyond, from the
        linearity of the lookup key: on level b, the digit key of f after g
        is values[f] @ W_b[:, g], where W_b[y, g] sums the digit weights
        powers[x - lo] of the level's points x with g(x) = y (see
        digit_weights).  So a block of rows of the table is one
        (rows, n) @ (n, k) product per level, ranked like lookup ranks
        value rows (see _ranks: a read of the direct-address table where
        n**n <= k * k, else a binary search); with at most CHUNK_ENTRIES
        keys a block, no (k, k, n) array of composite maps is built.  The
        products run in float64, which numpy hands to BLAS, and each block's
        keys are converted to int64 before they are ranked.  They stay
        exact in any summation order: every term is a non-negative integer
        and no key reaches _KEY_BOUND = 2**53, so every partial sum is an
        integer that float64 holds exactly.
        """
        k, n = self.values.shape
        if k * k <= SMALL_TABLE:
            el = self.elements
            index = {f: i for i, f in enumerate(el)}
            out = np.array([[index[tuple(f[x] for x in g)] for g in el] for f in el],
                           dtype=np.min_scalar_type(k - 1))
        else:
            values = self.values.astype(np.float64)
            weights = [digit_weights(self.values[:, lo:hi], n).T.astype(np.float64)
                       for lo, hi, _, _ in self._key_levels]
            out = np.empty((k, k), dtype=np.min_scalar_type(k - 1))
            step = max(1, CHUNK_ENTRIES // k)
            for start in range(0, k, step):
                f = values[start:start + step]
                out[start:start + step] = self._ranks(
                    ((f @ w).astype(np.int64) for w in weights),
                    lambda at: tuple(self.values[start + at[0]][self.values[at[1]]].tolist()))
        out.flags.writeable = False
        return out

    def composites(self) -> np.ndarray | None:
        """out[i, j] = index of map i after map j, read-only; None if some
        composite is not an element."""
        try:
            return self.compose(slice(None), slice(None))
        except KeyError:
            return None

    def verify_closure(self) -> bool:
        return self.composites() is not None

    def to_monoid(self) -> FiniteMonoid:
        """Composition table under the canonical element order, sharing
        the read-only table compose reads."""
        return FiniteMonoid._adopt(self.compose(slice(None), slice(None)), self.identity_index)


def _strictly_ascending(rows: np.ndarray) -> bool:
    """True iff the rows of a 2-D array strictly ascend lexicographically:
    each is larger than the one before where the two first differ."""
    first = (rows[1:] != rows[:-1]).argmax(axis=1)     # 0 where two rows are equal
    at = np.arange(len(first)), first
    return bool((rows[1:][at] > rows[:-1][at]).all())


def full_selfmap_monoid(n: int) -> SelfMapMonoid:
    """All n**n self-maps of an n-point set, lexicographically ordered."""
    if n < 1:
        raise ValueError("carrier must be nonempty")
    guard_enum(n**n, f"full self-map monoid on {n} points")
    # row r holds the n base-n digits of r, most significant first, so the
    # rows ascend and the identity is row sum(x * n**(n - 1 - x))
    values = np.ascontiguousarray(
        np.indices((n,) * n, dtype=np.min_scalar_type(n - 1)).reshape(n, -1).T)
    values.flags.writeable = False
    return SelfMapMonoid._adopt(values, sum(x * n ** (n - 1 - x) for x in range(n)))


def is_self_map(g, n: int) -> bool:
    """True iff the sequence g is a self-map of n points: n entries, each
    a Python or numpy integer in range(n), as SelfMapMonoid takes them.
    No bool and no float is read as a point."""
    return len(g) == n and all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                               and 0 <= v < n for v in g)


def generated_selfmap_monoid(carrier_size: int, generators,
                             max_size: int | None = None) -> SelfMapMonoid:
    """Closure of the given maps (plus the identity) under composition.

    Breadth-first over words in the generators: every element is the
    identity or f after g for an element f and a generator g, so each new
    map is composed with the generators only.  Raises ValueError naming
    the first generator that is not a self-map of the carrier (see
    is_self_map: no bool and no float is read as a point).  Otherwise raises
    exactly when the closure has more than max_size elements.  Words in
    checked generators are self-maps, and they are closed under
    composition, so the sorted rows are adopted without a second check.
    """
    n = carrier_size
    if n < 1:
        raise ValueError("carrier must be nonempty")
    gens = [tuple(g) for g in generators]
    for g in gens:
        if not is_self_map(g, n):
            raise ValueError(f"generator [{', '.join(map(str, g))}] "
                             f"is not a self-map of {n} points")
    identity = tuple(range(n))
    frontier = [identity]
    seen = set(frontier)
    while frontier:
        if max_size is not None and len(seen) > max_size:
            raise ValueError("generated monoid exceeds max_size")
        nxt = []
        for f in frontier:
            for g in gens:
                h = tuple(map(f.__getitem__, g))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    rows = sorted(seen)
    values = np.array(rows, dtype=np.min_scalar_type(n - 1))
    values.flags.writeable = False
    return SelfMapMonoid._adopt(values, bisect_left(rows, identity))


def cayley_embed(m: FiniteMonoid) -> tuple[SelfMapMonoid, tuple[int, ...]]:
    """Left-translation representation s -> (x -> s*x).

    Returns the transformation monoid of translation maps together with
    the element-to-map index table.  The representation is injective
    (evaluate at the identity) and multiplication-preserving.
    """
    values, to_map = np.unique(m.values, axis=0, return_inverse=True)
    return SelfMapMonoid(values), tuple(to_map.reshape(-1).tolist())
