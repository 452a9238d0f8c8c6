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
    The constructor reads any square integer table through _narrowed and
    refuses an identity outside range(k); validate_monoid checks the laws."""

    def __init__(self, values, identity: int):
        k = len(values)
        self.values = _narrowed(values, (k, k), "multiplication table is not square",
                                "table entry out of range")
        if not (is_point(identity) and 0 <= identity < k):
            raise ValueError(f"identity index {identity} out of range")
        self.identity = int(identity)

    @classmethod
    def _adopt(cls, values: np.ndarray, identity: int) -> FiniteMonoid:
        """The monoid on a square stored table that this module built
        read-only and hands to no caller writeable: kept, not copied."""
        m = cls.__new__(cls)
        m.values, m.identity = values, int(identity)
        return m

    @cached_property
    def generating_set(self) -> np.ndarray | None:
        """Indices G of elements that generate the monoid, on which its
        laws are proven, or None where no such set is known.

        G is _proven_generators of the table at width k: the identity is
        two-sided and associativity holds against every member of G, which
        is Light's test.  Then the table is associative (see
        validate_monoid), and every element is the identity or a product
        g1*g2*...*gm of members of G.  So a law whose holders contain the
        identity and are closed under products holds everywhere once it
        holds on G.  validate_monoid reads it for its associativity law, and
        MonoidAction.generating_set derives an action's set from it.
        """
        return _proven_generators(self.values, self.identity, self.size)

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
        rows = []
        for start, stop in blocks(k, k):
            rows.extend(map(tuple, shared[self.values[start:stop]].tolist()))
        return tuple(rows)

    def to_json(self) -> dict:
        return {"size": self.size, "identity": self.identity, "table": self.values.tolist()}


def _narrowed(rows, shape, shape_error: str, range_error: str) -> np.ndarray:
    """rows as a read-only C-ordered copy of the smallest unsigned dtype for
    its columns, refused unless it is 2-D of the given shape (None: any
    size) and every entry indexes a column.  The entries are checked as
    given, before narrowing, so -1 cannot wrap into range."""
    try:
        arr = np.asarray(rows)
    except ValueError:              # ragged rows
        raise ValueError(shape_error) from None
    if arr.ndim != 2 or any(want not in (None, got) for got, want in zip(arr.shape, shape)):
        raise ValueError(shape_error)
    cols = arr.shape[1]
    if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= cols):
        raise ValueError(range_error)
    arr = arr.astype(np.min_scalar_type(max(cols - 1, 0)), order="C")
    arr.flags.writeable = False
    return arr


def monoid_from_json(obj: dict) -> FiniteMonoid:
    obj = expect_object(obj, "monoid")
    table = expect_rows(expect_field(obj, "table", "monoid"), "monoid table")
    if "size" in obj and expect_int(obj["size"], "monoid size") != len(table):
        raise ValueError(f"monoid size is {obj['size']}, not the table's row count {len(table)}")
    return validate_monoid(
        table,
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
    which is every element.  G is the monoid's generating_set, which
    holds only where that test passed; where it is None the scan of all
    triples runs, and it names the first defect.
    """
    if not len(table):
        raise ValueError("empty multiplication table")
    m = FiniteMonoid(table, identity)
    bad = _identity_defect(m.values, m.identity)
    if bad is not None:
        raise IdentityViolation(bad)

    # (x*y)*z versus x*(y*z): associativity is the action law of m on itself
    if m.generating_set is None:
        bad = _action_defect(m.values, m.values)
        if bad is not None:
            raise AssociativityViolation(*bad)
    return m


def _identity_defect(table: np.ndarray, identity: int):
    """The first x with identity*x != x, else the first with
    x*identity != x, or None if identity is a two-sided identity."""
    ident = np.arange(len(table))
    for bad in (table[identity] != ident, table[:, identity] != ident):
        if bad.any():
            return int(bad.argmax())
    return None


def is_submonoid(m: FiniteMonoid, subset) -> bool:
    """True iff the subset contains the identity and is product-closed.
    ValueError for a member that is no point (see is_point) or no element."""
    sub = set(subset)
    for x in sub:
        if not is_point(x):
            raise ValueError(f"subset member {x!r} is not an integer")
    if not sub <= set(range(m.size)):
        raise ValueError("subset contains non-elements")
    sub = sorted(sub)
    inside = np.zeros(m.size, dtype=bool)
    inside[sub] = True
    return bool(inside[m.identity] and inside[m.values[np.ix_(sub, sub)]].all())


class MonoidAction:
    """A left action of a monoid on range(n), stored once as ``values``:
    the read-only C-ordered (k, n) array s.x of the smallest unsigned dtype
    that holds n - 1.  ``act``, its rows as tuples of ints, is derived on
    first use for the scalar oracles.  The constructor reads its table
    through _narrowed; validate_action checks the laws."""

    def __init__(self, monoid: FiniteMonoid, values):
        self.monoid = monoid
        self.values = _narrowed(values, (monoid.size, None), "action table has wrong shape",
                                "action entry out of range")
        self.carrier_size = self.values.shape[1]

    @classmethod
    def _adopt(cls, monoid: FiniteMonoid, values: np.ndarray) -> MonoidAction:
        """The action on a stored table that this package built read-only
        and hands to no caller writeable: kept, not copied."""
        a = cls.__new__(cls)
        a.monoid, a.values, a.carrier_size = monoid, values, values.shape[1]
        return a

    @cached_property
    def generating_set(self) -> np.ndarray | None:
        """Indices G of monoid elements whose maps give every map act[s]
        as a composite, or None where no such set is known.

        G is the monoid's generating_set, or where that is None and the
        carrier is wider than the monoid, _proven_generators of its table
        at the carrier's width n, as the law's triples are (k, k, n): either
        way the monoid's identity and associativity are proven.  G is kept
        only where act[identity] is the identity map and the action law
        holds against every member of G.  Then the law holds everywhere
        (see validate_action), and every s is the identity or a product
        g1*...*gm of members of G, so act[s] = act[g1] after ... after
        act[gm].  So a family of partitions closed under the pullbacks
        along every act[g] is closed under those along every map, as
        pulling back along f after h is h's pullback of f's.
        """
        m, act, n = self.monoid, self.values, self.carrier_size
        gens = m.generating_set
        if gens is None and n > m.size:
            gens = _proven_generators(m.values, m.identity, n)
        if (gens is None or not np.array_equal(act[m.identity], np.arange(n))
                or _action_defect(m.values, act, gens) is not None):
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

    For a large monoid or carrier the law is first checked on the
    action's generating_set G, whose identity and associativity are
    proven.  That suffices: in an associative monoid the set of the t
    with act[s*t] = act[s] after act[t] for every s holds the identity,
    and with t and u it holds t*u, as act[s*(t*u)] = act[(s*t)*u] =
    act[s*t] after act[u] = act[s] after act[t] after act[u] = act[s]
    after act[t*u].  Only if G is None, as it is where the law fails on
    it, does the scan of all triples run, and it names the first defect.
    """
    arr = _narrowed(act, (m.size, carrier_size),
                    "action table has wrong shape", "action entry out of range")
    if not np.array_equal(arr[m.identity], np.arange(carrier_size)):
        raise ValueError("identity does not act as the identity map")
    action = MonoidAction._adopt(m, arr)
    if action.generating_set is None:
        bad = _action_defect(m.values, arr)
        if bad is not None:
            raise ValueError("action law fails at (s, t, x) = ({}, {}, {})".format(*bad))
    return action


def _action_defect(table: np.ndarray, act: np.ndarray, among=None):
    """The first (s, i, x), ascending, with act[s*t][x] != act[s][act[t][x]]
    for t the i-th of the elements among (by default every element, when
    i is t itself), or None; table is the (k, k) monoid, act a (k, n)
    stored table."""
    k, n = act.shape
    right, images = (table, act) if among is None else (table[:, among], act[among])
    # act[s][act[t][x]]: one take from the block's rows, indexed by the images
    return first_true((k, right.shape[1], n),
                      lambda a, b: act[right[a:b]] != act[a:b].take(images, axis=1))


def _proven_generators(table: np.ndarray, identity: int, width: int) -> np.ndarray | None:
    """_generating_set of the (k, k) table at the given width, kept only
    if identity is two-sided and associativity holds against every member
    (Light's test); else None."""
    gens = _generating_set(table, identity, width)
    if (gens is None or _identity_defect(table, identity) is not None
            or _action_defect(table, table, gens) is not None):
        return None
    return gens


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
    for start, stop in blocks(k, k):
        rows = np.sort(table[start:stop].astype(wide), axis=1)
        distinct[start:stop] = (rows[:, 1:] != rows[:, :-1]).sum(axis=1) + 1
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
        _close(reached, hit, right[:, :len(gens)])
        if reached.all():
            break
    gens = np.array(gens, dtype=np.intp)
    gens.flags.writeable = False        # an action keeps it as its generating_set
    return gens


def _close(reached: np.ndarray, hit: np.ndarray, right: np.ndarray) -> None:
    """Breadth-first along right, in place: hit, the elements new in this
    round, joins reached, and the next round's hit is the products
    right[x, i] of its members x not yet reached, until none is new.
    reached and hit are (k,) boolean arrays, right a (k, m) index table."""
    while hit.any():
        reached |= hit
        products = right[hit]
        hit[:] = False
        hit[products] = True
        hit[reached] = False


# Entries of one block of a computation done in row blocks (see blocks), such
# as the rows of a law array (first_true) or of a composition table's keys, so
# that no (k, k, n) array is ever held.  Block temporaries stay near 256 KB:
# freeing blocks of several MB raises glibc's mmap and trim thresholds, and
# the heap then keeps what it freed.
CHUNK_ENTRIES = 1 << 15

# Tables of at most this many entries are built in Python: below it the
# fixed cost of the numpy calls and lookup keys exceeds the whole build.
# The suite's random transformation monoids have 1 to 6 elements.
SMALL_TABLE = 32


def blocks(count: int, row: int):
    """The spans (start, stop) that cover range(count) in order, each of as
    many rows of row entries as fit in CHUNK_ENTRIES (read when the first
    span is asked for), one row at the least."""
    step = max(1, CHUNK_ENTRIES // max(1, row))
    for start in range(0, count, step):
        yield start, min(start + step, count)


def first_true(shape, rows):
    """Index, in C order, of the first True entry of a boolean array of
    the given shape (count, ...), or None if there is none.

    rows(start, stop) returns the array's rows start:stop.  They are built
    and scanned in blocks (see blocks), so the whole array never exists;
    the blocks go in order, so the index is the one a scan of the whole
    array finds.
    """
    for start, stop in blocks(shape[0], math.prod(shape[1:])):
        block = rows(start, stop)
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


# Every lookup key stays below this bound: an addressed level's key indexes its
# table, and a checked level takes as many base-n digits as keep n**w within
# it (see SelfMapMonoid._key_levels).  At 2**53 every key, and every partial sum
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
    ``generators`` is None, or the read-only indices of maps that its
    builder names as candidate generators: a law proven on them holds only
    where certify(generators) confirms them.

    ``compose(i, j)`` is the one composition primitive, and it reads one
    table: the (k, k) composition array, built on first use (see
    _product).  composites(), to_monoid() and verify_closure read it
    through compose.  So every composition, of two ints or of index
    arrays, needs the whole set closed: if any composite is not an
    element, compose raises KeyError.  ``lookup`` finds the index of any
    value row without the table.  Both find a map from its digits, a block
    of coordinates at a time (see _key_levels): direct-address tables tell
    the prefixes apart until each belongs to one element, then that
    element's own remaining digits are compared.
    """

    def __init__(self, values):
        values = _narrowed(values, (None, None), "maps must form a (k, n) array with n >= 1",
                           "map value outside the carrier")
        n = values.shape[1]
        if not n:
            raise ValueError("maps must form a (k, n) array with n >= 1")
        if not _strictly_ascending(values):
            raise ValueError("elements not in canonical order")
        self.values, self.carrier_size, self.generators = values, n, None
        found = np.flatnonzero((values == np.arange(n)).all(axis=1))
        if not found.size:
            raise ValueError("identity map missing")
        self.identity_index = int(found[0])

    @classmethod
    def _adopt(cls, values: np.ndarray, identity_index: int,
               generators: np.ndarray | None = None) -> SelfMapMonoid:
        """The monoid on value rows that this package built read-only and
        C-ordered, of the smallest unsigned dtype for their columns, in
        strictly ascending order and closed under composition, with the
        identity map at row identity_index: kept, not copied, not checked.
        generators, if given, are read-only candidate generator indices."""
        s = cls.__new__(cls)
        s.values, s.carrier_size, s.identity_index = values, values.shape[1], int(identity_index)
        s.generators = generators
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
        out = self._product[i, j]
        return out if out.ndim else int(out)

    def lookup(self, maps) -> np.ndarray:
        """Indices of the value rows maps[..., :]; KeyError for a non-element.

        Exact for any carrier size: each level of _key_levels reads one
        block of base-n digits, and _ranks follows them to the element.
        The indices are intp.  Rows that are not integer arrays (bool,
        float or object rows, whose values are no points: see is_point) and
        a row with a value outside the carrier raise KeyError before any
        key is built, since such digits would alias the key of an element;
        a row of another length raises ValueError.  A missing row raises
        KeyError naming the first one in C order.
        """
        maps, n = np.asarray(maps), self.carrier_size
        if maps.shape[-1:] != (n,):
            raise ValueError(f"maps of shape {maps.shape} on a {n}-point carrier")
        flat = maps.reshape(math.prod(maps.shape[:-1]), n)
        if flat.dtype.kind not in "iu":
            if flat.size:
                raise KeyError(tuple(flat[0].tolist()))
            flat = flat.astype(np.intp)     # no entries, as np.asarray([]) reads
        if flat.size and (flat.max() >= n or flat.dtype.kind != "u" and flat.min() < 0):
            off = ((flat < 0) | (flat >= n)).any(axis=1)
            raise KeyError(tuple(flat[off.argmax()].tolist()))
        addressed, checked = self._key_levels
        digits = (flat[:, lo:hi] @ powers for lo, hi, powers, _ in addressed + checked)
        rank = self._ranks(digits, lambda at: tuple(flat[at[0]].tolist()))
        return rank.astype(np.intp, copy=False).reshape(maps.shape[:-1])

    @cached_property
    def _key_levels(self) -> tuple[list, list]:
        """The levels (lo, hi, powers, table) that lookup and _product read,
        each a block lo:hi of coordinates, whose base-n digit key is the
        block's digits @ powers: first the addressed levels, then the
        checked ones.

        A level is addressed while two elements share the prefix of
        coordinates before it.  Its table maps rank * n**w + key, for the
        rank of a prefix among the count distinct prefixes so far and the
        key of a block of w digits, to the rank of the longer prefix, or to
        k where no element has it.  The block is the widest with count *
        n**w <= max(CHUNK_ENTRIES, count * n), except that where all n**n
        keys fit in k * k entries, the first level takes every coordinate.
        The first level is addressed even for one element.  The elements
        ascend, so the ranks of their prefixes ascend too, and once every
        element has a prefix of its own, its rank is the element's index.
        Each remaining block is checked: its table holds every element's own
        key, compared with the key read, and it is the widest block whose
        keys stay below _KEY_BOUND.
        """
        k, n = self.values.shape
        addressed, lo, count = [], 0, 1
        while lo < n and (count < k or not lo):
            width = n if not lo and n ** n <= k * k else 1
            limit = max(CHUNK_ENTRIES, count * n)
            while width < n - lo and count * n ** (width + 1) <= limit:
                width += 1
            powers = n ** np.arange(width - 1, -1, -1, dtype=np.int64)
            key = self.values[:, lo:lo + width] @ powers
            if lo:
                key += rank * (powers[0] * n)
            # the elements ascend, so equal keys are adjacent and ascend
            new = np.ones(k, dtype=bool)
            np.not_equal(key[1:], key[:-1], out=new[1:])
            rank = new.cumsum() - 1
            table = np.full(count * n ** width, k, dtype=np.min_scalar_type(k))
            table[key] = rank
            table.flags.writeable = False
            addressed.append((lo, lo + width, powers, table))
            lo, count = lo + width, int(rank[-1]) + 1
        width = 1
        while width < n - lo and n ** (width + 1) <= _KEY_BOUND:
            width += 1
        checked = []
        for lo in range(lo, n, width):
            hi = min(lo + width, n)
            powers = n ** np.arange(hi - lo - 1, -1, -1, dtype=np.int64)
            own = self.values[:, lo:hi] @ powers
            own.flags.writeable = False
            checked.append((lo, hi, powers, own))
        return addressed, checked

    def _ranks(self, digits, row):
        """Element indices of the maps whose digit keys digits yields, one
        int64 array per level of _key_levels, addressed levels first; the
        arrays are spent.  KeyError(row(at)) for the first position at, in
        C order, that misses at any level.  A miss at an addressed level
        goes on from rank 0, so the later levels still read in range."""
        k, n = self.values.shape
        addressed, checked = self._key_levels
        missing = None
        for lo, hi, powers, table in addressed:
            key = next(digits)
            if lo:
                key += rank * (powers[0] * n)
            rank = table.take(key)
            miss = rank == k
            if miss.any():
                rank[miss] = 0
                missing = miss if missing is None else missing | miss
        for _, _, _, own in checked:
            miss = own.take(rank) != next(digits)
            if miss.any():
                missing = miss if missing is None else missing | miss
        if missing is not None:
            raise KeyError(row(np.unravel_index(missing.argmax(), missing.shape)))
        return rank

    @cached_property
    def _product(self) -> np.ndarray:
        """The read-only (k, k) composition table; KeyError if a composite
        is not an element.

        Up to SMALL_TABLE entries it is built in Python.  Beyond, from the
        linearity of the lookup key: on the level of points lo:hi, the digit
        key of f after g is values[f] @ W[:, g], where W[y, g] sums the
        digit weights powers[x - lo] of the level's points x with g(x) = y
        (see digit_weights).  So a block of rows of the table is one
        (rows, n) @ (n, k) product per level, ranked like lookup ranks
        value rows (see _ranks); with at most CHUNK_ENTRIES keys a block,
        no (k, k, n) array of composite maps is built.  The products run in
        float64, which numpy hands to BLAS, into one buffer, and each
        level's keys are cast into one int64 buffer before they are ranked.
        They stay exact in any summation order: every term is a
        non-negative integer and no key reaches _KEY_BOUND = 2**53, so
        every partial sum is an integer that float64 holds exactly.
        """
        k, n = self.values.shape
        if k * k <= SMALL_TABLE:
            el = self.elements
            index = {f: i for i, f in enumerate(el)}
            out = np.array([[index[tuple(f[x] for x in g)] for g in el] for f in el],
                           dtype=np.min_scalar_type(k - 1))
        else:
            values = self.values.astype(np.float64)
            addressed, checked = self._key_levels
            weights = [digit_weights(self.values[:, lo:hi], n).T.astype(np.float64)
                       for lo, hi, _, _ in addressed + checked]
            out = np.empty((k, k), dtype=np.min_scalar_type(k - 1))
            products = np.empty((next(blocks(k, k))[1], k))    # the first block is the longest
            keys = np.empty(products.shape, dtype=np.int64)

            def digits(f):
                for w in weights:
                    np.matmul(f, w, out=products[:len(f)])
                    keys[:len(f)] = products[:len(f)]
                    yield keys[:len(f)]

            for start, stop in blocks(k, k):
                out[start:stop] = self._ranks(
                    digits(values[start:stop]),
                    lambda at: tuple(self.values[start + at[0]][self.values[at[1]]].tolist()))
        out.flags.writeable = False
        return out

    def right(self, gens) -> np.ndarray:
        """out[f, i] = index of map f after map gens[i], as intp, for every
        element f: one lookup of the (k, len(gens), n) composite maps, and
        no (k, k) table.  KeyError if some composite is not an element."""
        return self.lookup(self.values[:, self.values[np.asarray(gens, dtype=np.intp)]])

    def certify(self, gens) -> np.ndarray | None:
        """right(gens), if it certifies that the maps gens generate the set;
        else None.

        The certificate: every composite f after g, for an element f and g
        in gens, is an element, and the breadth-first search along those
        composites from the identity reaches every element.  Then every
        element is a word, the identity after g1 after ... after gm, and
        the set is closed: for a and such a word b, a after b is
        (((a after g1) after g2) ...) after gm, an element at each step.
        So a law whose holders f contain the identity and, with f, hold f
        after g for every g in gens holds on every element.
        """
        try:
            right = self.right(gens)
        except KeyError:
            return None
        reached, hit = np.zeros(len(self), dtype=bool), np.zeros(len(self), dtype=bool)
        hit[self.identity_index] = True
        _close(reached, hit, right)
        return right if reached.all() else None

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
    """All n**n self-maps of an n-point set, lexicographically ordered.

    Its generators are Howie's: the transposition of points 0 and 1, the
    n-cycle x -> x + 1 mod n and the rank n - 1 map that sends 1 to 0 and
    fixes the rest (J. M. Howie, Fundamentals of Semigroup Theory, 1995),
    distinct, in index order; none for one point.
    """
    if n < 1:
        raise ValueError("carrier must be nonempty")
    guard_enum(n**n, f"full self-map monoid on {n} points")
    # row r holds the n base-n digits of r, most significant first, so the
    # rows ascend and a map's row is the number its digits write
    values = np.ascontiguousarray(
        np.indices((n,) * n, dtype=np.min_scalar_type(n - 1)).reshape(n, -1).T)
    values.flags.writeable = False

    def row(digits) -> int:
        return sum(v * n ** (n - 1 - x) for x, v in enumerate(digits))

    rest = [*range(2, n)]
    howie = [[1, 0, *rest], [*range(1, n), 0], [0, 0, *rest]] if n > 1 else []
    generators = np.array(sorted({row(g) for g in howie}), dtype=np.intp)
    generators.flags.writeable = False
    return SelfMapMonoid._adopt(values, row(range(n)), generators)


def is_point(v) -> bool:
    """True iff v is read as a point: a Python or numpy integer, no bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_self_map(g, n: int) -> bool:
    """True iff the sequence g is a self-map of n points: n entries, each
    a point (see is_point) in range(n), as SelfMapMonoid takes them."""
    return len(g) == n and all(is_point(v) and 0 <= v < n for v in g)


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
    maps = SelfMapMonoid(np.unique(m.values, axis=0))
    return maps, tuple(maps.lookup(m.values).tolist())
