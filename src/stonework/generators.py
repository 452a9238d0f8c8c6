"""Seeded random instances for the verification sweeps.

Everything takes an explicit random.Random so runs are reproducible from
a single seed.  Ultrametrics come out of nested partition chains, which
guarantees the strong triangle inequality by construction; translation-
compatible metrics come out of congruence closures of such chains.
"""

from __future__ import annotations

import random
from itertools import product

import numpy as np

from .finmon import (
    CHUNK_ENTRIES,
    FiniteMonoid,
    MonoidAction,
    SelfMapMonoid,
    generated_selfmap_monoid,
)
from .ultra import MonotoneChain, Partition, UltraPseudometric, d_from_chain
from .unif import Cover


def random_partition(rng: random.Random, n: int) -> Partition:
    k = rng.randint(1, n)
    return Partition.from_class_ids([rng.randrange(k) for _ in range(n)])


def random_refinement(rng: random.Random, p: Partition) -> Partition:
    """Split some classes of p at random; the result refines p."""
    ids = list(p.class_id)
    next_id = max(ids) + 1
    for cls in p.classes():
        if len(cls) > 1 and rng.random() < 0.5:
            for x in cls:
                if rng.random() < 0.5:
                    ids[x] = next_id
            next_id += 1
    return Partition.from_class_ids(ids)


def random_chain(rng: random.Random, n: int, depth: int | None = None) -> MonotoneChain:
    depth = depth if depth is not None else rng.randint(0, n)
    levels = []
    current = random_partition(rng, n)
    for _ in range(depth):
        levels.append(current)
        current = random_refinement(rng, current)
    return MonotoneChain(carrier_size=n, chain=tuple(levels))


def random_ultrametric(rng: random.Random, n: int) -> UltraPseudometric:
    return d_from_chain(random_chain(rng, n, depth=rng.randint(1, max(2, n))))


def random_cover(rng: random.Random, n: int) -> Cover:
    """Up to six random blocks, as bitmasks, and the points they miss as
    one more block."""
    blocks: set[int] = set()
    for _ in range(rng.randint(1, 6)):
        size = rng.randint(1, n)
        mask = 0
        for x in rng.sample(range(n), size):
            mask |= 1 << x
        blocks.add(mask)
    missing = (1 << n) - 1
    for mask in blocks:
        missing &= ~mask
    if missing:
        blocks.add(missing)
    return Cover(frozenset(blocks))


def random_transformation_monoid(rng: random.Random, carrier: int,
                                 max_size: int) -> tuple[FiniteMonoid, SelfMapMonoid]:
    """A small monoid realized as self-maps: closure of random generators.

    Retries with fresh generators until the closure fits under max_size,
    falling back to a single generator (whose closure is the generator's
    power monoid and always small).  Returns the abstract table together
    with the realizing maps.
    """
    for attempt in range(50):
        count = 1 if attempt > 10 or rng.random() < 0.7 else 2
        gens = [
            tuple(rng.randrange(carrier) for _ in range(carrier))
            for _ in range(count)
        ]
        try:
            maps = generated_selfmap_monoid(carrier, gens, max_size=max_size)
        except ValueError:
            continue
        return maps.to_monoid(), maps
    maps = generated_selfmap_monoid(carrier, [tuple([0] * carrier)])
    return maps.to_monoid(), maps


def congruence_closure(m: FiniteMonoid, p: Partition, side: str) -> Partition:
    """Smallest coarsening of p preserved by all one-sided translations.

    A union-find over the translation rows moved[x] = (x*s or s*x for
    every s): it starts from the pairs that p relates, and each pair that
    joins two classes adds the pairs (moved[x][s], moved[y][s]).  The
    joining pairs span every class, so the classes reached are preserved;
    each pair added is forced, so they are the smallest that are.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    moved = (m.values if side == "right" else m.values.T).tolist()
    parent = list(range(len(moved)))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    first: dict[int, int] = {}
    pairs = [(x, first.setdefault(c, x)) for x, c in enumerate(p.class_id)]
    while pairs:
        x, y = pairs.pop()
        rx, ry = root(x), root(y)
        if rx != ry:
            parent[rx] = ry
            pairs.extend(zip(moved[x], moved[y]))
    return Partition.from_class_ids(map(root, range(len(parent))))


def random_one_sided_metric(rng: random.Random, m: FiniteMonoid,
                            side: str) -> UltraPseudometric:
    """A random ultra-pseudometric nonexpansive under the chosen translations.

    Takes a random nested chain and replaces every level by its one-sided
    congruence closure; closures of nested relations stay nested, and the
    chain metric of a congruence chain is nonexpansive on that side.
    """
    depth = rng.randint(1, 3)
    raw = random_chain(rng, m.size, depth=depth)
    levels = tuple(congruence_closure(m, p, side) for p in raw.chain)
    return d_from_chain(MonotoneChain(carrier_size=m.size, chain=levels))


def enumerate_small_monoids(size: int) -> list[FiniteMonoid]:
    """Every multiplication table of the given size with identity element 0.

    The candidates set row and column 0 to the identity law and fill the
    other (size - 1)**2 entries in every way, in lexicographic order of
    the entries row by row; associativity is tested on all of them at
    once, in chunks of at most CHUNK_ENTRIES law entries.
    """
    if size < 1:
        raise ValueError("empty multiplication table")
    k, free = size, (size - 1) ** 2
    powers = k ** np.arange(free - 1, -1, -1, dtype=np.int64)   # the last entry is the fastest digit
    count, ks = k ** free, np.arange(k)
    out = []
    step = max(1, CHUNK_ENTRIES // k ** 3)
    for start in range(0, count, step):
        cand = np.arange(start, min(start + step, count), dtype=np.int64)
        tables = np.empty((len(cand), k, k), dtype=np.min_scalar_type(k - 1))
        tables[:, 0], tables[:, :, 0] = ks, ks
        tables[:, 1:, 1:] = (cand[:, None] // powers % k).reshape(len(cand), k - 1, k - 1)
        # (x*y)*z == x*(y*z) for every x, y, z
        c = np.arange(len(cand))[:, None, None, None]
        left = tables[c, tables[..., None], ks]
        right = tables[c, ks[:, None, None], tables[:, None]]
        kept = tables[(left == right).reshape(len(cand), -1).all(axis=1)]
        kept.flags.writeable = False
        out.extend(FiniteMonoid._adopt(values, 0) for values in kept)
    return out


def enumerate_actions(m: FiniteMonoid, carrier: int) -> list[MonoidAction]:
    """Every action of m on the carrier (identity acts as the identity map).

    The candidates assign a self-map to each non-identity element, in
    lexicographic order of the choice tuple; the action law is tested on
    all of them at once, in chunks of at most CHUNK_ENTRIES law entries.
    """
    maps = np.array(list(product(range(carrier), repeat=carrier)),
                    dtype=np.min_scalar_type(max(carrier - 1, 0)))
    non_identity = [s for s in range(m.size) if s != m.identity]
    k, count = m.size, len(maps) ** len(non_identity)
    # in a candidate's table flattened to k * carrier entries, act[s][y] is
    # entry s * carrier + y, so act[s*t][x] has the same entry in every one
    starts = np.arange(k) * carrier
    direct = (m.values.astype(np.intp)[:, :, None] * carrier + np.arange(carrier)).ravel()
    out = []
    step = max(1, CHUNK_ENTRIES // max(1, k * k * carrier))
    for start in range(0, count, step):
        cand = np.arange(start, min(start + step, count))
        act = np.empty((len(cand), k, carrier), dtype=maps.dtype)
        act[:, m.identity] = np.arange(carrier)
        for s in reversed(non_identity):        # the last element is the fastest digit
            cand, digit = np.divmod(cand, len(maps))
            act[:, s] = maps[digit]
        flat = act.reshape(len(act), k * carrier)
        # act[s][act[t][x]] == act[s*t][x] for every s, t, x
        nested = flat.ravel().take(np.arange(len(act))[:, None, None, None] * (k * carrier)
                                   + starts[:, None, None] + act[:, None])
        ok = (nested.reshape(len(act), -1) == flat[:, direct]).all(axis=1)
        kept = act[ok]
        kept.flags.writeable = False
        out.extend(MonoidAction._adopt(m, rows) for rows in kept)
    return out
