"""The whole-package verification suite.

Each check exhaustively (or with seeded random sweeps) exercises one of
the dualities, metrization constructions, or combinators, at sizes set
by a SuiteConfig.  A check is a generator: it yields its params dict
once, then one (count, witness) per step, where witness is None or a
replayable witness of a failure.  run_check sums the counts up to and
including the first step with a witness and never resumes the check
after it.  Order and content are deterministic for a fixed config.
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import contrast as contrast_mod
from . import navector
from .boolring import (
    additive_monoid,
    additive_values,
    enumerate_group_endos,
    enumerate_ring_endos,
    identity_ring_endo,
    ring_homs_to_Z2,
    transpose_masks,
)
from .duality import delta_eval, entourage_transport, hom_embed, phi_array
from .errors import AssociativityViolation, NoWitness, StoneworkError
from .finmon import SelfMapMonoid, full_selfmap_monoid, is_submonoid, validate_monoid
from .generators import (
    enumerate_actions,
    enumerate_small_monoids,
    random_chain,
    random_cover,
    random_one_sided_metric,
    random_partition,
    random_transformation_monoid,
    random_ultrametric,
)
from .ultra import (
    UltraPseudometric,
    check_left_congruence,
    d_from_chain,
    enumerate_theta,
    epsilon_A_relation,
    minimax_path_distance,
    nonexpansive_counterexample,
)
from .unif import (
    Cover,
    cover_order,
    cover_star,
    cover_wedge,
    is_meet_closed,
    is_saturated_under,
    partition_lattice,
    refines,
    saturate,
    saturate_worklist,
)


# instances per seeded random sweep
CHAIN_COUNT = 200
THETA_METRIC_COUNT = 50
BALL_INSTANCE_COUNT = 100
COVER_PAIR_COUNT = 500
SANDWICH_FAILURES = ("finer level escapes the open ball", "diagonal",
                     "open ball escapes the coarser level")


@dataclass
class SuiteConfig:
    bound_points: int = 3      # carrier sizes for the dualities
    bound_atoms: int = 3       # ring sizes for full additive-endomorphism sweeps
    bound_k: int = 4           # truncation level of the contrast instance
    seed: int = 0

    def validate(self) -> None:
        from .errors import ConfigError

        if not 1 <= self.bound_points <= 4:
            raise ConfigError("bound_points must be between 1 and 4")
        if not 1 <= self.bound_atoms <= 3:
            raise ConfigError("bound_atoms must be between 1 and 3")
        if not 1 <= self.bound_k <= 7:
            raise ConfigError("bound_k must be between 1 and 7")


@dataclass
class VerificationReport:
    check: str
    params: dict
    instances: int
    outcome: str                   # "pass" or "fail"
    witness: object = None
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "instances": self.instances,
            "outcome": self.outcome,
            "witness": self.witness,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def to_tsv_row(self) -> str:
        witness = "-" if self.witness is None else json.dumps(self.witness, sort_keys=True)
        return "\t".join(
            [
                self.check,
                json.dumps(self.params, sort_keys=True),
                str(self.instances),
                self.outcome,
                witness,
                f"{self.elapsed_ms:.1f}",
            ]
        )


TSV_HEADER = "check\tparams\tinstances\toutcome\twitness\telapsed_ms"


def _rng(cfg: SuiteConfig, name: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{name}")


def _sweep():
    """The memo of one check call's sweep: check(key, laws) -> (count,
    witness), for a key of everything the laws read.  laws() -> (count,
    witness) runs on the first occurrence of key only; a key that has
    passed gives the count it recorded again.  Failures are not kept, so
    a failure is reported at its first occurrence."""
    passed = {}     # key -> the count its laws recorded

    def check(key, laws):
        if key in passed:
            return passed[key], None
        count, witness = laws()
        if witness is None:
            passed[key] = count
        return count, witness
    return check


def _metric_key(d: UltraPseudometric):
    """Equal for equal metrics: the levels and the (int64, n x n) rank bytes."""
    return d.levels, d.rank_matrix().tobytes()


# ---------------------------------------------------------------------------
# additive maps as self-maps of the ring elements


def _adjoint_pointwise_ok(values: np.ndarray, adjoint: np.ndarray) -> bool:
    """Transpose matrices realize character precomposition on every argument.

    values[e] and adjoint[e] are the value tables of a matrix and of its
    transpose.  For every matrix, character mask f, and ring element chi
    the mask adjoint[e, f] must satisfy
    parity(adjoint[e, f] & chi) == parity(f & values[e, chi]).
    """
    fs = np.arange(values.shape[1], dtype=np.int64)
    lhs = np.bitwise_count(adjoint[:, :, None] & fs) & 1
    rhs = np.bitwise_count(fs[:, None] & values[:, None, :]) & 1
    return bool(np.array_equal(lhs, rhs))


def _anti_law(source: SelfMapMonoid, target: SelfMapMonoid, image, order: np.ndarray):
    """Check that f, i -> image[i], is an anti-isomorphism from source onto target.

    source and target hold maps as self-maps of one carrier; image[i] is
    the index of f(i) in target, or image is None where some f(i) is not
    in target; order lists source indices in the caller's scan order.
    Returns None, a closure or bijection failure (worded for the
    transpose), or the first pair (a, b), as positions in order, with
    f(a after b) != f(b) after f(a).
    """
    table, target_table = source.composites(), target.composites()
    if table is None or target_table is None:
        return "composition left the matrix set"
    if image is None:
        return "transpose left the matrix set"
    if not np.array_equal(np.sort(image), np.arange(len(target))):
        return "transpose is not a bijection"
    # in the tables' dtype, image[table] is no wider than the tables (intp
    # would make it the largest array of a verify pass)
    image = image.astype(target_table.dtype)
    bad = image[table] != target_table[np.ix_(image, image)].T
    if bad.any():
        return tuple(map(int, np.argwhere(bad[np.ix_(order, order)])[0]))
    return None


def _delta_law(source: SelfMapMonoid, target: SelfMapMonoid, order: np.ndarray):
    """_anti_law for the transpose of additive maps, as self-maps of the
    ring elements, from source onto target; then the transposes must
    realize character precomposition."""
    n = source.carrier_size.bit_length() - 1
    columns = source.values[:, 1 << np.arange(n)]
    try:
        delta = target.lookup(additive_values(transpose_masks(columns, n), n))
    except KeyError:
        delta = None
    failure = _anti_law(source, target, delta, order)
    if failure is None and not _adjoint_pointwise_ok(source.values, target.values[delta]):
        return "transpose does not realize the adjoint"
    return failure


# ---------------------------------------------------------------------------
# the checks


def check_duality_counts(cfg: SuiteConfig):
    yield {"points": list(range(1, cfg.bound_points + 1))}
    for n in range(1, cfg.bound_points + 1):
        maps = full_selfmap_monoid(n)
        endos = enumerate_ring_endos(n)
        yield len(maps) + len(endos), None
        if not (len(maps) == len(endos) == n**n):
            yield 0, {
                "n": n,
                "selfmaps": len(maps),
                "ring_endos": len(endos),
                "expected": n**n,
            }


def check_phi(cfg: SuiteConfig):
    yield {"points": list(range(1, cfg.bound_points + 1))}
    for n in range(1, cfg.bound_points + 1):
        maps = full_selfmap_monoid(n)
        endos = enumerate_ring_endos(n)
        columns = [e.atom_images for e in endos]
        try:
            ring_maps, _ = additive_monoid(columns, n)
        except ValueError:
            # the identity is missing: the set is closed iff it is closed with
            # the identity added and no composite of two members is the identity
            ring_maps = None
            padded, where = additive_monoid([identity_ring_endo(n).atom_images, *columns], n)
            table = padded.composites()
            closed = table is not None and (table[np.ix_(where[1:], where[1:])] != where[0]).all()
        else:
            closed = ring_maps.composites() is not None
        if not closed:
            yield 0, {
                "n": n, "failure": "ring-endomorphism composition left the enumerated set"}
        yield len(maps) ** 2, None
        failure = "phi is not a bijection"
        if ring_maps is not None and len(ring_maps) == len(endos):
            try:
                phi_idx = ring_maps.lookup(additive_values(phi_array(maps.values), n))
            except KeyError:
                phi_idx = None
            failure = _anti_law(maps, ring_maps, phi_idx, np.arange(len(maps)))
        if isinstance(failure, str):
            yield 0, {"n": n, "failure": "phi is not a bijection"}
        elif failure is not None:
            s, t = failure
            yield 0, {
                "n": n,
                "s": maps.values[s].tolist(),
                "t": maps.values[t].tolist(),
                "failure": "phi(s.t) != phi(t).phi(s)",
            }


# how check_delta words two of _delta_law's failures on the phi image
_ON_PHI_IMAGE = {
    "composition left the matrix set": "phi image not closed under composition",
    "transpose does not realize the adjoint": "adjoint check fails on the phi image",
}


def check_delta(cfg: SuiteConfig):
    yield {"atoms": list(range(1, cfg.bound_atoms + 1)),
           "points": list(range(1, cfg.bound_points + 1))}

    # full additive endomorphism monoid
    for n in range(1, cfg.bound_atoms + 1):
        endos = enumerate_group_endos(n)
        matrices, order = additive_monoid(transpose_masks([e.rows for e in endos], n), n)
        yield len(endos) ** 2, None
        failure = _delta_law(matrices, matrices, order)
        if isinstance(failure, str):
            yield 0, {"n": n, "failure": failure}
        elif failure is not None:
            yield 0, {
                "n": n,
                "sigma": endos[failure[0]].to_json(),
                "tau": endos[failure[1]].to_json(),
                "failure": "delta(sigma.tau) != delta(tau).delta(sigma)",
            }

    # restriction to the image of phi, onto the monoid of its transposes
    for n in range(1, cfg.bound_points + 1):
        maps = full_selfmap_monoid(n)
        images = phi_array(maps.values)
        image, order = additive_monoid(images, n)
        transposes, _ = additive_monoid(transpose_masks(images, n), n)
        yield len(maps) ** 2, None
        failure = _delta_law(image, transposes, order)
        if isinstance(failure, str):
            yield 0, {"n": n, "failure": _ON_PHI_IMAGE.get(failure, failure)}
        elif failure is not None:
            yield 0, {
                "n": n,
                "s": maps.values[failure[0]].tolist(),
                "t": maps.values[failure[1]].tolist(),
                "failure": "anti-law fails on the phi image",
            }


def check_evaluation(cfg: SuiteConfig):
    yield {"points": list(range(1, cfg.bound_points + 1))}
    for n in range(1, cfg.bound_points + 1):
        homs = set(ring_homs_to_Z2(n))
        evals = [delta_eval(y, n) for y in range(n)]
        image = set(evals)
        yield len(homs), None
        if homs != image or len(image) != n:
            yield 0, {
                "n": n,
                "ring_homs": sorted(homs),
                "evaluation_image": sorted(image),
            }
        maps = full_selfmap_monoid(n)
        for s in maps.elements:
            endo = hom_embed(s)
            for y in range(n):
                yield 1, None
                if endo.apply(evals[y]) != evals[s[y]]:
                    yield 0, {
                        "n": n,
                        "s": list(s),
                        "y": y,
                        "failure": "evaluation is not equivariant",
                    }


def check_entourage_transport(cfg: SuiteConfig):
    bound = min(cfg.bound_points, 3)
    yield {"points": list(range(1, bound + 1))}
    for n in range(1, bound + 1):
        maps = full_selfmap_monoid(n)
        k = len(maps)
        # all pairs in scan order: pair p is (elements[p // k], elements[p % k])
        s1, s2 = np.repeat(maps.values, k, axis=0), np.tile(maps.values, (k, 1))
        for chi in range(1 << n):
            memberships = entourage_transport(chi, s1, s2)
            split = np.flatnonzero((memberships != memberships[0]).any(axis=0))
            if split.size:
                p = int(split[0])
                yield p + 1, {
                    "n": n,
                    "chi": chi,
                    "s1": maps.values[p // k].tolist(),
                    "s2": maps.values[p % k].tolist(),
                    "memberships": memberships[:, p].tolist(),
                }
            yield k * k, None


def _chain_laws(chain):
    """The closed form against the path oracle on every pair, then the
    sandwich at every level: (count, witness)."""
    n = chain.carrier_size
    d = d_from_chain(chain)
    closed = d.dist
    count = 0
    for x in range(n):
        for y in range(x + 1, n):
            count += 1
            literal = minimax_path_distance(chain, x, y)
            if closed[x][y] != literal:
                return count, {
                    "chain": chain.to_json(),
                    "pair": [x, y],
                    "closed_form": str(closed[x][y]),
                    "path_infimum": str(literal),
                }
    # the sandwich at every level at once: related[i] is level i, with
    # the indiscrete level 0 first and an empty level after the last,
    # and inside[i] is the open ball of radius 2**-i
    ids = np.array([p.class_id for p in chain.chain], dtype=np.intp).reshape(len(chain), n)
    related = np.concatenate((np.ones((1, n, n), dtype=bool),
                              ids[:, :, None] == ids[:, None, :],
                              np.zeros((1, n, n), dtype=bool)))
    radii = [d.below(Fraction(1, 2**level)) for level in range(len(chain) + 1)]
    inside = d.rank_matrix() < np.array(radii)[:, None, None]
    # per level and pair, in this order: finer escapes, diagonal outside,
    # ball escapes coarser
    bad = np.stack([related[1:] & ~inside, np.eye(n, dtype=bool) & ~inside,
                    inside & ~related[:-1]], axis=1)
    if bad.any():
        level, x, y = np.argwhere(bad.any(axis=1))[0]
        return count, {
            "chain": chain.to_json(),
            "level": int(level),
            "pair": [int(x), int(y)],
            "failure": SANDWICH_FAILURES[int(bad[level, :, x, y].argmax())],
        }
    return count, None


def check_chain_metrization(cfg: SuiteConfig):
    rng = _rng(cfg, "chain-metrization")
    yield {"chains": CHAIN_COUNT, "max_points": 6}
    check = _sweep()
    for _ in range(CHAIN_COUNT):
        chain = random_chain(rng, rng.randint(2, 6))
        # the laws read the chain through its carrier and class ids only
        key = (chain.carrier_size, tuple(p.class_id for p in chain.chain))
        yield check(key, lambda: _chain_laws(chain))


def check_theta_discrete(cfg: SuiteConfig):
    bound = min(cfg.bound_points, 3)
    yield {"points": list(range(1, bound + 1))}
    for n in range(1, bound + 1):
        theta = enumerate_theta(UltraPseudometric.discrete(n))
        everything = full_selfmap_monoid(n)
        yield len(everything), None
        if not np.array_equal(theta.values, everything.values):
            yield 0, {"n": n, "theta": len(theta), "maps": len(everything)}


def check_theta_closure(cfg: SuiteConfig):
    rng = _rng(cfg, "theta-closure")
    yield {"metrics": THETA_METRIC_COUNT, "max_points": 4}

    def laws(d):
        theta = enumerate_theta(d)
        closed = theta.verify_closure()
        return len(theta) ** 2, None if closed else {"metric": d.to_json(), "failure": "not closed"}

    check = _sweep()
    for _ in range(THETA_METRIC_COUNT):
        d = random_ultrametric(rng, rng.randint(2, 4))
        yield check(_metric_key(d), lambda: laws(d))


def check_theta_entourages(cfg: SuiteConfig):
    rng = _rng(cfg, "theta-entourages")
    yield {"points": 3, "metrics": 5}
    n = 3
    metrics = [UltraPseudometric.discrete(n)]
    two_level = UltraPseudometric.from_rows([[0, "1/2", 1], ["1/2", 0, 1], [1, 1, 0]])
    metrics.append(two_level)
    while len(metrics) < 5:
        metrics.append(random_ultrametric(rng, n))
    point_sets = [
        [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2],
    ]
    where = np.zeros(1 << n, dtype=np.intp)     # where[mask]: the point set with that bitmask
    for j, points in enumerate(point_sets):
        where[sum(1 << a for a in points)] = j

    def laws(d):
        theta = enumerate_theta(d)
        k, count = len(theta), 0
        product = theta.to_monoid().values         # product[i, s0]: map i after map s0
        # moved[j, s0]: the point set that s0 sends point set j onto
        bits = 1 << theta.values.astype(np.intp)    # bits[s0, a]: the image of a, as a bit
        moved = where[[np.bitwise_or.reduce(bits[:, points], axis=1) for points in point_sets]]
        for eps in [*d.levels[1:], d.levels[-1] + 1]:
            ids = np.array([epsilon_A_relation(theta, d, points, eps).class_id
                            for points in point_sets])
            # first[j, i]: the first map in the class of map i at point set j
            first = (ids[:, :, None] == ids[:, None, :]).argmax(axis=2)
            count += len(point_sets) * k
            # the class of i*s0 at point set j is constant on each class at
            # moved[j, s0]: vals[j, i, s0] against its value at the first
            # map of i's class there
            vals = ids[:, product]
            bad = vals != np.take_along_axis(vals, first[moved].transpose(0, 2, 1), axis=1)
            if bad.any():
                j, s0, i = np.argwhere(bad.transpose(0, 2, 1))[0]
                return count + int(j * k + s0) * k + int(i) + 1, {
                    "metric": d.to_json(),
                    "points": point_sets[j],
                    "eps": str(eps),
                    "s0": theta.values[s0].tolist(),
                    "failure": "right translation does not respect the entourage",
                }
            count += len(point_sets) * k * k
        return count, None

    check = _sweep()
    for d in metrics:
        yield check(_metric_key(d), lambda: laws(d))


def _ball_check(cfg: SuiteConfig, name: str, side: str, law):
    """law(m, d, r) on every radius r of random side-nonexpansive metrics d."""
    rng = _rng(cfg, name)
    yield {"instances": BALL_INSTANCE_COUNT, "max_monoid": 6}

    def laws(m, d):
        if nonexpansive_counterexample(m, d, side) is not None:
            return 0, {
                "monoid": m.to_json(),
                "metric": d.to_json(),
                "failure": f"generator produced a non-{side}-nonexpansive metric",
            }
        positive = d.levels[1:]
        radii = [positive[0] / 2, *positive, positive[-1] * 2] if positive else [Fraction(1)]
        for count, r in enumerate(radii, 1):
            if not law(m, d, r):
                return count, {
                    "monoid": m.to_json(),
                    "metric": d.to_json(),
                    "radius": str(r),
                }
        return len(radii), None

    check = _sweep()
    for _ in range(BALL_INSTANCE_COUNT):
        m, _ = random_transformation_monoid(rng, rng.randint(2, 4), max_size=6)
        d = random_one_sided_metric(rng, m, side)
        # the laws read the monoid through its table and identity only
        key = (m.values.tobytes(), m.identity, _metric_key(d))
        yield check(key, lambda: laws(m, d))


def check_ball_submonoids(cfg: SuiteConfig):
    yield from _ball_check(cfg, "ball-submonoids", "right",
                           lambda m, d, r: is_submonoid(m, d.ball(m.identity, r)))


def check_ball_left_congruences(cfg: SuiteConfig):
    yield from _ball_check(cfg, "ball-left-congruences", "left",
                           lambda m, d, r: check_left_congruence(m, d.ball_partition(r)))


def check_saturation(cfg: SuiteConfig):
    yield {"monoid_size": 3, "carrier": 3}
    n = 3
    lattice = partition_lattice(n)
    B = len(lattice)
    meet = lattice.meet.tolist()
    meet_closed = {}        # is_meet_closed reads no action: once per distinct family

    def laws(m, action, pull):
        pulls = pull.T.tolist()
        for count, eps in enumerate(lattice.partitions, 1):
            family = saturate(action, [eps], pull)
            ids = {lattice.index_of(p) for p in family.members}
            closed = all(ids.issuperset(pulls[p]) and ids.issuperset(meet[p][q] for q in ids)
                         for p in ids)
            if family not in meet_closed:
                meet_closed[family] = is_meet_closed(family)
            failure = None
            if family != saturate_worklist(action, [eps]):
                failure = "saturation disagrees with the worklist oracle"
            elif not (eps in family and closed and meet_closed[family]
                      and is_saturated_under(family, action)):
                failure = "saturation fixed point violated"
            if failure:
                return count, {
                    "monoid": m.to_json(), "action": action.values.tolist(),
                    "generator": eps.to_json(), "failure": failure}
        return B, None

    # the saturations and their oracles read only the action table, so a
    # table that has passed passes again under any other monoid
    check = _sweep()
    for m in enumerate_small_monoids(3):
        actions = enumerate_actions(m, n)
        k, count = m.size, len(actions)
        # one pullback table for all of the monoid's actions: pull[a] is action a's
        pull = lattice.pullback(np.stack([a.values for a in actions]).reshape(-1, n))
        pull = pull.reshape(count, k, B)
        # nested[a, e, s, t] = pull[a, t, pull[a, s, e]] against direct
        # pull[a, s*t, e], flattened per action in the (eps, s, t) scan order
        nested = pull[np.arange(count)[:, None, None, None], np.arange(k),
                      pull.transpose(0, 2, 1)[..., None]]
        direct = pull[:, m.values].transpose(0, 3, 1, 2)
        bad = (nested != direct).reshape(count, -1)
        lawful = ~bad.any(axis=1)
        for a, action in enumerate(actions):
            if not lawful[a]:
                i = int(bad[a].argmax())
                e, s, t = np.unravel_index(i, (B, k, k))
                yield i + 1, {
                    "monoid": m.to_json(), "action": action.values.tolist(),
                    "partition": lattice.partitions[e].to_json(),
                    "pair": [int(s), int(t)],
                }
            yield B * k * k, None
            table = (action.values.shape, action.values.tobytes())
            yield check(table, lambda: laws(m, action, pull[a]))


def check_covering_combinators(cfg: SuiteConfig):
    rng = _rng(cfg, "covering-combinators")
    yield {"pairs": COVER_PAIR_COUNT, "max_points": 6}
    for _ in range(COVER_PAIR_COUNT):
        n = rng.randint(2, 6)
        p = random_cover(rng, n)
        q = random_cover(rng, n)
        yield 1, None
        if not refines(p, cover_star(p)):
            yield 0, {"cover": p.to_json(), "failure": "P does not refine P*"}
        if cover_order(cover_wedge(p, q)) > cover_order(p) * cover_order(q):
            yield 0, {
                "p": p.to_json(),
                "q": q.to_json(),
                "failure": "wedge order exceeds the product bound",
            }
        part = Cover.from_partition(random_partition(rng, n))
        if cover_order(part) != 1:
            yield 0, {"cover": part.to_json(), "failure": "partition order"}


@functools.lru_cache(maxsize=1)
def _kantorovich_spaces(seed: int) -> tuple[UltraPseudometric, ...]:
    """The free spaces over the discrete metric and three random
    ultrametrics on each of 1 to 4 points, drawn from the stream that
    _rng names "kantorovich-spaces".  The four Kantorovich checks of one
    seed read this one tuple, drawn once; the 3-point check skips the
    spaces on other carriers."""
    rng = random.Random(f"{seed}:kantorovich-spaces")
    spaces = []
    for n in range(1, 5):
        spaces.append(UltraPseudometric.discrete(n))
        for _ in range(3):
            spaces.append(random_ultrametric(rng, n))
    return tuple(map(navector.free_space, spaces))


def check_kantorovich_extension(cfg: SuiteConfig):
    yield {"max_points": 4}
    for space in _kantorovich_spaces(cfg.seed):
        base = space.carrier_size - 1
        zero_norm = navector.kantorovich_norm(navector.vector(space, []))
        if zero_norm != 0:
            yield 0, {"space": space.to_json(), "failure": "zero vector"}
        for x in range(base):
            yield 1, None
            if navector.kantorovich_norm(navector.vector(space, [x])) != 1:
                yield 0, {"space": space.to_json(), "point": x}
            for y in range(x + 1, base):
                yield 1, None
                norm = navector.kantorovich_norm(navector.vector(space, [x, y]))
                if norm != space.d(x, y):
                    yield 0, {
                        "space": space.to_json(),
                        "pair": [x, y],
                        "norm": str(norm),
                        "distance": str(space.d(x, y)),
                    }


def check_kantorovich_ultranorm(cfg: SuiteConfig):
    yield {"max_points": 4}
    for space in _kantorovich_spaces(cfg.seed):
        base = space.carrier_size - 1
        vectors = {s: navector.vector(space, s) for s in _subsets(base)}
        norms = {v.support: navector.kantorovich_norm(v) for v in vectors.values()}
        for s1, v1 in vectors.items():
            for count, (s2, v2) in enumerate(vectors.items(), 1):
                if norms[v1.add(v2).support] > max(norms[v1.support], norms[v2.support]):
                    yield count, {
                        "space": space.to_json(),
                        "u": list(s1),
                        "v": list(s2),
                        "failure": "ultra-norm max law",
                    }
            yield len(vectors), None


def check_kantorovich_contraction(cfg: SuiteConfig):
    yield {"points": 3}
    for space in _kantorovich_spaces(cfg.seed):
        base = space.carrier_size - 1
        if base != 3:
            continue
        restricted = UltraPseudometric.from_rows([[space.d(x, y) for y in range(base)]
                                                  for x in range(base)])
        theta = enumerate_theta(restricted)
        supports = _subsets(base)
        vectors = {s: navector.vector(space, s) for s in supports}
        norms = {s: navector.kantorovich_norm(v) for s, v in vectors.items()}
        # pushed[i][s]: the support that the extension of map i sends s to
        pushed = [
            {s: tuple(sorted(navector.lipschitz_linear_extend(f, v).support))
             for s, v in vectors.items()}
            for f in theta.elements
        ]
        for f, images in zip(theta.elements, pushed):
            for count, s in enumerate(supports, 1):
                if norms[images[s]] > norms[s]:
                    yield count, {
                        "space": space.to_json(),
                        "map": list(f),
                        "support": list(s),
                        "failure": "extension increased the norm",
                    }
            yield len(supports), None
        for i, f in enumerate(theta.elements):
            for j, g in enumerate(theta.elements):
                direct = pushed[theta.compose(i, j)]
                for count, s in enumerate(supports, 1):
                    if direct[s] != pushed[i][pushed[j][s]]:
                        yield count, {
                            "space": space.to_json(),
                            "f": list(f),
                            "g": list(g),
                            "support": list(s),
                            "failure": "extension is not multiplicative",
                        }
                yield len(supports), None


def check_kantorovich_oracle(cfg: SuiteConfig):
    yield {"max_points": 4}
    for space in _kantorovich_spaces(cfg.seed):
        base = space.carrier_size - 1
        for s in _subsets(base):
            yield 1, None
            v = navector.vector(space, s)
            plain = navector.kantorovich_norm(v)
            relaxed = navector.kantorovich_norm_with_auxiliary(v)
            if plain != relaxed:
                yield 0, {
                    "space": space.to_json(),
                    "support": list(s),
                    "pairing_norm": str(plain),
                    "auxiliary_norm": str(relaxed),
                }


def _subsets(n: int):
    out = []
    for mask in range(1 << n):
        out.append(tuple(x for x in range(n) if mask >> x & 1))
    return out


def check_contrast(cfg: SuiteConfig):
    yield {"levels": list(range(1, cfg.bound_k + 1))}
    for k in range(1, cfg.bound_k + 1):
        instance = contrast_mod.build_contrast(k)
        cert = contrast_mod.rna_certificate(instance)
        yield instance.carrier_size ** 3, None
        if not cert.ok:
            yield 0, {"k": k, "certificate": cert.to_json()}
        if k >= 2 and cert.right_witness is None:
            yield 0, {
                "k": k,
                "failure": "expected right-nonexpansiveness counterexample is missing",
            }
        for j in range(k):
            yield 1, None
            try:
                u, nat = contrast_mod.obstruction_witness(instance, j)
            except NoWitness:
                yield 0, {"k": k, "j": j, "failure": "missing witness"}
            if instance.monoid.mul(u, nat) != instance.sink:
                yield 0, {"k": k, "j": j, "u": u, "n": nat}
        try:
            contrast_mod.obstruction_witness(instance, k)
            yield 0, {"k": k, "failure": "witness beyond the truncation"}
        except NoWitness:
            yield 1, None


def check_corrupted_table_control(cfg: SuiteConfig):
    """Negative control: a broken table must be caught with a replayable triple."""
    table = [[0, 1, 2], [1, 2, 1], [2, 2, 2]]
    yield {"size": 3}
    try:
        validate_monoid(table, 0)
    except AssociativityViolation as exc:
        x, y, z = exc.triple
        yield 1, {
            "table": table,
            "identity": 0,
            "violating_triple": [x, y, z],
        }
    yield 1, {"table": table, "identity": 0,
              "failure": "corruption was not detected"}


CHECKS: list[tuple[str, object]] = [
    ("selfmap-vs-ring-endo-counts", check_duality_counts),
    ("phi-anti-isomorphism", check_phi),
    ("delta-anti-isomorphism", check_delta),
    ("evaluation-embedding", check_evaluation),
    ("entourage-transport", check_entourage_transport),
    ("chain-metrization", check_chain_metrization),
    ("theta-discrete-identification", check_theta_discrete),
    ("theta-closure", check_theta_closure),
    ("theta-pointwise-entourages", check_theta_entourages),
    ("ball-submonoids", check_ball_submonoids),
    ("ball-left-congruences", check_ball_left_congruences),
    ("action-saturation", check_saturation),
    ("contrast-example", check_contrast),
    ("kantorovich-extension", check_kantorovich_extension),
    ("kantorovich-ultranorm-laws", check_kantorovich_ultranorm),
    ("kantorovich-lipschitz-contraction", check_kantorovich_contraction),
    ("kantorovich-oracle-agreement", check_kantorovich_oracle),
    ("covering-combinators", check_covering_combinators),
]

# the negative control that verify --self-test runs after CHECKS
CONTROL = ("corrupted-table-control", check_corrupted_table_control)


def run_check(check, cfg: SuiteConfig):
    """Run one check: (params, instances, witness), where instances sums
    the counts of its steps up to and including the first step with a
    witness.  The check is not resumed after that step."""
    steps = check(cfg)
    params, instances = next(steps), 0
    for count, witness in steps:
        instances += count
        if witness is not None:
            return params, instances, witness
    return params, instances, None


def run_suite(cfg: SuiteConfig | None = None,
              checks: list[tuple[str, object]] | None = None) -> list[VerificationReport]:
    """Run the given (name, check) pairs in order, by default CHECKS; a
    check that raises fails with an {"error": ...} witness."""
    cfg = cfg or SuiteConfig()
    cfg.validate()
    reports = []
    for name, fn in CHECKS if checks is None else checks:
        start = time.perf_counter()
        try:
            params, instances, witness = run_check(fn, cfg)
        except StoneworkError as exc:
            params, instances, witness = {}, 0, {"error": str(exc)}
        except Exception as exc:  # a crashed check is a failed check
            params, instances = {}, 0
            witness = {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = (time.perf_counter() - start) * 1000
        reports.append(
            VerificationReport(
                check=name,
                params=params,
                instances=instances,
                outcome="pass" if witness is None else "fail",
                witness=witness,
                elapsed_ms=elapsed,
            )
        )
    return reports
