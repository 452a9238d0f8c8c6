"""The three benchmark workloads and the checks on their outputs.

``verify-default`` and ``verify-max`` call the ``stonework verify`` command
in-process and read its JSON report.  ``frontier`` runs a ladder of library
primitives at sizes past the suite's, each paired with an oracle or a
closed-form count.

The frontier instances have fixed shapes: the seed relabels the points and
redraws the distance values, which changes the inputs but not how many
1-Lipschitz maps, monoid elements or saturated partitions they have.  A
random shape would make one seed's pass ten times slower than another's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from fractions import Fraction

# Library calls go through the module attributes, so that the tracer's
# rebinding of a module's functions reaches the calls made from here.
from stonework import cli, duality, finmon, generators, navector, ultra, unif
from stonework.errors import AssociativityViolation

VERIFY_ARGS = {
    "verify-default": [],
    "verify-max": ["--bound-points", "4", "--bound-atoms", "3", "--bound-k", "7"],
}

# The suite's random sweeps (chain metrics, theta sizes, Kantorovich spaces)
# make one suite seed's pass up to twice as slow as another's.  So each verify
# pass of a run takes the next suite seed of a stream derived from the workload
# seed, and the run's median covers many draws.  Frontier shapes are fixed, so
# every frontier pass reuses the inputs of the workload seed.
SEED_STRIDE = 1000      # suite seeds of workload seed S: S*1000, S*1000+1, ...


def pass_seed(workload: str, seed: int, index: int) -> int:
    """The seed of the index-th pass of a run."""
    return seed if workload == "frontier" else seed * SEED_STRIDE + index


# ---------------------------------------------------------------------------
# verify workloads


def verify_argv(workload: str, suite_seed: int, self_test: bool = False) -> list[str]:
    argv = ["verify", "--all", "--out", "json", "--seed", str(suite_seed)]
    argv += VERIFY_ARGS[workload]
    if self_test:
        argv.append("--self-test")
    return argv


def call_cli(argv: list[str]) -> tuple[float, int, str]:
    """Wall time, exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return time.perf_counter() - start, code, out.getvalue()


def verdict_digest(reports: list[dict]) -> str:
    """sha256 of the verify JSON with every elapsed_ms removed."""
    stripped = [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in reports]
    payload = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def failed_checks(reports: list[dict], code: int) -> list[str]:
    """Checks counted as failed operations.

    A check fails when its outcome is not ``pass``.  If the exit code
    disagrees with the outcomes (0 exactly when every check passed), the
    exit-code contract is broken and every check of the call counts as
    failed.
    """
    bad = [r["check"] for r in reports if r["outcome"] != "pass"]
    if (code == 0) != (not bad):
        return [r["check"] for r in reports] or ["<no report>"]
    return bad


def gate_self_check(seed: int) -> dict:
    """Run ``verify --self-test`` and confirm the failure counter is live.

    The counter must flag exactly the negative control, and the control's
    violating triple must replay through ``finmon.validate_monoid``.
    """
    _, code, text = call_cli(verify_argv("verify-default", seed, self_test=True))
    reports = json.loads(text)
    flagged = failed_checks(reports, code)
    replayed = None
    if flagged == ["corrupted-table-control"]:
        witness = next(r["witness"] for r in reports if r["check"] == flagged[0])
        try:
            finmon.validate_monoid(witness["table"], witness["identity"])
        except AssociativityViolation as exc:
            replayed = list(exc.triple) == witness["violating_triple"]
    return {
        "exit_code": code,
        "flagged": flagged,
        "replayed": bool(replayed),
        "ok": code == 1 and flagged == ["corrupted-table-control"] and bool(replayed),
    }


# ---------------------------------------------------------------------------
# frontier inputs

# Dendrograms: (level, children) nodes over leaf points.  The distance of two
# points is the level value of their lowest common node.
THETA6_TREE = (3, [(2, [(1, [0, 1]), (1, [2, 3])]), (1, [4, 5])])       # 960 maps
THETA5_TREE = (2, [(1, [0, 1]), (1, [2, 3]), 4])                          # 405 maps

# Generators and generating partition of the saturation instance: a 376-map
# monoid on 6 points whose saturation of the partition has 99 members.
SATURATE_GENERATORS = [(3, 4, 5, 2, 0, 0), (2, 1, 1, 3, 0, 1)]
SATURATE_PARTITION = (0, 1, 1, 0, 1, 2)
SATURATE_MONOID_SIZE = 376
SATURATE_FAMILY_SIZE = 99

CHAIN_POINTS, CHAIN_DEPTH, CHAIN_COUNT = 8, 4, 2
KANTOROVICH_BASE, KANTOROVICH_SUPPORTS = 9, (7, 8, 7, 8, 7, 8)


def _tree_metric(rng: random.Random, tree, n: int) -> ultra.UltraPseudometric:
    """Tree metric with the leaves permuted and fresh increasing level values."""
    perm = list(range(n))
    rng.shuffle(perm)
    levels = sorted(rng.sample(range(1, 257), 3))
    value = {lvl: Fraction(v, 256) for lvl, v in zip((1, 2, 3), levels)}
    rows = [[Fraction(0)] * n for _ in range(n)]

    def leaves(node):
        if isinstance(node, int):
            return [perm[node]]
        level, children = node
        groups = [leaves(c) for c in children]
        for i, a in enumerate(groups):
            for b in groups[i + 1:]:
                for x in a:
                    for y in b:
                        rows[x][y] = rows[y][x] = value[level]
        return [x for g in groups for x in g]

    leaves(tree)
    return ultra.UltraPseudometric.from_rows(rows)


def lipschitz_count(d: ultra.UltraPseudometric) -> int:
    """Number of 1-Lipschitz self-maps, by backtracking over f(0), f(1), ...

    Independent of enumerate_theta, which filters all n**n maps.
    """
    rank = d.rank_matrix().tolist()
    n = len(rank)
    f = [0] * n

    def extend(x: int) -> int:
        if x == n:
            return 1
        total = 0
        for v in range(n):
            if all(rank[f[y]][v] <= rank[y][x] for y in range(x)):
                f[x] = v
                total += extend(x + 1)
        return total

    return extend(0)


def frontier_inputs(seed: int) -> dict:
    rng = random.Random(f"frontier:{seed}")
    theta6 = _tree_metric(rng, THETA6_TREE, 6)
    theta6_count = lipschitz_count(theta6)
    theta5 = _tree_metric(rng, THETA5_TREE, 5)
    chains = [generators.random_chain(rng, CHAIN_POINTS, depth=CHAIN_DEPTH) for _ in range(CHAIN_COUNT)]
    space = navector.free_space(generators.random_ultrametric(rng, KANTOROVICH_BASE))
    supports = [rng.sample(range(KANTOROVICH_BASE), k) for k in KANTOROVICH_SUPPORTS]
    perm = list(range(6))
    rng.shuffle(perm)
    gens = []
    for g in SATURATE_GENERATORS:
        moved = [0] * 6
        for x in range(6):
            moved[perm[x]] = perm[g[x]]
        gens.append(tuple(moved))
    ids = [0] * 6
    for x in range(6):
        ids[perm[x]] = SATURATE_PARTITION[x]
    return {
        "theta6": theta6,
        "theta6_count": theta6_count,
        "theta5": theta5,
        "theta5_count": lipschitz_count(theta5),
        "chains": chains,
        "space": space,
        "supports": supports,
        "chi": rng.randrange(1, 15),          # a proper nonempty subset of 4 points
        "generators": gens,
        "partition": ultra.Partition.from_class_ids(ids),
        "triples": [tuple(rng.randrange(theta6_count) for _ in range(3)) for _ in range(2000)],
    }


# ---------------------------------------------------------------------------
# frontier ladder: each rung yields one boolean per checked primitive call


def rung_theta_discrete(inp):
    yield len(ultra.enumerate_theta(ultra.UltraPseudometric.discrete(6))) == 6 ** 6


def rung_theta_monoid(inp):
    theta = ultra.enumerate_theta(inp["theta6"])
    yield len(theta) == inp["theta6_count"]
    m = theta.to_monoid()
    tab, ident = m.table, m.identity
    ok = m.size == len(theta) and tab[ident] == tuple(range(m.size))
    for x, y, z in inp["triples"]:
        f, g = theta.elements[x], theta.elements[y]
        ok = ok and tab[tab[x][y]][z] == tab[x][tab[y][z]]
        ok = ok and theta.elements[tab[x][y]] == tuple(f[g[i]] for i in range(6))
    yield ok


def rung_theta_closure(inp):
    theta = ultra.enumerate_theta(inp["theta5"])
    yield len(theta) == inp["theta5_count"]
    yield theta.verify_closure()


def rung_chains(inp):
    for chain in inp["chains"]:
        d = ultra.d_from_chain(chain)
        yield d.carrier_size == CHAIN_POINTS
        for x in range(CHAIN_POINTS):
            for y in range(x + 1, CHAIN_POINTS):
                yield d.dist[x][y] == ultra.minimax_path_distance(chain, x, y)


def rung_kantorovich(inp):
    for points in inp["supports"]:
        v = navector.vector(inp["space"], points)
        yield navector.kantorovich_norm(v) == navector.kantorovich_norm_with_auxiliary(v)


def rung_selfmap_table(inp):
    full = finmon.full_selfmap_monoid(4)
    m = full.to_monoid()
    yield finmon.validate_monoid(m.table, m.identity).size == 4 ** 4


def rung_entourage(inp):
    full = finmon.full_selfmap_monoid(4)
    part = duality.entourage_partition(full, inp["chi"], duality.ON_DUAL_ENDOS)
    # every subset of the 4 points is the preimage of a proper nonempty chi
    yield part.num_classes() == 2 ** 4


def rung_saturate(inp):
    maps = finmon.generated_selfmap_monoid(6, inp["generators"])
    yield len(maps) == SATURATE_MONOID_SIZE
    action = finmon.validate_action(maps.to_monoid(), 6, maps.elements)
    family = unif.saturate(action, [inp["partition"]])
    yield (
        len(family) == SATURATE_FAMILY_SIZE
        and inp["partition"] in family
        and unif.is_meet_closed(family)
        and unif.is_saturated_under(family, action)
    )


FRONTIER_LADDER = [
    ("theta-discrete-6", rung_theta_discrete),
    ("theta-monoid-6", rung_theta_monoid),
    ("theta-closure-5", rung_theta_closure),
    ("chain-minimax-8", rung_chains),
    ("kantorovich-oracle-9", rung_kantorovich),
    ("selfmap-table-4", rung_selfmap_table),
    ("entourage-partition-4", rung_entourage),
    ("saturate-6", rung_saturate),
]


def frontier_rungs(inp):
    """Run the ladder once, yielding per rung its wall time, the operations
    attempted and the failed ones.  The time covers only the rung itself, so
    the caller may do other work between rungs."""
    for name, rung in FRONTIER_LADDER:
        attempted, failed = 0, []
        start = time.perf_counter()
        try:
            for ok in rung(inp):
                if not ok:
                    failed.append(f"{name}#{attempted}")
                attempted += 1
        except Exception as exc:  # a raising primitive is a failed operation
            failed.append(f"{name}#{attempted}: {type(exc).__name__}: {exc}")
            attempted += 1
        yield time.perf_counter() - start, attempted, failed
