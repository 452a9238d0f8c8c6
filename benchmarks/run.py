"""Benchmark of the stonework verifier: one closed-loop caller, one process.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload verify-default --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures the per-layer metrics (module spans, suite
per-check times, acceptance headroom, the gate self-check).  The last line
of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a fuller record with the
machine's provenance goes to ``benchmarks/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORKLOADS = ("verify-default", "verify-max", "frontier")
TRACE_PASSES = 3        # passes of a traced run, once untraced and once traced


# Calibration.  The shared machine this benchmark was built on drifts in
# speed with its neighbours' load: over stretches of seconds to a minute a
# pass runs up to 1.8x slower, with no steal time visible to the guest and no
# hardware counters.  Raw pass medians of runs minutes apart spread by up to
# a third.  So a fixed kernel that does not touch stonework (Fraction
# arithmetic, tuple hashing, small numpy calls: the mix stonework's own loops
# use) is timed next to every timed region, and each wall time w is reported
# at reference speed, w * CAL_REF_S / cal.  CAL_REF_S is the kernel's time on
# an uncontended core of that machine (Intel Xeon 2.1 GHz, Python 3.11.7,
# numpy 2.4), so the metrics read as seconds on that core.  Raw wall times
# stay in the results file.
CAL_REF_S = 0.0065


def calibrate() -> float:
    """Median wall time of three runs of the calibration kernel."""
    from fractions import Fraction

    import numpy as np

    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(2000):
            key = tuple((i * k) % 7 for k in range(6))
            seen[key] = seen.get(key, 0) + 1
            acc += Fraction(i % 13, 1 + i % 11)
        arr = np.arange(64)
        for _ in range(300):
            arr = (arr * 3 + 1) % 97
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def median(values):
    return statistics.median(values) if values else 0.0


def import_package() -> None:
    """Put the checkout's sources first on the path; refuse anything else."""
    if not (SRC / "stonework" / "__init__.py").is_file():
        sys.exit(f"error: no stonework sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stonework

    if Path(stonework.__file__).resolve().parent != SRC / "stonework":
        sys.exit(f"error: imported stonework from {stonework.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload: str, seed: int) -> dict:
    """Import stonework and build the seeded inputs; runs in a fresh process.

    The kernel runs after the set-up, because it imports numpy and fractions,
    which belong to the set-up's cost.
    """
    start = time.perf_counter()
    import_package()
    import workloads

    if workload == "frontier":
        workloads.frontier_inputs(seed)
    elapsed = time.perf_counter() - start
    return {"s": elapsed, "cal": calibrate()}


def measure_setup(workload: str, seed: int, probes: int) -> list[dict]:
    """Set-up of `probes` fresh processes, started one after another."""
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["ref_s"] = sample["s"] * CAL_REF_S / sample["cal"]
        samples.append(sample)
    return samples


# ---------------------------------------------------------------------------
# passes


class Workload:
    """One workload's seeded inputs and its pass."""

    def __init__(self, name: str, seed: int):
        import workloads

        self.name = name
        self.seed = seed
        self.frontier = workloads.frontier_inputs(seed) if name == "frontier" else None

    def segments(self, seed: int):
        """Yield (wall time, record) for each timed region of one pass.

        A verify pass is one region, the CLI call; a frontier pass has one
        region per rung, so that calibration can follow the machine's speed
        through a pass of several seconds.
        """
        import workloads

        if self.frontier is not None:
            for elapsed, attempted, failed in workloads.frontier_rungs(self.frontier):
                yield elapsed, {"attempted": attempted, "failed": failed}
            return
        elapsed, code, text = workloads.call_cli(workloads.verify_argv(self.name, seed))
        reports = json.loads(text)
        yield elapsed, {
            "attempted": len(reports),
            "failed": workloads.failed_checks(reports, code),
            "digest": workloads.verdict_digest(reports),
            "checks": {r["check"]: (r["elapsed_ms"], r["instances"]) for r in reports},
        }

    def passes(self, count: int | None = None, seconds: float = 0.0,
               between=None) -> list[dict]:
        """`count` passes, or passes until `seconds` have passed (at least one).

        The calibration kernel runs before the first pass and after every
        timed region; a region is rescaled by the mean of the kernel times on
        either side.  `between`, if given, is called after each pass, outside
        the timing.
        """
        import workloads

        out: list[dict] = []
        start = time.perf_counter()
        before = calibrate()
        while len(out) < (count or 1) or (count is None and time.perf_counter() - start < seconds):
            p = {"seed": workloads.pass_seed(self.name, self.seed, len(out)),
                 "s": 0.0, "ref_s": 0.0, "cal": [], "attempted": 0, "failed": []}
            gc.collect()
            for elapsed, record in self.segments(p["seed"]):
                after = calibrate()
                cal = (before + after) / 2
                p["s"] += elapsed
                p["ref_s"] += elapsed * CAL_REF_S / cal
                p["cal"].append(cal)
                p["attempted"] += record.pop("attempted")
                p["failed"] += record.pop("failed")
                p.update(record)
                before = after
            out.append(p)
            if between is not None:
                between()
        return out


def check_digests(passes: list[dict]) -> dict:
    """One verdict digest per suite seed; raises if a seed gave two."""
    digests: dict = {}
    for p in passes:
        if "digest" in p and digests.setdefault(p["seed"], p["digest"]) != p["digest"]:
            raise ValueError(f"verdict digest changed between passes of seed {p['seed']}")
    return digests


def per_check(passes: list[dict]) -> dict[str, dict]:
    """Median ms and instances/s of every suite check over the passes."""
    out: dict[str, dict] = {}
    for name in passes[0].get("checks", {}):
        ms = [p["checks"][name][0] for p in passes]
        rate = [p["checks"][name][1] / (m / 1000) for p, m in zip(passes, ms) if m > 0]
        out[name] = {"ms": median(ms), "instances_per_s": median(rate)}
    return out


# ---------------------------------------------------------------------------
# runs


def end_to_end(workload: Workload, seconds: float) -> tuple[dict, dict]:
    # set-up probes are spread over the run: one before the first pass and
    # one after every pass, so that the median does not hang on one moment
    def probe() -> list[dict]:
        return measure_setup(workload.name, workload.seed, 1)

    setup = probe()
    passes = workload.passes(seconds=seconds, between=lambda: setup.extend(probe()))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    metrics = {
        "setup_s": (median([p["ref_s"] for p in setup]), "s"),
        "pass_s": (median([p["ref_s"] for p in passes]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1 - failed / attempted, "frac"),
    }
    detail = {
        "setup_samples": setup,
        "setup_wall_s": median([p["s"] for p in setup]),
        "pass_samples": [{k: p[k] for k in ("seed", "s", "cal", "ref_s", "failed")}
                         for p in passes],
        "pass_wall_s": median([p["s"] for p in passes]),
        "digests": check_digests(passes),
        "failed_ops": sorted({f for p in passes for f in p["failed"]}),
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, detail


def per_layer(workload: Workload) -> tuple[dict, dict]:
    import workloads
    from acceptance import headroom, read_budgets
    from stonework import suite
    from tracer import SPAN_NAMES, Tracer

    plain = workload.passes(TRACE_PASSES)
    with Tracer() as tracer:
        traced = workload.passes(TRACE_PASSES)
    seed, count = workload.seed, len(traced)
    plain_digests, traced_digests = check_digests(plain), check_digests(traced)
    if plain_digests != traced_digests:
        raise ValueError("tracing changed the verdict digest")
    expected = EXPECTED_SPANS[workload.name]
    silent = [name for name in expected if tracer.calls[name] == 0]
    if silent:
        raise ValueError(f"declared spans recorded no calls: {silent}")

    metrics: dict[str, tuple] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (tracer.calls[name] / count, "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / count, "s")
    counters = tracer.counters
    metrics["navector.kantorovich_norm.matchings"] = (
        counters["navector.kantorovich_norm.matchings"] / count, "count")
    candidates = counters["ultra.enumerate_theta.candidates"]
    metrics["ultra.enumerate_theta.kept_ratio"] = (
        counters["ultra.enumerate_theta.kept"] / candidates if candidates else 0.0, "frac")

    checks = per_check(plain)
    for name, _ in suite.CHECKS:
        row = checks.get(name, {"ms": 0.0, "instances_per_s": 0.0})
        metrics[f"suite.{name}.ms"] = (row["ms"], "ms")
        metrics[f"suite.{name}.instances_per_s"] = (row["instances_per_s"], "1/s")

    # acceptance headroom: criteria 1-12 from verify-max per-check times,
    # criterion 13 from verify-default set-up plus one pass
    max_checks = checks if workload.name == "verify-max" else per_check(
        Workload("verify-max", seed).passes(1))
    default_pass = median([p["s"] for p in plain]) if workload.name == "verify-default" else \
        Workload("verify-default", seed).passes(1)[0]["s"]
    default_setup = median([p["s"] for p in measure_setup("verify-default", seed, 3)])
    budgets = read_budgets(ROOT / "tests" / "test_acceptance.py")
    check_names = {fn.__name__: name for name, fn in suite.CHECKS}
    table = headroom(budgets, check_names,
                     {name: row["ms"] / 1000 for name, row in max_checks.items()},
                     default_setup + default_pass)
    metrics["suite.acceptance_headroom_min_frac"] = (
        min(row["headroom_frac"] for row in table.values()), "frac")

    plain_s = sum(p["ref_s"] for p in plain)
    metrics["trace.overhead_frac"] = (sum(p["ref_s"] for p in traced) / plain_s - 1, "frac")

    gate = workloads.gate_self_check(workloads.pass_seed("verify-default", seed, 0))
    metrics["gate.flagged_ops"] = (len(gate["flagged"]), "count")
    attempted = sum(p["attempted"] for p in plain + traced)
    failed = sum(len(p["failed"]) for p in plain + traced)
    metrics["failed_frac"] = (failed / attempted, "frac")
    detail = {
        "plain_passes": [{k: p[k] for k in ("seed", "s", "cal", "ref_s")} for p in plain],
        "traced_passes": [{k: p[k] for k in ("seed", "s", "cal", "ref_s")} for p in traced],
        "digests": plain_digests,
        "acceptance": table,
        "gate": gate,
        "failed_ops": sorted({f for p in plain + traced for f in p["failed"]}),
        "attempted": attempted,
        "failed": failed + (0 if gate["ok"] else 1),
    }
    return metrics, detail


# Spans each workload must reach; every declared span is in at least one set.
_VERIFY_SPANS = [
    "cli.main", "suite.run_suite",
    "navector.free_space", "navector.kantorovich_norm",
    "navector.kantorovich_norm_with_auxiliary", "navector.lipschitz_linear_extend",
    "ultra.enumerate_theta", "ultra.UltraPseudometric.from_rows", "ultra.d_from_chain",
    "ultra.minimax_path_distance", "ultra.epsilon_A_relation",
    "ultra.nonexpansive_counterexample",
    "finmon.validate_monoid", "finmon.generated_selfmap_monoid",
    "finmon.SelfMapMonoid.compose", "finmon.SelfMapMonoid.verify_closure",
    "finmon.SelfMapMonoid.to_monoid",
    "contrast.build_contrast", "contrast.rna_certificate",
    "boolring.enumerate_ring_endos", "boolring.enumerate_group_endos",
    "duality.entourage_transport", "duality.hom_embed",
    "unif.saturate", "unif.preimage_partition", "unif.is_meet_closed",
    "unif.is_saturated_under",
    "generators.enumerate_actions", "generators.random_transformation_monoid",
    "generators.random_one_sided_metric",
]
EXPECTED_SPANS = {
    "verify-default": _VERIFY_SPANS,
    "verify-max": _VERIFY_SPANS,
    "frontier": [
        "navector.kantorovich_norm",
        "navector.kantorovich_norm_with_auxiliary",
        "ultra.enumerate_theta", "ultra.UltraPseudometric.from_rows", "ultra.d_from_chain",
        "ultra.minimax_path_distance",
        "finmon.validate_monoid", "finmon.generated_selfmap_monoid",
        "finmon.SelfMapMonoid.compose", "finmon.SelfMapMonoid.verify_closure",
        "finmon.SelfMapMonoid.to_monoid",
        "duality.entourage_partition",
        "unif.saturate", "unif.preimage_partition", "unif.is_meet_closed",
        "unif.is_saturated_under",
    ],
}


# ---------------------------------------------------------------------------
# provenance and output


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int, loadavg) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
        "loadavg_at_start": list(loadavg),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0

    loadavg = os.getloadavg()
    import_package()
    workload = Workload(args.workload, args.seed)
    if args.trace:
        metrics, detail = per_layer(workload)
    else:
        metrics, detail = end_to_end(workload, args.seconds)
    correct = detail["failed"] == 0

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, loadavg),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "detail": detail,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
