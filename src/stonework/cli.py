"""Command-line entry point.

JSON on stdin/stdout is the interchange format; TSV is available for the
verification reports.  Exit codes: 0 success, 1 verification failure,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .duality import delta_adjoint, phi
from .errors import StoneworkError
from .finmon import action_from_json, monoid_from_json
from .navector import (
    MAX_SUPPORT,
    free_space,
    kantorovich_norm_with_auxiliary,
    optimal_pairing,
    vector,
)
from .schema import expect_int
from .suite import CHECKS, CONTROL, TSV_HEADER, SuiteConfig, VerificationReport, run_suite
from .contrast import contrast_report
from .ultra import (
    chain_from_json,
    d_from_chain,
    enumerate_theta,
    metric_from_json,
    nonexpansive_counterexample,
)
from .unif import (
    Cover,
    cover_blocks_from_json,
    cover_order,
    cover_star,
    cover_wedge,
    family_from_json,
    ord_at,
    saturate,
    star,
)


def _parse_json(fh):
    try:
        return json.load(fh)
    except RecursionError:      # the decoder recurses once per nested list or object
        raise StoneworkError("parse error: JSON nested too deeply") from None


def _load_json(path: str | None):
    if path in (None, "-"):
        return _parse_json(sys.stdin)
    try:
        with open(path) as fh:
            return _parse_json(fh)
    except OSError as exc:      # missing, a directory, unreadable
        raise StoneworkError(str(exc)) from None


def _write(text: str) -> None:
    """Write and flush stdout; once the reader has closed the pipe, drop the output."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the null device takes what is left, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(obj) -> None:
    _write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _parse_int(entry: str, option: str) -> int:
    """One integer of an option's text; a bad entry names the option."""
    try:
        return int(entry)
    except ValueError:
        raise StoneworkError(f"{option} has {entry!r}, not an integer") from None


def _parse_metric(source: str):
    if source.startswith("discrete:"):
        from .ultra import UltraPseudometric

        n = _parse_int(source.split(":", 1)[1], "--metric discrete:N")
        if n < 1:
            raise StoneworkError(f"discrete:N needs N >= 1, got {n}")
        return UltraPseudometric.discrete(n)
    return metric_from_json(_load_json(source))


def _selfmap_from_json(data) -> tuple[int, ...]:
    """The map of a {"map": [images]} object, each image a point of the carrier."""
    images = data.get("map") if isinstance(data, dict) else None
    if not isinstance(images, list):
        raise StoneworkError('self-map input must be an object with a "map" list')
    for y, v in enumerate(images):
        if not 0 <= expect_int(v, f"map[{y}]") < len(images):
            raise StoneworkError(f"map[{y}] is {v}, outside the {len(images)}-point carrier")
    return tuple(images)


def cmd_dualize(args) -> int:
    s = _selfmap_from_json(_load_json(args.input))
    endo = phi(s)
    dual = delta_adjoint(endo.to_group_endo())
    _emit({"ring_endo": endo.to_json(), "dual_group_endo": dual.to_json()})
    return 0


def cmd_metrize(args) -> int:
    chain = chain_from_json(_load_json(args.chain))
    _emit(d_from_chain(chain).to_json())
    return 0


def cmd_theta(args) -> int:
    d = _parse_metric(args.metric)
    theta = enumerate_theta(d)
    maps = theta.values.tolist()
    if args.injective:
        maps = [f for f in maps if len(set(f)) == d.carrier_size]
    _emit({"carrier_size": d.carrier_size, "count": len(maps), "maps": maps})
    return 0


def cmd_check(args) -> int:
    m = monoid_from_json(_load_json(args.monoid))
    d = _parse_metric(args.metric)
    witness = nonexpansive_counterexample(m, d, args.nonexpansive)
    _emit({
        "side": args.nonexpansive,
        "nonexpansive": witness is None,
        "counterexample": None if witness is None else list(witness),
    })
    return 0


def cmd_saturate(args) -> int:
    action = action_from_json(_load_json(args.action))
    family = family_from_json(_load_json(args.family))
    _emit(saturate(action, family).to_json())
    return 0


def cmd_cover_ops(args) -> int:
    needed, word = (2, "two covers") if args.op == "wedge" else (1, "one cover")
    if len(args.covers) != needed:
        raise StoneworkError(f"{args.op} needs exactly {word}")
    parsed = [Cover.from_blocks(cover_blocks_from_json(_load_json(path))) for path in args.covers]
    if not all(p.carrier_size for p in parsed):
        raise StoneworkError("the covers hold no points; a cover needs at least one")
    p = parsed[0]
    if args.op == "wedge":
        _emit(cover_wedge(*parsed).to_json())
    elif args.op == "star":
        if args.set:
            points = [_parse_int(v, "--set") for v in args.set.split(",")]
            for x in points:
                if not 0 <= x < p.carrier_size:
                    raise StoneworkError(
                        f"--set point {x} is outside the {p.carrier_size}-point carrier")
            _emit({"star": sorted(star(points, p))})
        else:
            _emit(cover_star(p).to_json())
    else:
        _emit({"order": cover_order(p),
               "pointwise": [ord_at(p, x) for x in range(p.carrier_size)]})
    return 0


def cmd_kantorovich(args) -> int:
    base = _parse_metric(args.metric)
    space = free_space(base)
    points = [_parse_int(v, "--vector") for v in args.vector.split(",")] if args.vector else []
    v = vector(space, points)
    norm, pairing = optimal_pairing(v)
    # the closed form takes any support; the search oracle stops at MAX_SUPPORT points
    oracle = str(kantorovich_norm_with_auxiliary(v)) if len(v.support) <= MAX_SUPPORT else None
    _emit({
        "norm": str(norm),
        "pairing": [list(pair) for pair in pairing],
        "zero_point": v.zero_point,
        "auxiliary_oracle_norm": oracle,
    })
    return 0


def cmd_example(args) -> int:
    if args.which != "contrast":
        raise StoneworkError(f"unknown example {args.which!r}")
    _emit(contrast_report(args.k))
    return 0


def _emit_reports(reports: list[VerificationReport], out: str) -> None:
    if out == "json":
        _emit([r.to_json() for r in reports])
    else:
        rows = [TSV_HEADER] + [r.to_tsv_row() for r in reports]
        _write("\n".join(rows) + "\n")


def cmd_verify(args) -> int:
    cfg = SuiteConfig(
        bound_points=args.bound_points,
        bound_atoms=args.bound_atoms,
        bound_k=args.bound_k,
        seed=args.seed,
    )
    reports = run_suite(cfg, CHECKS + [CONTROL] if args.self_test else CHECKS)
    _emit_reports(reports, args.out)
    return 0 if all(r.passed for r in reports) else 1


DUALITY_CHECKS = {
    "selfmap-vs-ring-endo-counts",
    "phi-anti-isomorphism",
    "delta-anti-isomorphism",
    "evaluation-embedding",
    "entourage-transport",
}


def cmd_verify_duality(args) -> int:
    cfg = SuiteConfig(bound_points=args.points, bound_atoms=min(args.points, 3))
    reports = run_suite(cfg, [(name, fn) for name, fn in CHECKS if name in DUALITY_CHECKS])
    _emit_reports(reports, "tsv")
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stonework",
        description="finite duality, metrization, and uniformity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dualize", help="self-map to ring and dual-group endomorphisms")
    p.add_argument("--in", dest="input", default=None, help="self-map JSON (default stdin)")
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("metrize", help="chain of nested partitions to an ultrametric")
    p.add_argument("--chain", required=True)
    p.set_defaults(func=cmd_metrize)

    p = sub.add_parser("theta", help="enumerate the 1-Lipschitz self-maps of a metric")
    p.add_argument("--metric", required=True, help="metric JSON path or discrete:N")
    p.add_argument("--injective", action="store_true", help="keep only injective maps")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("check", help="test a metric for one-sided nonexpansiveness")
    p.add_argument("--nonexpansive", required=True, choices=["left", "right"])
    p.add_argument("--monoid", required=True, help="monoid JSON path")
    p.add_argument("--metric", required=True, help="metric JSON path or discrete:N")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("saturate", help="close a partition family under the action")
    p.add_argument("--action", required=True)
    p.add_argument("--family", required=True)
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("cover-ops", help="wedge, star, and order of covers")
    p.add_argument("--op", required=True, choices=["wedge", "star", "ord"])
    p.add_argument("--set", default=None, help="comma-separated points for star")
    p.add_argument("covers", nargs="*", help="cover JSON files")
    p.set_defaults(func=cmd_cover_ops)

    p = sub.add_parser("kantorovich", help="maximal ultra-norm of a support vector")
    p.add_argument("--metric", required=True, help="base metric JSON path or discrete:N")
    p.add_argument("--vector", required=True, help="comma-separated base point indices")
    p.set_defaults(func=cmd_kantorovich)

    p = sub.add_parser("example", help="built-in example instances")
    p.add_argument("which", choices=["contrast"])
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--all", action="store_true", help="run every check (the default)")
    p.add_argument("--bound-points", type=int, default=3)
    p.add_argument("--bound-atoms", type=int, default=3)
    p.add_argument("--bound-k", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", choices=["json", "tsv"], default="tsv")
    p.add_argument("--self-test", action="store_true",
                   help="include the deliberately failing negative control")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("verify-duality", help="duality checks only, TSV report")
    p.add_argument("--points", type=int, required=True)
    p.set_defaults(func=cmd_verify_duality)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except (StoneworkError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
