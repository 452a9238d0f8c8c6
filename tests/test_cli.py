import argparse
import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_unif import (
    ref_blocks,
    ref_cover_star,
    ref_ord_at,
    ref_order,
    ref_sorted,
    ref_star,
    ref_wedge,
    seeded_cover_pairs,
)

from stonework import cli
from stonework.finmon import validate_monoid
from stonework.schema import expect_rational

RUN = [sys.executable, "-m", "stonework"]


def run_cli(args, stdin=None):
    """cli.main(args) in this process, with stdin, stdout and stderr
    redirected; a SystemExit (argparse's usage errors) gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin or "")), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_cli_process(args, stdin=None, env_extra=None):
    """`python -m stonework` as its own process: for the module entry point
    and the environment variables read by a fresh interpreter."""
    env = dict(os.environ, **env_extra) if env_extra else None
    return subprocess.run(
        RUN + args, input=stdin, capture_output=True, text=True, timeout=300,
        env=env,
    )


def test_dualize_round_trip():
    # the one run of the module entry point, stdin piped in
    proc = run_cli_process(["dualize"], stdin=json.dumps({"map": [1, 0, 0]}))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["ring_endo"]["atom_images"] == ["011", "100", "000"]
    assert out["dual_group_endo"]["matrix"] == ["011", "100", "000"]


def test_metrize_from_chain_file(tmp_path):
    chain = {
        "carrier_size": 3,
        "chain": [{"classes": [[0, 1], [2]]}],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    proc = run_cli(["metrize", "--chain", str(path)])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["dist"][0][1] == "1/2"
    assert out["dist"][0][2] == "1"


def test_theta_counts_and_injective_filter():
    proc = run_cli(["theta", "--metric", "discrete:3"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 27
    proc = run_cli(["theta", "--metric", "discrete:3", "--injective"])
    assert json.loads(proc.stdout)["count"] == 6


def test_saturate_subcommand(tmp_path):
    monoid = {"size": 1, "identity": 0, "table": [[0]]}
    action = {"monoid": monoid, "carrier_size": 3, "act": [[0, 1, 2]]}
    family = {"carrier_size": 3, "members": [
        {"classes": [[0, 1], [2]]},
        {"classes": [[0], [1, 2]]},
    ]}
    apath = tmp_path / "a.json"
    fpath = tmp_path / "f.json"
    apath.write_text(json.dumps(action))
    fpath.write_text(json.dumps(family))
    proc = run_cli(["saturate", "--action", str(apath), "--family", str(fpath)])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    # the pairwise meet joins the family
    assert {"classes": [[0], [1], [2]]} in out["members"]
    assert len(out["members"]) == 3


def test_cover_ops(tmp_path):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps({"blocks": [[0, 1], [2, 3]]}))
    q.write_text(json.dumps({"blocks": [[0, 1, 2], [3]]}))
    proc = run_cli(["cover-ops", "--op", "wedge", str(p), str(q)])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["blocks"] == [[0, 1], [2], [3]]
    proc = run_cli(["cover-ops", "--op", "star", str(p), "--set", "0"])
    assert json.loads(proc.stdout)["star"] == [0, 1]
    proc = run_cli(["cover-ops", "--op", "ord", str(p)])
    assert json.loads(proc.stdout)["order"] == 1


def test_kantorovich_subcommand(tmp_path):
    metric = {"dist": [["0", "1/2", "1"], ["1/2", "0", "1"], ["1", "1", "0"]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(metric))
    proc = run_cli(["kantorovich", "--metric", str(path), "--vector", "0,1"])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["norm"] == "1/2"
    assert out["pairing"] == [[0, 1]]
    assert out["auxiliary_oracle_norm"] == "1/2"


def test_example_contrast():
    proc = run_cli(["example", "contrast", "--k", "3"])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["carrier_size"] == 11
    assert len(out["obstruction_witnesses"]) == 3


def test_verify_passes_at_small_bounds():
    proc = run_cli([
        "verify", "--all", "--bound-points", "2", "--bound-atoms", "2",
        "--bound-k", "2", "--out", "json",
    ])
    assert proc.returncode == 0
    reports = json.loads(proc.stdout)
    assert all(r["outcome"] == "pass" for r in reports)
    from stonework.suite import CHECKS

    assert [r["check"] for r in reports] == [name for name, _ in CHECKS]


def test_verify_self_test_fails_with_replayable_witness():
    proc = run_cli([
        "verify", "--self-test", "--bound-points", "2", "--bound-atoms", "2",
        "--bound-k", "2", "--out", "json",
    ])
    assert proc.returncode == 1
    reports = json.loads(proc.stdout)
    control = [r for r in reports if r["check"] == "corrupted-table-control"]
    assert control and control[0]["outcome"] == "fail"
    witness = control[0]["witness"]
    # the witness replays through table validation
    from stonework.errors import AssociativityViolation

    with pytest.raises(AssociativityViolation) as exc:
        validate_monoid(witness["table"], witness["identity"])
    assert list(exc.value.triple) == witness["violating_triple"]


def test_verify_duality_tsv():
    proc = run_cli(["verify-duality", "--points", "2"])
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("check\t")
    assert len(lines) == 6  # header plus the five duality checks
    assert all(line.split("\t")[3] == "pass" for line in lines[1:])


def test_cli_output_feeds_back_in(tmp_path):
    # metrize emits a metric that theta and kantorovich accept unchanged
    chain = {"carrier_size": 3, "chain": [{"classes": [[0, 1], [2]]}]}
    cpath = tmp_path / "chain.json"
    cpath.write_text(json.dumps(chain))
    metric = run_cli(["metrize", "--chain", str(cpath)]).stdout
    mpath = tmp_path / "metric.json"
    mpath.write_text(metric)
    theta = run_cli(["theta", "--metric", str(mpath)])
    assert theta.returncode == 0
    assert json.loads(theta.stdout)["count"] == 15
    norm = run_cli(["kantorovich", "--metric", str(mpath), "--vector", "0,1"])
    assert json.loads(norm.stdout)["norm"] == "1/2"


def test_check_nonexpansive_subcommand(tmp_path):
    monoid = {"size": 2, "identity": 0, "table": [[0, 1], [1, 1]]}
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(monoid))
    proc = run_cli([
        "check", "--nonexpansive", "left",
        "--monoid", str(mpath), "--metric", "discrete:2",
    ])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["nonexpansive"] is True and out["counterexample"] is None
    proc = run_cli([
        "check", "--nonexpansive", "right",
        "--monoid", str(mpath), "--metric", "discrete:2",
    ])
    assert json.loads(proc.stdout)["nonexpansive"] is True


def test_verify_reports_reproducible_across_runs():
    args = ["verify", "--bound-points", "2", "--bound-atoms", "2",
            "--bound-k", "2", "--out", "json"]
    first = json.loads(run_cli(args).stdout)
    second = json.loads(run_cli(args).stdout)

    def strip(reports):
        return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in reports]

    assert strip(first) == strip(second)


def test_parse_error_exit_code_and_location(tmp_path):
    proc = run_cli(["dualize"], stdin="{bad json")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: parse error at line 1 column 2: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    path = tmp_path / "bad.json"
    path.write_text("{\n")
    proc = run_cli(["theta", "--metric", str(path)])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: parse error at line 2 column 1: ")
    assert proc.stderr.count("\n") == 1
    proc = run_cli(["metrize", "--chain", "/nonexistent/file.json"])
    assert proc.returncode == 2


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_deeply_nested_json_is_a_parse_error(tmp_path, source):
    deep = "[" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    if source == "file":
        proc = run_cli(["metrize", "--chain", str(path)])
    else:
        proc = run_cli(["dualize"], stdin=deep)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: parse error: JSON nested too deeply\n"


@pytest.mark.parametrize("args", [
    ["metrize", "--chain", "DIR"],
    ["theta", "--metric", "DIR"],
    ["saturate", "--action", "DIR", "--family", "DIR"],
    ["cover-ops", "--op", "ord", "DIR"],
    ["dualize", "--in", "DIR"],
])
def test_a_directory_as_input_is_an_input_error(tmp_path, args):
    proc = run_cli([str(tmp_path) if a == "DIR" else a for a in args])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_usage_error_exit_code():
    proc = run_cli(["theta"])  # missing required --metric
    assert proc.returncode == 2


def test_domain_error_exit_code():
    # a self-map value outside its carrier is a usage-class error
    proc = run_cli(["dualize"], stdin=json.dumps({"map": [5, 0]}))
    assert proc.returncode == 2


def test_enumeration_cap_env_var():
    proc = run_cli_process(["theta", "--metric", "discrete:3"],
                           env_extra={"STONEWORK_MAX_ENUM": "26"})
    assert proc.returncode == 2
    assert "26" in proc.stderr
    proc = run_cli_process(["theta", "--metric", "discrete:3"],
                           env_extra={"STONEWORK_MAX_ENUM": "27"})
    assert proc.returncode == 0


@pytest.mark.parametrize("size,problem", [
    (5, "monoid size is 5, not the table's row count 1"),
    ("x", "monoid size is a string, not an integer"),
    (1.0, "monoid size is 1.0, not an integer"),
    (True, "monoid size is true, not an integer"),
])
def test_check_refuses_a_monoid_size_other_than_the_table_size(tmp_path, size, problem):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"size": size, "identity": 0, "table": [[0]]}))
    proc = run_cli(["check", "--nonexpansive", "left", "--monoid", str(path),
                    "--metric", "discrete:1"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {problem}\n"


@pytest.mark.parametrize("size", ["0", "-1"])
@pytest.mark.parametrize("command", ["theta", "check", "kantorovich"])
def test_discrete_metric_needs_a_point(tmp_path, command, size):
    monoid = tmp_path / "m.json"
    monoid.write_text(json.dumps({"size": 1, "identity": 0, "table": [[0]]}))
    extra = {
        "theta": [],
        "check": ["--nonexpansive", "left", "--monoid", str(monoid)],
        "kantorovich": ["--vector", "0"],
    }[command]
    proc = run_cli([command, "--metric", f"discrete:{size}", *extra])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("stdin,problem", [
    ('{"map": 5}', '"map" list'),
    ("[1, 2]", '"map" list'),
    ("{}", '"map" list'),
    ('{"map": [0.5, 1]}', "map[0] is 0.5, not an integer"),
    ('{"map": [true, 0]}', "map[0] is true, not an integer"),
    ('{"map": [0, 7]}', "map[1] is 7, outside the 2-point carrier"),
])
def test_dualize_rejects_malformed_maps(stdin, problem):
    proc = run_cli(["dualize"], stdin=stdin)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert problem in proc.stderr


def test_theta_rejects_an_empty_metric(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dist": []}))
    proc = run_cli(["theta", "--metric", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1


def test_metrize_rejects_an_empty_chain(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"carrier_size": 0, "chain": []}))
    proc = run_cli(["metrize", "--chain", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert "at least one point" in proc.stderr


def test_kantorovich_repeated_point_cancels():
    proc = run_cli(["kantorovich", "--metric", "discrete:3", "--vector", "0,0"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["norm"] == "0"


def test_kantorovich_reports_the_closed_form_above_the_oracle_bound():
    # the closed form takes any support; the search oracle only up to 8 points
    pairs = [[0, 1], [2, 3], [4, 5], [6, 7]]
    for support, last, oracle in [("0,1,2,3,4,5,6,7,8", [[8, 12]], None),
                                  ("0,1,2,3,4,5,6,7", [], "1")]:
        proc = run_cli(["kantorovich", "--metric", "discrete:12", "--vector", support])
        assert proc.returncode == 0 and proc.stderr == ""
        out = json.loads(proc.stdout)
        assert out["norm"] == "1" and out["pairing"] == pairs + last
        assert out["auxiliary_oracle_norm"] == oracle


@pytest.mark.parametrize("args", [
    ["theta", "--metric", "discrete:3"],        # the JSON writer
    ["verify-duality", "--points", "1"],        # the TSV writer
])
def test_closed_stdout_keeps_the_exit_code(args):
    proc = subprocess.Popen(RUN + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    proc.stdout.close()     # the reader is gone before the first write
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == 0
    assert err == ""      # no traceback


SATURATE_ACTION = {"monoid": {"size": 1, "identity": 0, "table": [[0]]},
                   "carrier_size": 3, "act": [[0, 1, 2]]}
SATURATE_FAMILY = {"carrier_size": 3, "members": [{"classes": [[0, 1], [2]]}]}


@pytest.mark.parametrize("action,family,problem", [
    (SATURATE_ACTION, [1, 2], "family must be an object, not a list"),
    (SATURATE_ACTION, {"carrier_size": 3, "members": 5},
     "family members must be a list, not an integer"),
    (SATURATE_ACTION, {"carrier_size": 3, "members": [[0, 1]]},
     "partition must be an object, not a list"),
    ({**SATURATE_ACTION, "monoid": [[0]]}, SATURATE_FAMILY,
     "monoid must be an object, not a list"),
    (SATURATE_ACTION, {**SATURATE_FAMILY, "carrier_size": 3.7},
     "family carrier_size is 3.7, not an integer"),
    (SATURATE_ACTION, {"carrier_size": 3, "members": [{"classes": [[0, True], [2]]}]},
     "partition classes[0][1] is true, not an integer"),
    ({**SATURATE_ACTION, "monoid": {**SATURATE_ACTION["monoid"], "size": 5}}, SATURATE_FAMILY,
     "monoid size is 5, not the table's row count 1"),
    ({**SATURATE_ACTION, "monoid": {**SATURATE_ACTION["monoid"], "size": "x"}}, SATURATE_FAMILY,
     'monoid size is a string, not an integer'),
])
def test_saturate_rejects_malformed_inputs(tmp_path, action, family, problem):
    apath, fpath = tmp_path / "a.json", tmp_path / "f.json"
    apath.write_text(json.dumps(action))
    fpath.write_text(json.dumps(family))
    proc = run_cli(["saturate", "--action", str(apath), "--family", str(fpath)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert problem in proc.stderr


def test_saturate_above_the_lattice_bound_exits_2(tmp_path):
    apath, fpath = tmp_path / "a.json", tmp_path / "f.json"
    apath.write_text(json.dumps({**SATURATE_ACTION, "carrier_size": 8,
                                 "act": [list(range(8))]}))
    fpath.write_text(json.dumps({"carrier_size": 8, "members": [{"classes": [list(range(8))]}]}))
    proc = run_cli(["saturate", "--action", str(apath), "--family", str(fpath)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert "above the bound" in proc.stderr


@pytest.mark.parametrize("metric,problem", [
    ({"dist": 5}, "metric dist must be a list, not an integer"),
    ({"dist": [["0", True], ["1", "0"]]}, "metric dist[0][1] is true, not a rational"),
    ({"dist": [["0", 0.5], ["1/2", "0"]]}, "metric dist[0][1] is 0.5, not a rational"),
    ({"dist": [["0", "half"], ["1", "0"]]}, 'metric dist[0][1] is "half", not a rational'),
])
def test_theta_rejects_malformed_metrics(tmp_path, metric, problem):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(metric))
    proc = run_cli(["theta", "--metric", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert problem in proc.stderr


@pytest.mark.parametrize("exponent", ["999999999", "-999999999", "4301", "-4301"])
def test_theta_refuses_a_rational_with_a_huge_exponent(tmp_path, exponent):
    # Fraction would build all 10**999999999 of it
    value = f"1e{exponent}"
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"dist": [["0", value], [value, "0"]]}))
    proc = run_cli(["theta", "--metric", str(path)])
    assert proc.returncode == 2
    assert proc.stderr == f'error: metric dist[0][1] is "{value}", not a rational\n'


@pytest.mark.parametrize("text,value", [pytest.param(text, value, id=text) for text, value in [
    ("1/2", Fraction(1, 2)), ("0.5", Fraction(1, 2)), ("1e3", 1000), ("1e-3", Fraction(1, 1000)),
    ("1e4300", 10**4300), ("1e-4300", Fraction(1, 10**4300)),
]])
def test_rationals_up_to_the_exponent_bound_still_read(text, value):
    assert expect_rational(text, "x") == value


def test_a_discrete_metric_past_the_enumeration_bound_exits_2():
    proc = run_cli(["theta", "--metric", "discrete:100000"])
    assert proc.returncode == 2 and proc.stdout == "" and len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(
        "error: the 100000x100000 distance matrix needs 10000000000 items, above the bound")


def test_cover_ops_print_the_frozenset_reference_bytes(tmp_path):
    # the output the frozenset covers printed, byte for byte
    def emitted(obj):
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"

    for i, (n, p, q) in enumerate(seeded_cover_pairs(seed=5, count=40)):
        rp, rq = ref_blocks(p), ref_blocks(q)
        files = [tmp_path / f"{i}-{name}.json" for name in "pq"]
        for path, blocks in zip(files, (rp, rq)):
            path.write_text(json.dumps({"blocks": [sorted(b) for b in blocks]}))
        points = sorted({(i * 7 + j) % n for j in range(i % 3 + 1)})
        p_file, q_file = map(str, files)
        for args, expected in [
            (["wedge", p_file, q_file], {"blocks": ref_sorted(ref_wedge(rp, rq))}),
            (["star", p_file], {"blocks": ref_sorted(ref_cover_star(rp))}),
            (["star", p_file, "--set", ",".join(map(str, points))],
             {"star": sorted(ref_star(points, rp))}),
            (["ord", q_file], {"order": ref_order(rq, n),
                               "pointwise": [ref_ord_at(rq, x) for x in range(n)]}),
        ]:
            proc = run_cli(["cover-ops", "--op", *args])
            assert proc.returncode == 0 and proc.stdout == emitted(expected)


@pytest.mark.parametrize("cover,problem", [
    ({"blocks": 5}, "cover blocks must be a list, not an integer"),
    ({"blocks": [[0, True]]}, "cover blocks[0][1] is true, not an integer"),
])
def test_cover_ops_rejects_malformed_covers(tmp_path, cover, problem):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(cover))
    proc = run_cli(["cover-ops", "--op", "ord", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert problem in proc.stderr


@pytest.mark.parametrize("op,cover,extra,problem", [
    ("star", {"blocks": []}, [], "the covers hold no points"),
    ("wedge", {"blocks": []}, [], "the covers hold no points"),
    ("ord", {"blocks": []}, [], "the covers hold no points"),
    ("ord", {"blocks": [[0], [2]]}, [], "blocks do not cover the carrier"),
    ("star", {"blocks": [[0]]}, ["--set", "5"], "--set point 5 is outside the 1-point carrier"),
    # refused before the bit of the far point is built
    ("star", {"blocks": [[0], [1, 2**70]]}, [], "blocks do not cover the carrier"),
    ("ord", {"blocks": [[0, 10**9]]}, [], "blocks do not cover the carrier"),
])
def test_cover_ops_rejects_empty_covers_and_outside_points(tmp_path, op, cover, extra, problem):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(cover))
    files = [str(path)] * (2 if op == "wedge" else 1)
    proc = run_cli(["cover-ops", "--op", op, *extra, *files])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert problem in proc.stderr


@pytest.mark.parametrize("op,count,problem", [
    ("star", 2, "star needs exactly one cover"),
    ("ord", 2, "ord needs exactly one cover"),
    ("ord", 0, "ord needs exactly one cover"),
    ("wedge", 1, "wedge needs exactly two covers"),
])
def test_cover_ops_refuse_any_other_count_of_covers(tmp_path, op, count, problem):
    # the second cover lies on another carrier, so ignoring it would hide a mismatch
    files = []
    for name, blocks in [("a", [[0, 1]]), ("b", [[0], [1], [2]])][:count]:
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps({"blocks": blocks}))
    proc = run_cli(["cover-ops", "--op", op, *map(str, files)])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {problem}\n"


@pytest.mark.parametrize("p,q,problem", [
    ([[0, 1], [2]], [[0], [1]], "covers on different carriers"),
    ([[0, 1], [2]], [[0, 1], [2], [-1]], "block point outside the carrier"),
])
def test_cover_ops_derive_each_carrier_from_its_blocks(tmp_path, p, q, problem):
    p_file, q_file = tmp_path / "p.json", tmp_path / "q.json"
    p_file.write_text(json.dumps({"blocks": p}))
    q_file.write_text(json.dumps({"blocks": q}))
    proc = run_cli(["cover-ops", "--op", "wedge", str(p_file), str(q_file)])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {problem}\n"
    # the carrier is no option: it is read off the blocks
    proc = run_cli(["cover-ops", "--op", "ord", "--carrier-size", "3", str(p_file)])
    assert proc.returncode == 2 and "unrecognized arguments: --carrier-size" in proc.stderr


@pytest.mark.parametrize("args,problem", [
    (["kantorovich", "--metric", "discrete:3", "--vector", "0,x"], "--vector has 'x', not an integer"),
    (["cover-ops", "--op", "star", "COVER", "--set", "a"], "--set has 'a', not an integer"),
    (["theta", "--metric", "discrete:abc"], "--metric discrete:N has 'abc', not an integer"),
])
def test_integer_options_name_the_bad_entry(tmp_path, args, problem):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"blocks": [[0, 1], [2]]}))
    proc = run_cli([str(path) if a == "COVER" else a for a in args])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert problem in proc.stderr


# --- boundary fuzz of the JSON readers ----------------------------------------
# Every subcommand that reads JSON, on well-shaped objects with random entries,
# on those objects with one part replaced or dropped, and on arbitrary nested
# JSON, run in process.  Whatever the input, the exit code is 0, 1 or 2, no
# exception escapes cli.main, and exit 2 prints exactly one error: line.

FUZZ_SCALARS = (st.none() | st.booleans() | st.floats() | st.text(max_size=3)
                | st.sampled_from([-1, 10**9, 2**70, "1/2"]))
FUZZ_JSON = st.recursive(FUZZ_SCALARS | st.integers(-2, 5), lambda inner: (
    st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)
FUZZ_LEVELS = st.sampled_from(["0", "1", "1/2", "1/4"])
FUZZ_MONOIDS = [  # the trivial monoid, Z2, a semilattice and the clamp monoid
    [[0]], [[0, 1], [1, 0]], [[0, 1], [1, 1]], [[0, 1, 2], [1, 2, 2], [2, 2, 2]]]


def fuzz_points(n, min_size=0, max_size=4):
    return st.lists(st.integers(0, n - 1), min_size=min_size, max_size=max_size)


@st.composite
def fuzz_partition(draw, n):
    ids = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return {"classes": [[x for x in range(n) if ids[x] == c] for c in sorted(set(ids))]}


@st.composite
def fuzz_monoid(draw):
    if draw(st.booleans()):
        table = draw(st.sampled_from(FUZZ_MONOIDS))
    else:
        k = draw(st.integers(1, 3))
        table = draw(st.lists(fuzz_points(k, k, k), min_size=k, max_size=k))
    return {"size": len(table), "identity": 0, "table": table}


@st.composite
def fuzz_metric(draw):
    """d(x, y) = the larger of the levels of x and y: an ultra-pseudometric."""
    levels = draw(st.lists(FUZZ_LEVELS, min_size=1, max_size=4))
    return {"dist": [["0" if x == y else max(a, b, key=Fraction) for y, b in enumerate(levels)]
                     for x, a in enumerate(levels)]}


@st.composite
def fuzz_action(draw):
    """Random images, or a monoid's left regular action: s acts by x -> s * x."""
    monoid = draw(fuzz_monoid())
    if draw(st.booleans()):
        return {"monoid": monoid, "carrier_size": monoid["size"], "act": monoid["table"]}
    n = draw(st.integers(1, 3))
    act = [draw(fuzz_points(n, n, n)) for _ in monoid["table"]]
    return {"monoid": monoid, "carrier_size": n, "act": act}


@st.composite
def fuzz_with_carrier(draw, key, member):
    n = draw(st.integers(1, 4))
    return {"carrier_size": n, key: draw(st.lists(member(n), max_size=3))}


FUZZ_SHAPES = {
    "--in": st.integers(1, 4).flatmap(
        lambda n: st.fixed_dictionaries({"map": fuzz_points(n, n, n)})),
    "--chain": fuzz_with_carrier("chain", fuzz_partition),
    "--metric": fuzz_metric(),
    "--monoid": fuzz_monoid(),
    "--action": fuzz_action(),
    "--family": fuzz_with_carrier("members", fuzz_partition),
    "covers": st.integers(1, 4).flatmap(lambda n: st.tuples(
        fuzz_partition(n), st.lists(fuzz_points(n, 1), max_size=2)).map(
        lambda parts: {"blocks": parts[0]["classes"] + parts[1]})),
}


@st.composite
def fuzz_input(draw, option):
    """A well-shaped input, that input with one part replaced by any JSON
    or dropped, or any JSON at all."""
    how = draw(st.sampled_from(["shaped", "shaped", "mutated", "any"]))
    if how == "any":
        return draw(FUZZ_JSON)
    obj = copy.deepcopy(draw(FUZZ_SHAPES[option]))     # shapes may share lists
    if how == "mutated":
        holder, key, node = None, None, obj
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            holder, key = node, draw(st.sampled_from(keys))
            node = holder[key]
        if holder is None:
            return draw(FUZZ_JSON)
        if isinstance(holder, dict) and draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = draw(FUZZ_JSON)
    return obj


FUZZ_INPUTS = {
    "dualize": ["--in"],
    "metrize": ["--chain"],
    "theta": ["--metric"],
    "kantorovich": ["--metric"],
    "check": ["--monoid", "--metric"],
    "saturate": ["--action", "--family"],
    "cover-ops": ["covers"],
}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data(), command=st.sampled_from(sorted(FUZZ_INPUTS)))
def test_json_readers_exit_0_1_or_2_on_any_input(tmp_path_factory, data, command):
    where, args = tmp_path_factory.getbasetemp(), [command]
    op = data.draw(st.sampled_from(["wedge", "star", "ord"]))
    for option in FUZZ_INPUTS[command]:
        count = 1 + (op == "wedge") if option == "covers" else 1
        paths = []
        for i in range(count):
            path = where / f"fuzz-{option.strip('-')}-{i}.json"
            path.write_text(json.dumps(data.draw(fuzz_input(option), label=option)))
            paths.append(str(path))
        args += paths if option == "covers" else [option, *paths]
    points = st.text("0123-x,", min_size=1, max_size=5)
    if command == "check":
        args += ["--nonexpansive", data.draw(st.sampled_from(["left", "right"]))]
    elif command == "kantorovich":
        args.append(f"--vector={data.draw(points)}")
    elif command == "cover-ops":
        args += ["--op", op]
        if op == "star" and data.draw(st.booleans()):
            args.append(f"--set={data.draw(points)}")
    proc = run_cli(args)
    assert proc.returncode in (0, 1, 2), (args, proc)
    if proc.returncode == 2:
        assert proc.stdout == "" and proc.stderr.startswith("error:"), (args, proc)
        assert len(proc.stderr.splitlines()) == 1, (args, proc)


def parser_options() -> dict[str, set[str]]:
    """The --options of each subcommand of the parser, --help aside."""
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return {name: {opt for action in sub._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, sub in commands.items()}


def readme_command_line() -> tuple[dict[str, set[str]], set[str]]:
    """The --options README.md's "Command line" section names: per subcommand
    in its synopsis (a line `stonework NAME ...` and the indented lines
    under it), and anywhere in the prose around the synopsis."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    before, synopsis, after = section.split("```")
    named: dict[str, set[str]] = {}
    for line in synopsis.splitlines():
        if line.startswith("stonework "):
            command = line.split()[1]
        elif not line.startswith(" "):
            continue
        named.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    return named, set(re.findall(r"--[a-z][a-z-]*", before + after))


def test_readme_command_line_matches_the_parser():
    options = parser_options()
    named, mentioned = readme_command_line()
    assert set(named) == set(options)
    for command, opts in options.items():
        assert named[command] == opts, command
    assert mentioned <= set().union(*options.values())
