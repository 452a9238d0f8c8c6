"""Acceptance suite: one test per criterion, each printed as a pass/fail
line with its instance count and elapsed time, and each held to an exact
outcome (no tolerances) within a fixed time budget.

Run with `pytest tests/test_acceptance.py -s` to see the criterion lines.
"""

import json
import subprocess
import sys
import time

import pytest

from stonework.errors import AssociativityViolation
from stonework.finmon import validate_monoid
from stonework.suite import (
    SuiteConfig,
    check_ball_left_congruences,
    check_ball_submonoids,
    check_chain_metrization,
    check_contrast,
    check_covering_combinators,
    check_delta,
    check_duality_counts,
    check_entourage_transport,
    check_evaluation,
    check_kantorovich_contraction,
    check_kantorovich_extension,
    check_kantorovich_oracle,
    check_kantorovich_ultranorm,
    check_phi,
    check_saturation,
    check_theta_closure,
    check_theta_discrete,
    check_theta_entourages,
    run_check,
)

FULL = SuiteConfig(bound_points=4, bound_atoms=3, bound_k=6)


def run_criterion(number, label, budget_s, *checks, cfg=FULL):
    start = time.perf_counter()
    total = 0
    witness = None
    for check in checks:
        _, instances, failure = run_check(check, cfg)
        total += instances
        if failure is not None:
            witness = failure
            break
    elapsed = time.perf_counter() - start
    status = "PASS" if witness is None else "FAIL"
    print(f"criterion {number:2d} [{label}]: {status} "
          f"({total} instances, {elapsed:.2f}s, budget {budget_s}s)")
    assert witness is None, f"criterion {number} failed: {witness}"
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_01_duality_counts():
    run_criterion(1, "duality counts 1,4,27,256", 5, check_duality_counts)


def test_criterion_02_phi_anti_isomorphism():
    run_criterion(2, "phi bijective anti-homomorphism", 30, check_phi)


def test_criterion_03_delta_anti_isomorphism():
    run_criterion(3, "delta transpose anti-isomorphism", 60, check_delta)


def test_criterion_04_evaluation_characterization():
    run_criterion(4, "evaluation image and equivariance", 5, check_evaluation)


def test_criterion_05_entourage_transport():
    run_criterion(5, "entourage transport agreement", 5, check_entourage_transport)


def test_criterion_06_metrization():
    run_criterion(6, "chain metric vs path infimum", 10, check_chain_metrization)


def test_criterion_07_theta_machinery():
    run_criterion(
        7, "1-Lipschitz monoid machinery", 20,
        check_theta_discrete, check_theta_closure, check_theta_entourages,
    )


def test_criterion_08_ball_closure_properties():
    run_criterion(
        8, "identity balls and congruences", 20,
        check_ball_submonoids, check_ball_left_congruences,
    )


def test_criterion_09_saturation():
    run_criterion(9, "saturation fixed point and composite law", 10, check_saturation)


def test_criterion_10_contrast_example():
    run_criterion(10, "one-sided contrast instance", 30, check_contrast)


def test_criterion_11_kantorovich():
    run_criterion(
        11, "maximal ultra-norm", 60,
        check_kantorovich_extension, check_kantorovich_ultranorm,
        check_kantorovich_contraction, check_kantorovich_oracle,
    )


def test_criterion_12_covering_combinators():
    run_criterion(12, "cover star/wedge/order laws", 5, check_covering_combinators)


def test_criterion_13_end_to_end_cli():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "stonework", "verify", "--all", "--out", "json"],
        capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    reports = json.loads(proc.stdout)
    assert all(r["outcome"] == "pass" for r in reports)
    assert elapsed < 180

    control = subprocess.run(
        [sys.executable, "-m", "stonework", "verify", "--self-test", "--out", "json"],
        capture_output=True, text=True, timeout=300,
    )
    assert control.returncode == 1
    failed = [r for r in json.loads(control.stdout) if r["outcome"] == "fail"]
    assert len(failed) == 1
    witness = failed[0]["witness"]
    with pytest.raises(AssociativityViolation) as exc:
        validate_monoid(witness["table"], witness["identity"])
    assert list(exc.value.triple) == witness["violating_triple"]
    print(f"criterion 13 [cli end-to-end]: PASS ({elapsed:.2f}s verify, "
          f"negative control exit {control.returncode})")
