"""The benchmark reads the package by name: the tracer wraps its spans by
module and attribute, and the acceptance headroom maps the check
functions of tests/test_acceptance.py to suite checks by ``__name__``.
These tests read benchmarks/ and keep those names resolvable."""

import functools
import importlib
from pathlib import Path

from stonework import suite

TESTS = Path(__file__).parent
BENCHMARKS = TESTS.parent / "benchmarks"


def load(name):
    """The globals of benchmarks/<name>.py, run from its source so that no
    bytecode is written under benchmarks/."""
    path = BENCHMARKS / f"{name}.py"
    namespace = {"__name__": f"benchmark_{name}"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def resolves(module, path):
    try:
        functools.reduce(getattr, path.split("."), importlib.import_module(f"stonework.{module}"))
    except (ImportError, AttributeError):
        return False
    return True


def test_every_traced_span_is_an_attribute_of_the_package():
    spans = load("tracer")["SPANS"]
    assert spans and [span for span in spans if not resolves(*span)] == []


def test_every_budgeted_check_function_is_a_suite_check():
    budgets = load("acceptance")["read_budgets"](TESTS / "test_acceptance.py")
    # criteria 1-12 time suite checks; 13 times the whole CLI
    assert all(budgets[number]["checks"] for number in range(1, 13))
    names = {fn.__name__ for _, fn in suite.CHECKS}
    assert {f for entry in budgets.values() for f in entry["checks"]} <= names
