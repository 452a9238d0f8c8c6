"""Headroom against the time budgets of tests/test_acceptance.py.

The budgets are read by parsing the test module (never importing or
editing it), so the benchmark follows the test file as it changes.
Criteria 1-12 call ``run_criterion(number, label, budget_s, *checks)``;
criterion 13 asserts ``elapsed < budget`` on a full ``verify`` call.
"""

from __future__ import annotations

import ast
from pathlib import Path


def read_budgets(path: Path) -> dict[int, dict]:
    """Criterion number -> {"budget_s": float, "checks": [function names]}."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out: dict[int, dict] = {}
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("test_criterion_")):
            continue
        number = int(fn.name.split("_")[2])
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "run_criterion"):
                out[number] = {
                    "budget_s": float(ast.literal_eval(node.args[2])),
                    "checks": [a.id for a in node.args[3:] if isinstance(a, ast.Name)],
                }
            elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
                  and node.left.id == "elapsed" and isinstance(node.ops[0], ast.Lt)):
                out.setdefault(number, {
                    "budget_s": float(ast.literal_eval(node.comparators[0])),
                    "checks": [],
                })
    return out


def headroom(budgets: dict[int, dict], check_names: dict[str, str],
             check_seconds: dict[str, float], end_to_end_s: float) -> dict[int, dict]:
    """Share of each budget left over: 1 - measured / budget.

    check_names maps suite check functions to check names; check_seconds
    holds the per-check times that criteria 1-12 sum.  A criterion without
    checks (13) is charged end_to_end_s.
    """
    out = {}
    for number, entry in sorted(budgets.items()):
        if entry["checks"]:
            used = sum(check_seconds[check_names[f]] for f in entry["checks"])
        else:
            used = end_to_end_s
        out[number] = {
            "budget_s": entry["budget_s"],
            "used_s": used,
            "headroom_frac": 1 - used / entry["budget_s"],
        }
    return out
