"""Point the CLI subprocesses that tests start at this checkout's sources,
so a plain `python -m pytest` needs no PYTHONPATH (pyproject's pytest
`pythonpath` covers the in-process imports), and give the law tests the
relabeling fixture that places a first defect on a chosen row."""

import os
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def relabeling():
    """perm = relabeling(spoiled, n, row, rng): a random renaming of range(n),
    x to perm[x], under which the least new label of the spoiled labels is
    row.  Renaming a law's instance this way moves its first defect, in
    scan order, to that row; it needs at least row unspoiled labels."""
    def perm(spoiled, n, row, rng):
        bad = np.isin(np.arange(n), spoiled)
        clean, spoiled = rng.permutation(np.flatnonzero(~bad)), rng.permutation(np.flatnonzero(bad))
        assert len(clean) >= row and len(spoiled)
        rest = rng.permutation(np.concatenate([clean[row:], spoiled[1:]]))
        order = np.concatenate([clean[:row], spoiled[:1], rest])    # order[new] = old
        out = np.empty(n, dtype=np.intp)
        out[order] = np.arange(n)
        return out
    return perm
