"""Point the CLI subprocesses that tests start at this checkout's sources,
so a plain `python -m pytest` needs no PYTHONPATH (pyproject's pytest
`pythonpath` covers the in-process imports)."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
