"""Make the package in src/ importable by the interpreters the tests start.

`pythonpath` in pyproject.toml covers the pytest process itself; the
determinism tests run `python -m polarweb.cli` in child processes, which
only see the environment.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
