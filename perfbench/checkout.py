"""Where the benchmark runs: the checkout root, its program source and scratch output."""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"          # every file the benchmark writes goes under here
RUNS = OUT / "runs"


class MissingProgram(RuntimeError):
    """The checkout has no program source to benchmark."""


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure cantori comes from it."""
    package = SRC / "cantori"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no program source at {package}")
    sys.path.insert(0, str(SRC))
    import cantori

    if Path(cantori.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"cantori imported from {cantori.__file__}, not from {package}")


def remove_outputs(stamp: str) -> None:
    """Delete the run directories a pass with this stamp wrote."""
    for path in RUNS.glob(f"{stamp}-*"):
        shutil.rmtree(path)
