"""Locate the wdmsim source tree of the checkout the benchmark lives in."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wdmsim"


def use_source_tree() -> None:
    """Put ``<checkout>/src`` first on ``sys.path``; exit when it is missing.

    The benchmark measures the simulator next to it, never an installed copy,
    so a directory without ``src/wdmsim`` is an error rather than a fallback.
    """
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator source at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))


def check_imported(module) -> None:
    """Refuse to measure a wdmsim imported from anywhere but this checkout."""
    if Path(module.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"perfbench: wdmsim imported from {module.__file__}, not {PACKAGE}")
