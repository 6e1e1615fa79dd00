"""Make the checkout's own sfix sources importable, and nothing else's."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / "perfbench" / "out"  # spans, receiver CSVs, cross-check files


def use_sources() -> None:
    """Put <checkout>/src first on sys.path; exit non-zero if it holds no sfix."""
    src = ROOT / "src"
    if not (src / "sfix" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sfix sources under {src}")
    sys.path.insert(0, str(src))
