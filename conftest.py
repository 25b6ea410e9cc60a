"""Puts this checkout's `src` on the import path of every subprocess a test
starts, so `python -m refkit.cli` runs from a plain checkout.

pytest's `pythonpath` setting reaches only the test process itself.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
