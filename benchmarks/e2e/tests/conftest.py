"""Harness self-tests: ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``.

Not part of tier-1 (``testpaths`` stays ``tests/``).  The harness is a
flat script directory, so its modules are importable once it is on
``sys.path``.
"""

import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HARNESS))
