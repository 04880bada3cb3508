"""The repo's benchmark: one layered harness for the HANA core and the SOE.

Run it from the repository root::

    python -m benchmarks.harness                      # all five workloads
    python -m benchmarks.harness --workload olap_scan # one workload
    python -m benchmarks.harness compare OLD.json NEW.json

See ``README.md`` in this directory for the metric tables and the
reasons behind each workload. ``benchmarks/bench_*.py`` remain the
per-experiment (E1-E29) exhibits and are not part of this benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the harness is run from a bare checkout (``repro`` is not installed),
#: so it puts that checkout's ``src`` on the path itself
REPO_ROOT = Path(__file__).resolve().parents[2]
_SRC = REPO_ROOT / "src"
if (_SRC / "repro").is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
