"""Set one workload up in a fresh process and exit; run.py times it.

    python3 perfbench/setup_probe.py WORKLOAD SEED

The set-up is what a user pays before the first result: importing
twogauge (numpy and scipy with it), loading the workload's scenarios and
building its crossed modules, connections and geometry.
"""

import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import WORKLOADS  # noqa: E402  (pins BLAS threads before numpy loads)

if __name__ == "__main__":
    importlib.import_module(WORKLOADS[sys.argv[1]]).prepare(int(sys.argv[2]))
