"""Bring one workload to ready in a fresh interpreter and exit.

    python3 bench/ready.py <workload> <input-dir>

Ready means opforge is imported and the workload's inputs are read; run.py
times this program to report setup_s.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads
    workloads.WORKLOADS[sys.argv[1]].load(Path(sys.argv[2]))
