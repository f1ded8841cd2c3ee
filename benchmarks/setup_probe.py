"""Time one set-up of a benchmark workload in a fresh interpreter.

    python3 benchmarks/setup_probe.py WORKLOAD SEED [--tiny]

Set-up is what a user pays before the first command: import rankgames, then
generate the workload's games from the seed and write their game files.
NumPy is imported before the clock starts: its import is most of the time
and depends on the host's file system far more than on rankgames.
Prints {"setup_s": scaled seconds, "wall_s": seconds} as its last line
(see speed.py); run.py starts this several times and reports the median.
"""

import json
import sys
import time
from pathlib import Path

from speed import Scaler

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    workload, seed = argv[0], int(argv[1])
    tiny = "--tiny" in argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (see the docstring)

    scaler = Scaler()
    start = time.perf_counter()
    import workloads  # imports rankgames

    workloads.write_games(workload, workloads.instances(workload, seed, tiny))
    wall = time.perf_counter() - start
    print(json.dumps({"setup_s": scaler.scale(wall), "wall_s": wall}))


if __name__ == "__main__":
    main(sys.argv[1:])
