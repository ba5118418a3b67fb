"""One timed set-up in a fresh interpreter: start the program (import
hmmsid) and build a workload's inputs from the seed, as every use of the
program does first.

    python3 perfbench/startup.py WORKLOAD SEED WORKDIR [--tiny]

Prints one JSON object: ``raw_s`` as measured and ``scaled_s`` rescaled to
reference machine speed by calibration samples taken in this process
before and after (speed.py), so the figure follows the core this process
ran on. numpy is loaded first, untimed: the calibration needs it.
"""

from __future__ import annotations

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import speed  # noqa: E402  (imports numpy)


def main(argv) -> None:
    name, seed, workdir = argv[0], int(argv[1]), argv[2]
    probe = speed.SpeedProbe()
    import workloads  # imports hmmsid

    workloads.make(name, seed, workdir, tiny="--tiny" in argv[3:]).setup()
    probe.close()
    print(json.dumps({"raw_s": probe.raw_s, "scaled_s": probe.scaled_s}))


if __name__ == "__main__":
    main(sys.argv[1:])
