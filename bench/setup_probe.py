"""Set-up probe: in a fresh interpreter, import leosec, build one workload's
inputs from the seed and finish its first cold call.

Usage: python3 bench/setup_probe.py WORKLOAD SEED SECONDS

run.py times the whole process.  Exits 0 when the cold call's output passes
its check, 1 when it does not.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the checkout's src on the path)


def main() -> int:
    name, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    tally = workloads.Tally()
    workloads.WORKLOADS[name](ROOT, seed, seconds, workloads.load_references()).cold(tally)
    for note in tally.notes:
        print(note, file=sys.stderr)
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
