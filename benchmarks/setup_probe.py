"""Set-up of one workload in a fresh interpreter, timed by run.py.

    python3 setup_probe.py WORKLOAD SEED WORKDIR

Imports polmax from the checkout's ``src/``, builds the seeded inputs and
finishes one warm-up operation; exits nonzero if that operation fails.
"""

import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import polmax  # noqa: E402,F401  (the import is part of what is timed)


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    workdir = Path(sys.argv[3]) / "op"  # apart from this process's own stdout file
    workdir.mkdir(exist_ok=True)
    op, inputs, _ = run.build_workload(name, seed, workdir)
    problems = run.call_checked(op, next(inputs))
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
