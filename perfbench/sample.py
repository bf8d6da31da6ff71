"""One measured process: interpreter start plus `import spinlab` is the
set-up; harness.main then runs one round of a workload.

    python3 perfbench/sample.py <launch monotonic time> --workload NAME --seed N [--trace]
    python3 perfbench/sample.py <launch monotonic time> --probe

Kept this small because a script is compiled afresh on every start.
"""
import sys
import time

import spinlab  # noqa: F401  (the set-up being measured)

READY = time.monotonic()

from harness import main  # noqa: E402

sys.exit(main(float(sys.argv[1]), READY, sys.argv[2:]))
