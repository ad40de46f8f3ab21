"""Set-up time in a fresh interpreter: import epolylog and finish the
workload's first call. Prints {"setup_s": seconds}.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SRC_DIR
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (plain Python: builds the inputs without numpy)


def main() -> int:
    workload, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    first = workloads.specs_for(workload, seed)[0]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import calls

    mods = calls.modules()
    call = calls.bind(first, mods)
    try:
        call()
    except Exception:  # a call that raises has still finished
        pass
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
