"""Run one workload on several seeds and print each end-to-end metric's
median, quartiles and spread (quartile distance / median).

Usage (from the repository root):

    python3 perfbench/spread.py --workload point-eval --seeds 1-10 [--json OUT]

Runs are made one after another with BENCHMARK.json's run_seconds. A run
that is not correct, fails a call or exits with an error stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="a range such as 1-10")
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=ROOT)
        if out.returncode:
            print(out.stderr, file=sys.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(out.stdout, file=sys.stderr)
            return 1
        print(f"seed {seed}: " + "  ".join(f"{k} {m['value']:.6g}"
                                          for k, m in result["metrics"].items()), flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    summary = {}
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "unit": m["unit"]}
        print(f"{m['name']:12s} median {med:.6g} {m['unit']}  spread {(q3 - q1) / med:.3f} "
              f"(bound {m['bound']})")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
