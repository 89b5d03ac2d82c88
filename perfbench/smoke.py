"""Smoke run of every workload at a few operations, untraced and traced.

    python3 perfbench/smoke.py

Runs `run.py --workload all --smoke` (each workload in its own process,
`two-links` included, whose optimum is known) with `--trace 0` and with
`--trace 1`, and exits non-zero unless every workload is correct, fails
nothing, and prints every metric BENCHMARK.json names, with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        results = json.loads(done.stdout.strip().splitlines()[-1])
        for name, result in results.items():
            if result is None:
                problems.append(f"{name} (trace {trace}): no result")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} (trace {trace}): {result['failed']} failed")
            for metric in declared[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name} (trace {trace}): {metric['name']} missing "
                                    f"or not in {metric['unit']}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
