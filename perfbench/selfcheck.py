"""Self-check of the benchmark and a steadiness probe.

Usage (from the repository root):

    python3 perfbench/selfcheck.py                 # every workload
    python3 perfbench/selfcheck.py --spread 5      # plus 5 seeds each

For each workload in ``BENCHMARK.json`` it runs ``run.py`` once
untraced and twice traced with one seed, one run after the other, and
checks that

- every run is correct and prints every metric ``BENCHMARK.json``
  names, with its unit, and no other;
- the exact counts (``tracer.EXACT_COUNTS``) of the two traced runs are
  equal.

``--spread N`` then runs each workload untraced on N more seeds and
prints, per end-to-end metric, the distance between the first and third
quartile as a share of the median, next to the metric's bound.  Exits
1 if a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(spec, workload, seed, trace):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def check_metrics(result, declared, what):
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{what}: not correct ({result['failed']} failed "
                        f"of {result['attempted']})")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        problems.append(f"{what}: metrics/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, extra "
                        f"{sorted(set(got) - set(want))}, units "
                        f"{sorted(k for k in got if k in want and got[k] != want[k])}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--spread", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = run(spec, workload, args.seed, 0)
        problems += check_metrics(untraced, spec["end_to_end"],
                                  f"{workload} untraced")
        traced = [run(spec, workload, args.seed, 1) for _ in range(2)]
        for i, result in enumerate(traced):
            problems += check_metrics(result, spec["per_layer"],
                                      f"{workload} traced #{i + 1}")
        for name in tracing.EXACT_COUNTS:
            first, second = (r["metrics"][name]["value"] for r in traced)
            if first != second:
                problems.append(f"{workload}: {name} {first} != {second}")
        print(f"{workload}: checked; overhead "
              f"{[r['metrics']['tracing.overhead_s']['value'] for r in traced]} s")

    for workload in (w["name"] for w in spec["workloads"]
                     if args.spread):
        results = [run(spec, workload, args.seed + 1 + i, 0)
                   for i in range(args.spread)]
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"{workload} {metric['name']}: median "
                  f"{statistics.median(values):.4g} spread "
                  f"{(q3 - q1) / statistics.median(values):.3f} "
                  f"(bound {metric['bound']})")

    for problem in problems:
        print("FAILED:", problem)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
