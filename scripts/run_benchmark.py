#!/usr/bin/env python3
"""Run the seeded synthetic benchmark and print a summary table.

For every seed this generates a fresh 4-class dataset, fits the
requested strategies, scores the held-out split, and runs the
raw-pixel PCA baseline through the identical classifier.  The package
is imported from this checkout's ``src/``, so the table always measures
this checkout.  Example:

    python3 scripts/run_benchmark.py --seeds 5 --workdir /tmp/bench
"""

import argparse
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from slowfeat import benchmark


def _seed_count(text):
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_count, default=5,
                        help="number of seeds, 0..N-1 (default 5)")
    parser.add_argument("--workdir", default=None,
                        help="where runs are written (default: temp dir)")
    parser.add_argument("--strategies", default="dsfa,ssfa",
                        help="comma-separated strategy list")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the raw-pixel PCA baseline")
    args = parser.parse_args(argv)

    workdir = args.workdir or tempfile.mkdtemp(prefix="slowfeat-bench-")
    strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())

    rows = []
    for seed in range(args.seeds):
        out = benchmark.run_benchmark(seed, f"{workdir}/seed{seed}",
                                      strategies=strategies,
                                      baseline=not args.no_baseline)
        rows.append((seed, out))

    header = ["seed"]
    for name in strategies:
        header += [f"{name} acc", f"{name} sel"]
    if not args.no_baseline:
        header.append("baseline acc")
    print()
    print("  ".join(f"{h:>12}" for h in header))
    sums = [0.0] * (len(header) - 1)
    for seed, out in rows:
        cells = []
        for name in strategies:
            res = out["strategies"][name]
            cells.append(res["sequence_accuracy"])
            cells.append(res.get("average_selectivity", float("nan")))
        if not args.no_baseline:
            cells.append(out["baseline"]["sequence_accuracy"])
        sums = [a + c for a, c in zip(sums, cells)]
        print("  ".join([f"{seed:>12}"] + [f"{c:>12.4f}" for c in cells]))
    print("  ".join([f"{'mean':>12}"]
                    + [f"{s / len(rows):>12.4f}" for s in sums]))
    print(f"\nartifacts under {workdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
