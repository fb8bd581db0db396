"""Reruns agree across BLAS thread counts up to rounding.

Byte-for-byte reruns are promised for one machine, numpy and BLAS
build at one BLAS thread count: OpenBLAS may split a product or an
eigensolve differently with more threads, which moves the last bits of
banks and features.  This test runs the desk benchmark's dsfa and sdsfa
pipelines on one dataset in two fresh processes, one at 1 BLAS thread
and one at 2, and checks that every decision is equal and every number
is equal up to a bound.  It does not assert that any byte differs.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np

from slowfeat import benchmark, dataio, pipeline

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
SEED = 7
STRATEGIES = ("dsfa", "sdsfa")

# Relative to the largest magnitude of each array.  At 1 against 2
# threads on these runs, every one of the 168 files differed; the
# features differed by at most 7.0e-11 of their largest value and the
# bank eigenvalues by 6.9e-13, both in sdsfa (2 cores, numpy 2.4.6,
# OpenBLAS 0.3.31).  The bounds leave a factor of about 140.
FEATURE_RTOL = 1e-8
EIGENVALUE_RTOL = 1e-10

RUN = """
import sys
from slowfeat import benchmark
for strategy in {strategies!r}:
    benchmark.run_strategy(benchmark.bench_config(
        {seed}, sys.argv[2], strategy=strategy, data_dir=sys.argv[1]))
"""


def run_at(threads, data_dir, workdir):
    os.makedirs(workdir)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, "-c", RUN.format(strategies=STRATEGIES, seed=SEED),
         str(data_dir), str(workdir)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)


def predictions(report_path):
    with open(report_path, encoding="utf-8") as handle:
        return [line for line in handle if " predicted " in line]


def relative_gap(a, b):
    return np.abs(a - b).max() / np.abs(a).max()


def test_one_and_two_blas_threads_agree(tmp_path):
    data = benchmark.bench_config(SEED, str(tmp_path))
    pipeline.cmd_synth(data)
    runs = {threads: tmp_path / f"threads-{threads}" for threads in (1, 2)}
    procs = [run_at(threads, data.data_dir, workdir)
             for threads, workdir in runs.items()]
    try:
        for proc in procs:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
    finally:
        for proc in procs:
            proc.kill()

    for strategy in STRATEGIES:
        one, two = (benchmark.bench_config(SEED, str(workdir),
                                           strategy=strategy)
                    for workdir in runs.values())
        results = [dataio.load_results(c.results_path) for c in (one, two)]
        for key in ("sequence_accuracy", "frame_accuracy"):
            assert results[0][key] == results[1][key], (strategy, key)
        assert predictions(one.report_path) == predictions(two.report_path)

        banks = [dataio.load_bank(c.model_path) for c in (one, two)]
        assert relative_gap(banks[0].eigenvalues,
                            banks[1].eigenvalues) <= EIGENVALUE_RTOL

        names = sorted(os.listdir(one.features_dir))
        assert names == sorted(os.listdir(two.features_dir))
        for name in names:
            rows = [np.array([f.values for f in dataio.load_features(
                os.path.join(c.features_dir, name))[1]]) for c in (one, two)]
            assert rows[0].shape == rows[1].shape
            assert relative_gap(rows[0], rows[1]) <= FEATURE_RTOL, name
