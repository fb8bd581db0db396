"""Benchmark of the slowfeat pipeline, driven from outside the package.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-dsfa --seed 0 --seconds 30 --trace 0

One run is one process: one client in a closed loop, each call waiting
for the one before.  It imports ``slowfeat`` from ``src/`` and writes
the synthetic dataset for ``--seed`` (set-up: the import once, the
dataset three times, median reported).  It then runs train ->
featurize -> fit-classifier -> evaluate through the functions behind
the CLI subcommands: one pass in pipeline order, then reruns in turn,
each stage two runs at least and up to five while its runs took less
than a quarter of ``--seconds``.  Each stage's median run is reported;
``pipeline_s`` is the sum of the four medians and ``peak_rss_mb`` the
peak resident set after the first pass.

Every output is checked: each rerun of a stage must leave the artifacts
bit-identical, every artifact is loaded back with the ``dataio``
readers and its shapes checked, and the artifact hashes must match
those of any earlier run of the same workload, seed, code and
environment (kept under ``.perfbench-work/records``).  A failed check
or a stage that raises counts in ``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs three
pipelines plus the raw-pixel baseline, each stage once: untraced,
traced (every layer's public functions wrapped by spans, see
``tracer.py``) and untraced again, and reports the per-layer metrics of
the traced one, stage times of the untraced ones and the tracing
overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment, the run configuration and every metric by
name with its unit.
"""

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

# Both workloads use the desk-scale benchmark dataset and config
# (``slowfeat.benchmark.bench_config``) and differ only in strategy.
WORKLOADS = {
    # 4 class models over the 230-d expansion: featurize re-runs
    # reformat, PCA and expansion once per model, so bank evaluation
    # dominates the run
    "desk-dsfa": {"strategy": "dsfa"},
    # 24 small (region, class) models and mirrored, doubled 480-d
    # classifier rows: per-model overhead and the SGD loop dominate
    "desk-sdsfa": {"strategy": "sdsfa"},
}

SETUP_REPEATS = 3
MIN_RUNS = 2
MAX_RUNS = 5
STAGES = tracing.STAGES
# pipeline_s spans these; the baseline runs in traced runs only
PIPELINE_STAGES = STAGES[:4]

# Single stages other than featurize spread too much between runs on a
# shared 2-core machine (0.16-0.33 of the median between quartiles) to
# be bounded by 0.25, so they, like the baseline, are reported per
# layer (cli.*_s) only.
END_TO_END_UNITS = {
    "setup_s": "s",
    "featurize_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Program:
    """slowfeat imported from this checkout's ``src/``, never another copy.

    ``import_s`` is the import's wall time, part of set-up.
    """

    def __init__(self):
        src = os.path.join(ROOT, "src")
        if not os.path.isfile(os.path.join(src, "slowfeat", "__init__.py")):
            raise SystemExit(f"perfbench: no slowfeat sources under {src}")
        sys.path.insert(0, src)
        start = time.perf_counter()
        import slowfeat
        self.import_s = time.perf_counter() - start
        if not os.path.abspath(slowfeat.__file__).startswith(src + os.sep):
            raise SystemExit(f"perfbench: imported slowfeat from "
                             f"{slowfeat.__file__}, not {src}")
        from slowfeat import errors
        self.benchmark, self.cli = slowfeat.benchmark, slowfeat.cli
        self.dataio, self.sfa = slowfeat.dataio, slowfeat.sfa
        # what the CLI itself turns into a failed command
        self.errors = (errors.SlowFeatError, OSError, ValueError)


class Tally:
    """Attempted and failed operations; failures are also printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}")


def environment():
    import numpy as np
    with contextlib.redirect_stdout(io.StringIO()):
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {key: deps.get("blas", {}).get(key) for key in ("name", "version")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def source_digest():
    """Digest of the program's sources: results are compared per code."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "slowfeat")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()[:16]


def setup(program, config, data_dirs):
    """Write the dataset once per directory; returns each synth time."""
    times = []
    for data_dir in data_dirs:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            program.cli.cmd_synth(dataclasses.replace(config,
                                                      data_dir=data_dir))
            times.append(time.perf_counter() - start)
    return times


def run_stage(program, name, stage, config, tally, tracer):
    """Run one stage; returns (seconds, result), or None if it raised."""
    gc.collect()
    span = (tracer.span("stage." + name) if tracer
            else contextlib.nullcontext({}))
    try:
        with contextlib.redirect_stdout(io.StringIO()), span as out:
            start = time.perf_counter()
            result = stage(config)
            elapsed = time.perf_counter() - start
    except program.errors as exc:
        tally.check(False, f"stage {name}: {type(exc).__name__}: {exc}")
        return None
    tally.check(True, name)
    # a traced span leaves out the tracer's own paused work
    return out.get("seconds", elapsed), result


def run_pipeline(program, config, workdir, tally, names, min_runs,
                 stage_seconds, tracer):
    """One pass over the stages ``names``, then reruns.

    After the first pass, stages run again in turn: each until it has
    ``min_runs`` runs, and then up to ``MAX_RUNS`` while its runs took
    less than ``stage_seconds`` together, so reruns of every stage are
    spread over the run.  A rerun must leave the artifacts and its own
    result bit-identical.  Returns each stage's wall times and first
    result, and the peak RSS after the first pass in MB; or None when a
    stage raised an error that the CLI reports as a failed command.
    """
    cli, benchmark = program.cli, program.benchmark
    stages = dict(zip(STAGES, (
        cli.cmd_train, cli.cmd_featurize, cli.cmd_fit_classifier,
        cli.cmd_evaluate, benchmark.baseline_results)))
    durations, results = {name: [] for name in names}, {}
    for name in names:
        outcome = run_stage(program, name, stages[name], config, tally,
                            tracer)
        if outcome is None:
            return None
        durations[name].append(outcome[0])
        results[name] = outcome[1]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = artifact_hashes(program, config, workdir)
    while True:
        due = [name for name in names
               if len(durations[name]) < min_runs
               or (len(durations[name]) < MAX_RUNS
                   and sum(durations[name]) < stage_seconds)]
        if not due:
            break
        for name in due:
            outcome = run_stage(program, name, stages[name], config, tally,
                                tracer)
            if outcome is None:
                return None
            durations[name].append(outcome[0])
            tally.check(artifact_hashes(program, config, workdir) == reference
                        and (name != "baseline"
                             or outcome[1] == results[name]),
                        f"{name} run {len(durations[name])} changed outputs")
    return durations, results, peak_rss_mb


def check_outputs(program, config, tally):
    """Load every output with the program's readers and check shapes."""
    cli, dataio, sfa = program.cli, program.dataio, program.sfa
    read_errors = program.errors
    h, w, d = config.cuboid_size
    grid_cells = config.grid_nx * config.grid_ny
    n_models = config.classes * (grid_cells if config.strategy == "sdsfa"
                                 else 1)
    k_total = n_models * config.k_per_class
    dim = sfa.expanded_dim(config.pca_dim)
    try:
        bank = dataio.load_bank(config.model_path)
        tally.check(
            bank.strategy == config.strategy and len(bank.models) == n_models
            and all(m.w.shape == (dim, config.k_per_class)
                    and m.pca.in_dim == h * w * config.delta_t
                    for m in bank.models),
            f"bank {config.model_path}: expected {n_models} models of "
            f"{dim} x {config.k_per_class}")
    except read_errors as exc:
        tally.check(False, f"load bank: {exc}")
    try:
        clf = dataio.load_classifier(config.classifier_path)
        tally.check(
            clf.weights.shape == (config.classes, k_total)
            and clf.class_labels == tuple(range(config.classes)),
            f"classifier {config.classifier_path}: expected weights "
            f"{(config.classes, k_total)}")
    except read_errors as exc:
        tally.check(False, f"load classifier: {exc}")
    entries = cli.load_manifest(os.path.join(config.data_dir,
                                             cli.MANIFEST_NAME))
    differences = config.frames - 1  # snippets are cut from frame differences
    snippets = len(range(0, differences - d + 1, config.stride))
    for entry in entries:
        path = os.path.join(config.features_dir, entry.sequence_id + ".sfaf")
        try:
            sequence_id, feats, label = dataio.load_features(path)
            tally.check(
                sequence_id == entry.sequence_id and label == entry.label
                and len(feats) == snippets
                and all(f.values.shape == (k_total,) for f in feats),
                f"features {path}: expected {snippets} x ({k_total},)")
        except read_errors as exc:
            tally.check(False, f"load features {path}: {exc}")
    try:
        results = dataio.load_results(config.results_path)
        quality = {
            "sequence_accuracy": float(results["sequence_accuracy"]),
            "frame_accuracy": float(results["frame_accuracy"]),
            "selectivity": float(results["average_selectivity"]),
        }
        tally.check(
            0.0 < quality["sequence_accuracy"] <= 1.0
            and 0.0 < quality["frame_accuracy"] <= 1.0
            and math.isfinite(quality["selectivity"])
            and quality["selectivity"] > 0.0,
            f"results {config.results_path}: {results}")
        return quality
    except (KeyError, *read_errors) as exc:
        tally.check(False, f"results {config.results_path}: {exc!r}")
        return None


def file_digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def hash_dataset(directory):
    """Hashes of a dataset's files; ``dataset.cfg`` names its own path."""
    return {name: file_digest(os.path.join(directory, name))
            for name in sorted(os.listdir(directory)) if name != "dataset.cfg"}


def artifact_hashes(program, config, workdir):
    """Hashes of the pipeline's outputs written so far."""
    return {os.path.relpath(path, workdir): file_digest(path)
            for path in program.benchmark.artifact_paths(config)
            if os.path.exists(path)}


class Record:
    """Facts of earlier runs of one workload, seed, code and environment.

    Kept across runs under ``.perfbench-work/records``, so a rerun of a
    seed is checked against the first run of it.
    """

    def __init__(self, key):
        digest = hashlib.sha256(json.dumps(key, sort_keys=True)
                                .encode()).hexdigest()[:20]
        self.path = os.path.join(WORK_ROOT, "records", digest + ".json")
        self.key = key
        try:
            with open(self.path, encoding="utf-8") as handle:
                self.known = json.load(handle)["facts"]
        except (OSError, ValueError, KeyError):
            self.known = {}
        self.dirty = False

    def compare(self, kind, values, tally):
        """Check ``values`` against the first ones recorded for ``kind``."""
        first = self.known.get(kind)
        if first is None:
            self.known[kind] = dict(values)
            self.dirty = True
            return
        for name in sorted(set(first) | set(values)):
            tally.check(first.get(name) == values.get(name),
                        f"{kind} {name}: {values.get(name)} differs from "
                        f"{first.get(name)} of an earlier run")

    def save(self):
        if not self.dirty:
            return
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"key": self.key, "facts": self.known}, handle,
                      indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def measure(program, args, workdir, tally):
    """Set up, run the pipelines, check them; returns metrics or None."""
    config = program.benchmark.bench_config(
        args.seed, workdir, **WORKLOADS[args.workload])
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    print("config " + json.dumps(dataclasses.asdict(config), sort_keys=True))
    record = Record({"workload": args.workload, "seed": args.seed,
                     "source": source_digest(), "environment": env})

    data_dirs = [config.data_dir] + [os.path.join(workdir, f"data-{i}")
                                     for i in range(1, SETUP_REPEATS)]
    synth_s = setup(program, config, data_dirs)
    datasets = [hash_dataset(d) for d in data_dirs]
    for i, digest in enumerate(datasets[1:], start=1):
        tally.check(digest == datasets[0],
                    f"dataset {data_dirs[i]} differs from {data_dirs[0]}")
    record.compare("dataset", datasets[0], tally)

    # An untraced run times the pipeline, each stage twice or more as its
    # equal share of --seconds allows.  A traced run adds the baseline and
    # brackets one traced pipeline by two untraced ones, each stage once.
    if args.trace:
        plan, names, min_runs, stage_seconds = (
            (False, True, False), STAGES, 1, 0.0)
    else:
        plan, names, min_runs = (False,), PIPELINE_STAGES, MIN_RUNS
        stage_seconds = args.seconds / len(names)
    tracer = tracing.Tracer() if args.trace else None
    samples = []
    try:
        for traced in plan:
            undo = tracing.install(tracer) if traced else []
            try:
                outcome = run_pipeline(program, config, workdir, tally, names,
                                       min_runs, stage_seconds,
                                       tracer if traced else None)
            finally:
                tracing.uninstall(undo)
            if outcome is None:
                return None
            durations, results, peak_rss_mb = outcome
            quality = check_outputs(program, config, tally)
            if quality is None:
                return None
            record.compare("artifacts",
                           artifact_hashes(program, config, workdir), tally)
            record.compare("quality", quality, tally)
            if "baseline" in results:
                record.compare("baseline", results["baseline"], tally)
                quality["baseline_accuracy"] = \
                    results["baseline"]["sequence_accuracy"]
            times = {k: statistics.median(v) for k, v in durations.items()}
            times["pipeline"] = sum(times[k] for k in PIPELINE_STAGES)
            samples.append((times, traced))
            print(f"pipeline {len(samples)}" + (" traced" if traced else "")
                  + ": " + "; ".join(f"{k} {' '.join(f'{v:.3f}' for v in d)} s"
                                     for k, d in durations.items()))
    finally:
        record.save()

    if args.trace:
        untraced = [t for t, on in samples if not on]
        traced = [t for t, on in samples if on]
        values = tracing.layer_metrics(tracer, untraced, traced, quality)
        record.compare("counts", {k: values[k] for k in
                                  tracing.EXACT_COUNTS}, tally)
        record.save()
        spans_path = os.path.join(
            WORK_ROOT, f"trace-{args.workload}-s{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"pipelines": samples, "spans": tracer.table()},
                      handle, indent=1)
        print(f"spans ({len(tracer.spans)} (name, parent) pairs) -> "
              f"{os.path.relpath(spans_path, ROOT)}")
        return {k: (values[k], u) for k, u in tracing.UNITS.items()}

    times = samples[0][0]
    metrics = {
        "setup_s": program.import_s + statistics.median(synth_s),
        "featurize_s": times["featurize"],
        "pipeline_s": times["pipeline"],
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"setup: import once, synth {len(synth_s)} runs (median)")
    return {k: (metrics[k], u) for k, u in END_TO_END_UNITS.items()}


def main(argv=None):
    args = parse_args(argv)
    program = Program()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = os.path.join(WORK_ROOT,
                           f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tally = Tally()
    try:
        metrics = measure(program, args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = metrics is not None and tally.failed == 0
    for name, (value, unit) in (metrics or {}).items():
        print(f"{name} = {value!r} {unit}")
    print(f"error_rate = {tally.failed}/{tally.attempted}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in (metrics or {}).items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
