"""Layer tracing for the benchmark, installed from outside the package.

Every public function of a layer module (``cuboid``, ``linalg``, ``sfa``,
``features``, ``classify``, ``dataio``) and ``linalg.PcaModel.transform``
is replaced, in every ``slowfeat`` module that refers to it, by a
wrapper that records a span: name, start, end and the span that was
open when it was called.  Functions such as ``cuboid.reformat`` run
hundreds of thousands of times per run, so spans are kept aggregated
per (name, parent) in memory: calls, total time and self time (total
minus the time covered by child spans).  A few wrappers also count the
work a call did, from its arguments and result.

``uninstall`` puts the original functions back, so one process can run
an untraced and a traced pipeline one after the other.
"""

import collections
import contextlib
import functools
import inspect
import os
import statistics
import sys
import time

LAYERS = ("cuboid", "linalg", "sfa", "features", "classify", "dataio")

# stages of one pipeline: the functions behind the CLI subcommands and
# the raw-pixel baseline
STAGES = ("train", "featurize", "fit_classifier", "evaluate", "baseline")

# per-layer metric name -> unit, in the order they are reported
UNITS = {
    **{f"cli.{stage}_s": "s" for stage in STAGES},
    "cuboid.sobel_s": "s",
    "cuboid.sobel_calls": "count",
    "cuboid.sample_s": "s",
    "cuboid.cuboids_cut": "count",
    "cuboid.cuboids_kept": "count",
    "cuboid.sample_keep_ratio": "ratio",
    "cuboid.reformat_s": "s",
    "cuboid.reformat_calls": "count",
    "linalg.pca_fit_s": "s",
    "linalg.pca_transform_s": "s",
    "linalg.pca_transform_calls": "count",
    "linalg.moments_s": "s",
    "linalg.gen_eig_s": "s",
    "linalg.gen_eig_calls": "count",
    "sfa.expand_s": "s",
    "sfa.expand_calls": "count",
    "sfa.apply_s": "s",
    "sfa.apply_calls": "count",
    "sfa.fit_s": "s",
    "sfa.expanded_dim": "count",
    "features.featurize_sequence_p50_s": "s",
    "features.featurize_sequence_p90_s": "s",
    "features.asd_feature_s": "s",
    "features.snippets": "count",
    "features.zero_snippets": "count",
    "features.cuboids_per_snippet_min": "count",
    "features.cuboids_per_snippet_p50": "count",
    "features.cuboids_per_snippet_max": "count",
    "classify.train_linear_s": "s",
    "classify.sgd_steps": "count",
    "classify.sgd_steps_per_s": "1/s",
    "classify.predict_s": "s",
    "classify.sequence_accuracy": "fraction",
    "classify.frame_accuracy": "fraction",
    "classify.selectivity": "ratio",
    "classify.baseline_accuracy": "fraction",
    "dataio.read_s": "s",
    "dataio.write_s": "s",
    "dataio.bytes_read": "B",
    "dataio.bytes_written": "B",
    "tracing.overhead_s": "s",
    "tracing.untraced_samples": "count",
    "tracing.traced_samples": "count",
}

# counts that depend only on the inputs: two traced runs of one
# workload and seed must report them bit for bit
EXACT_COUNTS = (
    "cuboid.cuboids_cut",
    "cuboid.cuboids_kept",
    "features.snippets",
    "features.zero_snippets",
    "classify.sgd_steps",
    "sfa.expanded_dim",
    "linalg.gen_eig_calls",
    "cuboid.sobel_calls",
    "cuboid.reformat_calls",
    "sfa.apply_calls",
    "dataio.bytes_written",
)


class Tracer:
    """Aggregated spans plus counters and per-call samples."""

    def __init__(self):
        self.stack = []  # open spans: [name, start, child seconds]
        self.spans = {}  # (name, parent) -> [calls, total s, self s]
        self.counts = collections.Counter()
        self.samples = collections.defaultdict(list)

    def _begin(self, name):
        frame = [name, 0.0, 0.0]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _end(self, frame):
        total = time.perf_counter() - frame[1]
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        record = self.spans.setdefault(
            (frame[0], parent and parent[0]), [0, 0.0, 0.0])
        record[0] += 1
        record[1] += total
        record[2] += total - frame[2]
        if parent is not None:
            parent[2] += total
        return total

    @contextlib.contextmanager
    def span(self, name):
        """Context manager span; yields a dict that gets ``seconds``."""
        out = {}
        frame = self._begin(name)
        try:
            yield out
        finally:
            out["seconds"] = self._end(frame)

    @contextlib.contextmanager
    def paused(self):
        """Keep the enclosed work out of every open span."""
        start = time.perf_counter()
        try:
            yield
        finally:
            skipped = time.perf_counter() - start
            for frame in self.stack:
                frame[1] += skipped

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span; ``after(tracer, bound, result, s)``."""
        signature = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._end(frame)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, bound.arguments, result, seconds)
            return result

        return traced

    # -- aggregates ---------------------------------------------------

    def calls(self, name):
        return sum(r[0] for (n, _), r in self.spans.items() if n == name)

    def total(self, name):
        """Wall time of ``name``, outermost calls only."""
        return sum(r[1] for (n, p), r in self.spans.items()
                   if n == name and p != name)

    def self_time(self, name):
        return sum(r[2] for (n, _), r in self.spans.items() if n == name)

    def table(self):
        """Aggregated spans as JSON-ready rows, slowest total first."""
        rows = [{"name": n, "parent": p, "calls": r[0],
                 "total_s": r[1], "self_s": r[2]}
                for (n, p), r in self.spans.items()]
        return sorted(rows, key=lambda row: -row["total_s"])


# -- hooks that count work -------------------------------------------


def _after_sample(original):
    def after(tracer, args, result, seconds):
        tracer.counts["cuboids_kept"] += len(result)
        if args["max_count"] is None:
            tracer.counts["cuboids_cut"] += len(result)
            return
        # the cap hides how many cuboids were cut: cut again uncapped,
        # outside every span, with the program's own sampler
        with tracer.paused():
            tracer.counts["cuboids_cut"] += len(
                original(**dict(args, max_count=None)))
    return after


def _after_fit(tracer, args, result, seconds):
    dim = max(m.w.shape[0] for m in result.models)
    tracer.counts["expanded_dim"] = max(tracer.counts["expanded_dim"], dim)


def _after_featurize(tracer, args, result, seconds):
    tracer.samples["featurize_sequence_s"].append(seconds)
    tracer.counts["snippets"] += len(result)
    tracer.counts["zero_snippets"] += sum(not f.normalized for f in result)


def _after_asd(tracer, args, result, seconds):
    tracer.samples["cuboids_per_snippet"].append(len(args["snippet"].cuboids))


def _after_train_linear(tracer, args, result, seconds):
    tracer.counts["sgd_steps"] += len(args["features"]) * args["epochs"]


def _after_read(tracer, args, result, seconds):
    tracer.counts["bytes_read"] += os.path.getsize(args["path"])


def _after_write(tracer, args, result, seconds):
    tracer.counts["bytes_written"] += os.path.getsize(args["path"])


def _hook(layer, attr, fn):
    if (layer, attr) == ("cuboid", "sample_cuboids"):
        return _after_sample(fn)
    if layer == "sfa" and attr.startswith("fit_"):
        return _after_fit
    if (layer, attr) == ("features", "featurize_sequence"):
        return _after_featurize
    if (layer, attr) == ("features", "asd_feature"):
        return _after_asd
    if (layer, attr) == ("classify", "train_linear"):
        return _after_train_linear
    if layer == "dataio" and attr.startswith("load_"):
        return _after_read
    if layer == "dataio" and attr.startswith("save_"):
        return _after_write
    return None


def install(tracer, package="slowfeat"):
    """Wrap every layer's public functions; returns the undo list."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package
                                     or name.startswith(package + "."))]
    undo = []
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            traced = tracer.wrap(f"{layer}.{attr}", fn, _hook(layer, attr, fn))
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, name, traced)
                        undo.append((holder, name, fn))
    pca_model = sys.modules[f"{package}.linalg"].PcaModel
    undo.append((pca_model, "transform", pca_model.transform))
    pca_model.transform = tracer.wrap("linalg.PcaModel.transform",
                                      pca_model.transform)
    return undo


def uninstall(undo):
    for holder, name, original in reversed(undo):
        setattr(holder, name, original)


def _percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer, untraced, traced, quality):
    """Per-layer metric values, keyed as in ``UNITS``.

    ``untraced`` and ``traced`` list the stage and ``pipeline`` wall
    times of each pipeline of that kind run in the same process; stage
    times are medians over the untraced ones.  ``quality`` holds the
    accuracies and selectivity the run read back.
    """
    t, c = tracer, tracer.counts

    def median(pipelines, key):
        return statistics.median(p[key] for p in pipelines)

    def names(prefix):
        return {n for (n, _) in t.spans if n.startswith(prefix)}

    train_s = t.total("classify.train_linear")
    snippet_sizes = t.samples["cuboids_per_snippet"]
    per_sequence = t.samples["featurize_sequence_s"]
    return {
        **{f"cli.{stage}_s": median(untraced, stage) for stage in STAGES},
        "cuboid.sobel_s": t.total("cuboid.gradient_magnitude"),
        "cuboid.sobel_calls": t.calls("cuboid.gradient_magnitude"),
        "cuboid.sample_s": t.total("cuboid.sample_cuboids"),
        "cuboid.cuboids_cut": c["cuboids_cut"],
        "cuboid.cuboids_kept": c["cuboids_kept"],
        "cuboid.sample_keep_ratio": (c["cuboids_kept"] / c["cuboids_cut"]
                                     if c["cuboids_cut"] else 0.0),
        "cuboid.reformat_s": t.total("cuboid.reformat"),
        "cuboid.reformat_calls": t.calls("cuboid.reformat"),
        "linalg.pca_fit_s": t.total("linalg.pca_fit"),
        "linalg.pca_transform_s": t.total("linalg.PcaModel.transform"),
        "linalg.pca_transform_calls": t.calls("linalg.PcaModel.transform"),
        "linalg.moments_s": t.total("linalg.sequence_moments"),
        "linalg.gen_eig_s": t.total("linalg.gen_eig_sym"),
        "linalg.gen_eig_calls": t.calls("linalg.gen_eig_sym"),
        "sfa.expand_s": t.total("sfa.quadratic_expand"),
        "sfa.expand_calls": t.calls("sfa.quadratic_expand"),
        "sfa.apply_s": t.self_time("sfa.apply"),
        "sfa.apply_calls": t.calls("sfa.apply"),
        "sfa.fit_s": sum(t.self_time(n) for n in names("sfa.fit_")),
        "sfa.expanded_dim": c["expanded_dim"],
        "features.featurize_sequence_p50_s": _percentile(per_sequence, 50),
        "features.featurize_sequence_p90_s": _percentile(per_sequence, 90),
        "features.asd_feature_s": t.total("features.asd_feature"),
        "features.snippets": c["snippets"],
        "features.zero_snippets": c["zero_snippets"],
        "features.cuboids_per_snippet_min": min(snippet_sizes, default=0),
        "features.cuboids_per_snippet_p50": _percentile(snippet_sizes, 50),
        "features.cuboids_per_snippet_max": max(snippet_sizes, default=0),
        "classify.train_linear_s": train_s,
        "classify.sgd_steps": c["sgd_steps"],
        "classify.sgd_steps_per_s": c["sgd_steps"] / train_s if train_s else 0.0,
        "classify.predict_s": t.total("classify.predict_many"),
        "classify.sequence_accuracy": quality["sequence_accuracy"],
        "classify.frame_accuracy": quality["frame_accuracy"],
        "classify.selectivity": quality["selectivity"],
        "classify.baseline_accuracy": quality["baseline_accuracy"],
        "dataio.read_s": sum(t.total(n) for n in names("dataio.load_")),
        "dataio.write_s": sum(t.total(n) for n in names("dataio.save_")),
        "dataio.bytes_read": c["bytes_read"],
        "dataio.bytes_written": c["bytes_written"],
        "tracing.overhead_s": (median(traced, "pipeline")
                               - median(untraced, "pipeline")),
        "tracing.untraced_samples": len(untraced),
        "tracing.traced_samples": len(traced),
    }
