"""The perfbench tracer's own hooks over a tiny pipeline.

The benchmark's per-layer metrics come from ``perfbench/tracer.py``,
which wraps every public function of the layer modules by name and
reads arguments and results of a few of them.  This test installs those
real hooks (``perfbench/`` is only read) over the train to evaluate
stages, so a renamed function or a changed result shows up here as a
count of zero or a missing span.
"""

import contextlib
import io
from pathlib import Path

import pytest

from slowfeat import benchmark, dataio, pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("strategy", ["dsfa", "sdsfa"])
def test_the_tracer_counts_every_layer_it_reads(strategy, tmp_path,
                                                monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer as tracing

    config = benchmark.bench_config(
        3, str(tmp_path), strategy=strategy, classes=2,
        sequences_per_class=4, train_per_class=2, frames=24)
    with contextlib.redirect_stdout(io.StringIO()):
        pipeline.cmd_synth(config)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            for stage in (pipeline.cmd_train, pipeline.cmd_featurize,
                          pipeline.cmd_fit_classifier, pipeline.cmd_evaluate):
                stage(config)
        finally:
            tracing.uninstall(undo)
    assert any(name.startswith("sfa.fit_") for name, _ in tracer.spans)
    counts = tracer.counts
    for name in ("expanded_dim", "cuboids_kept", "snippets", "sgd_steps",
                 "bytes_written"):
        assert counts[name] > 0, name
    assert counts["cuboids_cut"] >= counts["cuboids_kept"]
    # the tracer counts rows and their `normalized`; both must be the
    # files' own rows and all-zero rows
    rows = [f.values for path in sorted(Path(config.features_dir).iterdir())
            for f in dataio.load_features(path)[1]]
    assert counts["snippets"] == len(rows)
    assert counts["zero_snippets"] == sum(not v.any() for v in rows)
