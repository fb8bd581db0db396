"""Random small runs of the command line, from synth to evaluate.

Every run of a stage must end in exit 0, or in exit 1 with exactly one
``error:`` line on stderr.  ``cli.main`` prints any ``ValueError`` as
one line too, so each exit 1 is replayed by calling the stage's
``pipeline`` function directly: what it raises must be a
``SlowFeatError``, an ``OSError`` or a ``MemoryError``, never a stray
numpy error.

The draws are bounded so that no run holds more than a few MB: frames
of at most 32x33 pixels and 20 frames, ``pca_dim`` at most 12 (a
quadratic expansion of at most 90 dimensions).  Running out of memory
is covered by ``test_cli.test_memory_error_ends_in_one_line``, which
raises ``MemoryError`` from a patched stage instead of allocating.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfeat import cli, pipeline, sfa
from slowfeat.errors import SlowFeatError

STAGES = ("synth", "train", "featurize", "fit-classifier", "evaluate")

PATHS = ("data_dir", "model_path", "features_dir", "classifier_path",
         "report_path", "results_path")

EXTREMES = st.sampled_from([1e-300, 1e-12, 1e-3, 1.0, 1e12, 1e300])


# fields pushed to the edge of their range or past it, each from the
# valid flags of the rest of the run
EDGES = {
    "seed": lambda flags: st.integers(-3, -1),
    "classes": lambda flags: st.sampled_from([1, 5]),
    "max_cuboids": lambda flags: st.just(1),
    "frames": lambda flags: st.integers(1, 13),
    "height": lambda flags: st.integers(1, 7),
    "train_per_class": lambda flags: st.just(flags["sequences_per_class"]),
    "delta_t": lambda flags: st.sampled_from([flags["cuboid_d"],
                                              flags["cuboid_d"] + 1]),
    "cuboid_d": lambda flags: st.integers(flags["frames"],
                                          flags["frames"] + 2),
    "cuboid_h": lambda flags: st.integers(flags["height"] + 1,
                                          flags["height"] + 3),
}


@st.composite
def run_flags(draw, edge=None):
    """Flags of one small run as field -> value, valid except for the
    ``edge`` field, drawn from ``EDGES``."""
    height, width = draw(st.integers(8, 32)), draw(st.integers(8, 33))
    depth = draw(st.integers(2, 8))
    spc = draw(st.integers(2, 4))
    flags = {
        "strategy": draw(st.sampled_from(sfa.STRATEGIES)),
        "height": height,
        "width": width,
        "frames": draw(st.integers(14, 20)),
        "cuboid_h": draw(st.integers(1, 9)),
        "cuboid_w": draw(st.integers(1, 9)),
        "cuboid_d": depth,
        "delta_t": draw(st.integers(1, depth - 1)),
        "pca_dim": draw(st.integers(1, 12)),
        "k_per_class": draw(st.integers(1, 6)),
        "classes": draw(st.integers(2, 4)),
        "sequences_per_class": spc,
        "train_per_class": draw(st.integers(1, spc - 1)),
        "grid_nx": draw(st.integers(1, 3)),
        "grid_ny": draw(st.integers(1, 3)),
        "max_cuboids": draw(st.sampled_from(["none", 7, 60])),
        "stride": draw(st.integers(1, 4)),
        "fraction": draw(st.sampled_from([0.05, 0.3, 1.0])),
        "seed": draw(st.integers(0, 2 ** 32)),
        "gamma": draw(st.sampled_from([0.0]) | EXTREMES),
        "reg": draw(EXTREMES),
    }
    if edge is not None:
        flags[edge] = draw(EDGES[edge](flags))
    return flags


def argv_of(stage, flags, workdir):
    argv = [stage]
    paths = {name: os.path.join(workdir, name) for name in PATHS}
    for name, value in {**flags, **paths}.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    return argv


def raised_by(argv):
    """What the stage raises when run without ``cli.main``'s catch."""
    try:
        config = cli.config_from_args(cli.build_parser().parse_args(argv))
        with contextlib.redirect_stdout(io.StringIO()):
            getattr(pipeline, "cmd_" + argv[0].replace("-", "_"))(config)
    except Exception as exc:  # its type is the verdict
        return exc
    return None


def check_run(flags):
    """Run every stage in turn until one exits 1, checking each exit."""
    with tempfile.TemporaryDirectory() as workdir:
        for stage in STAGES:
            argv = argv_of(stage, flags, workdir)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code == 0:
                continue
            assert code == 1
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            exc = raised_by(argv)
            assert isinstance(exc, (SlowFeatError, OSError, MemoryError)), \
                repr(exc)
            return


@settings(max_examples=50, deadline=None, derandomize=True)
@given(run_flags())
def test_valid_runs_exit_0_or_1_with_one_error_line(flags):
    check_run(flags)


@pytest.mark.parametrize("edge", sorted(EDGES))
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_runs_with_a_field_at_its_edge_exit_0_or_1_with_one_error_line(
        edge, data):
    check_run(data.draw(run_flags(edge)))
