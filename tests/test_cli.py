import argparse
import dataclasses
import inspect
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from slowfeat import benchmark, cli, dataio, features, pipeline, sfa
from slowfeat import config as config_module
from slowfeat.config import RunConfig
from slowfeat.errors import InvalidInput, ParseError, SlowFeatError


def desk_config(tmp_path, **overrides):
    """A config small enough for test-speed end-to-end runs."""
    values = dict(
        classes=4, sequences_per_class=5, train_per_class=3,
        frames=30, height=32, width=40,
        cuboid_h=8, cuboid_w=8, cuboid_d=6, delta_t=3,
        pca_dim=20, k_per_class=8, fraction=0.2, max_cuboids=120,
        strategy="dsfa", seed=1,
        data_dir=str(tmp_path / "data"),
        model_path=str(tmp_path / "model.sfam"),
        features_dir=str(tmp_path / "features"),
        classifier_path=str(tmp_path / "clf.sfac"),
        report_path=str(tmp_path / "report.txt"),
        results_path=str(tmp_path / "results.txt"),
    )
    values.update(overrides)
    return RunConfig(**values)


def run_pipeline(config):
    cli.cmd_synth(config)
    cli.cmd_train(config)
    cli.cmd_featurize(config)
    cli.cmd_fit_classifier(config)
    return cli.cmd_evaluate(config)


# ---------------------------------------------------------------------------
# manifest and split


def test_manifest_round_trip(tmp_path):
    entries = [dataio.Entry("a", 0, "a.sfv", "a.ann"),
               dataio.Entry("b", 1, "b.sfv", "b.ann")]
    path = tmp_path / "manifest.txt"
    dataio.save_manifest(path, entries)
    assert cli.load_manifest(path) == entries


def test_manifest_parse_errors(tmp_path):
    path = tmp_path / "manifest.txt"

    def expect(content, lineno):
        path.write_text(content)
        with pytest.raises(ParseError) as err:
            cli.load_manifest(path)
        assert err.value.line == lineno
        assert str(err.value).startswith(f"{path}: line {lineno}: ")

    expect("a 0 a.sfv\n", 1)
    expect("a 0 a.sfv a.ann\na x b.sfv b.ann\n", 2)
    expect("a 0 a.sfv a.ann\na 1 b.sfv b.ann\n", 2)
    expect("", 1)


def test_manifest_non_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_bytes(b"a 0 a.sfv a.ann\nb 1 b\xe9.sfv b.ann\n")
    with pytest.raises(ParseError) as err:
        cli.load_manifest(path)
    assert err.value.line == 2


def test_split_is_seeded_and_disjoint(tmp_path):
    entries = [dataio.Entry(f"c{c}s{i}", c, "v", "a")
               for c in range(2) for i in range(6)]
    cfg = desk_config(tmp_path, classes=2, sequences_per_class=6,
                      train_per_class=4)
    train1, test1 = pipeline.split_entries(entries, cfg)
    train2, test2 = pipeline.split_entries(entries, cfg)
    assert train1 == train2 and test1 == test2
    ids = {e.sequence_id for e in train1} | {e.sequence_id for e in test1}
    assert len(ids) == len(entries)
    for label in (0, 1):
        assert sum(e.label == label for e in train1) == 4
        assert sum(e.label == label for e in test1) == 2
    other = pipeline.split_entries(entries,
                                   dataclasses.replace(cfg, seed=9))[0]
    assert other != train1


def test_split_requires_room_for_test(tmp_path):
    entries = [dataio.Entry(f"s{i}", 0, "v", "a") for i in range(3)] + \
        [dataio.Entry(f"t{i}", 1, "v", "a") for i in range(5)]
    cfg = desk_config(tmp_path, classes=2, train_per_class=3)
    with pytest.raises(InvalidInput):
        pipeline.split_entries(entries, cfg)


# ---------------------------------------------------------------------------
# synth command


def test_cmd_synth_writes_loadable_dataset(tmp_path):
    cfg = desk_config(tmp_path, sequences_per_class=2, train_per_class=1)
    entries = cli.cmd_synth(cfg)
    assert len(entries) == 8
    manifest = cli.load_manifest(os.path.join(cfg.data_dir, "manifest.txt"))
    assert manifest == entries
    for e in manifest:
        frames = dataio.load_sequence(os.path.join(cfg.data_dir, e.video))
        assert frames.shape == (30, 32, 40)
        boxes = dataio.load_annotations(
            os.path.join(cfg.data_dir, e.annotation), len(frames))
        assert np.array_equal(boxes[0], [0, 0, 40, 32])
    assert dataio.load_config(
        os.path.join(cfg.data_dir, "dataset.cfg")) == cfg


def test_cmd_synth_is_deterministic(tmp_path):
    cfg1 = desk_config(tmp_path / "one", sequences_per_class=2,
                       train_per_class=1)
    cfg2 = desk_config(tmp_path / "two", sequences_per_class=2,
                       train_per_class=1)
    cli.cmd_synth(cfg1)
    cli.cmd_synth(cfg2)
    for e in cli.load_manifest(os.path.join(cfg1.data_dir, "manifest.txt")):
        a = open(os.path.join(cfg1.data_dir, e.video), "rb").read()
        b = open(os.path.join(cfg2.data_dir, e.video), "rb").read()
        assert a == b


def test_cmd_synth_rejects_too_many_classes(tmp_path):
    with pytest.raises(InvalidInput):
        cli.cmd_synth(desk_config(tmp_path, classes=5,
                                  sequences_per_class=2, train_per_class=1))


# ---------------------------------------------------------------------------
# full pipeline


def test_pipeline_end_to_end(tmp_path):
    cfg = desk_config(tmp_path)
    results = run_pipeline(cfg)
    assert results["sequences"] == 8
    assert 0.0 <= results["sequence_accuracy"] <= 1.0
    assert results["sequence_accuracy"] >= 0.75  # easy desk-scale classes
    assert os.path.exists(cfg.report_path)
    parsed = dataio.load_results(cfg.results_path)
    assert parsed["strategy"] == "dsfa"
    assert float(parsed["sequence_accuracy"]) == results["sequence_accuracy"]
    assert "average_selectivity" in parsed
    report = open(cfg.report_path).read()
    assert "confusion (rows predicted, cols true):" in report


def test_pipeline_rerun_is_bit_identical(tmp_path):
    cfg1 = desk_config(tmp_path / "one", sequences_per_class=4,
                       train_per_class=2)
    cfg2 = desk_config(tmp_path / "two", sequences_per_class=4,
                       train_per_class=2)
    run_pipeline(cfg1)
    run_pipeline(cfg2)

    def slurp(path):
        return open(path, "rb").read()

    assert slurp(cfg1.model_path) == slurp(cfg2.model_path)
    assert slurp(cfg1.classifier_path) == slurp(cfg2.classifier_path)
    assert slurp(cfg1.results_path) == slurp(cfg2.results_path)
    assert slurp(cfg1.report_path) == slurp(cfg2.report_path)
    for name in sorted(os.listdir(cfg1.features_dir)):
        assert slurp(os.path.join(cfg1.features_dir, name)) == \
            slurp(os.path.join(cfg2.features_dir, name))


def test_pipeline_usfa_has_no_selectivity(tmp_path):
    cfg = desk_config(tmp_path, strategy="usfa", sequences_per_class=3,
                      train_per_class=2, classes=2)
    results = run_pipeline(cfg)
    assert "average_selectivity" not in results


def test_one_cell_sdsfa_is_dsfa(tmp_path):
    # SD-SFA is D-SFA plus regions, so on a one-cell grid every feature
    # file and the classifier are dsfa's, byte for byte
    written = {}
    for strategy in ("dsfa", "sdsfa"):
        cfg = benchmark.bench_config(7, str(tmp_path), strategy=strategy,
                                     sequences_per_class=6,
                                     train_per_class=4, grid_nx=1, grid_ny=1)
        if not written:
            cli.cmd_synth(cfg)
        benchmark.run_strategy(cfg)
        files = {name: os.path.join(cfg.features_dir, name)
                 for name in os.listdir(cfg.features_dir)}
        files["classifier"] = cfg.classifier_path
        written[strategy] = {name: open(path, "rb").read()
                             for name, path in files.items()}
    assert len(written["dsfa"]) == 6 * 4 + 1
    assert written["sdsfa"] == written["dsfa"]


def test_pipeline_sdsfa_with_mirror(tmp_path):
    cfg = desk_config(tmp_path, strategy="sdsfa", grid_nx=2, grid_ny=1,
                      sequences_per_class=6, train_per_class=4,
                      k_per_class=4)
    results = run_pipeline(cfg)
    bank = dataio.load_bank(cfg.model_path)
    assert bank.strategy == "sdsfa"
    assert len(bank.models) == 2 * 4
    assert results["sequence_accuracy"] >= 0.5


def constraint_pool(strategy, model, cuboids):
    """The cuboids a model's zero-mean/unit-variance constraints cover,
    cut from the training set."""
    if strategy in ("usfa", "dsfa"):
        return cuboids.data[:]
    if strategy == "ssfa":
        return cuboids.data[cuboids.labels == model.class_label]
    return cuboids.data[cuboids.regions == model.region_label]


def assert_bank_constraints(bank, cuboids, delta_t):
    from slowfeat import cuboid as cuboid_mod
    for model in bank.models:
        pool = constraint_pool(bank.strategy, model, cuboids)
        outs = np.vstack([sfa.apply(model, rows)
                          for rows in cuboid_mod.window_rows(pool, delta_t)])
        assert np.abs(outs.mean(axis=0)).max() < 1e-6
        cov = np.cov(outs.T, bias=True)
        assert np.abs(np.diag(cov) - 1.0).max() < 1e-4
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-4


def test_constraint_suite_on_trained_bank(tmp_path):
    # slow-feature outputs over each model's constraint data: zero
    # mean, unit variance, decorrelated
    cfg = desk_config(tmp_path)
    cli.cmd_synth(cfg)
    entries = cli.load_manifest(os.path.join(cfg.data_dir, "manifest.txt"))
    train, _ = pipeline.split_entries(entries, cfg)
    cuboids = pipeline._training_cuboids(cfg, entries, train)
    bank = sfa.fit_bank(cfg.strategy, cuboids.data.windows(cfg.delta_t),
                        cfg.pca_dim, cfg.k_per_class, labels=cuboids.labels,
                        regions=cuboids.regions, grid=cfg.grid,
                        gamma=cfg.gamma)
    assert_bank_constraints(bank, cuboids, cfg.delta_t)


# ---------------------------------------------------------------------------
# toy command


def test_cmd_toy_sfa(tmp_path):
    cfg = desk_config(tmp_path)
    results = pipeline.cmd_toy_sfa(cfg)
    assert results["length"] == 2000
    assert results["corr_slowest_vs_latent"] > 0.95
    assert results["delta_slowest"] < 0.1 * results["min_channel_delta"]
    parsed = dataio.load_results(cfg.results_path)
    assert float(parsed["corr_slowest_vs_latent"]) == \
        results["corr_slowest_vs_latent"]


# ---------------------------------------------------------------------------
# argument handling and exit codes


def test_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    dataio.save_config(cfg_path, RunConfig(pca_dim=33, strategy="ssfa"))
    args = cli.build_parser().parse_args(
        ["train", "--config", str(cfg_path), "--pca-dim", "11"])
    cfg = cli.config_from_args(args)
    assert cfg.pca_dim == 11
    assert cfg.strategy == "ssfa"


def test_main_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope")
    assert cli.main(["train", "--data-dir", missing]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1

    assert cli.main(["train", "--pca-dim", "banana"]) == 1
    assert cli.main(
        ["toy-sfa", "--results-path", str(tmp_path / "toy.txt")]) == 0


def test_negative_seed_fails_naming_the_field(tmp_path, capsys):
    with pytest.raises(InvalidInput, match="seed must be >= 0"):
        RunConfig(seed=-1)
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--seed", "-1", "--data-dir", str(data_dir)]) == 1
    err = capsys.readouterr().err
    assert err == "error: seed must be >= 0, got -1\n"
    assert not os.listdir(tmp_path)


def test_memory_error_ends_in_one_line(monkeypatch, capsys):
    # a stage that runs out of memory, as a train whose expansion
    # needs a 48.4 GiB matrix would; nothing is allocated here
    def train(config):
        raise MemoryError("Unable to allocate 48.4 GiB for an array with "
                          "shape (80600, 80600) and data type float64")

    monkeypatch.setitem(cli._COMMANDS, "train", (train, "fit"))
    assert cli.main(["train"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 48.4 GiB")
    assert len(err.splitlines()) == 1


def test_module_run_fails_with_one_line(tmp_path):
    # python -m slowfeat.cli must not find the module already imported
    # by the package, or runpy warns on stderr before the error line
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "slowfeat.cli", "train",
         "--data-dir", str(tmp_path / "nope")],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert done.stderr.startswith("error: ")


def test_package_loads_cli_on_first_use():
    import slowfeat
    assert slowfeat.cli is cli
    assert not hasattr(slowfeat, "nope")
    with pytest.raises(SlowFeatError, match="no attribute 'nope'"):
        slowfeat.nope


def test_every_subcommand_takes_config_and_one_flag_per_field():
    # no subcommand has an option of its own: each flag is a RunConfig
    # field, so a config file can say everything a command line can
    expected = sorted(["-h", "--help", "--config"]
                      + ["--" + field.replace("_", "-")
                         for field in config_module.field_names()])
    sub, = [a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["synth", "train", "featurize",
                                 "fit-classifier", "evaluate", "toy-sfa"]
    for name, parser in sub.choices.items():
        flags = [flag for action in parser._actions
                 for flag in action.option_strings]
        assert all(action.option_strings for action in parser._actions)
        assert sorted(flags) == expected, name


def test_main_runs_synth(tmp_path):
    data_dir = str(tmp_path / "data")
    code = cli.main(["synth", "--classes", "2", "--sequences-per-class", "2",
                     "--frames", "16", "--height", "24", "--width", "24",
                     "--train-per-class", "1", "--data-dir", data_dir])
    assert code == 0
    assert os.path.exists(os.path.join(data_dir, "manifest.txt"))


@pytest.mark.parametrize("command,flag", [
    ("synth", "--noise-sigma"), ("train", "--gamma"),
    ("fit-classifier", "--reg")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_flags_exit_1_before_any_work(tmp_path, capsys, command,
                                                  flag, value):
    data_dir = tmp_path / "data"
    assert cli.main([command, flag, value, "--data-dir", str(data_dir),
                     "--model-path", str(tmp_path / "model.sfam")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert flag[2:].replace("-", "_") in err
    assert not os.listdir(tmp_path)


# ---------------------------------------------------------------------------
# the names the benchmark reads


def test_cli_keeps_the_names_the_benchmark_reads():
    # the benchmark runs each stage as cli.cmd_*(config) and reads the
    # dataset through cli.load_manifest and cli.MANIFEST_NAME
    for name in ("cmd_synth", "cmd_train", "cmd_featurize",
                 "cmd_fit_classifier", "cmd_evaluate"):
        assert list(inspect.signature(getattr(cli, name)).parameters) \
            == ["config"]
    assert list(inspect.signature(cli.load_manifest).parameters) == ["path"]
    assert cli.MANIFEST_NAME == "manifest.txt"


def test_benchmark_keeps_the_names_the_benchmark_reads(tmp_path):
    # bench_config(seed, workdir, **workload) builds the run config,
    # artifact_paths(config) lists the files whose hashes are compared
    # and baseline_results(config) is a stage of its own
    config = benchmark.bench_config(0, str(tmp_path), strategy="sdsfa")
    assert config.strategy == "sdsfa" and config.seed == 0
    assert benchmark.artifact_paths(config) == [
        config.model_path, config.classifier_path, config.report_path,
        config.results_path]
    params = inspect.signature(benchmark.baseline_results).parameters
    assert list(params)[0] == "config"
    assert all(p.default is not p.empty for p in list(params.values())[1:])


def test_dataio_keeps_the_names_the_benchmark_reads():
    # the benchmark counts bytes read and written by every public
    # dataio.load_* and save_* from its argument named path
    names = [name for name, fn in vars(dataio).items()
             if name.startswith(("load_", "save_"))
             and inspect.isfunction(fn) and fn.__module__ == dataio.__name__]
    assert {"load_manifest", "save_manifest", "save_report"} <= set(names)
    for name in names:
        assert "path" in inspect.signature(getattr(dataio, name)).parameters


def test_run_strategy_returns_what_evaluate_wrote(tmp_path):
    cfg = desk_config(tmp_path, classes=2, sequences_per_class=3,
                      train_per_class=2, k_per_class=4, max_cuboids=60)
    cli.cmd_synth(cfg)
    results = benchmark.run_strategy(cfg)
    assert all(type(v) in (int, float, str) for v in results.values())
    again = tmp_path / "again.txt"
    dataio.save_results(again, results)
    assert again.read_bytes() == open(cfg.results_path, "rb").read()


# ---------------------------------------------------------------------------
# fault injection: each case exits 1 with one line on stderr


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Configs of a dsfa, a 2x1-grid sdsfa and a 1x3-grid sdsfa run
    (``sdsfa-1x3``) on one dataset, each taken through evaluate and
    saved as ``run.cfg`` next to its bank; a dsfa feature row is 8
    wide, a 2x1 sdsfa row 16."""
    root = tmp_path_factory.mktemp("runs")
    configs = {}
    for name, strategy, grid in (("dsfa", "dsfa", (2, 1)),
                                 ("sdsfa", "sdsfa", (2, 1)),
                                 ("sdsfa-1x3", "sdsfa", (1, 3))):
        run = root / name
        run.mkdir()
        cfg = desk_config(run, strategy=strategy, grid_nx=grid[0],
                          grid_ny=grid[1], classes=2, sequences_per_class=4,
                          train_per_class=2, k_per_class=4, max_cuboids=60,
                          data_dir=str(root / "data"))
        if not configs:
            cli.cmd_synth(cfg)
        benchmark.run_strategy(cfg)
        dataio.save_config(run / "run.cfg", cfg)
        configs[name] = cfg
    return configs


@pytest.mark.parametrize("strategy", ["dsfa", "sdsfa", "sdsfa-1x3"])
def test_classifier_rows_are_the_training_features_in_order(runs,
                                                           strategy):
    # fit-classifier's rows are the training sequences' features in
    # split order; on a grid of more than one column a row's mirror
    # comes right after it, and a one-column grid has none
    cfg = runs[strategy]
    bank = dataio.load_bank(cfg.model_path)
    train, _ = pipeline.split_entries(pipeline.load_entries(cfg), cfg)
    matrices, labels = [], []
    for entry in train:
        _, feats, label = dataio.load_features(
            os.path.join(cfg.features_dir, entry.sequence_id + ".sfaf"))
        matrices.append(np.vstack([f.values for f in feats]))
        labels.extend([label] * len(feats))
    rows, labels = np.vstack(matrices), np.array(labels)
    if bank.grid[0] > 1:
        rows = np.stack([rows, features.mirror_features(rows, bank.grid)],
                        axis=1).reshape(-1, bank.k_total)
        labels = np.repeat(labels, 2)
    expected = pipeline.train_classifier(cfg, rows, labels)
    clf = dataio.load_classifier(cfg.classifier_path)
    assert clf.class_labels == expected.class_labels
    assert clf.weights.tobytes() == expected.weights.tobytes()
    assert clf.biases.tobytes() == expected.biases.tobytes()


OUTPUTS = {"train": ["model_path"],
           "featurize": ["features_dir"],
           "fit-classifier": ["classifier_path"],
           "evaluate": ["report_path", "results_path"]}


def fails_with_one_line(capsys, command, config, tmp_path, **flags):
    """Run ``command`` on ``config`` with ``flags`` overriding its paths
    and its outputs moved into an empty directory; expect exit 1, one
    line on stderr and the directory still empty."""
    out = tmp_path / "out"
    out.mkdir()
    moved = {name: out / name for name in OUTPUTS[command]}
    argv = [command, "--config",
            os.path.join(os.path.dirname(config.model_path), "run.cfg")]
    for name, value in {**moved, **flags}.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: ")
    assert not os.listdir(out)
    return err


@pytest.mark.parametrize("own,other", [("dsfa", "sdsfa"),
                                       ("sdsfa", "dsfa")])
@pytest.mark.parametrize("command,swapped", [
    ("fit-classifier", "model_path"), ("fit-classifier", "features_dir"),
    ("evaluate", "model_path"), ("evaluate", "features_dir"),
    ("evaluate", "classifier_path")])
def test_files_from_another_strategys_run_fail_cleanly(
        runs, tmp_path, capsys, command, swapped, own, other):
    err = fails_with_one_line(capsys, command, runs[own], tmp_path,
                              **{swapped: getattr(runs[other], swapped)})
    if swapped != "classifier_path":
        # e.g. an sdsfa bank's class columns would run past a dsfa row
        widths = {"dsfa": 8, "sdsfa": 16}
        bank, feats = (other, own) if swapped == "model_path" else (own, other)
        assert f"{widths[feats]}-d features" in err
        assert f"{widths[bank]} outputs" in err


def test_cuboids_windowed_to_one_row_fail_cleanly(runs, tmp_path,
                                                  capsys):
    # delta_t == cuboid_d leaves one row per minisequence: no derivative
    cfg = runs["dsfa"]
    err = fails_with_one_line(capsys, "train", cfg, tmp_path,
                              delta_t=cfg.cuboid_d)
    assert "at least 2" in err


@pytest.mark.parametrize("flags", [{"cuboid_h": 12}, {"delta_t": 2}])
def test_cuboid_geometry_unlike_the_banks_fails_cleanly(runs, tmp_path,
                                                        capsys, flags):
    # the bank takes 8x8 patches over 3 frames, 192-d rows; a 12x8
    # cuboid would be windowed to 2 frames, or delta_t 2 ignored, without
    # a word.  The dataset holds only its manifest: the check comes
    # before any sequence is read.
    cfg = runs["dsfa"]
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    shutil.copy(os.path.join(cfg.data_dir, cli.MANIFEST_NAME), data_dir)
    err = fails_with_one_line(capsys, "featurize", cfg, tmp_path,
                              data_dir=data_dir, **flags)
    assert "takes 192-d rows" in err


@pytest.mark.parametrize("command", ["featurize", "fit-classifier",
                                     "evaluate"])
def test_missing_bank_fails_cleanly(runs, tmp_path, capsys, command):
    fails_with_one_line(capsys, command, runs["dsfa"], tmp_path,
                        model_path=tmp_path / "none.sfam")


def test_missing_classifier_fails_cleanly(runs, tmp_path, capsys):
    fails_with_one_line(capsys, "evaluate", runs["dsfa"], tmp_path,
                        classifier_path=tmp_path / "none.sfac")


@pytest.mark.parametrize("command", ["fit-classifier", "evaluate"])
def test_missing_feature_file_fails_cleanly(runs, tmp_path, capsys,
                                            command):
    cfg = runs["dsfa"]
    entries = cli.load_manifest(os.path.join(cfg.data_dir, "manifest.txt"))
    train, test = pipeline.split_entries(entries, cfg)
    gone = (train if command == "fit-classifier" else test)[0]
    features_dir = tmp_path / "features"
    shutil.copytree(cfg.features_dir, features_dir)
    os.remove(features_dir / (gone.sequence_id + ".sfaf"))
    err = fails_with_one_line(capsys, command, cfg, tmp_path,
                              features_dir=features_dir)
    assert gone.sequence_id in err


@pytest.mark.parametrize("command", ["fit-classifier", "evaluate"])
def test_feature_file_with_a_nan_fails_cleanly(runs, tmp_path, capsys,
                                               command):
    cfg = runs["dsfa"]
    entries = cli.load_manifest(os.path.join(cfg.data_dir, "manifest.txt"))
    train, test = pipeline.split_entries(entries, cfg)
    bad = (train if command == "fit-classifier" else test)[0]
    features_dir = tmp_path / "features"
    shutil.copytree(cfg.features_dir, features_dir)
    path = features_dir / (bad.sequence_id + ".sfaf")
    sequence_id, feats, label = dataio.load_features(path)
    feats[0].values[0] = np.nan
    dataio.save_features(path, sequence_id, feats, label)
    err = fails_with_one_line(capsys, command, cfg, tmp_path,
                              features_dir=features_dir)
    assert str(path) in err


def moved_outputs(config, command, tmp_path, **paths):
    """``config`` with the outputs of ``command`` in ``tmp_path`` and
    ``paths`` overriding its inputs."""
    outputs = {name: str(tmp_path / name) for name in OUTPUTS[command]}
    return dataclasses.replace(config, **outputs, **paths)


@pytest.mark.parametrize("command", ["fit-classifier", "evaluate"])
def test_feature_file_unlike_its_manifest_entry_fails_cleanly(
        runs, tmp_path, command):
    cfg = runs["dsfa"]
    entries = cli.load_manifest(os.path.join(cfg.data_dir, "manifest.txt"))
    train, test = pipeline.split_entries(entries, cfg)
    bad = (train if command == "fit-classifier" else test)[0]
    features_dir = tmp_path / "features"
    shutil.copytree(cfg.features_dir, features_dir)
    path = features_dir / (bad.sequence_id + ".sfaf")
    sequence_id, feats, label = dataio.load_features(path)
    dataio.save_features(path, sequence_id, feats, label + 1)
    stage = {"fit-classifier": pipeline.cmd_fit_classifier,
             "evaluate": pipeline.cmd_evaluate}[command]
    what = f"does not match manifest entry {bad.sequence_id}"
    with pytest.raises(InvalidInput, match=what):
        stage(moved_outputs(cfg, command, tmp_path,
                            features_dir=str(features_dir)))


def test_a_test_sequence_without_snippets_fails_evaluate_cleanly(
        runs, tmp_path):
    cfg = runs["dsfa"]
    entries = cli.load_manifest(os.path.join(cfg.data_dir, "manifest.txt"))
    empty = pipeline.split_entries(entries, cfg)[1][0]
    features_dir = tmp_path / "features"
    shutil.copytree(cfg.features_dir, features_dir)
    dataio.save_features(features_dir / (empty.sequence_id + ".sfaf"),
                         empty.sequence_id, [], empty.label)
    with pytest.raises(InvalidInput,
                       match=f"{empty.sequence_id} has no features"):
        pipeline.cmd_evaluate(moved_outputs(cfg, "evaluate", tmp_path,
                                            features_dir=str(features_dir)))


def test_classifier_with_a_nan_weight_fails_cleanly(runs, tmp_path,
                                                    capsys):
    cfg = runs["dsfa"]
    clf = dataio.load_classifier(cfg.classifier_path)
    clf.weights[0, 0] = np.nan
    path = tmp_path / "nan.sfac"
    dataio.save_classifier(path, clf)
    err = fails_with_one_line(capsys, "evaluate", cfg, tmp_path,
                              classifier_path=path)
    assert str(path) in err


@pytest.mark.parametrize("command", ["featurize", "fit-classifier",
                                     "evaluate"])
def test_version_1_bank_fails_cleanly(runs, tmp_path, capsys, command):
    cfg = runs["dsfa"]
    raw = bytearray(open(cfg.model_path, "rb").read())
    raw[4:8] = struct.pack("<I", 1)
    old = tmp_path / "old.sfam"
    old.write_bytes(bytes(raw))
    err = fails_with_one_line(capsys, command, cfg, tmp_path, model_path=old)
    assert "bank version 1" in err


@pytest.mark.parametrize("command", ["featurize", "fit-classifier",
                                     "evaluate"])
def test_version_2_bank_fails_cleanly(runs, tmp_path, capsys, command):
    cfg = runs["dsfa"]
    raw = bytearray(open(cfg.model_path, "rb").read())
    raw[4:8] = struct.pack("<I", 2)
    old = tmp_path / "old.sfam"
    old.write_bytes(bytes(raw))
    err = fails_with_one_line(capsys, command, cfg, tmp_path, model_path=old)
    assert f"{old}: bank version 2, supported 3" in err


def with_static_videos(config, tmp_path, sequence_ids):
    """A copy of the run's dataset in which each named sequence is one
    textured frame repeated: not constant, but without any motion."""
    data_dir = tmp_path / "data"
    shutil.copytree(config.data_dir, data_dir)
    rng = np.random.default_rng(0)
    for entry in cli.load_manifest(data_dir / cli.MANIFEST_NAME):
        if entry.sequence_id in sequence_ids:
            path = data_dir / entry.video
            t, h, w = dataio.load_sequence(path).shape
            frame = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            dataio.save_sequence(path, np.repeat(frame[None], t, axis=0))
    return data_dir


def test_static_video_gets_zero_features(runs, tmp_path, capsys):
    cfg = runs["dsfa"]
    entries = cli.load_manifest(os.path.join(cfg.data_dir, "manifest.txt"))
    static = entries[0].sequence_id
    data_dir = with_static_videos(cfg, tmp_path, {static})
    features_dir = tmp_path / "features"
    argv = ["featurize", "--config",
            os.path.join(os.path.dirname(cfg.model_path), "run.cfg"),
            "--data-dir", str(data_dir), "--features-dir", str(features_dir)]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    still = 0
    for entry in entries:
        _, feats, _ = dataio.load_features(
            features_dir / (entry.sequence_id + ".sfaf"))
        assert feats
        if entry.sequence_id == static:
            assert not any(f.normalized or f.values.any() for f in feats)
        else:
            assert any(f.normalized for f in feats)
        still += sum(not f.values.any() for f in feats)
    # the summary counts the snippets that had no motion
    assert f"({still} without motion, unnormalized)" in out


def test_training_split_without_motion_fails_cleanly(runs, tmp_path,
                                                     capsys):
    cfg = runs["dsfa"]
    entries = cli.load_manifest(os.path.join(cfg.data_dir, "manifest.txt"))
    train, _ = pipeline.split_entries(entries, cfg)
    data_dir = with_static_videos(cfg, tmp_path,
                                  {e.sequence_id for e in train})
    err = fails_with_one_line(capsys, "train", cfg, tmp_path,
                              data_dir=data_dir)
    assert "no training cuboids" in err


@pytest.mark.parametrize("flags,what", [
    ({"cuboid_h": 33}, "cuboid 33x8x6 does not fit 32x40 frames of {}"),
    ({"cuboid_d": 30}, "cuboid depth 30 needs 31 frames; {} has 30")],
    ids=["too-tall", "too-deep"])
def test_cuboid_too_large_for_the_videos_names_its_cause(
        runs, tmp_path, capsys, flags, what):
    # the run's 30-frame 32x40 videos, where a depth of 29 would fit
    cfg = runs["dsfa"]
    entries = cli.load_manifest(os.path.join(cfg.data_dir, "manifest.txt"))
    train, _ = pipeline.split_entries(entries, cfg)
    err = fails_with_one_line(capsys, "train", cfg, tmp_path, **flags)
    assert err == f"error: {what.format(train[0].sequence_id)}\n"


def test_featurize_on_videos_smaller_than_the_banks_cuboid(runs, tmp_path,
                                                           capsys):
    # the bank's cuboids are 8x8; each video keeps its top 7 rows and a
    # box that fits them
    cfg = runs["dsfa"]
    data_dir = tmp_path / "data"
    shutil.copytree(cfg.data_dir, data_dir)
    entries = cli.load_manifest(data_dir / cli.MANIFEST_NAME)
    for entry in entries:
        path = data_dir / entry.video
        dataio.save_sequence(path, dataio.load_sequence(path)[:, :7])
        (data_dir / entry.annotation).write_text("0 0 0 40 7\n")
    err = fails_with_one_line(capsys, "featurize", cfg, tmp_path,
                              data_dir=data_dir)
    assert err == (f"error: cuboid 8x8x6 does not fit 7x40 frames of "
                   f"{entries[0].sequence_id}\n")


@pytest.mark.parametrize("command", ["train", "fit-classifier", "evaluate"])
def test_negative_manifest_label_names_the_manifest(runs, tmp_path,
                                                    capsys, command):
    # the dataset holds only its manifest: the stages read it first
    cfg = runs["dsfa"]
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    manifest = data_dir / cli.MANIFEST_NAME
    entries = cli.load_manifest(os.path.join(cfg.data_dir,
                                             cli.MANIFEST_NAME))
    dataio.save_manifest(manifest, [
        e._replace(label=-1) if e.label == 0 else e for e in entries])
    err = fails_with_one_line(capsys, command, cfg, tmp_path,
                              data_dir=data_dir)
    first = [e.label for e in entries].index(0) + 1
    assert err == f"error: {manifest}: line {first}: negative label -1\n"


@pytest.mark.parametrize("line,what", [
    ("0 0 0 0 10", "line 1: degenerate box '0 0 0 0 10'"),
    ("0 30 0 20 10", "the box of frame 0 falls outside the 32x40 frame")],
    ids=["degenerate", "outside-the-frame"])
def test_bad_annotation_names_its_file(runs, tmp_path, capsys, line,
                                       what):
    # a 32x40 video whose first training sequence has a bad box
    cfg = runs["dsfa"]
    data_dir = tmp_path / "data"
    shutil.copytree(cfg.data_dir, data_dir)
    entries = cli.load_manifest(data_dir / cli.MANIFEST_NAME)
    train, _ = pipeline.split_entries(entries, cfg)
    path = data_dir / train[0].annotation
    path.write_text(line + "\n")
    err = fails_with_one_line(capsys, "train", cfg, tmp_path,
                              data_dir=data_dir)
    assert err.startswith(f"error: {path}: ") and what in err


def test_featurize_failing_on_the_first_sequence_writes_nothing(
        runs, tmp_path, capsys):
    cfg = runs["dsfa"]
    data_dir = tmp_path / "data"
    shutil.copytree(cfg.data_dir, data_dir)
    entries = cli.load_manifest(data_dir / cli.MANIFEST_NAME)
    (data_dir / entries[0].annotation).write_text("0 0 0 0 10\n")
    err = fails_with_one_line(capsys, "featurize", cfg, tmp_path,
                              data_dir=data_dir)
    assert "degenerate box" in err


def test_featurize_failing_on_a_later_sequence_keeps_the_old_files(
        runs, tmp_path, capsys):
    # the files of an earlier run stay as they were: none is replaced
    # by the failed run's features of the sequences before the bad one
    cfg = runs["dsfa"]
    data_dir = tmp_path / "data"
    shutil.copytree(cfg.data_dir, data_dir)
    entries = cli.load_manifest(data_dir / cli.MANIFEST_NAME)
    (data_dir / entries[-1].annotation).write_text("0 0 0 0 10\n")
    features_dir = tmp_path / "features"
    features_dir.mkdir()
    for entry in entries:
        (features_dir / (entry.sequence_id + ".sfaf")).write_bytes(b"old")
    argv = ["featurize", "--config",
            os.path.join(os.path.dirname(cfg.model_path), "run.cfg"),
            "--data-dir", str(data_dir), "--features-dir", str(features_dir)]
    assert cli.main(argv) == 1
    assert "degenerate box" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["data", "features"]
    assert {p.read_bytes() for p in features_dir.iterdir()} == {b"old"}
    assert len(os.listdir(features_dir)) == len(entries)


def test_removed_delta_flag_is_not_read_as_delta_t(capsys):
    # flags are never abbreviated: --delta is not a prefix of --delta-t
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--delta", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --delta 3" in capsys.readouterr().err
