import importlib.util
import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "run_benchmark.py")


def load_script():
    spec = importlib.util.spec_from_file_location("run_benchmark", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_benchmark_rejects_fewer_than_one_seed(capsys):
    # a table of no seeds would divide its mean row by zero
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--seeds", "0"])
    assert exc.value.code == 2
    assert "--seeds: must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("names", ["foo", "dsfa,foo", ",", ""])
def test_run_benchmark_rejects_a_strategy_list_it_cannot_run(capsys, names):
    # a list that names no strategy, or one the package lacks, is a
    # usage error, caught before any dataset is written
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--strategies", names, "--no-baseline"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--strategies: need one or more of usfa, ssfa, dsfa, sdsfa" in err


def test_run_benchmark_imports_the_checkouts_own_package(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, SCRIPT, "--help"], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "--seeds" in done.stdout


def test_run_benchmark_prints_the_blas_thread_settings(capsys, tmp_path,
                                                       monkeypatch):
    # the table's bytes hold only at one BLAS thread count, so it
    # states the settings above the table
    script = load_script()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    results = {"sequence_accuracy": 1.0, "average_selectivity": 2.0}
    monkeypatch.setattr(script.benchmark, "run_benchmark",
                        lambda *args, **kw: {"strategies": {"dsfa": results}})
    assert script.main(["--seeds", "1", "--strategies", "dsfa",
                        "--no-baseline", "--workdir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    table = lines.index("OPENBLAS_NUM_THREADS=1")
    assert lines[table + 1] == "OMP_NUM_THREADS=(unset)"
    assert lines[table + 2].split() == ["seed", "dsfa", "acc", "dsfa", "sel"]
