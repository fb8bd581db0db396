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
