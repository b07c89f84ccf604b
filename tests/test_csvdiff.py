import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

import csvdiff  # noqa: E402


def write(directory, name, text):
    path = directory / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


@pytest.fixture
def run_a(tmp_path):
    root = tmp_path / "a"
    write(root, "point_000/sweep.csv", "sigma,p,status\n0,0.25,ok\n0.01,,error: X\n")
    return root


def test_identical_runs_pass(run_a, capsys):
    assert csvdiff.main([str(run_a), str(run_a)]) == 0
    assert "point_000/sweep.csv  p  0.000e+00" in capsys.readouterr().out


@pytest.mark.parametrize("atol, code", [(1e-3, 0), (1e-5, 1)])
def test_numeric_deviation_against_atol(run_a, tmp_path, capsys, atol, code):
    write(tmp_path / "b", "point_000/sweep.csv",
          "sigma,p,status\n0,0.2501,ok\n0.01,,error: X\n")
    assert csvdiff.main([str(run_a), str(tmp_path / "b"), "--atol", str(atol)]) == code
    assert "point_000/sweep.csv  p  1.000e-04" in capsys.readouterr().out


@pytest.mark.parametrize("text, message", [
    ("sigma,p,status\n0,0.25,ok\n0.01,,error: Y\n", "1 text cells differ"),
    ("sigma,p,status\n0,0.25,ok\n", "row counts differ"),
    ("sigma,q,status\n0,0.25,ok\n0.01,,error: X\n", "headers differ"),
])
def test_structural_differences_fail(run_a, tmp_path, capsys, text, message):
    write(tmp_path / "b", "point_000/sweep.csv", text)
    assert csvdiff.main([str(run_a), str(tmp_path / "b"), "--atol", "1"]) == 1
    assert message in capsys.readouterr().out


def test_missing_file_fails(run_a, tmp_path, capsys):
    (tmp_path / "b").mkdir()
    assert csvdiff.main([str(run_a), str(tmp_path / "b")]) == 1
    assert "only under" in capsys.readouterr().out
