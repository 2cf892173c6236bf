"""``scripts/bitcheck.py``'s comparison of two trees' checks; no tree is run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bitcheck.py"


@pytest.fixture(scope="module")
def bitcheck():
    spec = importlib.util.spec_from_file_location("bitcheck", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_moved_names_in_sorted_order(bitcheck, capsys):
    parent = {"zeta": "1", "alpha": "1", "mid": "1"}
    change = {"zeta": "2", "alpha": "2", "mid": "1"}
    assert bitcheck.compare(parent, change) == ["alpha", "zeta"]
    assert capsys.readouterr().out.splitlines() == ["MOVED alpha", "same  mid", "MOVED zeta"]


def test_check_on_one_side_only_is_moved(bitcheck, capsys):
    moved = bitcheck.compare({"both": "x", "gone": "y"}, {"both": "x", "new": "z"})
    assert moved == ["gone", "new"]
    out = capsys.readouterr().out
    assert "MOVED gone" in out and "MOVED new" in out and "same  both" in out


def test_identical_checks_move_nothing(bitcheck, capsys):
    checks = {"a": "1\n2\n", "b": "digest"}
    assert bitcheck.compare(checks, dict(checks)) == []
    assert "MOVED" not in capsys.readouterr().out


def test_moved_stdout_prints_unified_diff(bitcheck, capsys):
    before = "episodes 200\nacc 0.5012\nexit 0\n"
    after = "episodes 200\nacc 0.5013\nexit 0\n"
    assert bitcheck.compare({"eval": before}, {"eval": after}) == ["eval"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "MOVED eval"
    diff = [line.strip() for line in lines[1:]]
    assert diff[:2] == ["--- parent", "+++ change"]
    assert "-acc 0.5012" in diff and "+acc 0.5013" in diff


def test_single_line_digests_print_no_diff(bitcheck, capsys):
    assert bitcheck.compare({"d": "aa"}, {"d": "bb"}) == ["d"]
    assert capsys.readouterr().out.splitlines() == ["MOVED d"]
