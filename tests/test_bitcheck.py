"""``scripts/bitcheck.py``'s comparison of two trees' checks, and its
pair-layer digests of the tree under test; no other tree is run."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from momalign import alignment

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


def test_pair_digests_name_every_representation_and_output(bitcheck):
    digests = bitcheck.pair_digests()
    assert sorted(digests) == sorted(
        f"pair {rep} {out}" for rep in bitcheck.REPRESENTATIONS for out in bitcheck.PAIR_OUTPUTS
    )
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests.values())
    assert bitcheck.pair_digests() == digests


def test_pairs_mix_lengths_and_scale_by_2_to_minus_40(bitcheck, monkeypatch):
    pairs = []
    real = alignment.similarity_matrix

    def spy(q, s):
        pairs.append((len(q), len(s), np.frexp(np.abs(q.vectors).max())[1]))
        return real(q, s)

    monkeypatch.setattr(alignment, "similarity_matrix", spy)
    bitcheck.pair_digests()
    assert len(pairs) == len(bitcheck.REPRESENTATIONS) * len(bitcheck.PAIRS)
    assert {(lq, ls) for lq, ls, _ in pairs} >= {(18, 18), (18, 24), (8, 8), (8, 10)}
    assert min(exponent for _, _, exponent in pairs) < -30


def test_one_ulp_in_similarity_moves_its_digests(bitcheck, monkeypatch, capsys):
    before = bitcheck.pair_digests()
    real = alignment.similarity_matrix
    monkeypatch.setattr(
        alignment, "similarity_matrix", lambda q, s: np.nextafter(real(q, s), 2.0)
    )
    moved = bitcheck.compare(before, bitcheck.pair_digests())
    assert {f"pair {rep} similarity_matrix" for rep in bitcheck.REPRESENTATIONS} <= set(moved)
    assert not any("marginal_masses" in name for name in moved)
