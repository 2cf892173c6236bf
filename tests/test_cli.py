"""Command-line front end: exit codes, report formats, reproducibility."""

import hashlib
import re
import shlex
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from momalign import seqio, synthgen
from momalign.cli import RunConfig, build_parser, build_run_config, load_config, main
from momalign.episode import METRICS
from momalign.seqio import Manifest, ManifestEntry
from test_seqio import assert_parses_or_names_line, text_files


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    cfg = out / "synth.cfg"
    cfg.write_text(
        "# small, fast dataset\n"
        "classes = 6\n"
        "subactions = 2\n"
        "noise = 0.05\n"
        "distractor = 0.0\n"
        "instances_per_class = 3\n"
    )
    code = main(["synth", "--config", str(cfg), "--out", str(out / "data")])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def mixed_lengths(tmp_path_factory):
    """A manifest whose three classes each hold two T=8 and two T=10 clips,
    named ``t8_<clip>`` and ``t10_<clip>``."""
    root = tmp_path_factory.mktemp("mixed")
    entries = []
    for frames in (8, 10):
        cfg = root / f"t{frames}.cfg"
        cfg.write_text(f"classes = 3\ninstances_per_class = 2\nframes = {frames}\n")
        assert main(["synth", "--config", str(cfg), "--out", str(root / f"t{frames}")]) == 0
        for e in seqio.read_manifest(root / f"t{frames}" / "manifest.tsv").entries:
            entries.append(
                ManifestEntry(f"t{frames}_{e.clip_id}", e.label, f"t{frames}/{e.path}")
            )
    seqio.write_manifest(Manifest(tuple(entries)), root / "manifest.tsv")
    return root / "manifest.tsv"


def truncate_clip(path):
    path.write_bytes(path.read_bytes()[:-16])


def drop_clip_tensor(path):
    seqio.write_container({"labels": seqio.read_container(path)["labels"]}, path)


def nan_clip(path):
    tensors = seqio.read_container(path)
    tensors["clip"].flat[0] = np.nan
    seqio.write_container(tensors, path)


def zero_channel_clip(path):
    tensors = seqio.read_container(path)
    tensors["clip"] = tensors["clip"][:, :0]
    seqio.write_container(tensors, path)


F32_MAX = float(np.finfo(np.float32).max)
BEYOND_F32 = "FeatureClip: entries beyond the float32 range (|x| > 3.402823e+38)"


def rescale_clip(path, factor):
    """Store the clip as float64 times ``factor``; ``None`` scales it so that
    its largest magnitude is exactly the float32 maximum."""
    tensors = seqio.read_container(path)
    x = tensors["clip"].astype(np.float64)
    if factor is None:
        i = int(np.argmax(np.abs(x)))
        x *= F32_MAX / abs(x.flat[i])
        x.flat[i] = np.copysign(F32_MAX, x.flat[i])
    else:
        x *= factor
    tensors["clip"] = x
    seqio.write_container(tensors, path)


def rescaled_copy(src, dst, factor):
    """A copy of the dataset directory ``src`` at ``dst`` with every clip
    rescaled by :func:`rescale_clip`."""
    shutil.copytree(src, dst)
    for clip in (dst / "clips").iterdir():
        rescale_clip(clip, factor)
    return dst


@pytest.fixture(scope="module")
def paper_dataset(tmp_path_factory):
    """Four T=6 clips with the full-size 2048 input channels."""
    out = tmp_path_factory.mktemp("paper")
    cfg = out / "paper.cfg"
    cfg.write_text("classes = 2\ninstances_per_class = 2\nframes = 6\n")
    argv = ["synth", "--paper-dims", "--config", str(cfg), "--out", str(out / "data")]
    assert main(argv) == 0
    return out / "data"


class TestConfig:
    def test_load_key_value(self, tmp_path):
        p = tmp_path / "c.cfg"
        for newline in ("\n", "\r\n", "\r"):
            lines = ["# comment", "ways = 3", "", "taus = 1,3", "metrics = a2,pp", ""]
            p.write_bytes(newline.join(lines).encode())
            raw = load_config(p)
            assert raw == {"ways": "3", "taus": "1,3", "metrics": "a2,pp"}
        # A leading byte-order mark is not part of the first key.
        p.write_bytes("\ufeffways = 3\n".encode())
        assert load_config(p) == {"ways": "3"}
        # List items are stripped, in a config file and in a flag.
        for metrics in ("a2,pp", "a2, pp"):
            p.write_text(f"metrics = {metrics}\n")
            for argv in (["--config", str(p)], ["--metric", metrics]):
                args = build_parser().parse_args(["eval", "--manifest", "x", *argv])
                assert build_run_config(args).metrics == ("a2", "pp")

    @settings(max_examples=300, deadline=None)
    @given(data=text_files())
    def test_fuzzed_text_names_file_and_line(self, data, tmp_path_factory):
        d = tmp_path_factory.getbasetemp() / "fuzz"
        d.mkdir(exist_ok=True)
        assert_parses_or_names_line(load_config, ValueError, data, d / "c.cfg")

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("ways\n")
        with pytest.raises(ValueError, match=":1"):
            load_config(p)

    def test_defaults_valid(self):
        cfg = RunConfig()
        scales = cfg.scale_configs()
        assert [s.tau for s in scales] == [1, 3, 5]
        assert [s.grid for s in scales] == [1, 3, 5]
        assert isinstance(cfg, synthgen.SynthConfig)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # scale_configs is a RunConfig attribute but not a field.
        for key in ("bogus", "scale_configs"):
            p = tmp_path / "c.cfg"
            p.write_text(f"{key} = 1\n")
            code, _, err = run_cli(capsys, "eval", "--config", str(p), "--manifest", "x")
            assert code != 0
            assert key in err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("ways = 3\n# again\nways = 4\n", ":3: duplicate key 'ways'"),
            ("ways\n", ":1: expected key=value"),
            ("ways = 3\n# caf\xe9\n", ":2: config is not valid UTF-8"),
            # CR-only line ends count lines as they split them.
            ("ways = 3\r# caf\xe9\r", ":2: config is not valid UTF-8"),
        ],
    )
    def test_bad_line_names_file_once(self, tmp_path, capsys, text, where):
        p = tmp_path / "c.cfg"
        p.write_text(text, encoding="latin-1")
        code, out, err = run_cli(capsys, "eval", "--config", str(p), "--manifest", "x")
        assert (code, out) == (1, "")
        assert err == f"error: {p}{where}\n"

    def test_only_newlines_end_a_line(self, tmp_path):
        # A form feed or U+2028 is part of its line, not a line end.
        for sep in ("\f", "\u2028"):
            p = tmp_path / "c.cfg"
            p.write_text(f"ways = 3{sep}shots = 1\n", encoding="utf-8")
            assert load_config(p) == {"ways": f"3{sep}shots = 1"}

    def test_bad_value_names_file_and_key(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("episodes = abc\n")
        code, _, err = run_cli(capsys, "eval", "--config", str(p), "--manifest", "x")
        assert code != 0
        assert f"{p}: key 'episodes': " in err
        assert "'abc'" in err

    def test_negative_top_pairs_rejected(self, dataset, tmp_path, capsys):
        p = tmp_path / "top.cfg"
        p.write_text("top_pairs = -1\n")
        clip = str(dataset / "data" / "clips" / "c000_i000.fsq")
        code, out, err = run_cli(capsys, "align", "--config", str(p), clip, clip)
        assert code == 1
        assert out == ""
        assert err == f"error: {p}: key 'top_pairs': must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["synth", "align", "eval", "ablate"])
    @pytest.mark.parametrize(
        "where, reason", [("missing", "No such file or directory"), ("directory", "Is a directory")]
    )
    def test_unreadable_config_fails_without_traceback(
        self, tmp_path, capsys, command, where, reason
    ):
        config = tmp_path / "no" / "such.cfg" if where == "missing" else tmp_path
        rest = {
            "synth": ["--out", str(tmp_path / "out")],
            "align": ["/no/a.fsq", "/no/b.fsq"],
            "eval": ["--manifest", "/no/manifest.tsv"],
            "ablate": ["--manifest", "/no/manifest.tsv"],
        }[command]
        code, out, err = run_cli(capsys, command, "--config", str(config), *rest)
        assert code == 1
        assert out == ""
        assert err == f"error: {config}: {reason}\n"
        assert not (tmp_path / "out").exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        p = tmp_path / "seed.cfg"
        p.write_text("seed = -1\n")
        code, out, err = run_cli(capsys, "synth", "--config", str(p), "--out", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == f"error: {p}: key 'seed': must be >= 0, got -1\n"
        code, out, err = run_cli(capsys, "eval", "--seed", "-1", "--manifest", "/no/m.tsv")
        assert (code, out) == (1, "")
        assert err == "error: key 'seed': must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("taus = -1,3,5", "tau must be >= 1, got -1"),
            ("grids = -1,3,5", "grid side must be odd and >= 1, got -1"),
        ],
    )
    def test_negative_scale_rejected(self, dataset, tmp_path, capsys, line, reason):
        p = tmp_path / "scale.cfg"
        p.write_text(line + "\n")
        clip = str(dataset / "data" / "clips" / "c000_i000.fsq")
        code, out, err = run_cli(capsys, "align", "--config", str(p), clip, clip)
        assert (code, out) == (1, "")
        assert err == f"error: ScaleConfig: {reason}\n"

    @pytest.mark.parametrize("command", ["eval", "align", "ablate"])
    @pytest.mark.parametrize(
        "line, reason",
        [
            ("noise = nan", "noise must be finite, got nan"),
            ("frames = 0", "frames must be >= 1, got 0"),
        ],
    )
    def test_bad_synthetic_value_fails_every_command(
        self, dataset, tmp_path, capsys, command, line, reason
    ):
        # The generator's settings are part of every run's settings, so a
        # bad one fails a command that never generates a clip.
        p = tmp_path / "bad.cfg"
        p.write_text(line + "\n")
        clip = str(dataset / "data" / "clips" / "c000_i000.fsq")
        manifest = str(dataset / "data" / "manifest.tsv")
        rest = {
            "eval": ["--manifest", manifest, "--episodes", "1"],
            "align": [clip, clip],
            "ablate": ["--manifest", manifest, "--episodes", "1"],
        }[command]
        code, out, err = run_cli(capsys, command, "--config", str(p), *rest)
        assert (code, out) == (1, "")
        assert err == f"error: {p}: SynthConfig: {reason}\n"


class TestSynth:
    def test_writes_dataset(self, dataset):
        assert (dataset / "data" / "manifest.tsv").exists()

    def test_same_seed_identical_hash(self, tmp_path, capsys):
        for sub in ("a", "b"):
            code, _, _ = run_cli(
                capsys, "synth", "--seed", "7", "--out", str(tmp_path / sub)
            )
            assert code == 0
        ha = hashlib.sha256((tmp_path / "a" / "manifest.tsv").read_bytes()).hexdigest()
        hb = hashlib.sha256((tmp_path / "b" / "manifest.tsv").read_bytes()).hexdigest()
        assert ha == hb
        clips_a = sorted((tmp_path / "a" / "clips").iterdir())
        clips_b = sorted((tmp_path / "b" / "clips").iterdir())
        for pa, pb in zip(clips_a, clips_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_unwritable_path_fails_with_context(self, capsys):
        code, _, err = run_cli(
            capsys, "synth", "--out", "/proc/definitely/not/writable"
        )
        assert code != 0
        assert "/proc/definitely/not/writable" in err

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("jitter = nan", "jitter must be finite, got nan"),
            ("noise = nan", "noise must be finite, got nan"),
            ("distractor = inf", "distractor must be finite, got inf"),
            ("instances_per_class = 0", "instances_per_class must be >= 1, got 0"),
        ],
    )
    def test_bad_value_names_field(self, tmp_path, capsys, line, reason):
        p = tmp_path / "bad.cfg"
        p.write_text(line + "\n")
        out_dir = tmp_path / "data"
        code, out, err = run_cli(capsys, "synth", "--config", str(p), "--out", str(out_dir))
        assert (code, out) == (1, "")
        assert err == f"error: {p}: SynthConfig: {reason}\n"
        assert not out_dir.exists()

    def test_config_file_matches_direct_synth_config(self, tmp_path, capsys):
        # The CLI hands the generator the same settings as a SynthConfig
        # built from the config file's values.
        values = dict(
            classes=4, frames=10, jitter=1.5, reorder=0.25, noise=0.2, distractor=0.5,
            instances_per_class=3,
        )
        p = tmp_path / "c.cfg"
        p.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        code, _, _ = run_cli(
            capsys, "synth", "--config", str(p), "--seed", "5", "--out", str(tmp_path / "cli")
        )
        assert code == 0
        synthgen.generate_dataset(synthgen.SynthConfig(**values, seed=5), tmp_path / "direct")
        clips = [f"clips/c{c:03d}_i{i:03d}.fsq" for c in range(4) for i in range(3)]
        names = sorted(["manifest.tsv", *clips])
        cli, direct = tmp_path / "cli", tmp_path / "direct"
        for root in (cli, direct):
            files = sorted(q.relative_to(root).as_posix() for q in root.rglob("*") if q.is_file())
            assert files == names
        for name in names:
            assert (cli / name).read_bytes() == (direct / name).read_bytes()

    def test_unallocatable_clip_is_one_error_line(self, tmp_path, capsys):
        # The clip's int64 label array of 1e17 entries is 711 PiB in one
        # request, past any x86-64 user address space, so it is refused.
        p = tmp_path / "huge.cfg"
        p.write_text("frames = 100000000000000000\n")
        out_dir = tmp_path / "data"
        code, out, err = run_cli(capsys, "synth", "--config", str(p), "--out", str(out_dir))
        assert (code, out) == (1, "")
        assert err == (
            "error: out of memory: generate_dataset: clip c000_i000 "
            "(frames=100000000000000000 c_in=64 height=6 width=6)\n"
        )
        assert not out_dir.exists()

    def test_unallocatable_latents_are_one_error_line(self, tmp_path, capsys):
        # c_in = 1e15 asks for a (1e15, 16) float64 latent draw, 114 PiB in
        # one request, past any x86-64 user address space, so it is refused.
        p = tmp_path / "deep.cfg"
        p.write_text("c_in = 1000000000000000\n")
        out_dir = tmp_path / "data"
        code, out, err = run_cli(capsys, "synth", "--config", str(p), "--out", str(out_dir))
        assert (code, out) == (1, "")
        assert err.startswith(
            "error: out of memory: generate_class_library: latents "
            "(c_in=1000000000000000 classes=8 subactions=2): Unable to allocate "
        )
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "noise, reason",
        [
            pytest.param("1e39", BEYOND_F32, id="1e39-beyond-float32"),
            ("1e308", "FeatureClip: non-finite entries"),
        ],
    )
    def test_unstorable_clip_fails_naming_it(self, tmp_path, capsys, noise, reason):
        p = tmp_path / "loud.cfg"
        p.write_text(f"noise = {noise}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "synth", "--config", str(p), "--out", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == f"error: generate_dataset: clip c000_i000: {reason}\n"
        assert not (tmp_path / "clips" / "c000_i000.fsq").exists()

    def test_failed_synth_leaves_out_as_it_was(self, tmp_path, capsys):
        p = tmp_path / "loud.cfg"
        p.write_text("noise = 1e39\n")
        fresh = tmp_path / "fresh" / "data"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "synth", "--config", str(p), "--out", str(fresh))
        assert (code, out) == (1, "")
        assert not (tmp_path / "fresh").exists()
        assert run_cli(capsys, "synth", "--out", str(fresh))[0] == 0
        manifest = (fresh / "manifest.tsv").read_bytes()
        code, _, _ = run_cli(capsys, "synth", "--config", str(p), "--out", str(fresh))
        assert code == 1
        assert (fresh / "manifest.tsv").read_bytes() == manifest
        assert not [q for q in (fresh / "clips").iterdir() if not q.name.endswith(".fsq")]


class TestAlign:
    def test_unallocatable_weights_are_one_error_line(self, dataset, tmp_path, capsys):
        # c_prime = 1e15 asks for a (64, 1e15) float64 channel map, 455 PiB in
        # one request, past any x86-64 user address space, so it is refused.
        p = tmp_path / "wide.cfg"
        p.write_text("c_prime = 1000000000000000\n")
        clip = str(dataset / "data" / "clips" / "c000_i000.fsq")
        code, out, err = run_cli(capsys, "align", "--config", str(p), clip, clip)
        assert (code, out) == (1, "")
        assert err.startswith(
            "error: out of memory: scale weights (c_in=64 c_prime=1000000000000000 c_out=16): "
            "Unable to allocate "
        )
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_self_alignment_score_one(self, dataset, capsys):
        clip = str(dataset / "data" / "clips" / "c000_i000.fsq")
        code, out, _ = run_cli(capsys, "align", clip, clip)
        assert code == 0
        score = float(next(l for l in out.splitlines() if l.startswith("score")).split("\t")[1])
        assert abs(score - 1.0) < 1e-6

    def test_report_structure(self, dataset, capsys):
        a = str(dataset / "data" / "clips" / "c000_i000.fsq")
        b = str(dataset / "data" / "clips" / "c001_i000.fsq")
        code, out, _ = run_cli(capsys, "align", a, b)
        assert code == 0
        lines = out.splitlines()
        assert any(l.startswith("descriptors\tL=18\t") for l in lines)
        assert any(l.startswith("mu\t") for l in lines)
        assert any(l.startswith("gamma\t") for l in lines)
        assert sum(1 for l in lines if l.startswith("pair")) == 3

    def test_rerun_identical_bytes(self, dataset, capsys):
        a = str(dataset / "data" / "clips" / "c000_i000.fsq")
        b = str(dataset / "data" / "clips" / "c001_i001.fsq")
        _, out1, _ = run_cli(capsys, "align", a, b)
        _, out2, _ = run_cli(capsys, "align", a, b)
        assert out1 == out2

    def test_missing_clip_fails(self, capsys):
        code, _, err = run_cli(capsys, "align", "/no/such/clip.fsq", "/no/other.fsq")
        assert code != 0
        assert "error" in err

    def test_missing_clip_names_file(self, capsys):
        code, out, err = run_cli(capsys, "align", "/no/a.fsq", "/no/b.fsq")
        assert code == 1
        assert out == ""
        assert err == "error: /no/a.fsq: No such file or directory\n"

    def test_non_finite_clip_fails_with_path(self, dataset, tmp_path, capsys):
        good = dataset / "data" / "clips" / "c000_i000.fsq"
        bad = tmp_path / "nan.fsq"
        shutil.copyfile(good, bad)
        nan_clip(bad)
        code, out, err = run_cli(capsys, "align", str(good), str(bad))
        assert code == 1
        assert out == ""
        assert err == f"error: {bad}: FeatureClip: non-finite entries\n"

    @pytest.mark.parametrize("width", ["c_prime", "c_out"])
    def test_zero_width_fails_without_traceback(self, dataset, tmp_path, capsys, width):
        p = tmp_path / "zero.cfg"
        p.write_text(f"{width} = 0\n")
        clip = str(dataset / "data" / "clips" / "c000_i000.fsq")
        code, out, err = run_cli(capsys, "align", "--config", str(p), clip, clip)
        assert code == 1
        assert out == ""
        assert err == f"error: ScaleConfig: {width} must be >= 1, got 0\n"

    def test_extraction_error_names_clips(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("c_in = 32\n")
        a = str(dataset / "data" / "clips" / "c000_i000.fsq")
        b = str(dataset / "data" / "clips" / "c001_i000.fsq")
        code, out, err = run_cli(capsys, "align", "--config", str(cfg), a, b)
        assert (code, out) == (1, "")
        assert err == f"error: {a} / {b}: temporal_conv: channel mismatch (clip 64, kernel 32)\n"


class TestEval:
    def test_report_rows_per_metric(self, dataset, capsys):
        manifest = str(dataset / "data" / "manifest.tsv")
        code, out, _ = run_cli(
            capsys,
            "eval",
            "--manifest",
            manifest,
            "--episodes",
            "3",
            "--metric",
            "cov-mn-a2,gap-a2",
        )
        assert code == 0
        records = [l for l in out.splitlines() if l.startswith("RECORD")]
        assert len(records) == 2
        assert "metric=cov-mn-a2" in records[0]
        assert "metric=gap-a2" in records[1]

    def test_byte_identical_across_runs_and_workers(self, dataset, capsys):
        manifest = str(dataset / "data" / "manifest.tsv")
        outs = []
        for workers in ("1", "1", "4"):
            code, out, _ = run_cli(
                capsys,
                "eval",
                "--manifest",
                manifest,
                "--episodes",
                "4",
                "--metric",
                "a2,pp",
                "--workers",
                workers,
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    def test_timing_kept_out_of_stdout(self, dataset, capsys):
        manifest = str(dataset / "data" / "manifest.tsv")
        _, out, err = run_cli(
            capsys, "eval", "--manifest", manifest, "--episodes", "2",
            "--metric", "gap-a2",
        )
        assert "wall-clock" not in out
        assert "wall-clock" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--episodes", "0"), ("--episodes", "-1"), ("--queries", "0"), ("--shots", "0")],
    )
    def test_size_below_one_fails(self, dataset, capsys, flag, value):
        manifest = str(dataset / "data" / "manifest.tsv")
        code, out, err = run_cli(
            capsys, "eval", "--manifest", manifest, "--metric", "gap-a2", flag, value
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: evaluate: {flag[2:]} must be >= 1")

    @pytest.mark.parametrize(
        "damage, reason",
        [
            (truncate_clip, "payload for 'labels' out of bounds"),
            (lambda clip: clip.unlink(), "No such file or directory"),
            (drop_clip_tensor, "container has no 'clip' tensor"),
            (nan_clip, "FeatureClip: non-finite entries"),
            (zero_channel_clip, "FeatureClip: empty temporal, channel or spatial extent"),
        ],
    )
    def test_bad_clip_fails_with_path(self, dataset, tmp_path, capsys, damage, reason):
        data = tmp_path / "data"
        shutil.copytree(dataset / "data", data)
        for clip in (data / "clips").iterdir():
            damage(clip)
        code, out, err = run_cli(
            capsys, "eval", "--manifest", str(data / "manifest.tsv"), "--metric", "gap-a2"
        )
        assert code == 1
        assert out == ""
        pattern = rf"error: {re.escape(str(data / 'clips'))}/c\d{{3}}_i\d{{3}}\.fsq: "
        assert re.match(pattern + re.escape(reason), err), err
        assert err.count("\n") == 1

    def test_extraction_error_names_clip(self, tmp_path, capsys):
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text("classes = 5\ninstances_per_class = 2\nc_in = 32\n")
        code, _, _ = run_cli(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "data"))
        assert code == 0
        code, out, err = run_cli(
            capsys, "eval", "--manifest", str(tmp_path / "data" / "manifest.tsv"),
            "--episodes", "1", "--metric", "a2",
        )
        assert code == 1
        assert out == ""
        pattern = rf"error: {re.escape(str(tmp_path / 'data' / 'clips'))}/c\d{{3}}_i\d{{3}}\.fsq: "
        reason = "temporal_conv: channel mismatch (clip 32, kernel 64)\n"
        assert re.fullmatch(pattern + re.escape(reason), err), err

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (
                ["--metric", "pp"],
                "fixed_alignment_pp: sequences must share scale/length structure",
            ),
            (["--shots", "2"], None),
        ],
    )
    def test_mixed_clip_lengths_name_the_clips(self, mixed_lengths, capsys, flags, reason):
        code, out, err = run_cli(
            capsys, "eval", "--manifest", str(mixed_lengths), "--ways", "3", "--queries", "3",
            "--episodes", "4", *flags,
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        if reason is None:
            assert re.match(r"error: build_prototypes: structure mismatch within class \d: ", err)
        else:
            assert re.match(r"error: query t\d+_c\d{3}_i\d{3} \(L=\d+\) against support ", err)
            assert err.endswith(f": {reason}\n")
        # Each named clip carries its own length: L = 18 at T=8, 24 at T=10.
        named = re.findall(r"(t(\d+)_c\d{3}_i\d{3}) \(L=(\d+)\)", err)
        assert {L for _, _, L in named} == {"18", "24"}
        assert all(int(L) == 3 * int(t) - 6 for _, t, L in named)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_mixed_clip_lengths_score_as_recorded(self, mixed_lengths, capsys, workers):
        """Every metric that scores candidates of different lengths runs to
        completion on the mixed manifest, with the RECORD lines of
        tests/data/mixed_records.txt."""
        code, out, _ = run_cli(
            capsys, "eval", "--manifest", str(mixed_lengths), "--ways", "3", "--queries", "3",
            "--episodes", "6", "--metric", "a2,cr,gap-a2,cov-mn-a2,ms-a2", "--workers", workers,
        )
        assert code == 0
        records = "".join(f"{l}\n" for l in out.splitlines() if l.startswith("RECORD"))
        expected = Path(__file__).resolve().parent / "data" / "mixed_records.txt"
        assert records == expected.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "metrics, reason",
        [("a2,a2", "metric 'a2' given twice"), ("", "unknown metric ''")],
    )
    def test_bad_metric_list_fails(self, dataset, capsys, metrics, reason):
        manifest = str(dataset / "data" / "manifest.tsv")
        code, out, err = run_cli(
            capsys, "eval", "--manifest", manifest, "--episodes", "1", "--metric", metrics
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: evaluate: {reason}")
        assert err.count("\n") == 1 and err.count("error:") == 1

    def test_bad_manifest_fails(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--manifest", "/no/manifest.tsv")
        assert code != 0
        assert "error" in err


class TestAblate:
    def test_four_rows_shared_episodes(self, dataset, capsys):
        manifest = str(dataset / "data" / "manifest.tsv")
        code, out, _ = run_cli(
            capsys, "ablate", "--manifest", manifest, "--episodes", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert "shared-episodes=yes" in lines[0]
        rows = [l for l in lines if l.startswith("RECORD")]
        assert [r.split()[1] for r in rows] == [
            "row=baseline",
            "row=cov-mn",
            "row=multi-scale",
            "row=full",
        ]

    def test_deterministic_rerun(self, dataset, capsys):
        manifest = str(dataset / "data" / "manifest.tsv")
        _, out1, _ = run_cli(capsys, "ablate", "--manifest", manifest, "--episodes", "2")
        _, out2, _ = run_cli(capsys, "ablate", "--manifest", manifest, "--episodes", "2")
        assert out1 == out2


    def test_config_metrics_key_ignored(self, dataset, tmp_path, capsys):
        p = tmp_path / "m.cfg"
        p.write_text("metrics = pp\n")
        manifest = str(dataset / "data" / "manifest.tsv")
        _, plain, _ = run_cli(capsys, "ablate", "--manifest", manifest, "--episodes", "2")
        code, out, _ = run_cli(
            capsys, "ablate", "--config", str(p), "--manifest", manifest, "--episodes", "2"
        )
        assert code == 0
        assert out == plain


class TestClipRange:
    """Stored clips must lie in the float32 range that ``synth`` writes. A
    float64 clip beyond it, though finite, overflows the second moments and
    cosine norms built from it; one at the float32 maximum, or scaled down by
    a power of two, scores as the stored set does. Warnings are errors, so an
    overflow warning fails."""

    @staticmethod
    def assert_scores_as_stored(dataset, data, capsys):
        """``eval`` of all six metrics prints the same RECORD lines for the
        rescaled set ``data`` as for the stored one."""
        records = []
        for manifest in (dataset / "data" / "manifest.tsv", data / "manifest.tsv"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, _ = run_cli(
                    capsys, "eval", "--manifest", str(manifest), "--metric", ",".join(METRICS),
                    "--episodes", "4",
                )
            assert code == 0
            records.append([l for l in out.splitlines() if l.startswith("RECORD")])
        assert len(records[0]) == 6
        assert records[1] == records[0]

    @pytest.mark.parametrize("metric", METRICS)
    def test_eval_rejects_clip_beyond_float32(self, dataset, tmp_path, capsys, metric):
        data = rescaled_copy(dataset / "data", tmp_path / "data", 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "eval", "--manifest", str(data / "manifest.tsv"), "--metric", metric,
                "--episodes", "1",
            )
        assert (code, out) == (1, "")
        pattern = rf"error: {re.escape(str(data / 'clips'))}/c\d{{3}}_i\d{{3}}\.fsq: "
        assert re.fullmatch(pattern + re.escape(BEYOND_F32) + "\n", err), err

    @pytest.mark.parametrize("paper_dims", [False, True])
    def test_align_rejects_clip_beyond_float32(
        self, dataset, paper_dataset, tmp_path, capsys, paper_dims
    ):
        src = paper_dataset if paper_dims else dataset / "data"
        good = src / "clips" / "c000_i000.fsq"
        bad = tmp_path / "huge.fsq"
        shutil.copyfile(good, bad)
        rescale_clip(bad, 1e200)
        flags = ["--paper-dims"] if paper_dims else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "align", *flags, str(good), str(bad))
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: {BEYOND_F32}\n"

    def test_float32_max_clips_score_as_stored(self, dataset, tmp_path, capsys):
        data = rescaled_copy(dataset / "data", tmp_path / "data", None)
        self.assert_scores_as_stored(dataset, data, capsys)

    def test_tiny_clips_score_as_stored(self, dataset, tmp_path, capsys):
        # A power-of-two scale is exact, so every score is bitwise that of the
        # stored set; cosine divides each row by its own norm, however small.
        data = rescaled_copy(dataset / "data", tmp_path / "data", 2.0**-40)
        self.assert_scores_as_stored(dataset, data, capsys)

    def test_float32_max_clip_aligns_as_stored(self, paper_dataset, tmp_path, capsys):
        stored = [str(paper_dataset / "clips" / f"c00{c}_i000.fsq") for c in (0, 1)]
        scaled = tmp_path / "max.fsq"
        shutil.copyfile(stored[0], scaled)
        rescale_clip(scaled, None)
        outs = []
        for a in (stored[0], str(scaled)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, _ = run_cli(capsys, "align", "--paper-dims", a, stored[1])
            assert code == 0
            outs.append(out.splitlines()[1:])
        assert outs[1] == outs[0]


class TestPaperDims:
    def test_flag_sets_channels(self):
        parser = build_parser()
        args = parser.parse_args(["eval", "--manifest", "x", "--paper-dims"])
        cfg = build_run_config(args)
        assert (cfg.c_in, cfg.c_prime, cfg.c_out) == (2048, 256, 128)
        assert cfg.frames == 8

    def test_config_overrides_preset(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("frames = 12\nc_out = 64\n")
        args = build_parser().parse_args(["eval", "--manifest", "x", "--paper-dims", "--config", str(p)])
        cfg = build_run_config(args)
        assert (cfg.c_in, cfg.c_prime, cfg.c_out) == (2048, 256, 64)
        assert cfg.frames == 12


class TestReadme:
    def test_quick_start_runs_as_written(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        commands = [
            shlex.split(line)
            for line in readme.splitlines()
            if line.startswith(("momalign synth ", "momalign align "))
        ]
        assert [argv[1] for argv in commands] == ["synth", "align"]
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            code, out, err = run_cli(capsys, *argv[1:])
            assert code == 0, f"{shlex.join(argv)}: {err}"
            assert out
