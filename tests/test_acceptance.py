"""Exit criteria for the package, one pass/fail line per criterion.

Each criterion prints ``ACCEPTANCE <n>: PASS|FAIL - <summary>`` with output
capture suspended and then asserts, so the verdicts are visible in any
pytest run.
"""

import time

import numpy as np
import pytest

from momalign import alignment, descriptor, episode, seqio, synthgen
from momalign.cli import RunConfig, main
from momalign.descriptor import DescriptorSequence, FeatureClip, ScaleConfig
from momalign.linalg import DEFAULT_EPS_SCALE, second_moment
from test_alignment import lp_oracle, make_seq, random_seq
from test_descriptor import identity_scale, naive_standard_conv, pixel_major
from test_linalg import own_norm_sqrt


def report(capsys, criterion: int, summary: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {criterion}: {verdict} - {summary}")


@pytest.fixture(scope="module")
def benchmark_report(tmp_path_factory):
    """Default synthetic benchmark evaluated once at the pinned seed.

    5-way 1-shot, 200 episodes, all metric selectors, default generator
    (duration jitter 2.0, reorder probability 0.5). Shared by the two
    criteria that read accuracies off it.
    """
    cfg = RunConfig()
    manifest = synthgen.generate_dataset(cfg, tmp_path_factory.mktemp("bench"))
    rep = episode.evaluate(
        manifest,
        5,
        1,
        5,
        episodes=200,
        seed=0,
        metrics=list(episode.METRICS),
        scales=cfg.scale_configs(),
        workers=4,
    )
    return {r.metric: r.mean_accuracy for r in rep.results}


def test_criterion_1_emd_matches_lp_oracle(capsys):
    """1000 random instances with both sides <= 6; objectives within 1e-6,
    total wall clock under 30 s."""
    rng = np.random.default_rng(20260823)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        lq = int(rng.integers(1, 7))
        ls = int(rng.integers(1, 7))
        q = random_seq(rng, lq, 8)
        s = random_seq(rng, ls, 8)
        sim = alignment.similarity_matrix(q, s)
        masses = alignment.marginal_masses(q, s)
        plan = alignment.solve_emd(sim, masses)
        worst = max(worst, abs(plan.objective - lp_oracle(sim, masses.mu, masses.gamma)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 30.0
    report(
        capsys,
        1,
        f"EMD objective vs LP oracle on 1000 instances: max |diff| = {worst:.2e} "
        f"(<= 1e-6), wall clock {elapsed:.1f}s (< 30s)",
        ok,
    )
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_2_sqrt_residual_bound(capsys):
    """Relative residual <= 1e-2 on 200 seeded SPD matrices, dim 16,
    condition <= 100; the eigendecomposition oracle validates each input."""
    dim = 16
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eigs = rng.uniform(1.0, 100.0, size=dim)
        a = basis @ np.diag(eigs) @ basis.T
        a = 0.5 * (a + a.T)
        # Oracle pre-validation: the true sqrt reconstructs the input.
        w, v = np.linalg.eigh(a)
        assert np.min(w) > 0.0 and np.max(w) / np.min(w) <= 100.0 + 1e-6
        exact = v @ np.diag(np.sqrt(w)) @ v.T
        assert np.linalg.norm(exact @ exact - a) <= 1e-9 * np.linalg.norm(a)

        x = own_norm_sqrt(a)
        shifted = a + (DEFAULT_EPS_SCALE * np.trace(a) / dim) * np.eye(dim)
        residual = np.linalg.norm(x @ x - shifted) / np.linalg.norm(shifted)
        worst = max(worst, residual)
    ok = worst <= 1e-2
    report(
        capsys,
        2,
        f"Newton-Schulz sqrt on 200 seeded SPD dim-16 cond<=100 matrices: "
        f"max relative residual = {worst:.2e} (<= 1e-2)",
        ok,
    )
    assert ok


def test_criterion_3_full_size_dims_smoke(tmp_path, capsys):
    """--paper-dims end to end: 18 descriptors of length 8256 and a
    self-alignment score of 1 on a full-channel clip."""
    rng = np.random.default_rng(0)
    clip = rng.standard_normal((8, 2048, 6, 6)).astype(np.float32)
    path = tmp_path / "full.fsq"
    seqio.write_container({"clip": clip}, path)
    code = main(["align", str(path), str(path), "--paper-dims"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    dims_line = next(l for l in lines if l.startswith("descriptors"))
    score = float(next(l for l in lines if l.startswith("score")).split("\t")[1])
    ok = (
        code == 0
        and dims_line == "descriptors\tL=18\tdim=8256"
        and abs(score - 1.0) <= 1e-6
    )
    report(
        capsys,
        3,
        f"full-size channel smoke run: exit={code}, {dims_line.replace(chr(9), ' ')}, "
        f"self-score={score:.9f}",
        ok,
    )
    assert ok


def test_criterion_4_alignment_invariances(capsys):
    """Symmetry, positive-scale and support-permutation invariance of the
    alignment score, 100 random pairs each, tolerance 1e-9."""
    rng = np.random.default_rng(4)
    worst_sym = worst_scale = worst_perm = 0.0
    for _ in range(100):
        q = random_seq(rng, int(rng.integers(2, 7)), 10)
        s = random_seq(rng, int(rng.integers(2, 7)), 10)
        base = alignment.emd_score(q, s)

        worst_sym = max(worst_sym, abs(base - alignment.emd_score(s, q)))

        c = float(rng.uniform(0.1, 10.0))
        scaled = make_seq(c * q.vectors)
        worst_scale = max(worst_scale, abs(base - alignment.emd_score(scaled, s)))

        perm = rng.permutation(len(s))
        permuted = DescriptorSequence(
            s.vectors[perm], s.scale_ids[perm], s.times[perm]
        )
        worst_perm = max(worst_perm, abs(base - alignment.emd_score(q, permuted)))
    ok = max(worst_sym, worst_scale, worst_perm) <= 1e-9
    report(
        capsys,
        4,
        f"score invariances over 100 pairs each: symmetry {worst_sym:.2e}, "
        f"positive scale {worst_scale:.2e}, support permutation {worst_perm:.2e} "
        f"(all <= 1e-9)",
        ok,
    )
    assert ok


def test_criterion_5_adaptive_alignment_beats_fixed(benchmark_report, capsys):
    """On the misaligned benchmark the adaptive alignment beats the
    point-to-point baseline by >= 0.05 accuracy and beats the cross mean."""
    a2 = benchmark_report["a2"]
    pp = benchmark_report["pp"]
    cr = benchmark_report["cr"]
    ok = (a2 >= pp + 0.05) and (a2 > cr)
    report(
        capsys,
        5,
        f"adaptive vs fixed alignment (5-way 1-shot, 200 episodes, seed 0): "
        f"a2={a2:.3f}, pp={pp:.3f} (margin {a2 - pp:.3f} >= 0.05), cr={cr:.3f}",
        ok,
    )
    assert a2 >= pp + 0.05
    assert a2 > cr


def test_criterion_6_component_grid_strictly_ordered(benchmark_report, capsys):
    """Full pathway beats each single-component variant, and every variant
    beats the first-order baseline, all strictly."""
    full = benchmark_report["a2"]
    covmn = benchmark_report["cov-mn-a2"]
    ms = benchmark_report["ms-a2"]
    base = benchmark_report["gap-a2"]
    ok = full > covmn > base and full > ms > base
    report(
        capsys,
        6,
        f"component grid (5-way 1-shot, 200 episodes, seed 0): full={full:.3f} > "
        f"cov-mn={covmn:.3f} > baseline={base:.3f} and full > "
        f"multi-scale={ms:.3f} > baseline, all strict",
        ok,
    )
    assert full > covmn > base
    assert full > ms > base


def test_criterion_7_pipeline_reductions(capsys):
    """Zero offsets reduce the deformable stage to a standard convolution
    (1e-9); identity weights reduce the full pathway bit-for-bit to the
    per-frame second-moment baseline."""
    rng = np.random.default_rng(7)

    worst = 0.0
    for grid in (1, 3, 5):
        cfg = ScaleConfig.from_seed(1, grid, c_in=6, c_prime=6, c_out=5, seed=3)
        data = rng.standard_normal((2, 6, 7, 7))
        zero_off = np.zeros((2, 7, 7, 2 * grid * grid))
        frames = descriptor.deformable_conv(pixel_major(data), zero_off, cfg)
        for t in range(2):
            oracle = naive_standard_conv(data[t], cfg.theta_s, grid)
            worst = max(
                worst, float(np.max(np.abs(frames[t] - oracle.reshape(5, -1))))
            )

    clip = FeatureClip(rng.standard_normal((4, 8, 5, 5)))
    via_identity = descriptor.multi_scale_descriptors(
        descriptor.multi_scale_frames(clip, [identity_scale(8)])
    )
    direct = descriptor.cov_mn_descriptors(clip)
    bitwise = np.array_equal(via_identity.vectors, direct.vectors)

    ok = worst <= 1e-9 and bitwise
    report(
        capsys,
        7,
        f"reductions: zero-offset deformable vs naive convolution max |diff| = "
        f"{worst:.2e} (<= 1e-9); identity-weight pathway vs second-moment "
        f"baseline bit-for-bit: {bitwise}",
        ok,
    )
    assert worst <= 1e-9
    assert bitwise


def test_criterion_8_reproducibility(tmp_path, capsys):
    """Evaluation reports are byte-identical across reruns and worker counts;
    the tensor container round-trips bit exactly."""
    data_dir = tmp_path / "data"
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(
        "classes = 6\nsubactions = 2\nnoise = 0.05\ndistractor = 0.0\n"
        "instances_per_class = 3\n"
    )
    assert main(["synth", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    capsys.readouterr()

    outs = []
    for workers in ("1", "1", "4"):
        code = main(
            [
                "eval",
                "--manifest",
                str(data_dir / "manifest.tsv"),
                "--episodes",
                "4",
                "--metric",
                "a2,pp",
                "--workers",
                workers,
            ]
        )
        assert code == 0
        outs.append(capsys.readouterr().out)
    reports_identical = outs[0] == outs[1] == outs[2]

    rng = np.random.default_rng(8)
    tensors = {
        "clip": rng.standard_normal((3, 4, 2, 2)).astype(np.float32),
        "labels": rng.standard_normal(3),
        "scalar": np.float64(2.5),
    }
    p1, p2 = tmp_path / "rt1.fsq", tmp_path / "rt2.fsq"
    seqio.write_container(tensors, p1)
    loaded = seqio.read_container(p1)
    values_exact = all(
        loaded[k].dtype == np.asarray(v).dtype
        and loaded[k].shape == np.asarray(v).shape
        and loaded[k].tobytes() == np.asarray(v).tobytes()
        for k, v in tensors.items()
    )
    seqio.write_container(loaded, p2)
    files_identical = p1.read_bytes() == p2.read_bytes()

    ok = reports_identical and values_exact and files_identical
    report(
        capsys,
        8,
        f"reports byte-identical across reruns and 1-vs-4 workers: "
        f"{reports_identical}; container round trip bit-exact: "
        f"{values_exact and files_identical}",
        ok,
    )
    assert reports_identical
    assert values_exact
    assert files_identical
