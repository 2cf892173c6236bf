"""Synthetic misalignment generator: orthogonality, reproducibility, and the
controlled failure modes."""

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from momalign import alignment, descriptor, synthgen
from momalign.descriptor import FeatureClip
from momalign.synthgen import (
    SynthConfig,
    _blob_mask,
    generate_class_library,
    generate_dataset,
    load_clip,
    render_instance,
)
from test_alignment import emd_score


# The record-based generator that the three-array library replaced, kept
# unchanged as the oracle: every clip and label must keep its bits.


@dataclass(frozen=True)
class ReferenceSubactionSpec:
    """One temporally contiguous segment: unit-norm latent, nominal duration
    in frames, and a fixed spatial activation mask."""

    sub_id: int
    latent: np.ndarray
    duration: int
    mask: np.ndarray

    def __post_init__(self):
        latent = np.asarray(self.latent, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=np.float64)
        if abs(np.linalg.norm(latent) - 1.0) > 1e-9:
            raise ValueError("SubactionSpec: latent must be unit norm")
        if self.duration < 1:
            raise ValueError("SubactionSpec: duration must be >= 1")
        object.__setattr__(self, "latent", latent)
        object.__setattr__(self, "mask", mask)


@dataclass(frozen=True)
class ReferenceClassDef:
    """One class plus the shared pool of all library latents, used as
    flickering clutter directions during rendering."""

    label: str
    subactions: tuple[ReferenceSubactionSpec, ...]
    clutter_pool: np.ndarray


def reference_generate_class_library(cfg: SynthConfig) -> list[ReferenceClassDef]:
    """Class definitions with pairwise-orthonormal subaction latents.

    Latents are the Q factor of a seeded Gaussian matrix (Gram-Schmidt), so
    every latent is orthogonal to every other one, within and across classes.
    """
    total = cfg.classes * cfg.subactions
    if total > cfg.c_in:
        raise ValueError(
            f"generate_class_library: {total} latents do not fit in c_in={cfg.c_in}"
        )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0xC1A55])))
    try:
        gauss = rng.standard_normal((cfg.c_in, total))
    except MemoryError as exc:
        size = f"c_in={cfg.c_in} classes={cfg.classes} subactions={cfg.subactions}"
        raise MemoryError(f"generate_class_library: latents ({size}): {exc}") from None
    q, r = np.linalg.qr(gauss)
    # Fix the sign convention so the library is a deterministic function of
    # the seed regardless of LAPACK's internal choices.
    q = q[:, :total] * np.sign(np.diag(r))[np.newaxis, :]

    base = cfg.frames // cfg.subactions
    extra = cfg.frames - base * cfg.subactions
    classes = []
    for c in range(cfg.classes):
        subs = []
        for k in range(cfg.subactions):
            latent = q[:, c * cfg.subactions + k]
            latent = latent / np.linalg.norm(latent)
            duration = base + (1 if k < extra else 0)
            subs.append(
                ReferenceSubactionSpec(
                    sub_id=k,
                    latent=latent,
                    duration=max(1, duration),
                    mask=_blob_mask(rng, cfg.height, cfg.width),
                )
            )
        classes.append(
            ReferenceClassDef(
                label=f"class{c:03d}",
                subactions=tuple(subs),
                clutter_pool=q[:, :total],
            )
        )
    return classes


def reference_render_instance(
    class_def: ReferenceClassDef, cfg: SynthConfig, seed: int
) -> tuple[FeatureClip, np.ndarray]:
    """One instance clip plus its ground-truth frame -> subaction labels.

    Durations are warped by per-instance log-uniform factors in
    [1/jitter, jitter]; with probability ``reorder`` one random adjacent
    subaction pair swaps order. If the warped schedule cannot fill T frames
    the final subaction is repeated.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, seed])))
    subs = list(class_def.subactions)

    if len(subs) > 1 and rng.uniform() < cfg.reorder:
        k = int(rng.integers(0, len(subs) - 1))
        subs[k], subs[k + 1] = subs[k + 1], subs[k]

    log_j = np.log(cfg.jitter)
    warped = np.array(
        [s.duration * np.exp(rng.uniform(-log_j, log_j)) for s in subs]
    )
    lengths = np.maximum(1, np.round(warped * cfg.frames / warped.sum()).astype(int))
    # Trim overshoot from the longest segments, then pad the final subaction.
    while lengths.sum() > cfg.frames:
        lengths[int(np.argmax(lengths))] -= 1
    schedule: list[ReferenceSubactionSpec] = []
    for s, length in zip(subs, lengths):
        schedule.extend([s] * int(length))
    while len(schedule) < cfg.frames:
        schedule.append(subs[-1])

    data = np.empty((cfg.frames, cfg.c_in, cfg.height, cfg.width))
    labels = np.empty(cfg.frames, dtype=np.int64)
    for t, s in enumerate(schedule):
        frame = s.latent[:, None, None] * s.mask[None, :, :]
        if cfg.distractor > 0:
            # Flickering clutter: every frame briefly shows a random latent
            # from the shared pool (usually another class's subaction).
            # Per-frame statistics absorb the wrong-class evidence in full;
            # temporal windows average it down.
            pool = class_def.clutter_pool
            d = pool[:, int(rng.integers(pool.shape[1]))]
            frame = frame + cfg.distractor * (
                d[:, None, None] * _blob_mask(rng, cfg.height, cfg.width)[None, :, :]
            )
        if cfg.noise > 0:
            frame = frame + cfg.noise * rng.standard_normal(frame.shape)
        data[t] = frame
        labels[t] = s.sub_id
    return FeatureClip(data), labels



def clean_cfg(**kw):
    """Config without noise, clutter, warping or reordering unless asked."""
    defaults = dict(
        classes=2,
        subactions=2,
        c_in=8,
        noise=0.0,
        distractor=0.0,
        jitter=1.0,
        reorder=0.0,
    )
    defaults.update(kw)
    return SynthConfig(**defaults)


class TestReferenceBits:
    """The three-array library renders every clip and label bit of the
    record-based reference, in float64, before the float32 cast of
    ``synth`` can hide a last-bit difference."""

    @pytest.mark.parametrize("subactions", [1, 2, 3, 4])
    def test_sweep_matches_reference(self, subactions):
        grid = itertools.product(
            (1, 3, 7),  # frames; 1 and 3 include frames < subactions
            (1.0, 3.0),  # jitter
            (0.0, 0.5, 1.0),  # reorder
            ((0.0, 0.0), (0.1, 1.5)),  # (noise, distractor)
        )
        for frames, jitter, reorder, (noise, distractor) in grid:
            cfg = SynthConfig(
                classes=2, subactions=subactions, frames=frames, c_in=10, jitter=jitter,
                reorder=reorder, noise=noise, distractor=distractor, seed=frames,
            )
            lib = generate_class_library(cfg)
            ref = reference_generate_class_library(cfg)
            for c in range(cfg.classes):
                for seed in (0, 1, 100_003 * c + 5):
                    clip, labels = render_instance(lib, c, cfg, seed)
                    ref_clip, ref_labels = reference_render_instance(ref[c], cfg, seed)
                    assert clip.data.dtype == ref_clip.data.dtype == np.float64
                    assert labels.dtype == ref_labels.dtype == np.int64
                    assert np.array_equal(clip.data, ref_clip.data), (cfg, c, seed)
                    assert np.array_equal(labels, ref_labels), (cfg, c, seed)

    @pytest.mark.parametrize(
        "cfg",
        [SynthConfig(), SynthConfig(frames=28), SynthConfig(classes=4, subactions=3, c_in=12)],
        ids=["default", "frames-28", "subactions-3"],
    )
    def test_library_matches_reference(self, cfg):
        pool, latents, masks = generate_class_library(cfg)
        ref = reference_generate_class_library(cfg)
        for c, class_def in enumerate(ref):
            assert np.array_equal(pool, class_def.clutter_pool)
            for k, sub in enumerate(class_def.subactions):
                assert np.array_equal(latents[:, c * cfg.subactions + k], sub.latent)
                assert np.array_equal(masks[c, k], sub.mask)


class TestClassLibrary:
    def test_shapes(self):
        cfg = clean_cfg(classes=3, subactions=2, c_in=9, height=4, width=5)
        pool, latents, masks = generate_class_library(cfg)
        assert pool.shape == latents.shape == (9, 6)
        assert masks.shape == (3, 2, 4, 5)

    def test_latents_unit_norm(self):
        _, latents, _ = generate_class_library(SynthConfig(classes=8, subactions=8))
        for j in range(latents.shape[1]):
            assert abs(np.linalg.norm(latents[:, j]) - 1.0) <= 1e-9

    def test_small_library_orthogonal(self):
        _, latents, _ = generate_class_library(clean_cfg())
        assert latents.shape[1] == 4
        for i in range(4):
            for j in range(4):
                expect = 1.0 if i == j else 0.0
                assert abs(float(latents[:, i] @ latents[:, j]) - expect) <= 1e-9

    def test_cross_class_cosines_near_zero(self):
        cfg = SynthConfig(classes=6, subactions=2)
        _, latents, _ = generate_class_library(cfg)
        for i in range(latents.shape[1]):
            for j in range(latents.shape[1]):
                if i // cfg.subactions == j // cfg.subactions:
                    continue
                assert abs(float(latents[:, i] @ latents[:, j])) <= 1e-9

    def test_same_seed_identical(self):
        a = generate_class_library(clean_cfg())
        b = generate_class_library(clean_cfg())
        for xa, xb in zip(a, b):
            assert np.array_equal(xa, xb)

    def test_rejects_overfull_library(self):
        with pytest.raises(ValueError):
            generate_class_library(SynthConfig(classes=5, subactions=2, c_in=8))

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            SynthConfig(reorder=1.5)

    def test_rejects_jitter_below_one(self):
        with pytest.raises(ValueError):
            SynthConfig(jitter=0.5)

    @pytest.mark.parametrize("field", ["jitter", "reorder", "noise", "distractor"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_float(self, field, value):
        with pytest.raises(ValueError, match=f"SynthConfig: {field} must be finite"):
            SynthConfig(**{field: value})

    def test_rejects_zero_instances(self):
        with pytest.raises(
            ValueError, match="SynthConfig: instances_per_class must be >= 1, got 0"
        ):
            SynthConfig(instances_per_class=0)


class TestRenderInstance:
    def test_canonical_clip_deterministic(self):
        cfg = clean_cfg()
        lib = generate_class_library(cfg)
        a, la = render_instance(lib, 0, cfg, seed=3)
        b, lb = render_instance(lib, 0, cfg, seed=3)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(la, lb)

    def test_label_fidelity_without_noise(self):
        cfg = clean_cfg()
        _, latents, masks = lib = generate_class_library(cfg)
        clip, labels = render_instance(lib, 0, cfg, seed=1)
        for t in range(cfg.frames):
            k = int(labels[t])
            expect = latents[:, k][:, None, None] * masks[0, k][None, :, :]
            assert np.allclose(clip.data[t], expect, atol=1e-12)

    def test_forced_reorder_with_two_subactions(self):
        cfg = clean_cfg(reorder=1.0)
        lib = generate_class_library(cfg)
        for seed in range(10):
            _, labels = render_instance(lib, 0, cfg, seed=seed)
            # Canonical order is (0, 1); a forced swap puts 1 first.
            assert labels[0] == 1

    def test_cross_class_frames_orthogonal_without_noise(self):
        cfg = clean_cfg()
        lib = generate_class_library(cfg)
        a, _ = render_instance(lib, 0, cfg, seed=0)
        b, _ = render_instance(lib, 1, cfg, seed=0)
        for t in range(cfg.frames):
            fa = a.data[t].reshape(cfg.c_in, -1)
            fb = b.data[t].reshape(cfg.c_in, -1)
            # Frames are latent x mask outer products of orthogonal latents.
            assert abs(float(np.sum(fa * fb))) <= 1e-9

    def test_frame_count_always_t(self):
        cfg = clean_cfg(jitter=3.0, reorder=0.5, frames=7)
        lib = generate_class_library(cfg)
        for seed in range(20):
            clip, labels = render_instance(lib, 0, cfg, seed=seed)
            assert clip.data.shape[0] == 7
            assert labels.shape == (7,)

    def test_misalignment_lowers_fixed_alignment(self):
        # Directional: adaptive alignment absorbs warping and reordering that
        # the point-to-point baseline cannot, on average over seeded pairs.
        cfg = clean_cfg(classes=4, subactions=2, c_in=16, jitter=2.0, reorder=0.5)
        lib = generate_class_library(cfg)
        gaps = []
        for seed in range(100):
            a, _ = render_instance(lib, 0, cfg, seed=2 * seed)
            b, _ = render_instance(lib, 0, cfg, seed=2 * seed + 1)
            qa = descriptor.cov_mn_descriptors(a)
            qb = descriptor.cov_mn_descriptors(b)
            gaps.append(
                emd_score(qa, qb) - alignment.fixed_alignment_pp(qa, qb)
            )
        assert np.mean(gaps) > 0.0


class TestGenerateDataset:
    def test_manifest_counts(self, tmp_path):
        cfg = clean_cfg(instances_per_class=4)
        man = generate_dataset(cfg, tmp_path)
        assert len(man.entries) == cfg.classes * 4
        assert len({e.label for e in man.entries}) == cfg.classes

    def test_regeneration_byte_identical(self, tmp_path):
        cfg = clean_cfg(instances_per_class=2)
        man = generate_dataset(cfg, tmp_path / "a")
        generate_dataset(cfg, tmp_path / "b")
        for entry in man.entries:
            ha = hashlib.sha256((tmp_path / "a" / entry.path).read_bytes()).hexdigest()
            hb = hashlib.sha256((tmp_path / "b" / entry.path).read_bytes()).hexdigest()
            assert ha == hb

    def test_distinct_seeds_distinct_bytes(self, tmp_path):
        man_a = generate_dataset(clean_cfg(instances_per_class=1), tmp_path / "a")
        generate_dataset(clean_cfg(instances_per_class=1, seed=1), tmp_path / "b")
        entry = man_a.entries[0]
        ha = hashlib.sha256((tmp_path / "a" / entry.path).read_bytes()).hexdigest()
        hb = hashlib.sha256((tmp_path / "b" / entry.path).read_bytes()).hexdigest()
        assert ha != hb

    def test_failure_creates_no_directory(self, tmp_path):
        out = tmp_path / "new" / "data"
        with pytest.raises(
            ValueError, match="^generate_dataset: clip c000_i000: FeatureClip: entries beyond the float32"
        ):
            generate_dataset(clean_cfg(noise=1e39), out)
        assert list(tmp_path.iterdir()) == []

    def test_later_failure_keeps_earlier_dataset(self, tmp_path, monkeypatch):
        # The second run has another seed, so any clip it wrote would differ.
        generate_dataset(clean_cfg(instances_per_class=2), tmp_path)
        before = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
        render = synthgen.render_instance

        def failing(library, c, cfg, seed):
            if seed == 100_003 + 1:
                raise ValueError("render failed")
            return render(library, c, cfg, seed)

        monkeypatch.setattr(synthgen, "render_instance", failing)
        with pytest.raises(ValueError, match="^generate_dataset: clip c001_i001: render failed$"):
            generate_dataset(clean_cfg(instances_per_class=2, seed=1), tmp_path)
        after = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
        assert after == before
        assert sorted(p.name for p in (tmp_path / "clips").iterdir()) == [
            "c000_i000.fsq", "c000_i001.fsq", "c001_i000.fsq", "c001_i001.fsq"
        ]

    def test_clips_load_back(self, tmp_path):
        cfg = clean_cfg(instances_per_class=2)
        man = generate_dataset(cfg, tmp_path)
        clip = load_clip(man.resolve(man.entries[0]))
        assert clip.data.shape[:2] == (cfg.frames, cfg.c_in)

    def test_gap_separability_without_perturbation(self, tmp_path):
        cfg = clean_cfg(classes=3, c_in=12, instances_per_class=3)
        man = generate_dataset(cfg, tmp_path)
        descs = {
            e.clip_id: descriptor.gap_descriptor(load_clip(man.resolve(e)))
            for e in man.entries
        }
        by_label = man.by_label()
        labels = sorted({e.label for e in man.entries})
        same, cross = [], []
        for la in labels:
            for lb in labels:
                for ea in by_label[la]:
                    for eb in by_label[lb]:
                        if ea.clip_id >= eb.clip_id:
                            continue
                        score = alignment.fixed_alignment_cross(
                            descs[ea.clip_id], descs[eb.clip_id]
                        )
                        (same if la == lb else cross).append(score)
        assert min(same) >= max(cross)
