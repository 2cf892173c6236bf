"""Synthetic misalignment generator: orthogonality, reproducibility, and the
controlled failure modes."""

import hashlib

import numpy as np
import pytest

from momalign import alignment, descriptor, synthgen
from momalign.synthgen import (
    SubactionSpec,
    SynthConfig,
    generate_class_library,
    generate_dataset,
    load_clip,
    render_instance,
)


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


class TestSubactionSpec:
    def test_rejects_non_unit_latent(self):
        with pytest.raises(ValueError):
            SubactionSpec(0, np.array([1.0, 1.0]), 2, np.ones((2, 2)))

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            SubactionSpec(0, np.array([1.0, 0.0]), 0, np.ones((2, 2)))


class TestClassLibrary:
    def test_small_library_orthogonal(self):
        lib = generate_class_library(clean_cfg())
        latents = [s.latent for c in lib for s in c.subactions]
        assert len(latents) == 4
        for i in range(4):
            for j in range(4):
                expect = 1.0 if i == j else 0.0
                assert abs(float(latents[i] @ latents[j]) - expect) <= 1e-9

    def test_cross_class_cosines_near_zero(self):
        lib = generate_class_library(SynthConfig(classes=6, subactions=2))
        for ca in lib:
            for cb in lib:
                if ca.label == cb.label:
                    continue
                for sa in ca.subactions:
                    for sb in cb.subactions:
                        assert abs(float(sa.latent @ sb.latent)) <= 1e-9

    def test_same_seed_identical(self):
        a = generate_class_library(clean_cfg())
        b = generate_class_library(clean_cfg())
        for ca, cb in zip(a, b):
            for sa, sb in zip(ca.subactions, cb.subactions):
                assert np.array_equal(sa.latent, sb.latent)
                assert np.array_equal(sa.mask, sb.mask)

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
        a, la = render_instance(lib[0], cfg, seed=3)
        b, lb = render_instance(lib[0], cfg, seed=3)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(la, lb)

    def test_label_fidelity_without_noise(self):
        cfg = clean_cfg()
        lib = generate_class_library(cfg)
        clip, labels = render_instance(lib[0], cfg, seed=1)
        subs = {s.sub_id: s for s in lib[0].subactions}
        for t in range(cfg.frames):
            s = subs[int(labels[t])]
            expect = s.latent[:, None, None] * s.mask[None, :, :]
            assert np.allclose(clip.data[t], expect, atol=1e-12)

    def test_forced_reorder_with_two_subactions(self):
        cfg = clean_cfg(reorder=1.0)
        lib = generate_class_library(cfg)
        for seed in range(10):
            _, labels = render_instance(lib[0], cfg, seed=seed)
            # Canonical order is (0, 1); a forced swap puts 1 first.
            assert labels[0] == 1

    def test_cross_class_frames_orthogonal_without_noise(self):
        cfg = clean_cfg()
        lib = generate_class_library(cfg)
        a, _ = render_instance(lib[0], cfg, seed=0)
        b, _ = render_instance(lib[1], cfg, seed=0)
        for t in range(cfg.frames):
            fa = a.data[t].reshape(cfg.c_in, -1)
            fb = b.data[t].reshape(cfg.c_in, -1)
            # Frames are latent x mask outer products of orthogonal latents.
            assert abs(float(np.sum(fa * fb))) <= 1e-9

    def test_frame_count_always_t(self):
        cfg = clean_cfg(jitter=3.0, reorder=0.5, frames=7)
        lib = generate_class_library(cfg)
        for seed in range(20):
            clip, labels = render_instance(lib[0], cfg, seed=seed)
            assert clip.data.shape[0] == 7
            assert labels.shape == (7,)

    def test_misalignment_lowers_fixed_alignment(self):
        # Directional: adaptive alignment absorbs warping and reordering that
        # the point-to-point baseline cannot, on average over seeded pairs.
        cfg = clean_cfg(classes=4, subactions=2, c_in=16, jitter=2.0, reorder=0.5)
        lib = generate_class_library(cfg)
        gaps = []
        for seed in range(100):
            a, _ = render_instance(lib[0], cfg, seed=2 * seed)
            b, _ = render_instance(lib[0], cfg, seed=2 * seed + 1)
            qa = descriptor.cov_mn_descriptors(a)
            qb = descriptor.cov_mn_descriptors(b)
            gaps.append(
                alignment.emd_score(qa, qb) - alignment.fixed_alignment_pp(qa, qb)
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

        def failing(class_def, cfg, seed):
            if seed == 100_003 + 1:
                raise ValueError("render failed")
            return render(class_def, cfg, seed)

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
