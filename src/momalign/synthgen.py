"""Synthetic feature-clip generator with controlled temporal misalignment.

Classes are ordered lists of subactions with mutually orthonormal latent
vectors and fixed spatial masks. Instances warp subaction durations by a
per-instance factor and optionally swap adjacent subactions, which produces
the duration-variation and order-inversion failure modes that adaptive
alignment is meant to absorb.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from pathlib import Path

import numpy as np

from . import seqio
from .descriptor import DESK_C_IN, FeatureClip


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; the field names are also the config-file keys.
    ``cli.RunConfig`` extends this class with the run's own settings, so
    these checks hold for every subcommand's settings.

    ``jitter`` bounds the per-instance duration warp factor, ``reorder`` is
    the probability of one adjacent swap, ``noise`` is the Gaussian noise
    sigma and ``distractor`` the clutter amplitude.
    """

    classes: int = 8
    subactions: int = 2
    frames: int = 8
    c_in: int = DESK_C_IN
    height: int = 6
    width: int = 6
    jitter: float = 2.0
    reorder: float = 0.5
    noise: float = 0.1
    distractor: float = 1.5
    seed: int = 0
    instances_per_class: int = 12

    def __post_init__(self):
        for name in ("jitter", "reorder", "noise", "distractor"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"SynthConfig: {name} must be finite, got {getattr(self, name)}")
        for name in ("classes", "subactions", "frames", "c_in", "height", "width",
                     "instances_per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"SynthConfig: {name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.reorder <= 1.0:
            raise ValueError("SynthConfig: reorder must be in [0, 1]")
        if self.jitter < 1.0:
            raise ValueError("SynthConfig: jitter must be >= 1")
        if self.noise < 0.0:
            raise ValueError("SynthConfig: noise must be >= 0")
        if self.distractor < 0.0:
            raise ValueError("SynthConfig: distractor must be >= 0")


def _blob_mask(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Seeded random blob: a Gaussian bump at a random center.

    Most of the spatial mean is removed so class identity lives mainly in
    second-order spatial statistics; a small positive floor keeps a faint
    first-order trace.
    """
    cy = rng.uniform(0, h - 1)
    cx = rng.uniform(0, w - 1)
    sigma = 0.2 * max(h, w)
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
    return bump - bump.mean() + 0.05


def generate_class_library(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The class library as three arrays ``(pool, latents, masks)``.

    ``pool`` is the Q factor of a seeded Gaussian ``(c_in, classes *
    subactions)`` matrix (Gram-Schmidt), so its columns are pairwise
    orthogonal within and across classes; column ``c * subactions + k`` is
    subaction k of class c. ``latents`` is each column over its own norm,
    and ``masks`` the ``(classes, subactions, height, width)`` spatial blobs.
    Every class flickers the whole ``pool`` as clutter.
    """
    total = cfg.classes * cfg.subactions
    if total > cfg.c_in:
        raise ValueError(f"generate_class_library: {total} latents do not fit in c_in={cfg.c_in}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0xC1A55])))
    try:
        gauss = rng.standard_normal((cfg.c_in, total))
    except MemoryError as exc:
        size = f"c_in={cfg.c_in} classes={cfg.classes} subactions={cfg.subactions}"
        raise MemoryError(f"generate_class_library: latents ({size}): {exc}") from None
    q, r = np.linalg.qr(gauss)
    # Fix the sign convention so the library is a deterministic function of
    # the seed regardless of LAPACK's internal choices.
    pool = q * np.sign(np.diag(r))
    # One norm per column: norm(axis=0) sums in another order.
    latents = pool / np.array([np.linalg.norm(pool[:, j]) for j in range(total)])
    blobs = [_blob_mask(rng, cfg.height, cfg.width) for _ in range(total)]
    masks = np.array(blobs).reshape(cfg.classes, cfg.subactions, cfg.height, cfg.width)
    return pool, latents, masks


def render_instance(
    library: tuple[np.ndarray, np.ndarray, np.ndarray], c: int, cfg: SynthConfig, seed: int
) -> tuple[FeatureClip, np.ndarray]:
    """One instance clip of class ``c`` plus its ground-truth frame ->
    subaction labels.

    Nominal durations split T frames evenly over the subactions (the first
    ``T % subactions`` take one more, each at least 1). With probability
    ``reorder`` one random adjacent subaction pair swaps order, and the
    durations are warped by per-instance log-uniform factors in
    [1/jitter, jitter]. If the warped schedule cannot fill T frames the
    final subaction is repeated.
    """
    pool, latents, masks = library
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, seed])))
    order = list(range(cfg.subactions))
    if cfg.subactions > 1 and rng.uniform() < cfg.reorder:
        k = int(rng.integers(0, cfg.subactions - 1))
        order[k], order[k + 1] = order[k + 1], order[k]

    base, extra = divmod(cfg.frames, cfg.subactions)
    log_j = np.log(cfg.jitter)
    warped = np.array(
        [max(1, base + (k < extra)) * np.exp(rng.uniform(-log_j, log_j)) for k in order]
    )
    lengths = np.maximum(1, np.round(warped * cfg.frames / warped.sum()).astype(int))
    # Trim overshoot from the longest segments, then pad the final subaction.
    while lengths.sum() > cfg.frames:
        lengths[int(np.argmax(lengths))] -= 1
    labels = np.full(cfg.frames, order[-1], dtype=np.int64)
    labels[: lengths.sum()] = np.repeat(order, lengths)

    data = np.empty((cfg.frames, cfg.c_in, cfg.height, cfg.width))
    for t, k in enumerate(labels.tolist()):
        frame = latents[:, c * cfg.subactions + k, None, None] * masks[c, k]
        if cfg.distractor > 0:
            # Flickering clutter: every frame briefly shows a random latent
            # from the shared pool (usually another class's subaction).
            # Per-frame statistics absorb the wrong-class evidence in full;
            # temporal windows average it down.
            d = pool[:, int(rng.integers(pool.shape[1]))]
            frame = frame + cfg.distractor * (
                d[:, None, None] * _blob_mask(rng, cfg.height, cfg.width)[None, :, :]
            )
        if cfg.noise > 0:
            frame = frame + cfg.noise * rng.standard_normal(frame.shape)
        data[t] = frame
    return FeatureClip(data), labels


def generate_dataset(cfg: SynthConfig, out_dir: str | Path) -> seqio.Manifest:
    """Render and store all instances; returns the written manifest.

    Clips are serialized as f32 tensors named "clip"; the dataset is fully
    reproducible from the seed (byte-identical files). A clip whose entries
    do not fit in float32 raises ``ValueError`` naming the clip, and a
    refused allocation ``MemoryError`` naming it and its size. Each clip is
    written under a temporary name and renamed into place only once every
    clip has been written, so a failure leaves ``out_dir`` as it was: no new
    clip or directory, and an earlier dataset there untouched.
    """
    out = Path(out_dir)
    clips_dir = out / "clips"
    library = generate_class_library(cfg)
    created = list(takewhile(lambda d: not d.exists(), (clips_dir, *clips_dir.parents)))
    clips_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    try:
        for c in range(cfg.classes):
            for i in range(cfg.instances_per_class):
                clip_id = f"c{c:03d}_i{i:03d}"
                try:
                    with np.errstate(over="ignore"):
                        clip, labels = render_instance(library, c, cfg, seed=c * 100_003 + i)
                        data = clip.data.astype(np.float32)
                except ValueError as exc:
                    raise ValueError(f"generate_dataset: clip {clip_id}: {exc}") from None
                except MemoryError:
                    size = f"frames={cfg.frames} c_in={cfg.c_in} height={cfg.height} width={cfg.width}"
                    raise MemoryError(f"generate_dataset: clip {clip_id} ({size})") from None
                rel = f"clips/{clip_id}.fsq"
                entries.append(seqio.ManifestEntry(clip_id, f"class{c:03d}", rel))
                tensors = {"clip": data, "labels": labels.astype(np.float64)}
                seqio.write_container(tensors, out / f"{rel}.partial")
    except BaseException:
        for entry in entries:
            (out / f"{entry.path}.partial").unlink(missing_ok=True)
        for d in created:
            d.rmdir()
        raise
    for entry in entries:
        (out / f"{entry.path}.partial").replace(out / entry.path)
    manifest = seqio.Manifest(tuple(entries), root=str(out))
    seqio.write_manifest(manifest, out / "manifest.tsv")
    return manifest


def load_clip(path: str | Path) -> FeatureClip:
    """The stored ``clip`` tensor; content ``FeatureClip`` rejects, such as an
    entry beyond the float32 range in a float64 tensor, raises ``SeqIOError``
    naming the file."""
    tensors = seqio.read_container(path)
    if "clip" not in tensors:
        raise seqio.SeqIOError(f"{path}: container has no 'clip' tensor")
    try:
        return FeatureClip(np.asarray(tensors["clip"], dtype=np.float64))
    except ValueError as exc:
        raise seqio.SeqIOError(f"{path}: {exc}") from None
