"""Multi-scale second-order moment descriptors over spatio-temporal clips.

Each scale applies a valid temporal convolution, derives per-location spatial
offsets from the temporal difference signal, samples a deformable spatial
neighborhood, aggregates a per-frame second-order moment, square-root
normalizes it, and vectorizes it. Descriptors from all scales are flattened
into a single scale-major, time-minor sequence.

``multi_scale_frames`` builds a clip's frames at every scale once; both
multi-scale representations reduce those same frames. It lays the clip out
pixel-major, (T, H, W, C), once, and the per-scale stages take and return
plain arrays in that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    newton_schulz_sqrt,
    second_moment,
    spectral_norm_estimates,
    vectorize_spd,
)

# Desk-scale defaults keep the property suites fast; the full-size
# configuration (2048 / 256 / 128) is selectable via --paper-dims.
DESK_C_IN = 64
DESK_C_PRIME = 32
DESK_C_OUT = 16
PAPER_C_IN = 2048
PAPER_C_PRIME = 256
PAPER_C_OUT = 128

DEFAULT_TAUS = (1, 3, 5)
DEFAULT_GRIDS = (1, 3, 5)
_F32_MAX = float(np.finfo(np.float32).max)
#: Frames whose ``deformable_conv`` sampling positions, corner indices and
#: corner weights are computed together.
_SAMPLE_BLOCK = 4


@dataclass(frozen=True)
class FeatureClip:
    """A T x C x H x W spatio-temporal feature block of finite entries within
    the float32 range; a larger one would overflow the moments built from it."""

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.float64)
        if a.ndim != 4:
            raise ValueError(f"FeatureClip: expected 4-D data, got shape {a.shape}")
        if min(a.shape) < 1:
            raise ValueError("FeatureClip: empty temporal, channel or spatial extent")
        # A NaN or an infinity anywhere makes this bound non-finite.
        bound = float(np.maximum(a.max(), -a.min()))
        if not np.isfinite(bound):
            raise ValueError("FeatureClip: non-finite entries")
        if bound > _F32_MAX:
            raise ValueError(f"FeatureClip: entries beyond the float32 range (|x| > {_F32_MAX:.7g})")
        object.__setattr__(self, "data", a)


def _check_sizes(tau: int, grid: int, **widths: int) -> None:
    for name, value in {"tau": tau, **widths}.items():
        if value < 1:
            raise ValueError(f"ScaleConfig: {name} must be >= 1, got {value}")
    if grid < 1 or grid % 2 == 0:
        raise ValueError(f"ScaleConfig: grid side must be odd and >= 1, got {grid}")


@dataclass(frozen=True)
class ScaleConfig:
    """Weights and geometry for one spatio-temporal scale.

    ``theta_t``: (tau, c_in, c_prime) temporal convolution kernel.
    ``theta_s``: (grid^2 * c_prime, c_out) deformable spatial kernel; the
        flattened patch index is ``point * c_prime + channel`` with kernel
        points enumerated row-major over the grid.
    ``offset_w1``/``offset_b1``/``offset_w2``/``offset_b2``: per-location
        two-stage affine offset predictor with a ReLU in between; the final
        stage is zero-initialized so offsets start at zero.
    """

    tau: int
    grid: int
    theta_t: np.ndarray
    theta_s: np.ndarray
    offset_w1: np.ndarray
    offset_b1: np.ndarray
    offset_w2: np.ndarray
    offset_b2: np.ndarray

    def __post_init__(self):
        for name in ("theta_t", "theta_s", "offset_w1", "offset_b1", "offset_w2", "offset_b2"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            # C-ordered, so values alone fix every product's bits; taps that
            # share one map (a zero tap stride) stay a broadcast of it.
            shared = name == "theta_t" and arr.strides[:1] == (0,)
            base = np.asarray(arr[:1] if shared else arr, order="C")
            if not np.all(np.isfinite(base)):
                raise ValueError(f"ScaleConfig: non-finite entries in {name}")
            object.__setattr__(self, name, np.broadcast_to(base, arr.shape) if shared else base)
        for name, ndim in (("theta_t", 3), ("theta_s", 2), ("offset_w1", 2)):
            if getattr(self, name).ndim != ndim:
                raise ValueError(f"ScaleConfig: {name} must be {ndim}-D")
        _check_sizes(self.tau, self.grid, c_in=self.c_in, c_prime=self.c_prime, c_out=self.c_out)
        n_points, hidden = self.grid * self.grid, self.offset_w1.shape[1]
        for name, shape in (
            ("theta_t", (self.tau, self.c_in, self.c_prime)),
            ("theta_s", (n_points * self.c_prime, self.c_out)),
            ("offset_w1", (self.c_prime, hidden)),
            ("offset_b1", (hidden,)),
            ("offset_w2", (hidden, 2 * n_points)),
            ("offset_b2", (2 * n_points,)),
        ):
            if getattr(self, name).shape != shape:
                raise ValueError(
                    f"ScaleConfig: {name} must have shape {shape}, got {getattr(self, name).shape}"
                )

    @property
    def c_in(self) -> int:
        return self.theta_t.shape[1]

    @property
    def c_prime(self) -> int:
        return self.theta_t.shape[2]

    @property
    def c_out(self) -> int:
        return self.theta_s.shape[1]

    @staticmethod
    def from_seed(
        tau: int,
        grid: int,
        c_in: int = DESK_C_IN,
        c_prime: int = DESK_C_PRIME,
        c_out: int = DESK_C_OUT,
        seed: int = 0,
    ) -> "ScaleConfig":
        """Deterministic fan-in scaled uniform weights from a seed.

        The temporal kernel factorizes as a uniform smoothing window times a
        random channel projection, so the untrained stage genuinely
        aggregates over its tau-frame window (a zero-mean random temporal
        kernel would cancel the window and leave no temporal pooling). Its
        taps are one read-only broadcast of ``channel_map / tau``, not tau
        copies, so ``temporal_conv`` projects each frame once; a dense copy
        gives the same frames. The offset head's final layer (and both
        biases) start at zero, so the deformable stage warm-starts as a
        standard convolution.
        """
        _check_sizes(tau, grid, c_in=c_in, c_prime=c_prime, c_out=c_out)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tau, grid])))
        n_points = grid * grid
        hidden = max(1, c_prime // 2)

        def uniform(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        channel_map = uniform((c_in, c_prime), c_in)
        return ScaleConfig(
            tau=tau,
            grid=grid,
            theta_t=np.broadcast_to(channel_map / tau, (tau, c_in, c_prime)),
            theta_s=uniform((n_points * c_prime, c_out), n_points * c_prime),
            offset_w1=uniform((c_prime, hidden), c_prime),
            offset_b1=np.zeros(hidden),
            offset_w2=np.zeros((hidden, 2 * n_points)),
            offset_b2=np.zeros(2 * n_points),
        )


@dataclass(frozen=True)
class DescriptorSequence:
    """Ordered unit-role descriptors with per-scale provenance.

    ``vectors`` is a finite L x D array with L, D >= 1; ``scale_ids`` and
    ``times`` give each entry's originating scale index and output timestamp.
    ``scaled`` is ``vectors`` times 2^-e, e the multiple of 256 nearest the
    binary exponent of its largest |entry|, which then lies within 2^±129.
    The scaling is exact, so cosines and normalized products of ``scaled``
    rows keep their bits, and no square or product of two entries over- or
    underflows at any float64 scale. It is computed once, when the sequence
    is built; ordinary scales have e = 0, and ``scaled`` is ``vectors``.
    ``unit`` (each ``scaled`` row over its own norm, a zero row staying zero)
    and ``mean`` (the mean ``scaled`` row) are read-only, derived once, on
    first read; a pickled copy derives its own.
    """

    vectors: np.ndarray
    scale_ids: np.ndarray
    times: np.ndarray
    scaled: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        s = np.asarray(self.scale_ids, dtype=np.int64)
        t = np.asarray(self.times, dtype=np.int64)
        if v.ndim != 2 or s.shape != (v.shape[0],) or t.shape != (v.shape[0],):
            raise ValueError("DescriptorSequence: inconsistent shapes")
        if v.size == 0:
            raise ValueError(f"DescriptorSequence: L and D must be >= 1, got shape {v.shape}")
        # A NaN or an infinity anywhere makes this bound non-finite.
        bound = float(np.maximum(v.max(), -v.min()))
        if not np.isfinite(bound):
            raise ValueError("DescriptorSequence: non-finite entries")
        e = 256 * round(int(np.frexp(bound)[1]) / 256)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "scaled", np.ldexp(v, -e) if e else v)
        object.__setattr__(self, "scale_ids", s)
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def unit(self) -> np.ndarray:
        norm = np.linalg.norm(self.scaled, axis=1, keepdims=True)
        unit = np.divide(self.scaled, norm, out=np.zeros_like(self.scaled), where=norm != 0.0)
        unit.flags.writeable = False
        return unit

    @cached_property
    def mean(self) -> np.ndarray:
        mean = self.scaled.mean(axis=0)
        mean.flags.writeable = False
        return mean

    def __getstate__(self) -> dict:
        # Pickle protocol 4 would carry the cached arrays writeable.
        return {k: v for k, v in self.__dict__.items() if k not in ("unit", "mean")}

    def same_structure(self, other: "DescriptorSequence") -> bool:
        return (
            self.vectors.shape == other.vectors.shape
            and np.array_equal(self.scale_ids, other.scale_ids)
            and np.array_equal(self.times, other.times)
        )


def temporal_conv(x: np.ndarray, cfg: ScaleConfig) -> np.ndarray:
    """Valid temporal convolution of a pixel-major (T, H, W, C_in) clip:
    T frames become T - tau + 1, returned as a (T', H, W, C') array.

    The clip is one (T * M, C_in) matrix P with M = H * W. Tap k adds the
    row slice ``proj[k*M : (k + T')*M]`` of ``proj = P @ theta_t[k]``, all
    output frames at once. Taps that share one map (a zero tap-axis stride,
    as ``ScaleConfig.from_seed`` builds them) reuse the first projection,
    the same product, so the frames depend on the kernel's values, not its
    layout. The taps are summed in tap order; at tau = 1 the result is the
    projection.
    """
    t, h, w, c = x.shape
    if cfg.tau > t:
        raise ValueError(f"temporal_conv: tau={cfg.tau} exceeds clip length T={t}")
    if cfg.c_in != c:
        raise ValueError(f"temporal_conv: channel mismatch (clip {c}, kernel {cfg.c_in})")
    t_out = t - cfg.tau + 1
    m = h * w
    pixels = x.reshape(t * m, c)
    proj = pixels @ cfg.theta_t[0]
    acc = proj[: t_out * m]
    for k in range(1, cfg.tau):
        if cfg.theta_t.strides[0]:
            proj = pixels @ cfg.theta_t[k]
        rows = proj[k * m : (k + t_out) * m]
        # The first sum is a new buffer, so ``proj`` is never written.
        acc = acc + rows if k == 1 else np.add(acc, rows, out=acc)
    return acc.reshape(t_out, h, w, cfg.c_prime)


def temporal_difference(x: np.ndarray) -> np.ndarray:
    """Frame-to-frame difference; the first frame is defined as zero."""
    out = np.zeros_like(x)
    out[1:] = x[1:] - x[:-1]
    return out


def offset_mlp(diff: np.ndarray, cfg: ScaleConfig) -> np.ndarray:
    """Per-location offsets from the (T, H, W, C') temporal difference signal.

    Returns a (T, H, W, 2 * grid^2) field: for every frame, location and
    kernel point, an (dx, dy) pair stored at channels (2p, 2p + 1). Both
    layers are GEMMs over the (T * H * W, C') pixel matrix.
    """
    t, h, w, c = diff.shape
    hidden = diff.reshape(t * h * w, c) @ cfg.offset_w1
    hidden += cfg.offset_b1
    np.maximum(hidden, 0.0, out=hidden)
    off = hidden @ cfg.offset_w2
    off += cfg.offset_b2
    return off.reshape(t, h, w, -1)


def deformable_conv(x: np.ndarray, offsets: np.ndarray, cfg: ScaleConfig) -> np.ndarray:
    """Deformable spatial convolution of a pixel-major (T, H, W, C') clip with
    zero padding, same-size output.

    Returns a C-contiguous (T, C_out, M) array, M = H * W. Sampling is
    bilinear, so a frame's sampling is one linear map from its M pixels to
    its M * grid^2 (location, kernel point) samples, read into one
    (M * grid^2, C') patch buffer; one GEMM, ``theta_s.T @ patch.T``, then
    writes the frame's output slot. Sampling positions, corner pixels and
    in-frame tests are computed for a block of ``_SAMPLE_BLOCK`` frames at
    once, and the block is read one of two ways:

    - No sample of the block has a fractional position (zero or integer
      offsets, as every seeded scale's zero-initialized head gives): each
      sample is its corner (0, 0) at weight 1, so the patch is a row gather,
      ``take`` of the frame's pixels plus a zero row M for samples outside
      the frame. The patch has the bits the interpolation product below
      gives it: the pixels are copied as ``x + 0.0``, so a -0.0 pixel reads
      +0.0, as that product sums it.
    - Otherwise each sample's four corner weights (00, 01, 10, 11) are
      assigned into its row of an (M * grid^2, M + 1) interpolation matrix
      at the corners' pixel columns, a corner outside the frame goes to the
      spill column M, which the product leaves out, and the patch is
      ``interp[:, :M] @ x[t].reshape(M, C')``. The matrix is per frame and
      takes M * (M + 1) * grid^2 * 8 bytes (266 KB at 6x6 with grid 5), so
      it grows quadratically with the frame area.

    With all-zero offsets the result equals a standard grid convolution
    with the same kernel.
    ``offsets`` is the (T, H, W, 2 * grid^2) field ``offset_mlp`` returns,
    its shape trusted; only its finiteness is checked, since a finite
    offset head can overflow.
    """
    t, h, w, c = x.shape
    n_points = cfg.grid * cfg.grid
    if not np.all(np.isfinite(offsets)):
        raise ValueError("deformable_conv: non-finite offsets")
    m = h * w
    # Kernel points row-major over the grid; offsets are (dx, dy) per point.
    # Samples run location-major, point-minor, so the patch reshapes to
    # (M, grid^2 * C'), the ``point * c_prime + channel`` order of theta_s.
    k = np.arange(-(cfg.grid // 2), cfg.grid // 2 + 1)
    base_rows = np.arange(h)[:, None, None] + np.repeat(k, cfg.grid)
    base_cols = np.arange(w)[:, None] + np.tile(k, cfg.grid)
    # Where each sample's row starts in the flattened interpolation matrix.
    row_starts = np.arange(0, m * n_points * (m + 1), m + 1).reshape(h, w, n_points)
    out = np.empty((t, cfg.c_out, m))
    # One frame's pixels with a zero spill row M, and one frame's patch.
    padded = np.zeros((m + 1, c))
    patch = np.empty((m * n_points, c))
    for start in range(0, t, _SAMPLE_BLOCK):
        block = offsets[start : start + _SAMPLE_BLOCK]
        rows = base_rows + block[..., 1::2]
        cols = base_cols + block[..., 0::2]
        # Every corner spills past one pixel out, so clipping there fits int64.
        np.clip(rows, -2, h + 1, out=rows)
        np.clip(cols, -2, w + 1, out=cols)
        r0 = np.floor(rows).astype(np.int64)
        c0 = np.floor(cols).astype(np.int64)
        rows -= r0
        cols -= c0
        row_in = ((r0 >= 0) & (r0 < h), (r0 >= -1) & (r0 < h - 1))
        col_in = ((c0 >= 0) & (c0 < w), (c0 >= -1) & (c0 < w - 1))
        # Pixel of corner (0, 0), in place of r0.
        r0 *= w
        r0 += c0
        del c0
        if not (rows.any() or cols.any()):
            # Integral block: each sample reads its corner (0, 0)'s row of
            # ``padded``, or the zero row M where that corner spills.
            np.copyto(r0, m, where=~(row_in[0] & col_in[0]))
            pixel = r0.reshape(len(block), -1)
            del rows, cols, r0, row_in, col_in
            for f, ti in enumerate(range(start, start + len(block))):
                np.add(x[ti].reshape(m, c), 0.0, out=padded[:m])
                # Every index is in range; mode="clip" only spares the
                # buffer "raise" copies ``out`` through.
                np.take(padded, pixel[f], axis=0, out=patch, mode="clip")
                np.matmul(cfg.theta_s.T, patch.reshape(m, n_points * c).T, out=out[ti])
            # Freed before the next block builds its own.
            del pixel
            continue
        # Per frame of the block, each corner's weight and flat
        # interpolation-matrix index, corner-major. Corner (dr, dc) weighs a
        # row weight times a column weight, and it is in the frame where
        # row r0 + dr and column c0 + dc are. The weights come first, so
        # the fractional parts are freed before the indices are built.
        corners = ((0, 0), (0, 1), (1, 0), (1, 1))
        weight = np.empty((len(block), 4, h, w, n_points))
        row_weight, col_weight = (1 - rows, rows), (1 - cols, cols)
        for q, (dr, dc) in enumerate(corners):
            np.multiply(row_weight[dr], col_weight[dc], out=weight[:, q])
        del rows, cols, row_weight, col_weight
        # Flat index of corner (0, 0).
        r0 += row_starts
        index = np.empty(weight.shape, dtype=np.int64)
        for q, (dr, dc) in enumerate(corners):
            np.add(r0, dr * w + dc, out=index[:, q])
            np.copyto(index[:, q], row_starts + m, where=~(row_in[dr] & col_in[dc]))
        del r0, row_in, col_in
        for f, ti in enumerate(range(start, start + len(block))):
            interp = np.zeros((m * n_points, m + 1))
            interp.reshape(-1)[index[f]] = weight[f]
            np.matmul(interp[:, :m], x[ti].reshape(m, c), out=patch)
            np.matmul(cfg.theta_s.T, patch.reshape(m, n_points * c).T, out=out[ti])
            # Freed before the next frame allocates its own.
            del interp
        # Freed before the next block builds its own.
        del index, weight
    return out


def scale_frames(x: np.ndarray, cfg: ScaleConfig) -> np.ndarray:
    """The per-scale pipeline on a pixel-major (T, H, W, C_in) clip: temporal
    conv, temporal-difference offsets and deformable conv. Returns the
    T - tau + 1 frames as one (T', C_out, M) array. ``x`` is released once
    the temporal conv has read it, so a caller that hands over its only
    reference frees the clip before the deformable conv."""
    xt = temporal_conv(x, cfg)
    del x
    offsets = offset_mlp(temporal_difference(xt), cfg)
    return deformable_conv(xt, offsets, cfg)


def _second_order(per_scale: list[np.ndarray]) -> list[np.ndarray]:
    """Each scale's (T', C, M) frames as normalized, vectorized second
    moments, one ``second_moment`` call per scale. They fill one (N, C, C)
    stack, whose power estimate validates them and shifts a copy once for
    the clip, with the bits of a per-moment estimate."""
    moments = np.concatenate([second_moment(frames) for frames in per_scale])
    norms = spectral_norm_estimates(moments)
    return [vectorize_spd(newton_schulz_sqrt(a, norm)) for a, norm in zip(moments, norms)]


def _first_order(per_scale: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([frames.mean(axis=2) for frames in per_scale])


def multi_scale_frames(clip: FeatureClip, scales: list[ScaleConfig]) -> list[np.ndarray]:
    """Every scale's ``scale_frames`` of one clip, in scale order, one
    (T', C_out, M) array each: the frames both multi-scale representations
    reduce. The scales are checked before any frame is built: there must be
    at least one, and all must share one c_out, so that all descriptors of
    a sequence have one dimension. The clip is laid out pixel-major,
    (T, H, W, C), once for all scales; the last scale gets the only
    reference to that copy, which is freed before its deformable conv."""
    if not scales:
        raise ValueError("multi_scale_frames: no scales given")
    if any(s.c_out != scales[0].c_out for s in scales):
        raise ValueError("multi_scale_frames: all scales must share c_out")
    layout = [np.ascontiguousarray(clip.data.transpose(0, 2, 3, 1))]
    frames = [scale_frames(layout[0], cfg) for cfg in scales[:-1]]
    return frames + [scale_frames(layout.pop(), scales[-1])]


def _sequence(per_scale: list[np.ndarray], reduce) -> DescriptorSequence:
    """Reduce every (T', C, M) scale of frames to one vector per frame,
    ordered scale-major, time-minor; ``reduce`` takes all of the clip's
    scales in one call."""
    counts = [len(frames) for frames in per_scale]
    return DescriptorSequence(
        reduce(per_scale),
        np.repeat(np.arange(len(counts)), counts),
        np.concatenate([np.arange(k) for k in counts]),
    )


def _clip_frames(clip: FeatureClip) -> list[np.ndarray]:
    """The raw clip as a single scale of (T, C, M) frames."""
    t, c, h, w = clip.data.shape
    return [clip.data.reshape(t, c, h * w)]


def multi_scale_descriptors(frames: list[np.ndarray]) -> DescriptorSequence:
    """Normalized, vectorized second moments across all scales of
    ``multi_scale_frames(clip, scales)``.

    Entries are ordered scale-major, time-minor; L = sum_b (T - tau_b + 1).
    """
    return _sequence(frames, _second_order)


def cov_mn_descriptors(clip: FeatureClip) -> DescriptorSequence:
    """Single-scale baseline: plain per-frame second moments, normalized and
    vectorized. Bit-identical to the identity-weight multi-scale pathway."""
    return _sequence(_clip_frames(clip), _second_order)


def gap_descriptor(clip: FeatureClip) -> DescriptorSequence:
    """First-order baseline: per-frame spatial global average pooling."""
    return _sequence(_clip_frames(clip), _first_order)


def multi_scale_first_order(frames: list[np.ndarray]) -> DescriptorSequence:
    """Multi-scale ablation arm without the second-order moment: each frame
    of ``multi_scale_frames(clip, scales)`` is spatially averaged."""
    return _sequence(frames, _first_order)


def default_scales(
    c_in: int = DESK_C_IN,
    c_prime: int = DESK_C_PRIME,
    c_out: int = DESK_C_OUT,
    taus: tuple[int, ...] = DEFAULT_TAUS,
    grids: tuple[int, ...] = DEFAULT_GRIDS,
    seed: int = 0,
) -> list[ScaleConfig]:
    """The optimal multi-scale configuration: taus (1,3,5) paired with grid
    sides (1,3,5), seeded weights."""
    if len(taus) != len(grids):
        raise ValueError("default_scales: taus and grids must pair up")
    return [
        ScaleConfig.from_seed(tau, grid, c_in, c_prime, c_out, seed=seed)
        for tau, grid in zip(taus, grids)
    ]
