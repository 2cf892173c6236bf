"""Descriptor pipeline: shapes, naive oracles, and baseline reductions."""

import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momalign import descriptor
from momalign.descriptor import (
    DESK_C_IN,
    DESK_C_OUT,
    DESK_C_PRIME,
    PAPER_C_IN,
    PAPER_C_OUT,
    PAPER_C_PRIME,
    DescriptorSequence,
    FeatureClip,
    ScaleConfig,
    cov_mn_descriptors,
    default_scales,
    deformable_conv,
    gap_descriptor,
    multi_scale_descriptors,
    multi_scale_first_order,
    multi_scale_frames,
    offset_mlp,
    scale_frames,
    temporal_conv,
    temporal_difference,
)
from momalign.linalg import second_moment, vectorize_spd
from test_linalg import own_norm_sqrt, reference_newton_schulz_sqrt


F32_MAX = float(np.finfo(np.float32).max)


def random_clip(rng, t=8, c=6, h=4, w=5):
    return FeatureClip(rng.standard_normal((t, c, h, w)))


def pixel_major(a):
    """A channel-major (T, C, H, W) clip or (T, 2P, H, W) offset field as the
    contiguous pixel-major (T, H, W, C) array the per-scale stages take."""
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


def random_pixels(rng, t=8, c=6, h=4, w=5):
    """``random_clip``'s draws, laid out pixel-major."""
    return pixel_major(rng.standard_normal((t, c, h, w)))


def random_cfg(rng, tau, grid, c_in=6, c_prime=4, c_out=3):
    n_points = grid * grid
    hidden = 2
    return ScaleConfig(
        tau=tau,
        grid=grid,
        theta_t=rng.standard_normal((tau, c_in, c_prime)),
        theta_s=rng.standard_normal((n_points * c_prime, c_out)),
        offset_w1=rng.standard_normal((c_prime, hidden)),
        offset_b1=rng.standard_normal(hidden),
        offset_w2=rng.standard_normal((hidden, 2 * n_points)),
        offset_b2=rng.standard_normal(2 * n_points),
    )


def identity_scale(channels):
    """tau=1, 1x1 grid, identity theta stages and zero offsets: reduces the
    full pipeline to plain per-frame second moments of the raw features."""
    eye = np.eye(channels)
    return ScaleConfig(
        tau=1,
        grid=1,
        theta_t=eye[np.newaxis, :, :],
        theta_s=eye,
        offset_w1=np.zeros((channels, 1)),
        offset_b1=np.zeros(1),
        offset_w2=np.zeros((1, 2)),
        offset_b2=np.zeros(2),
    )


def reference_cov_mn_descriptors(clip):
    """The per-frame loop ``cov_mn_descriptors`` ran before the shared
    sequence builder; kept as the bitwise reference."""
    t, c, h, w = clip.data.shape
    vectors = [
        vectorize_spd(own_norm_sqrt(second_moment(clip.data[i].reshape(c, h * w))))
        for i in range(t)
    ]
    return DescriptorSequence(np.array(vectors), np.zeros(t, dtype=np.int64), np.arange(t))


def reference_multi_scale_descriptors(clip, scales):
    """Each scale's frames reduced one at a time by the per-matrix square
    root, before one power iteration served a scale; kept as the bitwise
    reference."""
    vectors, scale_ids, times = [], [], []
    for b, cfg in enumerate(scales):
        for t, frame in enumerate(scale_frames(pixel_major(clip.data), cfg)):
            vectors.append(vectorize_spd(reference_newton_schulz_sqrt(second_moment(frame))))
            scale_ids.append(b)
            times.append(t)
    return DescriptorSequence(np.array(vectors), np.array(scale_ids), np.array(times))


def reference_gap_descriptor(clip):
    """The vectorized spatial mean ``gap_descriptor`` ran before the shared
    sequence builder; kept as the bitwise reference."""
    means = clip.data.mean(axis=(2, 3))
    t = means.shape[0]
    return DescriptorSequence(means, np.zeros(t, dtype=np.int64), np.arange(t))


def reference_clips(rng):
    """Clips of the shapes stored clips take, plus odd sizes. They are
    contiguous, as ``load_clip`` returns them: on a transposed view the old
    ``mean(axis=(2, 3))`` sums in another order than a per-frame mean."""
    for shape in ((8, DESK_C_IN, 6, 6), (28, 16, 6, 6), (1, 3, 1, 1), (4, 5, 13, 11)):
        yield FeatureClip(rng.standard_normal(shape) * rng.uniform(0.01, 100.0))


def assert_same_sequence(got, ref):
    assert got.vectors.shape == ref.vectors.shape
    assert np.array_equal(got.vectors, ref.vectors)
    assert np.array_equal(got.scale_ids, ref.scale_ids)
    assert np.array_equal(got.times, ref.times)


class TestFeatureClip:
    def test_rejects_non_4d(self):
        with pytest.raises(ValueError):
            FeatureClip(np.zeros((2, 3, 4)))

    def test_rejects_non_finite(self):
        data = np.zeros((1, 1, 2, 2))
        data[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            FeatureClip(data)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_message(self, value):
        data = np.ones((2, 2, 3, 3))
        data[1, 0, 2, 1] = value
        with pytest.raises(ValueError, match="^FeatureClip: non-finite entries$"):
            FeatureClip(data)

    @pytest.mark.parametrize("value", [1e200, -1e200, np.nextafter(F32_MAX, np.inf)])
    def test_rejects_entries_beyond_float32(self, value):
        data = np.ones((2, 2, 3, 3))
        data[1, 0, 2, 1] = value
        with pytest.raises(ValueError) as exc:
            FeatureClip(data)
        assert str(exc.value) == "FeatureClip: entries beyond the float32 range (|x| > 3.402823e+38)"

    def test_accepts_float32_max(self):
        data = np.ones((2, 2, 3, 3))
        data[0, 1, 0, 0], data[1, 0, 2, 1] = F32_MAX, -F32_MAX
        assert np.array_equal(FeatureClip(data).data, data)

    @pytest.mark.parametrize("shape", [(0, 2, 3, 3), (2, 0, 3, 3), (2, 2, 0, 3), (2, 2, 3, 0)])
    def test_rejects_empty_extent(self, shape):
        with pytest.raises(
            ValueError, match="^FeatureClip: empty temporal, channel or spatial extent$"
        ):
            FeatureClip(np.zeros(shape))


def reference_temporal_conv(x, cfg):
    """Reference: one einsum over the tau-frame window per output frame, as
    ``temporal_conv`` ran before its GEMM-per-tap rewrite."""
    frames, h, w, _ = x.shape
    t_out = frames - cfg.tau + 1
    out = np.empty((t_out, h, w, cfg.c_prime))
    for t in range(t_out):
        out[t] = np.einsum("kcd,khwc->hwd", cfg.theta_t, x[t : t + cfg.tau])
    return out


def per_tap_temporal_conv(x, cfg):
    """Reference: one GEMM per tap, summed in tap order, as ``temporal_conv``
    ran before taps that share one map shared one projection."""
    t, h, w, c = x.shape
    t_out, m = t - cfg.tau + 1, h * w
    pixels = x.reshape(t * m, c)
    acc = pixels[: t_out * m] @ cfg.theta_t[0]
    for k in range(1, cfg.tau):
        acc += pixels[k * m : (k + t_out) * m] @ cfg.theta_t[k]
    return acc.reshape(t_out, h, w, cfg.c_prime)


def materialized(cfg):
    """``cfg`` with its temporal taps copied into tau dense slices, so that
    ``temporal_conv`` projects the clip once per tap."""
    return dataclasses.replace(cfg, theta_t=np.array(cfg.theta_t))


#: (C_in, C', H, W) shapes at which OpenBLAS rounds a row slice of one
#: product unlike the same rows multiplied alone.
ODD_SHAPES = [
    (64, 1, 6, 6),
    (2048, 2, 6, 6),
    (2048, 5, 6, 6),
    (256, 33, 6, 6),
    (64, 32, 1, 1),
    (64, 32, 2, 3),
    (2048, 32, 2, 3),
]


class TestTemporalConv:
    def test_pointwise_kernel_keeps_length(self):
        rng = np.random.default_rng(0)
        out = temporal_conv(random_pixels(rng, t=8), random_cfg(rng, 1, 1))
        assert out.shape[0] == 8

    def test_valid_lengths(self):
        rng = np.random.default_rng(1)
        x = random_pixels(rng, t=8)
        assert temporal_conv(x, random_cfg(rng, 3, 1)).shape[0] == 6
        assert temporal_conv(x, random_cfg(rng, 5, 1)).shape[0] == 4

    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(2)
        x = random_pixels(rng, t=6, c=3, h=2, w=2)
        cfg = random_cfg(rng, 3, 1, c_in=3, c_prime=2)
        out = temporal_conv(x, cfg)
        for t in range(4):
            for d in range(2):
                for i in range(2):
                    for j in range(2):
                        acc = 0.0
                        for k in range(3):
                            for c in range(3):
                                acc += cfg.theta_t[k, c, d] * x[t + k, i, j, c]
                        assert abs(out[t, i, j, d] - acc) < 1e-12

    def test_matches_reference_at_paper_like_width(self):
        # C_in = 256 and a random (non-factorized) kernel over tau = 5 taps:
        # measured at most 3.5e-15 * max|ref| per frame over 20 seeds.
        rng = np.random.default_rng(21)
        x = random_pixels(rng, t=8, c=256, h=4, w=5)
        cfg = random_cfg(rng, 5, 1, c_in=256, c_prime=32)
        out = temporal_conv(x, cfg)
        expect = reference_temporal_conv(x, cfg)
        assert out.shape == expect.shape == (4, 4, 5, 32)
        for got, ref in zip(out, expect):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "c_in, c_prime, c_out, t",
        [
            (DESK_C_IN, DESK_C_PRIME, DESK_C_OUT, 8),
            (DESK_C_IN, DESK_C_PRIME, DESK_C_OUT, 28),
            (PAPER_C_IN, PAPER_C_PRIME, PAPER_C_OUT, 6),
            (PAPER_C_IN, PAPER_C_PRIME, PAPER_C_OUT, 8),
        ],
    )
    def test_shared_taps_match_per_tap_bitwise_at_workload_shapes(self, c_in, c_prime, c_out, t):
        # from_seed's taps share one map, so each frame is projected once;
        # that has the bits of the same kernel materialized and, at the
        # shapes of the stored clips, of one GEMM over T' frames per tap,
        # summed in tap order.
        rng = np.random.default_rng(23)
        clip = FeatureClip(rng.standard_normal((t, c_in, 6, 6)))
        scales = default_scales(c_in, c_prime, c_out)
        dense = [materialized(cfg) for cfg in scales]
        x = pixel_major(clip.data)
        for cfg, ref in zip(scales, dense, strict=True):
            assert cfg.theta_t.strides[0] == 0
            assert ref.theta_t.strides[0] != 0
            out = temporal_conv(x, cfg)
            assert np.array_equal(out, temporal_conv(x, ref))
            assert np.array_equal(out, per_tap_temporal_conv(x, ref))
        got, ref = multi_scale_frames(clip, scales), multi_scale_frames(clip, dense)
        for g, r in zip(got, ref, strict=True):
            assert np.array_equal(g, r)

    @pytest.mark.parametrize("c_in, c_prime, h, w", ODD_SHAPES)
    def test_shared_taps_match_per_tap_at_odd_shapes(self, c_in, c_prime, h, w):
        # Every tap slices a projection of all T frames, whether the taps
        # share one map or not, so the shapes at which a row slice rounds
        # unlike the rows alone cannot tell the two apart.
        rng = np.random.default_rng(24)
        for tau in (3, 5):
            cfg = ScaleConfig.from_seed(tau, 1, c_in=c_in, c_prime=c_prime, c_out=4)
            for t in (5, 6, 8):
                x = random_pixels(rng, t=t, c=c_in, h=h, w=w)
                out = temporal_conv(x, cfg)
                assert np.array_equal(out, temporal_conv(x, materialized(cfg)))

    @pytest.mark.parametrize("c_in, c_prime, h, w", ODD_SHAPES)
    def test_dense_copy_keeps_frames_and_descriptors_at_odd_shapes(self, c_in, c_prime, h, w):
        rng = np.random.default_rng(26)
        scales = default_scales(c_in, c_prime, 4)
        dense = [materialized(cfg) for cfg in scales]
        for t in (5, 6, 8):
            clip = FeatureClip(rng.standard_normal((t, c_in, h, w)))
            got, ref = multi_scale_frames(clip, scales), multi_scale_frames(clip, dense)
            for g, r in zip(got, ref, strict=True):
                assert np.array_equal(g, r)
            assert_same_sequence(multi_scale_descriptors(got), multi_scale_descriptors(ref))

    def test_shared_taps_hold_projection_and_sum(self):
        # Shared taps hold the T-frame projection and the T'-frame sum, not
        # one product per tap: at tau = 5, T = 28 the peak is near
        # (T + T') frames of M * C' entries (measured 1.002 times that).
        rng = np.random.default_rng(25)
        cfg = ScaleConfig.from_seed(5, 1)
        x = random_pixels(rng, t=28, c=DESK_C_IN, h=6, w=6)
        tracemalloc.start()
        try:
            temporal_conv(x, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * (28 + 24) * 6 * 6 * DESK_C_PRIME * 8

    def test_output_is_pixel_major(self):
        rng = np.random.default_rng(22)
        out = temporal_conv(random_pixels(rng, t=6), random_cfg(rng, 3, 1))
        assert out.shape == (4, 4, 5, 4)
        assert out.flags.c_contiguous

    def test_zero_clip_zero_output(self):
        rng = np.random.default_rng(3)
        cfg = random_cfg(rng, 3, 1)
        out = temporal_conv(np.zeros((8, 4, 5, 6)), cfg)
        assert np.all(out == 0.0)

    def test_rejects_tau_longer_than_clip(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            temporal_conv(random_pixels(rng, t=2), random_cfg(rng, 3, 1))


class TestTemporalDifference:
    def test_constant_clip_all_zero(self):
        assert np.all(temporal_difference(np.ones((5, 3, 3, 2))) == 0.0)

    def test_single_frame_zero(self):
        rng = np.random.default_rng(5)
        assert np.all(temporal_difference(random_pixels(rng, t=1)) == 0.0)

    def test_two_frames(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((1, 2, 2, 2))
        b = rng.standard_normal((1, 2, 2, 2))
        diff = temporal_difference(np.concatenate([a, b]))
        assert np.all(diff[0] == 0.0)
        assert np.allclose(diff[1], b[0] - a[0], atol=1e-15)


class TestOffsetMlp:
    @settings(max_examples=100, deadline=None)
    @given(
        tau=st.integers(1, 5),
        grid=st.sampled_from([1, 3, 5, 7]),
        c_in=st.integers(1, 64),
        c_prime=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-300, 300),
    )
    def test_zero_init_head_gives_zero_offsets(self, tau, grid, c_in, c_prime, seed, exponent):
        # Every seeded scale starts as a standard convolution: its offsets
        # are exactly zero for a finite input at any scale, so
        # deformable_conv reads whole pixels.
        cfg = ScaleConfig.from_seed(tau, grid, c_in=c_in, c_prime=c_prime, c_out=3, seed=seed)
        rng = np.random.default_rng(seed)
        diff = random_pixels(rng, t=3, c=c_prime, h=3, w=2) * 10.0**exponent
        off = offset_mlp(diff, cfg)
        assert off.shape == (3, 3, 2, 2 * grid * grid)
        assert np.all(off == 0.0)

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(8)
        cfg = random_cfg(rng, 1, 3, c_prime=4)
        diff = random_pixels(rng, t=2, c=4, h=3, w=3)
        off = offset_mlp(diff, cfg)
        assert off.shape == (2, 3, 3, 18)
        for t in range(2):
            for i in range(3):
                for j in range(3):
                    x = diff[t, i, j]
                    hidden = np.maximum(x @ cfg.offset_w1 + cfg.offset_b1, 0.0)
                    expect = hidden @ cfg.offset_w2 + cfg.offset_b2
                    assert np.allclose(off[t, i, j], expect, atol=1e-12)

    def test_matches_per_pixel_oracle_at_paper_width(self):
        # c_prime = 256, hidden 128 and a nonzero head: measured at most
        # 1.4e-15 * max|expect| per pixel over 20 seeds.
        rng = np.random.default_rng(23)
        cfg = dataclasses.replace(
            ScaleConfig.from_seed(1, 3, c_in=4, c_prime=256, c_out=3, seed=2),
            offset_b1=rng.standard_normal(128),
            offset_w2=rng.standard_normal((128, 18)),
            offset_b2=rng.standard_normal(18),
        )
        diff = random_pixels(rng, t=2, c=256, h=3, w=4)
        off = offset_mlp(diff, cfg)
        assert off.shape == (2, 3, 4, 18)
        assert np.any(off != 0.0)
        for t in range(2):
            for i in range(3):
                for j in range(4):
                    x = diff[t, i, j]
                    hidden = np.maximum(x @ cfg.offset_w1 + cfg.offset_b1, 0.0)
                    expect = hidden @ cfg.offset_w2 + cfg.offset_b2
                    got = off[t, i, j]
                    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


def bilinear_sample(plane: np.ndarray, x: float, y: float) -> float:
    """Oracle: scalar bilinear interpolation at (x, y) = (column, row) with
    zero padding. Neighbor pixels outside the grid contribute 0."""
    plane = np.asarray(plane, dtype=np.float64)
    h, w = plane.shape
    x0 = int(np.floor(x))
    y0 = int(np.floor(y))
    fx = x - x0
    fy = y - y0
    total = 0.0
    for dy_, dx_, wgt in (
        (0, 0, (1 - fy) * (1 - fx)),
        (0, 1, (1 - fy) * fx),
        (1, 0, fy * (1 - fx)),
        (1, 1, fy * fx),
    ):
        yy, xx = y0 + dy_, x0 + dx_
        if 0 <= yy < h and 0 <= xx < w:
            total += wgt * plane[yy, xx]
    return total


class TestBilinearSample:
    def test_integer_coordinates_exact(self):
        plane = np.arange(12.0).reshape(3, 4)
        assert bilinear_sample(plane, 2.0, 1.0) == plane[1, 2]

    def test_midpoint_average(self):
        plane = np.array([[1.0, 3.0], [5.0, 7.0]])
        assert bilinear_sample(plane, 0.5, 0.0) == pytest.approx(2.0)

    def test_far_outside_is_zero(self):
        plane = np.ones((4, 4))
        assert bilinear_sample(plane, -5.0, -5.0) == 0.0

    def test_partially_outside_zero_padded(self):
        plane = np.ones((2, 2))
        # Halfway off the left edge: half the mass falls on padding.
        assert bilinear_sample(plane, -0.5, 0.0) == pytest.approx(0.5)


def naive_standard_conv(x, theta_s, grid):
    """Oracle: zero-padded standard convolution via explicit loops."""
    c, h, w = x.shape
    r = grid // 2
    c_out = theta_s.shape[1]
    out = np.zeros((c_out, h, w))
    for i in range(h):
        for j in range(w):
            patch = np.zeros(grid * grid * c)
            p = 0
            for ki in range(-r, r + 1):
                for kj in range(-r, r + 1):
                    ii, jj = i + ki, j + kj
                    if 0 <= ii < h and 0 <= jj < w:
                        patch[p * c : (p + 1) * c] = x[:, ii, jj]
                    p += 1
            out[:, i, j] = patch @ theta_s
    return out


def reference_bilinear_grid(planes, rows, cols):
    """The per-kernel-point sampler ``deformable_conv`` used before it
    gathered all kernel points at once, kept as the bitwise reference.

    ``planes`` is (C, H, W); ``rows``/``cols`` are (H, W) fractional
    coordinates. Returns (C, H, W).
    """
    c, h, w = planes.shape
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    fr = rows - r0
    fc = cols - c0
    out = np.zeros((c, h, w))
    flat = planes.reshape(c, -1)
    for dr, dc, wgt in (
        (0, 0, (1 - fr) * (1 - fc)),
        (0, 1, (1 - fr) * fc),
        (1, 0, fr * (1 - fc)),
        (1, 1, fr * fc),
    ):
        rr = r0 + dr
        cc = c0 + dc
        valid = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
        idx = np.where(valid, rr * w + cc, 0)
        vals = flat[:, idx.ravel()].reshape(c, h, w)
        out += (wgt * valid) * vals
    return out


def reference_deformable_conv(x, offsets, cfg):
    """Reference: one ``reference_bilinear_grid`` call per (frame, kernel
    point), as ``deformable_conv`` ran before its single-gather rewrite, on
    channel-major views of the pixel-major clip and offset field."""
    x, offsets = np.moveaxis(x, -1, 1), np.moveaxis(offsets, -1, 1)
    t, c, h, w = x.shape
    n_points = cfg.grid * cfg.grid
    r = cfg.grid // 2
    base_rows, base_cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    kernel_pts = [(ki, kj) for ki in range(-r, r + 1) for kj in range(-r, r + 1)]

    out = []
    for ti in range(t):
        patch = np.empty((n_points * c, h, w))
        for p, (ki, kj) in enumerate(kernel_pts):
            dx = offsets[ti, 2 * p]
            dy = offsets[ti, 2 * p + 1]
            rows = base_rows + ki + dy
            cols = base_cols + kj + dx
            patch[p * c : (p + 1) * c] = reference_bilinear_grid(x[ti], rows, cols)
        frame = np.einsum("po,phw->ohw", cfg.theta_s, patch)
        out.append(frame.reshape(cfg.c_out, h * w))
    return out


def bincount_deformable_conv(x, offsets, cfg):
    """Reference: ``deformable_conv`` as it built each frame's interpolation
    matrix before the spill column, from flat cell ids and ``np.bincount``,
    on channel-major views of the pixel-major clip and offset field. An
    out-of-frame corner lands on its row's cell 0 with weight 0, and
    bincount adds it to whatever else is there."""
    x, offsets = np.moveaxis(x, -1, 1), np.moveaxis(offsets, -1, 1)
    t, c, h, w = x.shape
    n_points = cfg.grid * cfg.grid
    m = h * w
    k = np.arange(-(cfg.grid // 2), cfg.grid // 2 + 1)
    base_rows = np.repeat(k, cfg.grid)[:, None, None] + np.arange(h)[:, None]
    base_cols = np.tile(k, cfg.grid)[:, None, None] + np.arange(w)
    row_start = (np.arange(m) * n_points + np.arange(n_points)[:, None]) * m
    out = []
    for ti in range(t):
        rows = base_rows + offsets[ti, 1::2]
        cols = base_cols + offsets[ti, 0::2]
        r0 = np.floor(rows).astype(np.int64)
        c0 = np.floor(cols).astype(np.int64)
        fr = rows - r0
        fc = cols - c0
        cells = []
        weights = []
        for rr, cc, wgt in (
            (r0, c0, (1 - fr) * (1 - fc)),
            (r0, c0 + 1, (1 - fr) * fc),
            (r0 + 1, c0, fr * (1 - fc)),
            (r0 + 1, c0 + 1, fr * fc),
        ):
            valid = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
            idx = np.where(valid, rr * w + cc, 0).reshape(n_points, m)
            cells.append(row_start + idx)
            weights.append(wgt * valid)
        interp = np.bincount(
            np.concatenate(cells, axis=None),
            weights=np.concatenate(weights, axis=None),
            minlength=m * n_points * m,
        ).reshape(m * n_points, m)
        pixels = np.ascontiguousarray(x[ti].reshape(c, m).T)
        patch = interp @ pixels
        out.append(cfg.theta_s.T @ patch.reshape(m, n_points * c).T)
    return out


def per_frame_deformable_conv(x, offsets, cfg):
    """Reference: ``deformable_conv`` as it ran before it sampled a block of
    frames at once, computing each frame's positions, corner columns and
    weights on their own; kept as the bitwise reference."""
    t, h, w, c = x.shape
    n_points = cfg.grid * cfg.grid
    m = h * w
    k = np.arange(-(cfg.grid // 2), cfg.grid // 2 + 1)
    base_rows = np.arange(h)[:, None, None] + np.repeat(k, cfg.grid)
    base_cols = np.arange(w)[:, None] + np.tile(k, cfg.grid)
    sample = np.arange(m * n_points).reshape(h, w, n_points)
    out = []
    for ti in range(t):
        rows = base_rows + offsets[ti, ..., 1::2]
        cols = base_cols + offsets[ti, ..., 0::2]
        r0 = np.floor(rows).astype(np.int64)
        c0 = np.floor(cols).astype(np.int64)
        fr = rows - r0
        fc = cols - c0
        interp = np.zeros((m * n_points, m + 1))
        for rr, cc, wgt in (
            (r0, c0, (1 - fr) * (1 - fc)),
            (r0, c0 + 1, (1 - fr) * fc),
            (r0 + 1, c0, fr * (1 - fc)),
            (r0 + 1, c0 + 1, fr * fc),
        ):
            valid = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
            interp[sample, np.where(valid, rr * w + cc, m)] = wgt
        patch = interp[:, :m] @ x[ti].reshape(m, c)
        out.append(cfg.theta_s.T @ patch.reshape(m, n_points * c).T)
    return out


def mixed_offsets(rng, shape):
    """Seeded (T, 2P, H, W) offset field mixing fractional in-frame shifts,
    shifts that leave the frame partly, whole-pixel shifts and very large
    shifts."""
    reach = max(shape[-2:]) + 2
    small = rng.uniform(-1.5, 1.5, shape)
    edge = rng.uniform(-reach, reach, shape)
    whole = np.round(edge)
    large = rng.standard_normal(shape) * 1e6
    kind = rng.integers(0, 4, shape)
    return np.choose(kind, [small, edge, whole, large])


class TestDeformableConv:
    @pytest.mark.parametrize("t", [1, 4, 6])
    def test_returns_one_contiguous_stack(self, t):
        # T = 6 ends on a partial sampling block.
        rng = np.random.default_rng(8)
        cfg = random_cfg(rng, 1, 3, c_prime=4)
        off = rng.uniform(-1.5, 1.5, (t, 5, 4, 18))
        frames = deformable_conv(random_pixels(rng, t=t, c=4, h=5, w=4), off, cfg)
        assert isinstance(frames, np.ndarray)
        assert frames.shape == (t, cfg.c_out, 5 * 4)
        assert frames.dtype == np.float64
        assert frames.flags.c_contiguous

    def test_zero_offsets_1x1_is_pointwise(self):
        rng = np.random.default_rng(9)
        cfg = random_cfg(rng, 1, 1, c_prime=4)
        data = rng.standard_normal((2, 4, 3, 3))
        off = np.zeros((2, 3, 3, 2))
        frames = deformable_conv(pixel_major(data), off, cfg)
        for t in range(2):
            expect = np.einsum("po,phw->ohw", cfg.theta_s, data[t]).reshape(cfg.c_out, 9)
            assert np.allclose(frames[t], expect, atol=1e-12)

    def test_zero_offsets_3x3_matches_oracle(self):
        rng = np.random.default_rng(10)
        cfg = random_cfg(rng, 1, 3, c_prime=4)
        data = rng.standard_normal((2, 4, 5, 4))
        off = np.zeros((2, 5, 4, 18))
        frames = deformable_conv(pixel_major(data), off, cfg)
        for t in range(2):
            oracle = naive_standard_conv(data[t], cfg.theta_s, 3)
            assert np.allclose(
                frames[t], oracle.reshape(cfg.c_out, -1), atol=1e-9
            )

    def test_fractional_offsets_match_scalar_sampler(self):
        rng = np.random.default_rng(11)
        cfg = random_cfg(rng, 1, 3, c_prime=2)
        data = rng.standard_normal((1, 2, 4, 4))
        off = rng.uniform(-1.5, 1.5, size=(1, 18, 4, 4))
        frames = deformable_conv(pixel_major(data), pixel_major(off), cfg)
        r = 1
        kernel_pts = [(ki, kj) for ki in range(-r, r + 1) for kj in range(-r, r + 1)]
        for i in range(4):
            for j in range(4):
                patch = np.zeros(9 * 2)
                for p, (ki, kj) in enumerate(kernel_pts):
                    dx = off[0, 2 * p, i, j]
                    dy = off[0, 2 * p + 1, i, j]
                    for c in range(2):
                        patch[p * 2 + c] = bilinear_sample(
                            data[0, c], j + kj + dx, i + ki + dy
                        )
                expect = patch @ cfg.theta_s
                assert np.allclose(frames[0][:, i * 4 + j], expect, atol=1e-9)

    @pytest.mark.parametrize("c_prime", [32, 256])
    @pytest.mark.parametrize("t", [1, 8, 28])
    @pytest.mark.parametrize("grid", [1, 3, 5])
    def test_matches_reference_bitwise(self, grid, t, c_prime):
        rng = np.random.default_rng([grid, t, c_prime])
        h, w = 4, 5
        cfg = random_cfg(rng, 1, grid, c_in=c_prime, c_prime=c_prime, c_out=3)
        x = random_pixels(rng, t=t, c=c_prime, h=h, w=w)
        off = pixel_major(mixed_offsets(rng, (t, 2 * grid * grid, h, w)))
        frames = deformable_conv(x, off, cfg)
        expect = reference_deformable_conv(x, off, cfg)
        assert len(frames) == len(expect) == t
        for got, ref in zip(frames, expect):
            assert got.shape == (3, h * w)
            assert got.flags.c_contiguous
            # BLAS sums the interpolation and theta_s products in its own
            # order: measured at most 8.6e-16 * max|ref| per frame over these
            # 18 cases.
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("grid", [1, 3, 5])
    @pytest.mark.parametrize("h, w", [(1, 5), (5, 1)])
    def test_matches_reference_on_one_row_or_column(self, h, w, grid):
        # Every fractional sample straddles the frame's thin side, so most
        # samples mix in-frame and out-of-frame corners: the in-frame ones
        # never share a cell, and the out-of-frame ones go to the spill column.
        rng = np.random.default_rng([h, w, grid])
        cfg = random_cfg(rng, 1, grid, c_in=8, c_prime=8, c_out=3)
        x = random_pixels(rng, t=3, c=8, h=h, w=w)
        off = pixel_major(rng.uniform(-1.5, 1.5, (3, 2 * grid * grid, h, w)))
        frames = deformable_conv(x, off, cfg)
        expect = reference_deformable_conv(x, off, cfg)
        for got, ref in zip(frames, expect, strict=True):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("kind", ["zero", "integer", "mixed", "small"])
    @pytest.mark.parametrize("h, w", [(6, 6), (4, 5), (1, 5), (5, 1)])
    @pytest.mark.parametrize("grid", [1, 3, 5])
    @pytest.mark.parametrize("c_prime", [8, 32, 256])
    def test_matches_bincount_build_bitwise(self, c_prime, grid, h, w, kind):
        # Assigning each in-frame corner's weight gives the bits bincount
        # summed: a sample's in-frame corners are four distinct pixels, and
        # bincount only ever added 0.0 to a weight. Zero and integer offsets
        # read each sample's pixel instead, with the same bits, -0.0 pixels
        # included; array_equal cannot tell -0.0 from 0.0, so the bit
        # patterns are compared.
        rng = np.random.default_rng([c_prime, grid, h, w, ord(kind[0])])
        cfg = random_cfg(rng, 1, grid, c_in=c_prime, c_prime=c_prime, c_out=3)
        x = random_pixels(rng, t=2, c=c_prime, h=h, w=w)
        shape = (2, 2 * grid * grid, h, w)
        if kind == "zero":
            off = np.zeros(shape)
        elif kind == "integer":
            # Shifts inside the frame and past its edge, and some of 50 that
            # deformable_conv gets as +-1e300: it clips those to one pixel
            # past the edge, where 50 spills too, while the build without
            # the clip would overflow int64 at 1e300.
            off = rng.integers(-max(h, w) - 2, max(h, w) + 3, shape).astype(np.float64)
            huge = rng.random(shape) < 0.1
            off[huge] = np.where(rng.random(shape) < 0.5, 50.0, -50.0)[huge]
            assert np.any(off != 0.0)
        elif kind == "mixed":
            off = mixed_offsets(rng, shape)
        else:
            off = rng.uniform(-1e-3, 1e-3, shape)
        sampled = np.where(huge, np.copysign(1e300, off), off) if kind == "integer" else off
        x[rng.random(x.shape) < 0.2] = -0.0
        frames = deformable_conv(x, pixel_major(sampled), cfg)
        expect = bincount_deformable_conv(x, pixel_major(off), cfg)
        for got, ref in zip(frames, expect, strict=True):
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("grid", [1, 3, 5])
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 9])
    def test_blocks_match_per_frame_sampling_bitwise(self, t, grid):
        # T' of 1 to 9 ends blocks of frames full and partial. A random
        # offset head samples between pixels and past the frame's edges, so
        # fractional weights and out-of-frame corners take part.
        rng = np.random.default_rng([t, grid, 49])
        h, w = 6, 5
        cfg = random_cfg(rng, 1, grid, c_in=8, c_prime=8, c_out=3)
        x = random_pixels(rng, t=t, c=8, h=h, w=w)
        off = offset_mlp(temporal_difference(x), cfg)
        rows = np.arange(h)[:, None, None] + off[..., 1::2]
        cols = np.arange(w)[:, None] + off[..., 0::2]
        assert np.any(off != np.round(off))
        assert np.any((rows < 0) | (rows > h - 1) | (cols < 0) | (cols > w - 1))
        frames = deformable_conv(x, off, cfg)
        expect = per_frame_deformable_conv(x, off, cfg)
        for got, ref in zip(frames, expect, strict=True):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("grid", [1, 3, 5])
    @pytest.mark.parametrize("fractional", [(1, 3, 2, 0), (6, 0, 4, 1), (8, 5, 0, 0)])
    def test_mixed_blocks_match_per_frame_sampling_bitwise(self, grid, fractional):
        # Integer offsets everywhere but one sample of one frame (frame,
        # row, column, offset channel). With T' = 9 that frame's block is
        # read through the interpolation matrix, its other frames integral
        # ones included, and the other blocks are read as pixels: the
        # fractional block comes first, second, or last and alone.
        rng = np.random.default_rng([grid, *fractional])
        h, w = 6, 5
        cfg = random_cfg(rng, 1, grid, c_in=8, c_prime=8, c_out=3)
        x = random_pixels(rng, t=9, c=8, h=h, w=w)
        x[rng.random(x.shape) < 0.2] = -0.0
        off = rng.integers(-3, 4, (9, h, w, 2 * grid * grid)).astype(np.float64)
        off[fractional] += 0.375
        frames = deformable_conv(x, off, cfg)
        expect = per_frame_deformable_conv(x, off, cfg)
        for got, ref in zip(frames, expect, strict=True):
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_huge_offsets_spill_like_out_of_frame_ones(self):
        # An offset of 1e19 or more used to overflow the int64 corner index
        # with an invalid-value warning. Past one pixel outside the frame
        # every corner spills, so a huge offset samples what one of 50 does.
        rng = np.random.default_rng(50)
        cfg = random_cfg(rng, 1, 3, c_prime=4)
        x = random_pixels(rng, t=5, c=4, h=4, w=5)
        off = pixel_major(rng.uniform(-1.5, 1.5, (5, 18, 4, 5)))
        far = rng.random(off.shape) < 0.3
        up = rng.random(off.shape) < 0.5
        near, huge = off.copy(), off.copy()
        near[far] = np.where(up, 50.0, -50.0)[far]
        huge[far] = np.where(up, 1e19, -1e300)[far]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = deformable_conv(x, huge, cfg)
        for g, ref in zip(got, deformable_conv(x, near, cfg), strict=True):
            assert np.array_equal(g, ref)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_offsets(self, bad):
        rng = np.random.default_rng(14)
        cfg = random_cfg(rng, 1, 3, c_prime=4)
        x = random_pixels(rng, t=2, c=4, h=3, w=3)
        off = np.zeros((2, 3, 3, 18))
        off[1, 2, 0, 5] = bad
        with pytest.raises(ValueError, match="deformable_conv: non-finite offsets"):
            deformable_conv(x, off, cfg)

    def test_working_set_does_not_grow_with_frames(self):
        # The sampling index math is per block of frames and the
        # interpolation matrix or pixel read per frame, so beyond its output
        # the call's peak memory must not scale with T, at fractional or
        # zero offsets.
        rng = np.random.default_rng(15)
        cfg = random_cfg(rng, 1, 5, c_in=32, c_prime=32, c_out=16)

        def working_set(t, scale):
            x = random_pixels(rng, t=t, c=32, h=6, w=6)
            off = pixel_major(scale * rng.uniform(-1.5, 1.5, (t, 50, 6, 6)))
            tracemalloc.start()
            try:
                frames = deformable_conv(x, off, cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - sum(f.nbytes for f in frames)

        # Against one full sampling block, so the ratio measures growth with
        # T alone: measured 1.005 at fractional offsets and 1.012 at zero.
        for scale in (1.0, 0.0):
            block = descriptor._SAMPLE_BLOCK
            assert working_set(28, scale) <= 1.05 * working_set(block, scale)

    def test_working_set_is_one_frame(self):
        # One patch serves every frame, and each frame's interpolation
        # matrix is freed before the next frame allocates its own, so beyond
        # its output the call's peak is near one frame's pair (2.1 MB here),
        # not two. Zero offsets read pixels into the same patch and build no
        # matrix, so their peak is near the patch alone (1.8 MB); numpy's
        # take with mode="raise" would copy the patch once more.
        rng = np.random.default_rng(16)
        cfg = random_cfg(rng, 1, 5, c_in=256, c_prime=256, c_out=128)
        x = random_pixels(rng, t=4, c=256, h=6, w=6)
        m, n_points = 6 * 6, 5 * 5
        patch = m * n_points * 256 * 8
        for scale, one_frame in ((1.0, patch + m * n_points * (m + 1) * 8), (0.0, patch)):
            off = pixel_major(scale * rng.uniform(-1.5, 1.5, (4, 50, 6, 6)))
            tracemalloc.start()
            try:
                frames = deformable_conv(x, off, cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - sum(f.nbytes for f in frames) <= 1.25 * one_frame

    def test_zero_clip_zero_output(self):
        rng = np.random.default_rng(12)
        cfg = random_cfg(rng, 1, 3, c_prime=4)
        off = rng.uniform(-1, 1, size=(1, 3, 3, 18))
        assert np.all(deformable_conv(np.zeros((1, 3, 3, 4)), off, cfg)[0] == 0.0)


class TestScaleMoment:
    """Per-frame second moments of one scale's deformable frames."""

    def test_frame_count(self):
        rng = np.random.default_rng(14)
        cfg = random_cfg(rng, 3, 1)
        frames = scale_frames(random_pixels(rng, t=8), cfg)
        assert frames.shape == (6, cfg.c_out, 4 * 5)
        assert frames.flags.c_contiguous

    def test_moments_are_psd(self):
        rng = np.random.default_rng(15)
        cfg = random_cfg(rng, 3, 3)
        for f in scale_frames(random_pixels(rng, t=5), cfg):
            m = second_moment(f)
            assert np.array_equal(m, m.T)
            assert np.linalg.eigvalsh(m).min() >= -1e-6

    def test_zero_clip_zero_moments(self):
        rng = np.random.default_rng(16)
        cfg = random_cfg(rng, 1, 1)
        for f in scale_frames(np.zeros((4, 3, 3, 6)), cfg):
            assert np.all(second_moment(f) == 0.0)


class TestMultiScaleFrames:
    """The one builder of a clip's multi-scale frames, and its scale checks."""

    def test_one_frame_list_per_scale(self):
        rng = np.random.default_rng(29)
        clip = random_clip(rng, t=6)
        scales = [random_cfg(rng, 1, 1), random_cfg(rng, 3, 3)]
        frames = multi_scale_frames(clip, scales)
        assert len(frames) == len(scales)
        for built, cfg in zip(frames, scales):
            alone = scale_frames(pixel_major(clip.data), cfg)
            assert len(built) == len(alone)
            assert all(np.array_equal(a, b) for a, b in zip(built, alone))

    @pytest.mark.parametrize("n_scales", [1, 2, 3])
    def test_transposes_clip_once_and_builds_no_feature_clip(self, monkeypatch, n_scales):
        rng = np.random.default_rng(31)
        clip = random_clip(rng, t=6)
        scales = [random_cfg(rng, tau, grid) for tau, grid in ((1, 1), (3, 3), (5, 1))][:n_scales]
        transposes = []

        class Watched(np.ndarray):
            def transpose(self, *axes):
                transposes.append(axes)
                return np.asarray(self).transpose(*axes)

        object.__setattr__(clip, "data", clip.data.view(Watched))
        built = []
        monkeypatch.setattr(
            descriptor, "FeatureClip", lambda data: built.append(data) or FeatureClip(data)
        )
        assert len(multi_scale_frames(clip, scales)) == n_scales
        assert len(transposes) == 1
        assert built == []

    def test_rejects_empty_scales(self):
        with pytest.raises(ValueError, match="^multi_scale_frames: no scales given$"):
            multi_scale_frames(FeatureClip(np.zeros((2, 2, 2, 2))), [])

    def test_rejects_mixed_c_out(self, monkeypatch):
        rng = np.random.default_rng(27)
        scales = [random_cfg(rng, 1, 1, c_out=3), random_cfg(rng, 1, 1, c_out=4)]
        ran = []
        monkeypatch.setattr(
            descriptor, "scale_frames", lambda x, cfg: ran.append(cfg) or []
        )
        with pytest.raises(ValueError, match="^multi_scale_frames: all scales must share c_out$"):
            multi_scale_frames(random_clip(rng), scales)
        assert ran == []


class TestMultiScaleDescriptors:
    def test_default_scales_length_and_order(self):
        rng = np.random.default_rng(17)
        clip = FeatureClip(rng.standard_normal((8, DESK_C_IN, 4, 4)))
        seq = multi_scale_descriptors(multi_scale_frames(clip, default_scales(seed=0)))
        assert len(seq) == 18
        assert list(seq.scale_ids) == [0] * 8 + [1] * 6 + [2] * 4
        assert list(seq.times) == list(range(8)) + list(range(6)) + list(range(4))

    def test_each_moment_validated_once_before_vectorizing(self, monkeypatch):
        # The power estimate validates all of a clip's moments at once, as
        # one (N, C, C) stack; the sqrt, given its norm, and vectorize_spd,
        # given its root, trust what they are handed.
        rng = np.random.default_rng(32)
        clip = random_clip(rng, t=6)
        frames = multi_scale_frames(clip, [random_cfg(rng, 1, 1), random_cfg(rng, 3, 3)])
        calls = []
        original = descriptor.spectral_norm_estimates
        monkeypatch.setattr(
            descriptor,
            "spectral_norm_estimates",
            lambda stack: calls.append(stack.shape) or original(stack),
        )
        assert len(multi_scale_descriptors(frames)) == 6 + 4
        assert calls == [(10, 3, 3)]

    def test_identity_single_scale_equals_cov_mn_bitwise(self):
        rng = np.random.default_rng(18)
        clip = FeatureClip(rng.standard_normal((5, 6, 3, 4)))
        seq = multi_scale_descriptors(multi_scale_frames(clip, [identity_scale(6)]))
        base = cov_mn_descriptors(clip)
        assert np.array_equal(seq.vectors, base.vectors)
        assert np.array_equal(seq.times, base.times)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(19)
        data = rng.standard_normal((8, DESK_C_IN, 4, 4))
        a = multi_scale_descriptors(multi_scale_frames(FeatureClip(data), default_scales(seed=5)))
        b = multi_scale_descriptors(
            multi_scale_frames(FeatureClip(data.copy()), default_scales(seed=5))
        )
        assert np.array_equal(a.vectors, b.vectors)

    @pytest.mark.parametrize("frames, offset_head", [(8, False), (28, False), (8, True)])
    def test_matches_reference_bitwise(self, frames, offset_head):
        rng = np.random.default_rng(28 + frames)
        clip = FeatureClip(rng.standard_normal((frames, DESK_C_IN, 6, 6)))
        scales = default_scales(seed=0)
        if offset_head:
            # A nonzero offset head samples between pixels, so every
            # bilinear corner weight takes part.
            scales = [
                dataclasses.replace(
                    cfg,
                    offset_w2=rng.uniform(-2.0, 2.0, cfg.offset_w2.shape),
                    offset_b2=rng.uniform(-1.5, 1.5, cfg.offset_b2.shape),
                )
                for cfg in scales
            ]
            xt = temporal_conv(pixel_major(clip.data), scales[1])
            offsets = offset_mlp(temporal_difference(xt), scales[1])
            assert np.any(offsets != np.round(offsets))
        assert_same_sequence(
            multi_scale_descriptors(multi_scale_frames(clip, scales)),
            reference_multi_scale_descriptors(clip, scales),
        )

    def test_rejects_mixed_c_out(self):
        rng = np.random.default_rng(20)
        scales = [random_cfg(rng, 1, 1, c_out=3), random_cfg(rng, 1, 1, c_out=4)]
        with pytest.raises(ValueError, match="all scales must share c_out"):
            multi_scale_descriptors(multi_scale_frames(random_clip(rng), scales))


class TestCovMnDescriptors:
    def test_matches_reference_bitwise(self):
        rng = np.random.default_rng(25)
        for clip in reference_clips(rng):
            assert_same_sequence(cov_mn_descriptors(clip), reference_cov_mn_descriptors(clip))

    def test_rejects_zero_channels(self):
        # A zero-channel clip never reaches the 0 x 0 moment: the clip itself
        # is rejected, as it is for every other representation.
        with pytest.raises(ValueError, match="FeatureClip: empty temporal, channel"):
            cov_mn_descriptors(FeatureClip(np.zeros((2, 0, 3, 3))))

    def test_rejects_zero_frame_as_the_sqrt_does(self):
        data = np.random.default_rng(30).standard_normal((3, 4, 2, 2))
        data[1] = 0.0
        with pytest.raises(ValueError) as alone:
            own_norm_sqrt(np.zeros((4, 4)))
        with pytest.raises(ValueError) as stacked:
            cov_mn_descriptors(FeatureClip(data))
        assert str(stacked.value) == str(alone.value)


class TestGapDescriptor:
    def test_matches_reference_bitwise(self):
        rng = np.random.default_rng(26)
        for clip in reference_clips(rng):
            assert_same_sequence(gap_descriptor(clip), reference_gap_descriptor(clip))

    def test_uniform_frame(self):
        clip = FeatureClip(np.full((3, 4, 2, 2), 2.5))
        seq = gap_descriptor(clip)
        assert np.allclose(seq.vectors, 2.5, atol=1e-15)

    def test_single_location_is_raw(self):
        rng = np.random.default_rng(21)
        data = rng.standard_normal((4, 5, 1, 1))
        seq = gap_descriptor(FeatureClip(data))
        assert np.allclose(seq.vectors, data[:, :, 0, 0], atol=1e-15)

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(22)
        clip = random_clip(rng)
        seq = gap_descriptor(clip)
        for t in range(clip.data.shape[0]):
            for c in range(clip.data.shape[1]):
                assert seq.vectors[t, c] == pytest.approx(
                    float(np.mean(clip.data[t, c])), abs=1e-12
                )


class TestMultiScaleFirstOrder:
    def test_structure_matches_second_order(self):
        rng = np.random.default_rng(23)
        clip = FeatureClip(rng.standard_normal((8, DESK_C_IN, 4, 4)))
        scales = default_scales(seed=0)
        first = multi_scale_first_order(multi_scale_frames(clip, scales))
        second = multi_scale_descriptors(multi_scale_frames(clip, scales))
        assert np.array_equal(first.scale_ids, second.scale_ids)
        assert np.array_equal(first.times, second.times)
        assert first.dim == scales[0].c_out

    def test_vectors_are_spatial_means_of_scale_frames(self):
        rng = np.random.default_rng(24)
        clip = random_clip(rng, t=6)
        scales = [random_cfg(rng, 1, 1), random_cfg(rng, 3, 3)]
        x = pixel_major(clip.data)
        means = [f.mean(axis=1) for cfg in scales for f in scale_frames(x, cfg)]
        first = multi_scale_first_order(multi_scale_frames(clip, scales))
        assert np.array_equal(first.vectors, np.array(means))

    def test_rejects_mixed_c_out(self, monkeypatch):
        rng = np.random.default_rng(27)
        scales = [random_cfg(rng, 1, 1, c_out=3), random_cfg(rng, 1, 1, c_out=4)]
        ran = []
        monkeypatch.setattr(
            descriptor, "scale_frames", lambda x, cfg: ran.append(cfg) or []
        )
        with pytest.raises(ValueError, match="all scales must share c_out"):
            multi_scale_first_order(multi_scale_frames(random_clip(rng), scales))
        assert ran == []


class TestScaleConfig:
    def test_from_seed_deterministic(self):
        a = ScaleConfig.from_seed(3, 3, seed=9)
        b = ScaleConfig.from_seed(3, 3, seed=9)
        assert np.array_equal(a.theta_t, b.theta_t)
        assert np.array_equal(a.theta_s, b.theta_s)

    @pytest.mark.parametrize("tau", [1, 3, 5])
    def test_temporal_taps_equal_repeated_copies_bitwise(self, tau):
        # The channel map is from_seed's first draw; the taps were once
        # tau copies of it, built by np.repeat and divided by tau.
        cfg = ScaleConfig.from_seed(tau, 3, seed=4)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([4, tau, 3])))
        bound = 1.0 / np.sqrt(DESK_C_IN)
        channel_map = rng.uniform(-bound, bound, size=(DESK_C_IN, DESK_C_PRIME))
        copies = np.repeat(channel_map[np.newaxis, :, :], tau, axis=0) / tau
        assert cfg.theta_t.shape == copies.shape
        assert np.array_equal(cfg.theta_t.view(np.uint64), copies.view(np.uint64))
        assert not cfg.theta_t.flags.writeable

    def test_distinct_seeds_distinct_weights(self):
        a = ScaleConfig.from_seed(3, 3, seed=1)
        b = ScaleConfig.from_seed(3, 3, seed=2)
        assert not np.array_equal(a.theta_s, b.theta_s)

    def test_rejects_even_grid(self):
        with pytest.raises(ValueError):
            ScaleConfig.from_seed(1, 2)

    @pytest.mark.parametrize("width", ["c_in", "c_prime", "c_out"])
    def test_from_seed_rejects_zero_width(self, width):
        with pytest.raises(ValueError, match=f"{width} must be >= 1, got 0"):
            ScaleConfig.from_seed(1, 1, **{width: 0})

    @pytest.mark.parametrize("width", ["c_in", "c_prime", "c_out"])
    def test_rejects_zero_width(self, width):
        rng = np.random.default_rng(28)
        with pytest.raises(ValueError, match=f"{width} must be >= 1, got 0"):
            random_cfg(rng, 1, 1, **{width: 0})

    @pytest.mark.parametrize(
        "tau, grid, reason",
        [
            (-1, 3, "tau must be >= 1, got -1"),
            (0, 3, "tau must be >= 1, got 0"),
            (1, -1, "grid side must be odd and >= 1, got -1"),
        ],
    )
    def test_from_seed_rejects_bad_geometry_before_drawing(self, tau, grid, reason):
        with pytest.raises(ValueError, match=f"ScaleConfig: {reason}"):
            ScaleConfig.from_seed(tau, grid)

    @pytest.mark.parametrize(
        "field, shape",
        [
            ("theta_s", (36,)),
            ("offset_w1", (4,)),
            ("offset_w1", (3, 2)),
            ("offset_b1", (3,)),
            ("offset_w2", (18,)),
            ("offset_w2", (3, 18)),
            ("offset_b2", (16,)),
        ],
    )
    def test_rejects_mis_shaped_weights(self, field, shape):
        cfg = random_cfg(np.random.default_rng(29), 1, 3)
        with pytest.raises(ValueError, match=f"ScaleConfig: {field} must "):
            dataclasses.replace(cfg, **{field: np.zeros(shape)})

    @pytest.mark.parametrize(
        "c_in, c_prime, c_out, tau, grid",
        [
            (DESK_C_IN, DESK_C_PRIME, DESK_C_OUT, 3, 3),
            (DESK_C_IN, DESK_C_PRIME, DESK_C_OUT, 5, 5),
            (6, 4, 3, 3, 3),
            (6, 4, 3, 5, 1),
        ],
    )
    def test_fortran_ordered_weights_keep_frames(self, c_in, c_prime, c_out, tau, grid):
        # A nonzero offset head, so every weight takes part in the frames.
        rng = np.random.default_rng(30)
        cfg = dataclasses.replace(
            random_cfg(rng, tau, grid, c_in, c_prime, c_out),
            offset_w2=rng.uniform(-2.0, 2.0, (2, 2 * grid * grid)),
        )
        fortran = dataclasses.replace(
            cfg,
            **{
                name: np.asfortranarray(getattr(cfg, name))
                for name in ("theta_t", "theta_s", "offset_w1", "offset_w2")
            },
        )
        assert fortran.theta_s.flags.c_contiguous
        clip = FeatureClip(rng.standard_normal((8, c_in, 6, 6)))
        got, ref = multi_scale_frames(clip, [fortran]), multi_scale_frames(clip, [cfg])
        assert np.array_equal(got[0], ref[0])

    def test_broadcast_taps_get_a_c_ordered_map(self):
        cfg = ScaleConfig.from_seed(3, 3, c_in=6, c_prime=4, c_out=3, seed=2)
        fortran = np.broadcast_to(np.asfortranarray(cfg.theta_t[0]), cfg.theta_t.shape)
        taps = dataclasses.replace(cfg, theta_t=fortran).theta_t
        assert taps.strides[0] == 0
        assert taps[0].flags.c_contiguous
        assert np.array_equal(taps, cfg.theta_t)

    def test_scans_broadcast_base_and_every_dense_tap(self):
        cfg = ScaleConfig.from_seed(3, 3, c_in=6, c_prime=4, c_out=3, seed=2)
        base = np.array(cfg.theta_t[0])
        base[5, 3] = np.nan
        with pytest.raises(ValueError, match="^ScaleConfig: non-finite entries in theta_t$"):
            dataclasses.replace(cfg, theta_t=np.broadcast_to(base, (3, 6, 4)))
        dense = np.array(cfg.theta_t)
        dense[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match="^ScaleConfig: non-finite entries in theta_t$"):
            dataclasses.replace(cfg, theta_t=dense)

    def test_descriptor_sequence_structure_check(self):
        v = np.zeros((3, 4))
        s = DescriptorSequence(v, np.zeros(3, dtype=int), np.arange(3))
        t = DescriptorSequence(v, np.zeros(3, dtype=int), np.arange(3))
        assert s.same_structure(t)
        u = DescriptorSequence(v, np.ones(3, dtype=int), np.arange(3))
        assert not s.same_structure(u)

    @pytest.mark.parametrize("length, dim", [(0, 4), (3, 0), (0, 0)])
    def test_descriptor_sequence_rejects_empty(self, length, dim):
        with pytest.raises(
            ValueError,
            match=rf"^DescriptorSequence: L and D must be >= 1, got shape \({length}, {dim}\)$",
        ):
            DescriptorSequence(np.zeros((length, dim)), np.zeros(length, dtype=int), np.arange(length))

    @pytest.mark.parametrize("c", [1.0, 1e-30, 1e30, 0.0])
    def test_descriptor_sequence_scaled_is_vectors_at_ordinary_scales(self, c):
        v = c * np.random.default_rng(31).standard_normal((4, 3))
        seq = DescriptorSequence(v, np.zeros(4, dtype=int), np.arange(4))
        assert seq.scaled is seq.vectors

    # 1e300 is about 2^997 and 1e-300 about 2^-997: the nearest multiples of
    # 256 are 1024 and -1024.
    @pytest.mark.parametrize("c, e", [(1e300, 1024), (1e-300, -1024)])
    def test_descriptor_sequence_scaled_at_extreme_scales(self, c, e):
        v = c * np.random.default_rng(32).standard_normal((4, 3))
        seq = DescriptorSequence(v, np.zeros(4, dtype=int), np.arange(4))
        assert np.array_equal(seq.scaled, np.ldexp(seq.vectors, -e))
        assert 2.0**-129 <= np.abs(seq.scaled).max() <= 2.0**129


def rows_sequence(exponent=0):
    """A sequence with a zero row, its entries scaled by 2^exponent."""
    v = np.random.default_rng(33).standard_normal((5, 4))
    v[2] = 0.0
    return DescriptorSequence(np.ldexp(v, exponent), np.zeros(5, dtype=int), np.arange(5))


class TestDescriptorSequenceRows:
    """``unit`` and ``mean``: derived once per sequence, on first read."""

    @pytest.mark.parametrize("exponent", [0, -40, 300, -300])
    def test_values(self, exponent):
        seq = rows_sequence(exponent)
        norm = np.linalg.norm(seq.scaled, axis=1, keepdims=True)
        live = norm[:, 0] != 0.0
        assert list(live) == [True, True, False, True, True]
        assert np.array_equal(seq.unit[live], seq.scaled[live] / norm[live])
        assert np.array_equal(seq.unit[~live], np.zeros((1, 4)))
        assert np.array_equal(seq.mean, seq.scaled.mean(axis=0))

    def test_second_read_is_the_same_object(self):
        seq = rows_sequence()
        assert seq.unit is seq.unit
        assert seq.mean is seq.mean

    @pytest.mark.parametrize("name", ["unit", "mean"])
    def test_read_only(self, name):
        seq = rows_sequence()
        with pytest.raises(ValueError, match="read-only"):
            getattr(seq, name)[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(seq, name, np.zeros(4))

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickle_round_trip(self, read_first):
        seq = rows_sequence(300)
        if read_first:
            seq.unit, seq.mean
        back = pickle.loads(pickle.dumps(seq))
        assert np.array_equal(back.scaled, seq.scaled)
        assert np.array_equal(back.unit, seq.unit)
        assert np.array_equal(back.mean, seq.mean)
