"""Dense SPD primitives against closed-form cases and independent oracles."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from momalign import descriptor, synthgen
from momalign.linalg import (
    DEFAULT_EPS_SCALE,
    newton_schulz_sqrt,
    second_moment,
    spectral_norm_estimates,
    vectorize_spd,
)
from test_alignment import cosine


def random_spd(rng, dim, cond=100.0):
    """Seeded SPD matrix with eigenvalues uniform in [1, cond]."""
    g = rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    eig = rng.uniform(1.0, cond, dim)
    a = (q * eig) @ q.T
    return 0.5 * (a + a.T)


def eigen_sqrt(a):
    """Oracle: eigendecompose, take elementwise sqrt of eigenvalues."""
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.T


def own_norm_sqrt(a):
    """``newton_schulz_sqrt`` of one matrix, normalized by its own
    ``spectral_norm_estimates`` entry; an invalid matrix raises there, with
    the ``spectral_norm_estimates: `` errors."""
    return newton_schulz_sqrt(a, spectral_norm_estimates([a])[0])


def reference_newton_schulz_sqrt(a):
    """The square root as computed before the power iteration took its
    norm as ``math.sqrt(w @ w)``: ``np.linalg.norm`` throughout, input
    validation left out. Kept as the bitwise reference."""
    n = a.shape[0]
    ident = np.eye(n)
    eps = 1e-5 * float(np.trace(a)) / n
    shifted = a + eps * ident
    fro = float(np.linalg.norm(shifted))
    v = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(50):
        w = shifted @ v
        nw = float(np.linalg.norm(w))
        if nw <= 0.0:
            break
        v = w / nw
    rayleigh = float(v @ shifted @ v)
    norm = min(max(rayleigh, fro / np.sqrt(n)), fro)
    y = shifted / norm
    z = ident
    for _ in range(5):
        t = 0.5 * (3.0 * ident - z @ y)
        y = y @ t
        z = t @ z
    out = y * np.sqrt(norm)
    return 0.5 * (out + out.T)


def reference_shift(a):
    """The eps-shifted input of the sqrt, and its Frobenius norm."""
    n = a.shape[0]
    shifted = a + DEFAULT_EPS_SCALE * float(np.trace(a)) / n * np.eye(n)
    return shifted, float(np.linalg.norm(shifted))


def reference_spectral_norm_estimate(a, fro):
    """The per-matrix power iteration the sqrt ran on each shifted moment
    before one iteration served a stack; kept as the bitwise reference.
    Returns the estimate and whether the zero-norm exit was taken."""
    n = a.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    exited = False
    for _ in range(50):
        w = a @ v
        nw = math.sqrt(w @ w)
        if nw <= 0.0:
            exited = True
            break
        v = w / nw
    rayleigh = float(v @ a @ v)
    return min(max(rayleigh, fro / np.sqrt(n)), fro), exited


def underflowing_moment(dim=16):
    """``1e-160 (e0 - e1)(e0 - e1)^T``: its Frobenius norm is about 2e-160,
    but the first ||A v||^2 underflows to 0."""
    u = np.zeros(dim)
    u[0], u[1] = 1.0, -1.0
    return 1e-160 * np.outer(u, u)


def reference_vectorize_spd(a):
    """The vectorization before its triangle index and scale were cached."""
    n = a.shape[0]
    iu, ju = np.triu_indices(n)
    v = a[iu, ju].copy()
    v[iu != ju] *= np.sqrt(2.0)
    return v


def reference_inputs(rng):
    """Full-rank, rank-deficient and rank-one second moments at the channel
    counts the pipeline uses, plus small, zero-padded and underflowing
    cases."""
    for dim in (1, 2, 3, 16, 64, 128):
        yield random_spd(rng, dim)
        for m in (1, max(1, dim // 2), 36):
            yield second_moment(rng.standard_normal((dim, m)) * rng.uniform(0.01, 100.0))
    padded = np.zeros((16, 16))
    padded[:4, :4] = random_spd(rng, 4)
    yield padded
    yield underflowing_moment()


@pytest.fixture(scope="module")
def synthetic_moments(tmp_path_factory):
    """Per-frame C=16 moments of the default seed-0 synthetic set, one list
    per (clip, scale): the stacks ``multi_scale_descriptors`` estimates."""
    manifest = synthgen.generate_dataset(
        synthgen.SynthConfig(), tmp_path_factory.mktemp("synthetic_moments")
    )
    stacks = []
    for entry in manifest.entries:
        clip = synthgen.load_clip(manifest.resolve(entry))
        for frames in descriptor.multi_scale_frames(clip, descriptor.default_scales(seed=0)):
            stacks.append([second_moment(f) for f in frames])
    return stacks


def assert_estimates_match_reference(moments):
    got = spectral_norm_estimates(moments)
    assert got.shape == (len(moments),)
    for a, est in zip(moments, got):
        ref, _ = reference_spectral_norm_estimate(*reference_shift(a))
        assert est == ref


class TestSpectralNormEstimates:
    def test_matches_reference_bitwise_by_size(self):
        rng = np.random.default_rng(40)
        by_size = {}
        for a in reference_inputs(rng):
            by_size.setdefault(a.shape, []).append(a)
        assert sorted(len(group) for group in by_size.values())[-1] >= 4
        for group in by_size.values():
            assert_estimates_match_reference(group)

    def test_matches_reference_bitwise_on_synthetic_moments(self, synthetic_moments):
        for stack in synthetic_moments:
            assert_estimates_match_reference(stack)

    def test_zero_norm_exit_keeps_its_vector(self):
        rng = np.random.default_rng(43)
        tiny = underflowing_moment()
        shifted, fro = reference_shift(tiny)
        assert fro > 0.0
        assert reference_spectral_norm_estimate(shifted, fro)[1]
        neighbours = [second_moment(rng.standard_normal((16, 36))) for _ in range(4)]
        stack = neighbours[:2] + [tiny] + neighbours[2:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectral_norm_estimates(stack)
        assert np.all(np.isfinite(got))
        assert np.array_equal(np.delete(got, 2), spectral_norm_estimates(neighbours))
        assert_estimates_match_reference(stack)

    @pytest.mark.parametrize("kind", ["empty", "asymmetric", "non-finite", "zero"])
    def test_errors_match_the_sqrt_on_that_moment(self, kind):
        good = random_spd(np.random.default_rng(44), 4)
        bad = {
            "empty": np.zeros((0, 0)),
            "asymmetric": good + np.triu(np.ones((4, 4)), 1),
            "non-finite": np.where(np.eye(4) == 1, np.inf, good),
            "zero": np.zeros((4, 4)),
        }[kind]
        with pytest.raises(ValueError) as alone:
            own_norm_sqrt(bad)
        stack = np.zeros((3, 0, 0)) if kind == "empty" else np.array([good, bad, good])
        with pytest.raises(ValueError) as stacked:
            spectral_norm_estimates(stack)
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value).startswith("spectral_norm_estimates: ")

    @pytest.mark.parametrize("dim", [16, 64, 128])
    def test_stack_matches_list_and_per_scale_stacks_bitwise(self, dim):
        # One clip's moments at 8, 6 and 4 frames per scale: a clip's stack,
        # the same matrices as a list, and one stack per scale agree.
        rng = np.random.default_rng([45, dim])
        moments = [
            second_moment(rng.standard_normal((dim, 36)) * rng.uniform(0.01, 100.0))
            for _ in range(18)
        ]
        stack = np.array(moments)
        got = spectral_norm_estimates(stack)
        assert got.tobytes() == spectral_norm_estimates(moments).tobytes()
        per_scale = [spectral_norm_estimates(stack[a:b]) for a, b in ((0, 8), (8, 14), (14, 18))]
        assert got.tobytes() == np.concatenate(per_scale).tobytes()
        assert_estimates_match_reference(moments)

    @pytest.mark.parametrize("bad", ["none", "zero", "negative", "asymmetric", "non-finite"])
    def test_stack_bytes_unchanged(self, bad):
        # The estimate shifts a copy, so the stack is only read, whether the
        # estimate returns or raises.
        rng = np.random.default_rng(46)
        good = [second_moment(rng.standard_normal((16, 36))) for _ in range(3)]
        extra = {
            "none": [],
            "zero": [np.zeros((16, 16))],
            "negative": [-good[0]],
            "asymmetric": [good[0] + np.triu(np.ones((16, 16)), 1)],
            "non-finite": [np.where(np.eye(16) == 1, np.nan, good[0])],
        }[bad]
        stack = np.array(good + extra)
        before = stack.tobytes()
        if extra:
            with pytest.raises(ValueError, match="^spectral_norm_estimates: "):
                spectral_norm_estimates(stack)
        else:
            spectral_norm_estimates(stack)
        assert stack.tobytes() == before

    def test_read_only_stack_is_copied(self):
        rng = np.random.default_rng(47)
        stack = np.array([second_moment(rng.standard_normal((16, 36))) for _ in range(3)])
        frozen = stack.copy()
        frozen.flags.writeable = False
        assert np.array_equal(spectral_norm_estimates(frozen), spectral_norm_estimates(stack))

    @pytest.mark.parametrize(
        "order",
        list(itertools.product(["nan", "inf", "asymmetric", "zero", "negated"], repeat=2)),
        ids="-".join,
    )
    def test_first_of_two_bad_moments_is_named(self, order):
        # Two bad moments among good ones, at two of the first, middle and
        # last slots: the stack raises the first one's own error, with no
        # numpy warning on the way. The infinities have both signs, so
        # arithmetic on them would warn.
        rng = np.random.default_rng(48)
        good = [random_spd(rng, 4) for _ in range(5)]
        diag = np.eye(4) == 1
        bad = {
            "nan": np.where(diag, np.nan, good[0]),
            "inf": np.where(diag, np.inf * np.array([1, -1, 1, -1]), good[0]),
            "asymmetric": good[0] + np.triu(np.ones((4, 4)), 1),
            "zero": np.zeros((4, 4)),
            "negated": -good[0],
        }
        with pytest.raises(ValueError) as alone:
            own_norm_sqrt(bad[order[0]])
        for slots in itertools.combinations((0, 2, 4), 2):
            stack = np.array(good)
            stack[list(slots)] = [bad[kind] for kind in order]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as stacked:
                    spectral_norm_estimates(stack)
            assert str(stacked.value) == str(alone.value), slots

    def test_no_moments_no_estimates(self):
        assert spectral_norm_estimates(np.empty((0, 4, 4))).shape == (0,)

    def test_peak_memory_is_one_copy(self):
        # The shifted copy is the one stack-sized allocation: the asymmetry
        # check runs in its buffer before it is filled, so a second
        # temporary such as ``a + eps * I`` would break the bound.
        rng = np.random.default_rng(49)
        stack = np.array([second_moment(rng.standard_normal((128, 36))) for _ in range(18)])
        spectral_norm_estimates(stack)
        tracemalloc.start()
        try:
            spectral_norm_estimates(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * stack.nbytes


class TestNewtonSchulzSqrt:
    def test_identity_fixed_point(self):
        y = own_norm_sqrt(np.eye(8))
        assert np.allclose(y, np.eye(8), atol=1e-9)

    def test_scalar_square_root(self):
        y = own_norm_sqrt(np.array([[9.0]]))
        assert abs(y[0, 0] - 3.0) < 1e-3

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_spd(rng, 16)
            eps = 1e-5 * np.trace(a) / 16
            shifted = a + eps * np.eye(16)
            y = own_norm_sqrt(a)
            oracle = eigen_sqrt(shifted)
            assert np.linalg.norm(y - oracle) / np.linalg.norm(oracle) < 1e-2

    def test_residual_bound_well_conditioned(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 12, cond=50.0)
        eps = 1e-5 * np.trace(a) / 12
        shifted = a + eps * np.eye(12)
        y = own_norm_sqrt(a)
        resid = np.linalg.norm(y @ y - shifted) / np.linalg.norm(shifted)
        assert resid <= 1e-2

    def test_residual_on_synthetic_moments(self, synthetic_moments, capsys):
        """The inputs ``eval`` feeds the sqrt: every shifted C=16 per-frame
        moment of the default seed-0 synthetic set, 44% of them with
        condition number above 100. The largest relative residual measured
        is 0.0146 (p90 0.0109); the bound leaves a 10% margin over it."""
        conds, residuals = [], []
        for stack in synthetic_moments:
            for a in stack:
                shifted = a + DEFAULT_EPS_SCALE * np.trace(a) / len(a) * np.eye(len(a))
                w = np.linalg.eigh(shifted)[0]
                conds.append(w[-1] / w[0])
                y = own_norm_sqrt(a)
                residuals.append(np.linalg.norm(y @ y - shifted) / np.linalg.norm(shifted))
        conds, residuals = np.array(conds), np.array(residuals)
        worst = int(np.argmax(residuals))
        summary = (
            f"{len(residuals)} moments, {np.mean(conds > 100):.0%} with condition number "
            f"above 100 (max {conds.max():.0f}); residual max {residuals[worst]:.4f} at "
            f"condition number {conds[worst]:.0f}, p90 {np.percentile(residuals, 90):.4f}"
        )
        with capsys.disabled():
            print(f"\nNewton-Schulz sqrt on synthetic moments: {summary}")
        assert np.mean(conds > 100) >= 0.4, summary
        assert residuals.max() <= 0.016, summary

    def test_commutes_with_input(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_spd(rng, 10, cond=20.0)
            y = own_norm_sqrt(a)
            comm = np.linalg.norm(y @ a - a @ y)
            assert comm <= 1e-6 * np.linalg.norm(a)

    def test_output_symmetric(self):
        rng = np.random.default_rng(5)
        y = own_norm_sqrt(random_spd(rng, 9))
        assert np.array_equal(y, y.T)

    def test_rank_deficient_input_regularized(self):
        # Rank-1 matrix: the eps shift keeps the iteration defined.
        a = np.outer(np.arange(1.0, 5.0), np.arange(1.0, 5.0))
        y = own_norm_sqrt(a)
        assert np.all(np.isfinite(y))

    def test_matches_reference_bitwise(self):
        rng = np.random.default_rng(40)
        for a in reference_inputs(rng):
            assert np.array_equal(own_norm_sqrt(a), reference_newton_schulz_sqrt(a))

    def test_stacked_estimate_matches_own_estimate_bitwise(self):
        rng = np.random.default_rng(42)
        moments = [a for a in reference_inputs(rng) if a.shape == (16, 16)]
        for a, norm in zip(moments, spectral_norm_estimates(moments)):
            own = spectral_norm_estimates([a])[0]
            assert norm.tobytes() == own.tobytes()
            assert np.array_equal(newton_schulz_sqrt(a, norm), own_norm_sqrt(a))

    @pytest.mark.parametrize("norm", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_norm(self, norm):
        with pytest.raises(ValueError, match="norm must be positive and finite"):
            newton_schulz_sqrt(np.eye(3), norm)

    def test_rejects_non_finite(self):
        a = np.eye(4)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            own_norm_sqrt(a)

    def test_rejects_asymmetric(self):
        a = np.eye(4)
        a[0, 1] = 1.0
        with pytest.raises(ValueError):
            own_norm_sqrt(a)

    def test_rejects_non_positive_after_shift(self):
        with pytest.raises(ValueError):
            own_norm_sqrt(np.zeros((3, 3)))

    @pytest.mark.parametrize("fn", [own_norm_sqrt], ids=["newton_schulz_sqrt"])
    def test_rejects_empty_matrix(self, fn):
        # A zero-width moment (C_out = 0) used to divide by zero in the shift.
        with pytest.raises(ValueError, match="empty matrix"):
            fn(np.zeros((0, 0)))


class TestSecondMoment:
    def test_rank_one_outer_product(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        f = np.tile(e1[:, None], (1, 7))
        q = second_moment(f)
        assert np.allclose(q, np.outer(e1, e1), atol=1e-12)

    def test_two_orthogonal_columns(self):
        f = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(second_moment(f), 0.5 * np.eye(2), atol=1e-12)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((4, 10))
        q = second_moment(f)
        oracle = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                for m in range(10):
                    oracle[i, j] += f[i, m] * f[j, m]
        oracle /= 10
        assert np.allclose(q, oracle, atol=1e-12)

    def test_exactly_symmetric_and_psd(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            c = int(rng.integers(1, 8))
            m = int(rng.integers(1, 12))
            q = second_moment(rng.standard_normal((c, m)))
            assert np.array_equal(q, q.T)
            assert np.linalg.eigvalsh(q).min() >= -1e-6

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            second_moment(np.empty((3, 0)))
        with pytest.raises(ValueError, match=r"^second_moment: empty feature set \(M = 0\)$"):
            second_moment(np.empty((2, 3, 0)))

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4, 5)], ids=["1-D", "4-D"])
    def test_rejects_other_ranks(self, shape):
        with pytest.raises(ValueError, match=r"^second_moment: expected a 2-D matrix or 3-D stack"):
            second_moment(np.zeros(shape))

    @pytest.mark.parametrize("c", [16, 64, 128])
    @pytest.mark.parametrize("m", [1, 36])
    @pytest.mark.parametrize("n", [1, 28])
    def test_stack_matches_per_matrix_calls(self, c, m, n):
        rng = np.random.default_rng([c, m, n])
        stack = rng.standard_normal((n, c, m)) * rng.uniform(0.01, 100.0)
        got = second_moment(stack)
        assert got.shape == (n, c, c)
        assert np.array_equal(got, np.array([second_moment(f) for f in stack]))


class TestVectorizeSpd:
    def test_two_by_two_definition(self):
        a, b, c = 1.5, -0.25, 4.0
        v = vectorize_spd(np.array([[a, b], [b, c]]))
        assert np.allclose(v, [a, np.sqrt(2) * b, c], atol=1e-12)

    def test_dim_128_length(self):
        v = vectorize_spd(np.eye(128))
        assert v.shape == (8256,)

    def test_inner_product_preserving(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            a = rng.standard_normal((d, d))
            a = a + a.T
            b = rng.standard_normal((d, d))
            b = b + b.T
            frob = float(np.sum(a * b))
            got = float(np.dot(vectorize_spd(a), vectorize_spd(b)))
            assert abs(got - frob) <= 1e-9 * (1 + abs(frob))

    def test_matches_reference_bitwise(self):
        rng = np.random.default_rng(41)
        for a in reference_inputs(rng):
            got = vectorize_spd(a)
            assert np.array_equal(got, reference_vectorize_spd(a))
            assert got.flags.c_contiguous

    def test_peak_memory_within_output_and_gather(self):
        # The root is trusted, not copied: the peak is the gathered triangle
        # and the scaled output, about twice the output's bytes.
        a = random_spd(np.random.default_rng(50), 128)
        vectorize_spd(a)  # fills the layout cache
        tracemalloc.start()
        try:
            out = vectorize_spd(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * out.nbytes


class TestCosine:
    """The per-vector cosine oracle that the alignment tests score against."""

    def test_identical_direction(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_forty_five_degrees(self):
        assert abs(cosine([1.0, 1.0], [1.0, 0.0]) - 0.7071) < 1e-4

    def test_zero_norm_defined_as_zero(self):
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_symmetric_and_scale_invariant(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            c = rng.uniform(0.1, 10.0)
            assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
            assert cosine(c * u, v) == pytest.approx(cosine(u, v), abs=1e-9)

    def test_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            u = rng.standard_normal(3) * rng.uniform(0, 1e6)
            v = rng.standard_normal(3) * rng.uniform(0, 1e6)
            assert -1.0 <= cosine(u, v) <= 1.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine([1.0, 2.0], [1.0, 2.0, 3.0])
