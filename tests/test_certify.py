"""Injectivity certificates: SVD criterion and the ReLU collision search."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from injop.certify import (
    ACTIVE_MARGIN,
    POINTWISE_TOL,
    VERDICT_CERTIFIED,
    VERDICT_COUNTEREXAMPLE,
    VERDICT_NO_COUNTEREXAMPLE,
    SINGULAR_TOL,
    _SCALES,
    CertReport,
    certify_bijective_activation,
    certify_relu_dss,
    collision_threshold,
    verify_collision,
)
from injop.errors import DegenerateWitnessError
from injop.finite_rank import (
    Activation,
    FiniteRankLayer,
    apply_affine,
    apply_finite_rank,
    block_matrix,
    zero_bias,
)
from injop.funcspace import BasisSpec, Grid, SpectralCoeffs, from_spectral

BASIS = BasisSpec("fourier", (0.0, 1.0))


def make_layer(c, d_in, d_out, n, activation=None, bias=None):
    if bias is None:
        bias = zero_bias(BASIS, d_out, n)
    return FiniteRankLayer(
        d_in=d_in, d_out=d_out, n=n, c=c, bias=bias,
        activation=activation or Activation(),
    )


def make_rect_layer(c, activation, bias=None):
    """Layer of input order c.shape[0] and output order c.shape[1]."""
    n, n_out, d_out, d_in = c.shape
    return FiniteRankLayer(
        d_in=d_in, d_out=d_out, n=n, c=c,
        bias=zero_bias(BASIS, d_out, n_out) if bias is None else bias,
        activation=activation, n_out=n_out,
    )


def oracle_injective(mat):
    """Independent singularity check via LAPACK's QR-based gesvd driver.

    The library uses numpy's divide-and-conquer gesdd path, so agreement
    here exercises two different algorithms on the same criterion.
    """
    if mat.shape[0] < mat.shape[1]:
        return False
    svals = scipy.linalg.svd(mat, compute_uv=False, lapack_driver="gesvd")
    hi, lo = float(svals[0]), float(svals[-1])
    if hi <= 0.0:
        return False
    return lo > SINGULAR_TOL * hi


class TestSvdCriterion:
    def test_agrees_with_normal_matrix_oracle(self):
        rng = np.random.default_rng(31)
        act = Activation("leaky_relu", 0.2)
        for trial in range(30):
            n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            c = rng.standard_normal((n, n, d, d))
            if trial % 3 == 0:
                # Force a kernel: make the last stacked column a copy of the
                # first so the block matrix is rank deficient.
                mat = c.transpose(1, 2, 0, 3).reshape(n * d, n * d).copy()
                mat[:, -1] = mat[:, 0]
                c = mat.reshape(n, d, n, d).transpose(2, 0, 1, 3)
            layer = make_layer(c, d, d, n, activation=act)
            report = certify_bijective_activation(layer)
            expected = oracle_injective(block_matrix(layer))
            assert (report.verdict == VERDICT_CERTIFIED) == expected

    def test_witness_lies_in_kernel(self):
        n, d = 3, 2
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((n * d, n * d))
        mat[:, 2] = mat[:, 4]  # exact rank deficiency
        c = mat.reshape(n, d, n, d).transpose(2, 0, 1, 3)
        layer = make_layer(c, d, d, n, activation=Activation("sigmoid"))
        report = certify_bijective_activation(layer)
        assert report.verdict == VERDICT_COUNTEREXAMPLE
        v1, v2 = report.witness
        grid = Grid(0.0, 1.0, 256)
        residual = verify_collision(layer, v1, v2, grid)
        assert residual <= collision_threshold(layer, v1, grid)

    def test_wide_matrix_never_injective(self):
        rng = np.random.default_rng(6)
        c = rng.standard_normal((2, 2, 1, 3))
        layer = make_layer(c, 3, 1, 2, activation=Activation("leaky_relu", 0.5))
        report = certify_bijective_activation(layer)
        assert report.verdict == VERDICT_COUNTEREXAMPLE
        assert report.sigma_min == 0.0

    def test_bijective_flag_only_for_square(self):
        rng = np.random.default_rng(7)
        n = 3
        square = make_layer(rng.standard_normal((n, n, 2, 2)), 2, 2, n)
        tall = make_layer(rng.standard_normal((n, n, 3, 1)), 1, 3, n)
        rs = certify_bijective_activation(square)
        rt = certify_bijective_activation(tall)
        assert rs.verdict == VERDICT_CERTIFIED and rs.bijective_on_span
        assert rt.verdict == VERDICT_CERTIFIED and not rt.bijective_on_span

    def test_rectangular_agrees_with_oracle(self):
        # Tall and wide block matrices: input order n, output order n_out.
        rng = np.random.default_rng(32)
        act = Activation("leaky_relu", 0.3)
        grid = Grid(0.0, 1.0, 128)
        for trial in range(30):
            n, n_out = (int(k) for k in rng.integers(1, 6, size=2))
            d_in, d_out = (int(k) for k in rng.integers(1, 4, size=2))
            c = rng.standard_normal((n, n_out, d_out, d_in))
            if trial % 3 == 0:
                c[-1] = c[0]  # two input columns agree: a kernel direction
            layer = make_rect_layer(c, act)
            mat = block_matrix(layer)
            assert mat.shape == (n_out * d_out, n * d_in)
            report = certify_bijective_activation(layer)
            assert (report.verdict == VERDICT_CERTIFIED) == oracle_injective(mat)
            if report.verdict == VERDICT_COUNTEREXAMPLE:
                v1, v2 = report.witness
                assert v2.coeffs.shape == (d_in, n)
                residual = verify_collision(layer, v1, v2, grid)
                assert residual <= collision_threshold(layer, v1, grid)

    @pytest.mark.parametrize("activation", [Activation(), Activation("leaky_relu", 0.3)],
                             ids=["identity", "leaky_relu"])
    def test_zero_layer_witness_collides(self, activation):
        # With every singular value zero the witness direction is e_1.
        bias = SpectralCoeffs(BASIS, 3, np.random.default_rng(70).standard_normal((2, 3)))
        layer = make_layer(np.zeros((3, 3, 2, 2)), 2, 2, 3, activation, bias)
        report = certify_bijective_activation(layer)
        assert report.verdict == VERDICT_COUNTEREXAMPLE
        assert report.sigma_max == report.sigma_min == 0.0
        v1, v2 = report.witness
        e1 = np.zeros((2, 3))
        e1[0, 0] = 1.0
        assert np.array_equal(v1.coeffs, np.zeros((2, 3))) and np.array_equal(v2.coeffs, e1)
        grid = Grid(0.0, 1.0, 64)
        assert verify_collision(layer, v1, v2, grid) <= collision_threshold(layer, v1, grid)

    def test_rejects_relu(self):
        layer = make_layer(np.ones((1, 1, 1, 1)), 1, 1, 1, activation=Activation("relu"))
        with pytest.raises(ValueError):
            certify_bijective_activation(layer)


class TestReluSearch:
    def test_hand_built_collision(self):
        # One mode, one channel, unit kernel block, bias coefficient -2:
        # the pre-activation of v = v1 phi_1 is the constant v1 - 2, so the
        # probe v = 0 stays negative and collides with v = -phi_1.
        n = 1
        bias = SpectralCoeffs(BASIS, n, np.array([[-2.0]]))
        layer = make_layer(
            np.ones((1, 1, 1, 1)), 1, 1, n, activation=Activation("relu"), bias=bias
        )
        grid = Grid(0.0, 1.0, 128)
        report = certify_relu_dss(layer, grid, trials=1000, seed=0)
        assert report.verdict == VERDICT_COUNTEREXAMPLE
        v1, v2 = report.witness
        residual = verify_collision(layer, v1, v2, grid)
        assert residual <= collision_threshold(layer, v1, grid)
        # The hand analysis says the zero probe already collides.
        assert_allclose(v1.coeffs, 0.0)

    def test_always_positive_layer_finds_nothing(self):
        # A large positive bias keeps every channel active on every probe, so
        # the active-row matrix is the full (injective) block matrix and no
        # collision direction exists.
        n, d = 2, 2
        rng = np.random.default_rng(41)
        c = 0.05 * rng.standard_normal((n, n, d, d))
        bias = SpectralCoeffs(BASIS, n, np.array([[10.0, 0.0], [10.0, 0.0]]))
        layer = make_layer(c + _identity_blocks(n, d), d, d, n,
                           activation=Activation("relu"), bias=bias)
        grid = Grid(0.0, 1.0, 128)
        report = certify_relu_dss(layer, grid, trials=40, seed=0)
        assert report.verdict == VERDICT_NO_COUNTEREXAMPLE
        assert report.trials == 40
        assert report.witness is None

    @pytest.mark.parametrize("active_channels", [0, 1])
    def test_rectangular_layer_with_negative_biases(self, active_channels):
        # Order 3 in, order 5 out.  A strongly negative constant mode keeps
        # a channel's pre-activation below zero on every probe, and a
        # strongly positive one keeps it active; with one active channel
        # the active rows are that channel's five output modes.
        n, n_out, d_in, d_out = 3, 5, 2, 3
        rng = np.random.default_rng(42)
        coeffs = np.zeros((d_out, n_out))
        coeffs[:, 0] = -50.0
        coeffs[:active_channels, 0] = 50.0
        layer = make_rect_layer(rng.standard_normal((n, n_out, d_out, d_in)), Activation("relu"),
                                bias=SpectralCoeffs(BASIS, n_out, coeffs))
        grid = Grid(0.0, 1.0, 128)
        report = certify_relu_dss(layer, grid, trials=20, seed=0)
        assert report.verdict == VERDICT_COUNTEREXAMPLE
        v1, v2 = report.witness
        assert v1.coeffs.shape == v2.coeffs.shape == (d_in, n)
        residual = verify_collision(layer, v1, v2, grid)
        assert residual <= collision_threshold(layer, v1, grid)

    def test_rejects_non_relu(self):
        layer = make_layer(np.ones((1, 1, 1, 1)), 1, 1, 1)
        with pytest.raises(ValueError):
            certify_relu_dss(layer, Grid(0.0, 1.0, 64))

    def test_rejects_negative_trials(self):
        layer = make_layer(np.ones((1, 1, 1, 1)), 1, 1, 1, activation=Activation("relu"))
        with pytest.raises(ValueError, match="trials must be at least 0, got -3"):
            certify_relu_dss(layer, Grid(0.0, 1.0, 64), trials=-3)

    @pytest.mark.parametrize("trials", [2, 40])
    def test_rejects_negative_seed_before_any_probe(self, trials):
        # Two trials draw only the fixed probes, which never read the seed.
        layer = make_layer(np.ones((1, 1, 1, 1)), 1, 1, 1, activation=Activation("relu"))
        with pytest.raises(ValueError, match="seed must be at least 0"):
            certify_relu_dss(layer, Grid(0.0, 1.0, 64), trials=trials, seed=-1)


def _reference_relu_dss(layer, grid, trials, seed):
    """The collision search one probe, direction and scale at a time, with
    the scalar sign-condition loop: the oracle for the array version."""

    def sample_inputs():
        basis, n, d = layer.basis, layer.n, layer.d_in
        probes = [SpectralCoeffs(basis, n, np.zeros((d, n)))]
        for c in range(d):
            for k in range(n):
                for sign in (1.0, -1.0):
                    coeffs = np.zeros((d, n))
                    coeffs[c, k] = sign
                    probes.append(SpectralCoeffs(basis, n, coeffs))
        yield from probes[:trials]
        for t in range(len(probes), trials):
            rng = np.random.default_rng([seed, t])
            yield SpectralCoeffs(basis, n, rng.standard_normal((d, n)))

    def satisfies_sign_conditions(pre, active, dir_vals):
        for i in range(pre.shape[0]):
            if active[i]:
                continue
            y, d = pre[i], dir_vals[i]
            nonpos = y <= 0.0
            if np.any(y[nonpos] > d[nonpos] + POINTWISE_TOL):
                return False
            if np.any(np.abs(d[~nonpos]) > POINTWISE_TOL):
                return False
        return True

    mat = block_matrix(layer)
    svals = np.linalg.svd(mat, compute_uv=False)
    sigma_max = float(svals[0]) if svals.size else 0.0
    sigma_min = float(svals[-1]) if mat.shape[0] >= mat.shape[1] else 0.0
    used = 0
    for v in sample_inputs():
        used += 1
        pre = from_spectral(apply_affine(layer, v), grid).values
        active = np.min(pre, axis=1) > ACTIVE_MARGIN
        c_active = mat if active.all() else mat[np.repeat(active, layer.n_out)]
        if c_active.shape[0] == 0:
            kernel = np.eye(mat.shape[1])
        else:
            kernel = scipy.linalg.null_space(c_active)
        for col in kernel.T:
            direction = SpectralCoeffs(layer.basis, layer.n, col.reshape(layer.d_in, layer.n))
            dir_vals = from_spectral(apply_finite_rank(layer, direction), grid).values
            for t in _SCALES:
                if satisfies_sign_conditions(pre, active, t * dir_vals):
                    v2 = SpectralCoeffs(layer.basis, layer.n, v.coeffs - t * direction.coeffs)
                    if verify_collision(layer, v, v2, grid) <= collision_threshold(layer, v, grid):
                        return CertReport(VERDICT_COUNTEREXAMPLE, sigma_min, sigma_max, used,
                                          seed, (v, v2))
    return CertReport(VERDICT_NO_COUNTEREXAMPLE, sigma_min, sigma_max, used, seed)


def _random_relu_cases(rng, count, rect):
    """Random biases, planted collisions (bias -50 on mode 1: no channel is
    active at the zero probe) and all-active layers (bias +50), in turn, on
    square, tall and wide matrices; at n_out != n when ``rect``."""
    for i in range(count):
        n, d_in, d_out = (int(k) for k in rng.integers(1, [5, 4, 4]))
        n_out = int(rng.choice([k for k in range(1, 6) if k != n])) if rect else n
        bias = rng.standard_normal((d_out, n_out)) * float(rng.choice([0.2, 1.0, 3.0]))
        bias[:, 0] += (0.0, -50.0, 50.0)[i % 3]
        layer = make_rect_layer(rng.standard_normal((n, n_out, d_out, d_in)), Activation("relu"),
                                bias=SpectralCoeffs(BASIS, n_out, bias))
        grid = Grid(0.0, 1.0, int(rng.choice([64, 97])))
        yield layer, grid, int(rng.integers(1, 60)), int(rng.integers(1000))


def _relu_corpus():
    """Seeded (layer, grid, trials, seed) cases: random layers at n_out = n,
    two knife edges that only POINTWISE_TOL decides, and random layers at
    n_out != n, where a channel's rows are its n_out output modes."""
    rng = np.random.default_rng(2024)
    yield from _random_relu_cases(rng, 36, rect=False)
    # Kernel block -1 and bias 1e-12: at the probe phi_1 the pre-activation
    # sits 1e-12 above the direction's values.
    bias = SpectralCoeffs(BASIS, 1, np.array([[1e-12]]))
    layer = make_layer(-np.ones((1, 1, 1, 1)), 1, 1, 1, activation=Activation("relu"), bias=bias)
    yield layer, Grid(0.0, 1.0, 64), 5, 0
    # Channel 0 repeats the kernel rows of the always-active channel 1, so
    # a kernel direction's values on channel 0, where its pre-activation
    # changes sign, are rounding noise.
    c = rng.standard_normal((2, 2, 2, 2))
    c[:, :, 0] = c[:, :, 1]
    bias = SpectralCoeffs(BASIS, 2, np.array([[0.0, 1.0], [50.0, 0.0]]))
    yield make_layer(c, 2, 2, 2, activation=Activation("relu"), bias=bias), Grid(0.0, 1.0, 64), 5, 0
    yield from _random_relu_cases(np.random.default_rng(2025), 18, rect=True)


def test_relu_search_matches_scalar_reference():
    verdicts = set()
    for layer, grid, trials, seed in _relu_corpus():
        got = certify_relu_dss(layer, grid, trials=trials, seed=seed)
        want = _reference_relu_dss(layer, grid, trials, seed)
        assert (got.verdict, got.trials, got.seed) == (want.verdict, want.trials, want.seed)
        assert (got.sigma_min, got.sigma_max) == (want.sigma_min, want.sigma_max)
        if want.witness is None:
            assert got.witness is None
        else:
            for a, b in zip(got.witness, want.witness):
                assert a.coeffs.shape == b.coeffs.shape
                assert a.coeffs.tobytes() == b.coeffs.tobytes()
        verdicts.add(want.verdict)
    assert verdicts == {VERDICT_COUNTEREXAMPLE, VERDICT_NO_COUNTEREXAMPLE}


def _identity_blocks(n, d):
    c = np.zeros((n, n, d, d))
    for k in range(n):
        c[k, k] = np.eye(d)
    return c


def test_degenerate_witness_rejected():
    layer = make_layer(np.ones((1, 1, 1, 1)), 1, 1, 1)
    v = SpectralCoeffs(BASIS, 1, np.array([[1.0]]))
    with pytest.raises(DegenerateWitnessError):
        verify_collision(layer, v, v, Grid(0.0, 1.0, 64))
