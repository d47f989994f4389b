"""Projection pairs, randomized reductions, and the injective lift."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from injop.errors import DimensionError, ReductionVerificationError, UsageError
from injop.finite_rank import (
    Activation,
    FiniteRankLayer,
    FiniteRankNetwork,
    apply_network,
    zero_bias,
)
from injop.funcspace import BasisSpec, Grid, SpectralCoeffs
from injop.reduction import (
    _PATHWAY_BLOCKS,
    VERIFY_CHUNK_ROWS,
    ProjectionPair,
    _augment_network,
    _kato_rotation,
    build_projection_pair,
    build_reduction_explicit,
    build_reduction_randomized,
    check_reduction_dimensions,
    lift_to_injective,
)

BASIS = BasisSpec("fourier", (0.0, 1.0))


def _keep_indices(m, ell, n_total):
    """Stacked indices of the last ell channels, mode-major order: the rows
    of the dense ``pair.q`` that make the explicit B."""
    return (np.arange(n_total)[:, None] * m + np.arange(m - ell, m)).ravel()


def _mode_major(layer):
    """The layer's matrix on mode-major stacked coefficients, the space of
    the pair's dense references: block (p, k) is C[k, p]."""
    return layer.c.transpose(1, 2, 0, 3).reshape(layer.n_out * layer.d_out, layer.n * layer.d_in)


def _stacked(coeffs):
    """Mode-major flattening of a (channels, modes) table."""
    return coeffs.T.reshape(-1)


class TestProjectionPair:
    def test_idempotent_and_tilt(self):
        for alpha in (0.05, 0.25, 0.4):
            pair = build_projection_pair(m=3, ell=1, n_core=4, alpha=alpha)
            for p in (pair.p_zero, pair.p_alpha):
                assert_allclose(p @ p, p, atol=1e-12)
                assert_allclose(p, p.T, atol=1e-13)
            # The tilted range is spanned by unit vectors rotated by
            # arcsin(alpha), so the gap norm is alpha on the nose.
            gap = np.linalg.norm(pair.p_alpha - pair.p_zero, 2)
            assert_allclose(gap, alpha, atol=1e-12)

    def test_direct_rotation_intertwines(self):
        pair = build_projection_pair(m=4, ell=2, n_core=3, alpha=0.3)
        assert_allclose(pair.q @ pair.q.T, np.eye(pair.q.shape[0]), atol=1e-12)
        assert_allclose(pair.q @ pair.p_alpha, pair.p_zero @ pair.q, atol=1e-12)

    def test_rank_counts(self):
        # P projects out one direction per protected (mode, channel) slot.
        pair = build_projection_pair(m=3, ell=2, n_core=4, alpha=0.1)
        protected = 3 - 2
        assert pair.n_total == 4 * (1 + protected)
        dim = 3 * pair.n_total
        rank = int(round(np.trace(pair.p_zero)))
        assert rank == dim - 4 * protected

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_projection_pair(m=2, ell=2, n_core=3, alpha=0.1)
        with pytest.raises(ValueError):
            build_projection_pair(m=3, ell=1, n_core=0, alpha=0.1)
        with pytest.raises(ValueError):
            build_projection_pair(m=3, ell=1, n_core=3, alpha=0.6)
        with pytest.raises(ValueError):
            build_projection_pair(m=3, ell=1, n_core=3, alpha=0.0)

    def test_explicit_reduction_rows_orthonormal(self):
        pair = build_projection_pair(m=3, ell=1, n_core=4, alpha=0.2)
        red = build_reduction_explicit(pair)
        assert red.kind == "explicit"
        b = pair.q[_keep_indices(pair.m, pair.ell, pair.n_total)]
        assert_allclose(b @ b.T, np.eye(b.shape[0]), atol=1e-12)


class TestClosedFormPair:
    """The closed-form pair against the dense constructions it replaces."""

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.45, 0.49])
    @pytest.mark.parametrize("m, ell, n_core",
                             [(2, 1, 1), (3, 1, 4), (4, 2, 3), (5, 3, 2), (6, 1, 2)])
    def test_matches_dense_pair(self, m, ell, n_core, alpha):
        # eps0 is alpha by construction, and the row defect of B comes from
        # its xi rows alone; both against the dense matrices.
        pair = build_projection_pair(m=m, ell=ell, n_core=n_core, alpha=alpha)
        p_zero, p_alpha = pair.p_zero, pair.p_alpha
        q_dense = _kato_rotation(p_zero, p_alpha)
        assert np.max(np.abs(pair.q - q_dense)) <= 1e-14
        red = build_reduction_explicit(pair)
        assert red.meta["tilt"] == alpha
        assert abs(alpha - np.linalg.norm(p_alpha - p_zero, 2)) <= 1.2e-16
        keep = _keep_indices(m, ell, pair.n_total)
        b_dense = (q_dense @ p_alpha)[keep]
        b = pair.q[keep]
        assert np.max(np.abs(b - b_dense)) <= 1e-14
        gram = b @ b.T
        gram_defect = np.max(np.abs(gram - np.eye(len(gram))))
        assert abs(red.row_orthonormality_defect() - gram_defect) <= 2.3e-16

    @pytest.mark.parametrize("mode, depth", [("relu", 2), ("relu", 3), ("injective", 2),
                                             ("injective", 3), ("relu", 1), ("injective", 1)])
    def test_fold_matches_dense(self, mode, depth):
        rng = np.random.default_rng(61)
        act = Activation("relu") if mode == "relu" else Activation("leaky_relu", 0.5)
        net = deep_net(rng, depth, act, n=3, d_in=2, width=3, d_out=2)
        res = lift_to_injective(net, mode=mode, alpha=0.2)
        pair = res.reduction.pair
        keep = _keep_indices(pair.m, pair.ell, pair.n_total)
        b_full = (_kato_rotation(pair.p_zero, pair.p_alpha) @ pair.p_alpha)[keep]
        final = padded_layer(res.augmented.layers[-1], res.n_total)
        folded = padded_layer(res.network.layers[-1], res.n_total)
        assert np.max(np.abs(_mode_major(folded) - b_full @ _mode_major(final))) <= 1e-13
        bias_dense = b_full @ _stacked(final.bias.coeffs)
        assert np.max(np.abs(_stacked(folded.bias.coeffs) - bias_dense)) <= 1e-13

    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 0.3, 0.49])
    @pytest.mark.parametrize("mode, depth, shape", [
        ("relu", 1, (3, 2, 3, 2)), ("relu", 2, (3, 2, 3, 2)), ("relu", 3, (3, 2, 3, 2)),
        ("injective", 1, (3, 2, 3, 2)), ("injective", 2, (3, 2, 3, 2)),
        ("injective", 3, (3, 2, 3, 2)), ("relu", 2, (6, 8, 8, 8)), ("injective", 2, (6, 8, 8, 8)),
    ], ids=["relu1", "relu2", "relu3", "injective1", "injective2", "injective3",
            "relu_dim864", "injective_dim864"])
    def test_fold_is_the_closed_form_bit_for_bit(self, mode, depth, shape, alpha):
        # The last augmented layer writes only modes < n, where each row of
        # B has one nonzero entry: kept rows copy an output row, and each xi
        # row is amp * (its own row, zero there) - alpha * (its slot's row).
        n, d_in, width, d_out = shape
        act = Activation("relu") if mode == "relu" else Activation("leaky_relu", 0.5)
        net = deep_net(np.random.default_rng(65), depth, act, n=n, d_in=d_in, width=width,
                       d_out=d_out)
        res = lift_to_injective(net, mode=mode, alpha=alpha)
        pair, final = res.reduction.pair, res.augmented.layers[-1]
        kept = slice(pair.m - pair.ell, None)
        c = np.zeros((n, pair.n_total, pair.ell, final.d_in))
        c[:, :n] = final.c[:, :, kept]
        bias = np.zeros((pair.ell, pair.n_total))
        bias[:, :n] = final.bias.coeffs[kept]
        slot_mode, slot_chan = np.divmod(pair.slots, pair.m)
        xi_mode = pair.xi_slots // pair.m
        c[:, xi_mode, -1] = (pair.amp * c[:, xi_mode, -1]
                             - pair.alpha * final.c[:, slot_mode, slot_chan])
        bias[-1, xi_mode] = (pair.amp * bias[-1, xi_mode]
                             - pair.alpha * final.bias.coeffs[slot_chan, slot_mode])
        folded = res.network.layers[-1]
        assert folded.c.tobytes() == c.tobytes()
        assert folded.bias.coeffs.tobytes() == bias.tobytes()

    @pytest.mark.parametrize("mode", ["relu", "injective"])
    def test_plane_fold_is_the_dense_product_on_signed_zeros(self, mode):
        # The dense product sums +0.0 terms into every entry, so a -0.0 in
        # the last layer comes out +0.0 there; the plane fold must agree.
        act = Activation("relu") if mode == "relu" else Activation("leaky_relu", 0.5)
        net = deep_net(np.random.default_rng(66), 2, act, n=3, d_in=2, width=3, d_out=2)
        last = net.layers[-1]
        last.c[::2, 1::2] = -0.0
        last.bias.coeffs[:, 1] = -0.0
        res = lift_to_injective(net, mode=mode, alpha=0.1)
        final, n, pair = res.augmented.layers[-1], res.n, res.reduction.pair
        b = pair.q[_keep_indices(pair.m, pair.ell, pair.n_total)][:, : n * pair.m]
        assert np.signbit(final.mat).sum() > 0
        dense = b @ _mode_major(final)
        # dense has rows (p, out chan) and columns (k, in chan); the fold
        # keeps the layer's rows (in chan, k) and gives (out chan, p) tables.
        want_mat = dense.reshape(res.n_total, 2, n, final.d_in).transpose(3, 2, 1, 0)
        folded_mat = res.reduction.fold(final.mat.reshape(-1, pair.m, n))
        assert folded_mat.tobytes() == want_mat.tobytes()
        want_bias = (b @ _stacked(final.bias.coeffs)).reshape(res.n_total, 2).T
        assert res.reduction.fold(final.bias.coeffs).tobytes() == want_bias.tobytes()
        want_c = dense.reshape(res.n_total, 2, n, final.d_in).transpose(2, 0, 1, 3)
        folded = res.network.layers[-1]
        assert folded.c.tobytes() == want_c.tobytes()
        assert folded.bias.coeffs.tobytes() == want_bias.tobytes()

    @pytest.mark.parametrize("randomized", [False, True], ids=["explicit", "randomized"])
    def test_fold_of_a_stack_is_the_fold_of_each_table(self, randomized):
        # One contract for a bias and for the rows of a layer's matrix: a
        # (B, m, n) stack folds as its B tables do one by one.
        net = deep_net(np.random.default_rng(67), 3, Activation("relu"),
                       n=3, d_in=1, width=2, d_out=1)
        res = lift_to_injective(net, mode="relu", alpha=0.2, seed=3, randomized=randomized)
        stack = np.random.default_rng(68).standard_normal((7, res.augmented.d_out, res.n))
        stack[::3, ::2] = -0.0
        folded = res.reduction.fold(stack)
        assert folded.shape == (7, 1, res.n_total)
        each = np.stack([res.reduction.fold(table) for table in stack])
        if randomized:
            # One gemm for the stack against one gemv per table: BLAS sums
            # the two in different orders.  The lift folds a bias by gemv
            # and a layer's rows by gemm, as the block-matrix fold did.
            assert np.max(np.abs(folded - each)) <= 1e-14 * np.max(np.abs(each))
        else:
            assert folded.tobytes() == each.tobytes()

    def test_explicit_lift_runs_no_dense_factorization(self, monkeypatch):
        # The explicit lift and its report make no np.linalg call and read
        # no dense matrix of the pair.  N=16, d_in=8, width 8, d_out 8:
        # lifted dim 16 * 144 = 2304, where a dense B alone takes 21 MB.
        def refuse(*args, **kwargs):
            raise AssertionError("dense algebra on the explicit lift path")

        net = deep_net(np.random.default_rng(62), 2, Activation("relu"),
                       n=16, d_in=8, width=8, d_out=8)
        for name, value in vars(np.linalg).items():
            if callable(value) and not name.startswith("_") and not isinstance(value, type):
                monkeypatch.setattr(np.linalg, name, refuse)
        for name in ("q", "p_alpha", "p_zero"):
            monkeypatch.setattr(ProjectionPair, name, property(refuse))
        tracemalloc.start()
        try:
            res = lift_to_injective(net, mode="relu", alpha=0.1)
            defect = res.reduction.row_orthonormality_defect()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dim = res.reduction.pair.dim
        assert dim == 2304
        assert peak < dim * dim * 8 / 4
        assert res.eps0 == 0.1 and defect <= 1e-15


class TestRandomizedVerifier:
    """The randomized verifier holds one chunk of rows, not all its samples."""

    @staticmethod
    def recording_map(n_in, out, calls, collapse_after=None):
        # A linear graph map that records the rows of each call; after
        # ``collapse_after`` calls it sends everything to zero.
        mat = np.random.default_rng(13).standard_normal((out, n_in))

        def t_map(batch):
            calls.append(len(batch))
            if collapse_after is not None and len(calls) > collapse_after:
                return np.zeros((len(batch), n_in + out))
            return np.concatenate([batch, batch @ mat.T], axis=1)

        return t_map

    def test_map_gets_at_most_one_chunk_per_call(self):
        # n_in = 8 gives 32 * (1 + 8) = 288 Jacobian probes, more than a chunk.
        calls = []
        red = build_reduction_randomized(self.recording_map(8, 17, calls), 8, 17, seed=0)
        assert red.meta["attempt"] == 0
        assert max(calls) <= VERIFY_CHUNK_ROWS
        assert sum(calls) == 32 * 9 + 2 * 10_000

    def test_a_colliding_chunk_ends_the_check(self):
        # The probes pass, then the first pair chunk collides: the map sees
        # one chunk of u and one of v, no more.
        calls = []
        probe_calls = -(-32 * 9 // VERIFY_CHUNK_ROWS)
        t_map = self.recording_map(8, 17, calls, collapse_after=probe_calls)
        with pytest.raises(ReductionVerificationError):
            build_reduction_randomized(t_map, 8, 17, seed=0, max_retries=1)
        assert calls[probe_calls:] == [VERIFY_CHUNK_ROWS, VERIFY_CHUNK_ROWS]

    def test_randomized_lift_peak_memory(self):
        # The lift workload's randomized shape: N = 3, widths 1 -> 2 -> 2 -> 1.
        # Holding all 10,000 pairs' ambient outputs at once took 3.07 MB.
        net = deep_net(np.random.default_rng(71), 3, Activation("relu"),
                       n=3, d_in=1, width=2, d_out=1)
        tracemalloc.start()
        try:
            res = lift_to_injective(net, mode="relu", randomized=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.reduction.kind == "randomized"
        assert peak < 2_000_000

    def test_fold_refuses_a_map_without_columns(self):
        calls = []
        red = build_reduction_randomized(self.recording_map(3, 8, calls), 3, 8, seed=0)
        assert red.columns is None
        with pytest.raises(UsageError, match="columns"):
            red.fold(np.ones((11, 1)))


class TestRectangularLift:
    """The lifted net keeps H's hidden layers at order n; only its folded
    last layer maps order n to n_total."""

    @pytest.mark.parametrize("mode, randomized, shape", [
        ("relu", False, (3, 2, 3, 2)),
        ("injective", False, (3, 2, 3, 2)),
        ("relu", True, (3, 1, 2, 1)),
        ("relu", False, (6, 8, 8, 8)),
    ], ids=["relu", "injective", "randomized", "n6_d8"])
    def test_only_last_layer_reaches_n_total(self, mode, randomized, shape):
        n, d_in, width, d_out = shape
        rng = np.random.default_rng(63)
        act = Activation("relu") if mode == "relu" else Activation("leaky_relu", 0.5)
        net = deep_net(rng, 3, act, n=n, d_in=d_in, width=width, d_out=d_out)
        res = lift_to_injective(net, mode=mode, alpha=0.1, randomized=randomized)
        *hidden, last = res.network.layers
        assert all(layer.n == layer.n_out == n for layer in hidden)
        assert last.c.shape == (n, res.n_total, d_out, last.d_in)
        assert (res.network.n, res.network.n_out) == (n, res.n_total)
        # The same map with every layer padded to n_total.
        padded = FiniteRankNetwork([padded_layer(layer, res.n_total)
                                    for layer in res.network.layers])
        grid = Grid(0.0, 1.0, 512)
        a = SpectralCoeffs(BASIS, n, rng.standard_normal((4, d_in, n)))
        a_padded = np.zeros((4, d_in, res.n_total))
        a_padded[..., :n] = a.coeffs
        ref = apply_network(padded, SpectralCoeffs(BASIS, res.n_total, a_padded), grid).coeffs
        assert np.max(np.abs(res.apply(a, grid).coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestAugment:
    # Pathway block of each augmented layer in units of the d x d identity,
    # and the column where the original kernel starts.
    LAYOUTS = {
        ("relu", 1): [([[1]], 0)],
        ("relu", 2): [([[1], [-1]], 0), ([[1, -1]], 2)],
        ("relu", 3): [([[1], [-1]], 0), ([[1, -1], [-1, 1]], 2), ([[1, -1]], 2)],
        ("injective", 1): [([[1]], 0)],
        ("injective", 2): [([[1]], 0), ([[1]], 1)],
        ("injective", 3): [([[1]], 0), ([[1]], 1), ([[1]], 1)],
    }

    @pytest.mark.parametrize("mode, depth", sorted(LAYOUTS))
    def test_block_layout(self, mode, depth):
        d, n = 2, 3
        act = Activation("relu") if mode == "relu" else Activation("leaky_relu", 0.5)
        net = deep_net(np.random.default_rng(63), depth, act, n=n, d_in=d, width=3, d_out=2)
        aug = _augment_network(net, mode)
        assert len(aug.layers) == depth
        for t, (layer, orig, (signs, in_units)) in enumerate(
            zip(aug.layers, net.layers, self.LAYOUTS[mode, depth])
        ):
            signs = np.array(signs, dtype=float)
            p_out, p_in, in_off = signs.shape[0] * d, signs.shape[1] * d, in_units * d
            assert (layer.d_in, layer.d_out) == (in_off + orig.d_in, p_out + orig.d_out)
            expected = np.zeros((n, n, p_out + orig.d_out, in_off + orig.d_in))
            for k in range(n):
                for i, j in np.ndindex(signs.shape):
                    expected[k, k, i * d:(i + 1) * d, j * d:(j + 1) * d] = signs[i, j] * np.eye(d)
            expected[:, :, p_out:, in_off:] = orig.c
            assert np.array_equal(layer.c, expected)
            assert np.array_equal(layer.bias.coeffs[:p_out], np.zeros((p_out, n)))
            assert np.array_equal(layer.bias.coeffs[p_out:], orig.bias.coeffs)
            last = t == depth - 1
            assert layer.activation == (Activation() if last else orig.activation)

    @pytest.mark.parametrize("mode, depth", sorted(LAYOUTS))
    def test_pathway_is_the_kron_form_bit_for_bit(self, mode, depth):
        # The pathway was first written as np.kron(path, I_d); its -1 entries
        # give -0.0 off the diagonal, which array_equal would not see.
        d, n = 3, 2
        act = Activation("relu") if mode == "relu" else Activation("leaky_relu", 0.5)
        net = deep_net(np.random.default_rng(64), depth, act, n=n, d_in=d, width=2, d_out=2)
        block = _PATHWAY_BLOCKS[mode]
        for t, (layer, orig) in enumerate(zip(_augment_network(net, mode).layers, net.layers)):
            path = block[: 1 if t == depth - 1 else None, : 1 if t == 0 else None]
            p_out, p_in = path.shape[0] * d, path.shape[1] * d
            in_off = 0 if t == 0 else p_in
            c = np.zeros((n, n, p_out + orig.d_out, in_off + orig.d_in))
            c[:, :, :p_out, :p_in] = np.eye(n)[:, :, None, None] * np.kron(path, np.eye(d))
            c[:, :, p_out:, in_off:] = orig.c
            bias = np.zeros((p_out + orig.d_out, n))
            bias[p_out:] = orig.bias.coeffs
            assert layer.c.tobytes() == c.tobytes()
            assert layer.bias.coeffs.tobytes() == bias.tobytes()


class TestDimensionGate:
    def test_boundary_is_sharp(self):
        check_reduction_dimensions(3, 7)  # 2 * 3 + 1
        with pytest.raises(DimensionError):
            check_reduction_dimensions(3, 6)
        with pytest.raises(DimensionError):
            check_reduction_dimensions(0, 5)

    def test_randomized_reduction_on_linear_map(self):
        rng = np.random.default_rng(13)
        n_in, out = 3, 8
        m_mat = rng.standard_normal((out, n_in))

        def t_map(batch):
            batch = np.atleast_2d(batch)
            return np.concatenate([batch, batch @ m_mat.T], axis=1)

        red = build_reduction_randomized(t_map, n_in, out, seed=0)
        assert red.kind == "randomized"
        assert red.dense.shape == (out, n_in + out)
        assert red.meta["tilt"] > 0.0
        # Fresh pairs must stay separated through the reduced map.
        u = rng.standard_normal((200, n_in))
        v = rng.standard_normal((200, n_in))
        gap_in = np.linalg.norm(u - v, axis=1)
        gap_out = np.linalg.norm(t_map(u) @ red.dense.T - t_map(v) @ red.dense.T, axis=1)
        assert np.all(gap_out >= 1e-9 * gap_in)

    def test_degenerate_map_fails_verification(self):
        def collapse(batch):
            batch = np.atleast_2d(batch)
            return np.zeros((batch.shape[0], 2 + 5))

        with pytest.raises(ReductionVerificationError):
            build_reduction_randomized(collapse, 2, 5, seed=0, max_retries=2)


def relu_net(rng, n=2, d_in=1, width=2):
    hidden = FiniteRankLayer(
        d_in=d_in, d_out=width, n=n,
        c=rng.standard_normal((n, n, width, d_in)),
        bias=SpectralCoeffs(BASIS, n, rng.standard_normal((width, n))),
        activation=Activation("relu"),
    )
    final = FiniteRankLayer(
        d_in=width, d_out=1, n=n,
        c=rng.standard_normal((n, n, 1, width)),
        bias=zero_bias(BASIS, 1, n),
    )
    return FiniteRankNetwork([hidden, final])


def linear_net(rng, n=2, d_in=1, width=2, activation=None):
    hidden = FiniteRankLayer(
        d_in=d_in, d_out=width, n=n,
        c=rng.standard_normal((n, n, width, d_in)),
        bias=SpectralCoeffs(BASIS, n, rng.standard_normal((width, n))),
        activation=activation or Activation(),
    )
    final = FiniteRankLayer(
        d_in=width, d_out=1, n=n,
        c=rng.standard_normal((n, n, 1, width)),
        bias=zero_bias(BASIS, 1, n),
    )
    return FiniteRankNetwork([hidden, final])


def deep_net(rng, depth, act, n, d_in, width, d_out):
    """``depth`` layers with hidden activation ``act`` and a linear last layer."""
    widths = [d_in] + [width] * (depth - 1) + [d_out]
    return FiniteRankNetwork([
        FiniteRankLayer(
            d_in=a, d_out=b, n=n,
            c=rng.standard_normal((n, n, b, a)),
            bias=SpectralCoeffs(BASIS, n, rng.standard_normal((b, n))),
            activation=act if t < depth - 1 else Activation(),
        )
        for t, (a, b) in enumerate(zip(widths, widths[1:]))
    ])


def padded_layer(layer, n_total):
    """``layer`` with its input and output orders zero-padded to n_total."""
    c = np.zeros((n_total, n_total, layer.d_out, layer.d_in))
    c[: layer.n, : layer.n_out] = layer.c
    bias = np.zeros((layer.d_out, n_total))
    bias[:, : layer.n_out] = layer.bias.coeffs
    return FiniteRankLayer(d_in=layer.d_in, d_out=layer.d_out, n=n_total, c=c,
                           bias=SpectralCoeffs(layer.basis, n_total, bias),
                           activation=layer.activation)


def check_closeness(res, grid, rng, count=20):
    for _ in range(count):
        a = SpectralCoeffs(BASIS, res.n, rng.standard_normal((res.original.d_in, res.n)))
        a.coeffs /= max(1.0, np.linalg.norm(a.coeffs))
        f_out = res.apply_original(a, grid)
        g_out = res.apply(a, grid)
        h_out = res.apply_augmented(a, grid)
        diff = g_out.coeffs[:, : res.n] - f_out.coeffs
        tail = g_out.coeffs[:, res.n:]
        gap = np.sqrt(np.sum(diff**2) + np.sum(tail**2))
        assert gap <= 5.0 * res.eps0 * h_out.l2_norm() + 1e-8


class TestLift:
    def test_relu_mode_recovers_exactly(self):
        rng = np.random.default_rng(51)
        net = relu_net(rng)
        res = lift_to_injective(net, mode="relu", alpha=0.1)
        grid = Grid(0.0, 1.0, 256)
        assert res.eps0 == pytest.approx(0.1, abs=1e-12)
        assert res.n_total == net.n * (1 + net.d_in)
        for _ in range(5):
            a = SpectralCoeffs(BASIS, net.n, rng.standard_normal((1, net.n)))
            h = res.apply_augmented(a, grid)
            back = res.recover_input(h, grid)
            assert_allclose(back.coeffs, a.coeffs, atol=1e-10)
        check_closeness(res, grid, rng)

    def test_injective_mode_identity_hidden(self):
        rng = np.random.default_rng(52)
        net = linear_net(rng)
        res = lift_to_injective(net, mode="injective", alpha=0.25)
        grid = Grid(0.0, 1.0, 256)
        a = SpectralCoeffs(BASIS, net.n, rng.standard_normal((1, net.n)))
        back = res.recover_input(res.apply_augmented(a, grid), grid)
        assert_allclose(back.coeffs, a.coeffs, atol=1e-10)
        check_closeness(res, grid, rng)

    def test_injective_mode_leaky_hidden_closeness(self):
        rng = np.random.default_rng(53)
        net = linear_net(rng, activation=Activation("leaky_relu", 0.4))
        res = lift_to_injective(net, mode="injective", alpha=0.05)
        check_closeness(res, Grid(0.0, 1.0, 256), rng)

    def test_lifted_map_separates_points(self):
        rng = np.random.default_rng(54)
        net = relu_net(rng)
        res = lift_to_injective(net, mode="relu", alpha=0.1)
        grid = Grid(0.0, 1.0, 256)
        min_ratio = np.inf
        for _ in range(200):
            a1 = SpectralCoeffs(BASIS, net.n, rng.standard_normal((1, net.n)))
            a2 = SpectralCoeffs(BASIS, net.n, rng.standard_normal((1, net.n)))
            gap_in = np.linalg.norm(a1.coeffs - a2.coeffs)
            if gap_in == 0.0:
                continue
            g1 = res.apply(a1, grid)
            g2 = res.apply(a2, grid)
            min_ratio = min(min_ratio, np.linalg.norm(g1.coeffs - g2.coeffs) / gap_in)
        assert min_ratio > 1e-9

    def test_randomized_lift(self):
        rng = np.random.default_rng(55)
        net = relu_net(rng)
        res = lift_to_injective(net, mode="relu", randomized=True, seed=0)
        expected = max(net.n * (1 + net.d_in), -(-(2 * net.n * net.d_in + 1) // net.d_out))
        assert res.n_total == expected
        assert res.reduction.kind == "randomized"
        assert res.reduction.row_orthonormality_defect() <= 1e-12
        grid = Grid(0.0, 1.0, 256)
        a = SpectralCoeffs(BASIS, net.n, rng.standard_normal((1, net.n)))
        back = res.recover_input(res.apply_augmented(a, grid), grid)
        assert_allclose(back.coeffs, a.coeffs, atol=1e-10)
        check_closeness(res, grid, rng, count=10)

    def test_explicit_lift_runs_no_two_norm(self, monkeypatch):
        two_norms = []
        norm = np.linalg.norm

        def counting(x, ord=None, *args, **kwargs):
            if ord == 2:
                two_norms.append(x)
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting)
        net = relu_net(np.random.default_rng(58))
        res = lift_to_injective(net, mode="relu", alpha=0.15)
        assert two_norms == []
        monkeypatch.undo()
        assert res.eps0 == res.reduction.pair.alpha == 0.15

    @pytest.mark.parametrize("slope", [0.3, 2.5])
    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    def test_leaky_pathway_of_one_sign_inverts_exactly(self, sign, depth, slope):
        # A constant-mode input keeps one sign on the whole grid, so each
        # LeakyReLU on the pathway is linear there and inverts exactly.
        n, d_in = 4, 2
        net = deep_net(np.random.default_rng(67), depth, Activation("leaky_relu", slope),
                       n=n, d_in=d_in, width=3, d_out=2)
        res = lift_to_injective(net, mode="injective", alpha=0.1)
        grid = Grid(0.0, 1.0, 256)
        coeffs = np.zeros((d_in, n))
        coeffs[:, 0] = sign * np.array([0.7, 1.3])
        a = SpectralCoeffs(BASIS, n, coeffs)
        back = res.recover_input(res.apply_augmented(a, grid), grid)
        assert np.max(np.abs(back.coeffs - a.coeffs)) <= 1e-12

    @pytest.mark.parametrize("mode", ["relu", "injective"])
    @pytest.mark.parametrize("depth, shape", [(1, (3, 2, 3, 2)), (2, (4, 1, 2, 1)),
                                              (3, (3, 2, 3, 2)), (2, (6, 8, 8, 8))])
    def test_xi_modes_of_g_are_the_scaled_pathway(self, mode, depth, shape):
        # G's last channel at modes >= n is -alpha times H's pathway (its
        # first d_in channels), mode-major: an input can be read off G alone.
        n, d_in, width, d_out = shape
        act = Activation("relu") if mode == "relu" else Activation("leaky_relu", 0.4)
        rng = np.random.default_rng(69)
        net = deep_net(rng, depth, act, n=n, d_in=d_in, width=width, d_out=d_out)
        res = lift_to_injective(net, mode=mode, alpha=0.15)
        a = SpectralCoeffs(BASIS, n, rng.standard_normal((6, d_in, n)))
        grid = Grid(0.0, 1.0, 256)
        g_xi = res.apply(a, grid).coeffs[:, -1, n:]
        path = res.apply_augmented(a, grid).coeffs[:, :d_in]
        want = -0.15 * np.swapaxes(path, 1, 2).reshape(6, -1)
        assert np.max(np.abs(g_xi - want)) <= 1e-14 * np.max(np.abs(want))

    def test_randomized_lift_draw_is_reproducible(self):
        # Attempt and tilt of these seeded lifts, recorded with the
        # one-row-at-a-time verifier; the batched verifier must accept the
        # same draw.
        for n, seed, tilt in [(2, 0, 0.06152038150841331), (3, 5, 0.06430204933630616)]:
            net = relu_net(np.random.default_rng(57), n=n)
            res = lift_to_injective(net, mode="relu", randomized=True, seed=seed)
            assert res.reduction.meta["attempt"] == 0
            assert res.reduction.meta["tilt"] == pytest.approx(tilt, rel=1e-12)
            assert res.eps0 == res.reduction.meta["tilt"]

    def test_apply_checks_input_order(self):
        net = relu_net(np.random.default_rng(59), n=4)
        res = lift_to_injective(net, mode="relu", alpha=0.1)
        assert res.n_total == 8
        grid = Grid(0.0, 1.0, 256)
        short = SpectralCoeffs(BASIS, 3, np.ones((1, 3)))
        haar = SpectralCoeffs(BasisSpec("step_haar", (0.0, 1.0)), 4, np.ones((1, 4)))
        for apply in (res.apply, res.apply_augmented, res.apply_original):
            with pytest.raises(DimensionError):
                apply(short, grid)
            with pytest.raises(DimensionError, match="coefficients in BasisSpec.'step_haar'"):
                apply(haar, grid)

    def test_mode_follows_the_hidden_activations(self):
        rng = np.random.default_rng(60)
        one_layer = FiniteRankNetwork(relu_net(rng).layers[1:])
        for net, mode in [(relu_net(rng), "relu"), (one_layer, "relu"),
                          (linear_net(rng), "injective"),
                          (linear_net(rng, activation=Activation("leaky_relu", 0.3)), "injective")]:
            res = lift_to_injective(net, alpha=0.1)
            assert res.mode == mode
            same = lift_to_injective(net, mode=mode, alpha=0.1).network.layers[-1]
            assert res.network.layers[-1].c.tobytes() == same.c.tobytes()
        sigmoid = linear_net(rng, activation=Activation("sigmoid"))
        with pytest.raises(ValueError, match="injective lift needs"):
            lift_to_injective(sigmoid)

    def test_mode_validation(self):
        rng = np.random.default_rng(56)
        with pytest.raises(ValueError):
            lift_to_injective(relu_net(rng), mode="injective")
        with pytest.raises(ValueError):
            lift_to_injective(linear_net(rng), mode="relu")
        with pytest.raises(ValueError):
            lift_to_injective(relu_net(rng), mode="bogus")
