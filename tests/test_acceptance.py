"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each test gathers its violations into a list and reports through
``_line``, which prints to the real stdout so the verdict lines survive
pytest's capture, then fails the test if anything was collected.
"""

import math
import os

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.distance import pdist

from injop.atlas import (
    build_atlas,
    cell_key,
    compose_cell_masks,
    global_invert,
    local_invert,
)
from injop.certify import (
    VERDICT_CERTIFIED,
    VERDICT_COUNTEREXAMPLE,
    SINGULAR_TOL,
    certify_bijective_activation,
    certify_relu_dss,
    collision_threshold,
    verify_collision,
)
from injop.cli import main as cli_main
from injop.errors import DimensionError
from injop.finite_rank import (
    Activation,
    FiniteRankLayer,
    FiniteRankNetwork,
    apply_network,
    block_matrix,
    truncate_kernel,
    zero_bias,
)
from injop.funcspace import BasisSpec, Grid, GridFunction, SpectralCoeffs, h1_norm
from injop.nonlin import (
    NonlinearIntegralOperator,
    SigmoidSumKernel,
    LinearTableKernel,
    VolterraKernel,
    WireKernel,
    estimate_coercivity,
    estimate_contraction,
    frechet_derivative,
    invert_banach,
)
from injop.reduction import (
    build_projection_pair,
    build_reduction_randomized,
    check_reduction_dimensions,
    lift_to_injective,
)
from injop.serialize import (
    save_network,
    save_operator,
    write_grid_function_csv,
)

BASIS = BasisSpec("fourier", (0.0, 1.0))


def _line(capsys, num, label, problems):
    verdict = "PASS" if not problems else f"FAIL ({len(problems)} violations)"
    with capsys.disabled():
        print(f"criterion {num:02d} {label}: {verdict}", flush=True)
    assert not problems, f"criterion {num}: " + "; ".join(str(p) for p in problems[:5])


def _smooth_unit(rng, n, d=1, max_norm=1.0):
    coeffs = rng.standard_normal((d, n))
    norm = np.linalg.norm(coeffs)
    if norm > max_norm:
        coeffs *= max_norm / norm
    return SpectralCoeffs(BASIS, n, coeffs)


def test_01_projection_pairs(capsys):
    problems = []
    for alpha in (0.05, 0.1, 0.25, 0.4):
        for m in (2, 3):
            for ell in (1, 2):
                if ell >= m:
                    continue
                for n_core in (4, 8):
                    tag = f"alpha={alpha} m={m} ell={ell} n={n_core}"
                    pair = build_projection_pair(m, ell, n_core, alpha)
                    for name, p in (("P0", pair.p_zero), ("Pa", pair.p_alpha)):
                        if np.max(np.abs(p @ p - p)) > 1e-10:
                            problems.append(f"{tag}: {name} not idempotent")
                    gap = np.linalg.norm(pair.p_alpha - pair.p_zero, 2)
                    if gap > 2 * alpha + 1e-10:
                        problems.append(f"{tag}: gap {gap} > 2 alpha")
                    inter = np.linalg.norm(
                        pair.q @ pair.p_alpha - pair.p_zero @ pair.q, 2
                    )
                    if inter > 1e-10:
                        problems.append(f"{tag}: intertwine defect {inter}")
                    s_min = np.linalg.svd(pair.q, compute_uv=False)[-1]
                    if s_min <= 0.5:
                        problems.append(f"{tag}: sigma_min(Q) = {s_min}")
    _line(capsys, 1, "projection pairs (idempotent 1e-10, gap <= 2a, sigma_min(Q) > 0.5)", problems)


def test_02_relu_identity_trick(capsys):
    n, m = 8, 512
    grid = Grid(0.0, 1.0, m)
    eye = np.zeros((n, n, 2, 1))
    back = np.zeros((n, n, 1, 2))
    for k in range(n):
        eye[k, k, 0, 0] = 1.0
        eye[k, k, 1, 0] = -1.0
        back[k, k, 0, 0] = 1.0
        back[k, k, 0, 1] = -1.0
    split = FiniteRankLayer(1, 2, n, eye, zero_bias(BASIS, 2, n),
                            activation=Activation("relu"))
    merge = FiniteRankLayer(2, 1, n, back, zero_bias(BASIS, 1, n))
    net = FiniteRankNetwork([split, merge])
    problems = []
    worst = 0.0
    for t in range(100):
        rng = np.random.default_rng([2, t])
        a = SpectralCoeffs(BASIS, n, rng.standard_normal((1, n)))
        out = apply_network(net, a, grid)
        err = float(np.max(np.abs(out.coeffs - a.coeffs)))
        worst = max(worst, err)
        if err > 1e-12:
            problems.append(f"input {t}: error {err}")
    _line(capsys, 2, f"relu identity trick (100 inputs, max err {worst:.2e} <= 1e-12)", problems)


def _oracle_injective(mat):
    """gesvd-driver singular values; the library uses the gesdd path."""
    if mat.shape[0] < mat.shape[1]:
        return False
    svals = scipy.linalg.svd(mat, compute_uv=False, lapack_driver="gesvd")
    return svals[0] > 0.0 and svals[-1] > SINGULAR_TOL * svals[0]


def test_03_certification_against_oracle(capsys):
    problems = []
    grid = Grid(0.0, 1.0, 256)
    agreements = 0
    for t in range(100):
        rng = np.random.default_rng([3, t])
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        c = rng.standard_normal((n, n, d, d))
        if t % 3 == 0 and n * d > 1:
            mat = c.transpose(1, 2, 0, 3).reshape(n * d, n * d).copy()
            mat[:, -1] = mat[:, 0]
            c = mat.reshape(n, d, n, d).transpose(2, 0, 1, 3)
        layer = FiniteRankLayer(d, d, n, c, zero_bias(BASIS, d, n))
        report = certify_bijective_activation(layer)
        expected = _oracle_injective(block_matrix(layer))
        if (report.verdict == VERDICT_CERTIFIED) == expected:
            agreements += 1
        else:
            problems.append(f"layer {t}: verdict {report.verdict}, oracle {expected}")
        if report.verdict == VERDICT_COUNTEREXAMPLE:
            v1, v2 = report.witness
            res = verify_collision(layer, v1, v2, grid)
            if res > collision_threshold(layer, v1, grid):
                problems.append(f"layer {t}: witness residual {res}")

    # Hand-built ReLU counterexample: one mode, C = 1, bias -2 phi_1.
    bias = SpectralCoeffs(BASIS, 1, np.array([[-2.0]]))
    relu_layer = FiniteRankLayer(1, 1, 1, np.ones((1, 1, 1, 1)), bias,
                                 activation=Activation("relu"))
    dss = certify_relu_dss(relu_layer, grid, trials=1000, seed=0)
    if dss.verdict != VERDICT_COUNTEREXAMPLE:
        problems.append("hand-built collision not found in 1000 trials")
    else:
        v1, v2 = dss.witness
        res = verify_collision(relu_layer, v1, v2, grid)
        if res > collision_threshold(relu_layer, v1, grid):
            problems.append(f"hand-built witness residual {res}")
    _line(capsys, 3, f"certification ({agreements}/100 oracle agreement, witnesses at 1e-10)",
          problems)


def test_04_lift_closeness_and_separation(capsys):
    rng = np.random.default_rng([4, 0])
    n = 2
    hidden = FiniteRankLayer(
        1, 2, n, rng.standard_normal((n, n, 2, 1)),
        SpectralCoeffs(BASIS, n, rng.standard_normal((2, n))),
        activation=Activation("relu"),
    )
    final = FiniteRankLayer(2, 1, n, rng.standard_normal((n, n, 1, 2)),
                            zero_bias(BASIS, 1, n))
    net = FiniteRankNetwork([hidden, final])
    res = lift_to_injective(net, mode="relu", alpha=0.1)
    grid = Grid(0.0, 1.0, 512)
    problems = []
    for t in range(100):
        r = np.random.default_rng([4, 1, t])
        a = _smooth_unit(r, n)
        f_out = res.apply_original(a, grid)
        g_out = res.apply(a, grid)
        h_out = res.apply_augmented(a, grid)
        diff = g_out.coeffs[:, :n] - f_out.coeffs
        tail = g_out.coeffs[:, n:]
        gap = math.sqrt(float(np.sum(diff**2) + np.sum(tail**2)))
        bound = 5.0 * res.eps0 * h_out.l2_norm() + 1e-8
        if gap > bound:
            problems.append(f"input {t}: gap {gap} > bound {bound}")

    # Separation: pairwise gaps over 200 seeded inputs give ~2x10^4 pairs.
    r = np.random.default_rng([4, 2])
    inputs = np.stack([_smooth_unit(r, n).coeffs.T.reshape(-1) for _ in range(200)])
    images = np.stack([
        res.apply(SpectralCoeffs(BASIS, n, row.reshape(n, 1).T), grid).coeffs.T.reshape(-1)
        for row in inputs
    ])
    gap_in = pdist(inputs)
    gap_out = pdist(images)
    n_pairs = gap_in.size
    ok = gap_in > 0
    ratios = gap_out[ok] / gap_in[ok]
    min_ratio = float(ratios.min())
    if n_pairs < 10_000:
        problems.append(f"only {n_pairs} pairs sampled")
    if min_ratio <= 0.0:
        problems.append(f"collision: min output/input gap ratio {min_ratio}")
    _line(capsys, 4, f"lift closeness <= 5 eps0 ||H(a)|| + 1e-8; no collisions in "
             f"{n_pairs} pairs (min gap ratio {min_ratio:.3e})", problems)


def test_05_dimension_gate(capsys):
    problems = []

    def fake_map(batch):
        batch = np.atleast_2d(batch)
        return np.zeros((batch.shape[0], 1))

    checked = 0
    for n_in in range(1, 9):
        for n_out in range(1, 9):
            for d in range(1, 4):
                in_modes = n_in * d
                out_modes = n_out * d
                should_reject = out_modes < 2 * in_modes + 1
                checked += 1
                try:
                    check_reduction_dimensions(in_modes, out_modes)
                    rejected = False
                except DimensionError:
                    rejected = True
                if rejected != should_reject:
                    problems.append(
                        f"N={n_in} N'={n_out} d={d}: gate rejected={rejected}, "
                        f"expected {should_reject}"
                    )
                if should_reject:
                    # The builder must refuse before doing any work.
                    with pytest.raises(DimensionError):
                        build_reduction_randomized(fake_map, in_modes, out_modes)
    _line(capsys, 5, f"dimension gate N'd >= 2Nd+1 exact over {checked} configs", problems)


_GEOMETRIC_MODES = 12


def _geometric_kernel(x, y):
    phi_x = BASIS.eval_modes(np.atleast_1d(x.ravel()), _GEOMETRIC_MODES)
    phi_y = BASIS.eval_modes(np.atleast_1d(y.ravel()), _GEOMETRIC_MODES)
    out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
    for k in range(_GEOMETRIC_MODES):
        rate = 0.5**k
        out += rate * phi_x[k].reshape(np.shape(x)) * phi_y[k].reshape(np.shape(y))
    return out


def test_06_truncation_tail(capsys):
    grid = Grid(0.0, 1.0, 512)
    problems = []
    tails = []
    for n in range(1, 9):
        res = truncate_kernel(_geometric_kernel, grid, BASIS, n)
        closed = math.sqrt(sum(0.25**k for k in range(n, _GEOMETRIC_MODES)))
        tails.append(res.hs_tail)
        if abs(res.hs_tail - closed) > 1e-6:
            problems.append(f"N={n}: tail {res.hs_tail} vs closed form {closed}")
    for a, b in zip(tails, tails[1:]):
        if b > a + 1e-12:
            problems.append(f"tail increased: {a} -> {b}")
    _line(capsys, 6, "geometric kernel HS tail matches closed form (1e-6), non-increasing",
          problems)


def test_07_banach_contractions(capsys):
    grid = Grid(0.0, 1.0, 512)
    problems = []
    rho_max = 0.0
    for t in range(20):
        rng = np.random.default_rng([7, t])
        n_terms = int(rng.integers(1, 3))
        terms = [
            (float(rng.uniform(0.05, 0.2) * rng.choice([-1.0, 1.0])),
             float(rng.uniform(0.5, 2.0)),
             float(rng.normal()))
            for _ in range(n_terms)
        ]
        op = NonlinearIntegralOperator(
            grid, SigmoidSumKernel(terms, signature="u(y)"), w=1.0
        )
        rho = estimate_contraction(op)
        if rho > 0.5:
            scale = 0.45 / rho
            terms = [(c * scale, a, b) for c, a, b in terms]
            op = NonlinearIntegralOperator(
                grid, SigmoidSumKernel(terms, signature="u(y)"), w=1.0
            )
            rho = estimate_contraction(op)
        if rho > 0.5:
            problems.append(f"op {t}: could not reach rho <= 0.5 (got {rho})")
            continue
        rho_max = max(rho_max, rho)
        u_true = GridFunction(grid, 0.8 * np.cos(2 * np.pi * grid.nodes)
                              + 0.2 * float(rng.normal()))
        z = op.apply(u_true)
        u, trace = invert_banach(op, z, tol=1e-8, max_iter=60)
        if not trace.converged:
            problems.append(f"op {t}: no convergence in 60 iterations")
            continue
        gap = float(np.sqrt(np.sum(grid.weights * (u.values - u_true.values) ** 2)))
        if gap > 1e-8:
            problems.append(f"op {t}: round-trip gap {gap}")
        bad = [r for r in trace.ratios if r > rho + 0.05]
        if bad:
            problems.append(f"op {t}: step ratio {max(bad)} > rho + 0.05 = {rho + 0.05}")
    _line(capsys, 7, f"banach inversion (20 ops, rho <= {rho_max:.3f}, residual 1e-8 in 60)",
          problems)


def test_08_volterra_round_trip(capsys):
    grid = Grid(0.0, 1.0, 512)
    op = NonlinearIntegralOperator(grid, VolterraKernel(1.0, "sigmoid"), w=1.0)
    problems = []
    worst = 0.0
    for t in range(50):
        rng = np.random.default_rng([8, t])
        coeffs = rng.standard_normal((1, 6))
        u_true = GridFunction(grid, np.zeros(grid.size))
        phi = BASIS.eval_modes(grid.nodes, 6)
        u_true = GridFunction(grid, coeffs[0] @ phi)
        z = op.apply(u_true)
        u, trace = invert_banach(op, z, tol=1e-10, max_iter=200)
        rel = (np.sqrt(np.sum(grid.weights * (u.values - u_true.values) ** 2))
               / max(u_true.l2_norm(), 1e-300))
        worst = max(worst, rel)
        if rel > 1e-6:
            problems.append(f"input {t}: relative error {rel}")

    # The linearization at a fixed state is lower triangular with near-unit
    # diagonal, and the FactorizedFrechet solve agrees with forward substitution.
    u0 = GridFunction(grid, 0.5 * np.sin(2 * np.pi * grid.nodes))
    a = frechet_derivative(op, u0)
    upper = a[np.triu_indices(grid.size, k=1)]
    if np.max(np.abs(upper)) != 0.0:
        problems.append("strict upper triangle not exactly zero")
    diag = np.diag(a)
    if np.max(np.abs(diag - 1.0)) > grid.h:
        problems.append("diagonal strays further than one quadrature weight")
    rng = np.random.default_rng([8, 99])
    rhs = rng.standard_normal(grid.size)
    forward = scipy.linalg.solve_triangular(a, rhs, lower=True)
    from injop.nonlin import FactorizedFrechet

    solved = FactorizedFrechet(a).solve(rhs)
    if np.max(np.abs(forward - solved)) > 1e-10:
        problems.append("FactorizedFrechet vs forward substitution disagree")
    _line(capsys, 8, f"volterra round trip (50 inputs, worst rel err {worst:.2e} <= 1e-6)",
          problems)


def _fd_order(op, u0, v, h):
    a = frechet_derivative(op, u0)
    av = a @ v.values[0]

    def fd(hh):
        up = op.apply(GridFunction(op.grid, u0.values[0] + hh * v.values[0])).values[0]
        dn = op.apply(GridFunction(op.grid, u0.values[0] - hh * v.values[0])).values[0]
        return np.max(np.abs((up - dn) / (2 * hh) - av))

    e1, e2 = fd(h), fd(h / 2.0)
    return e1, e2


def test_09_frechet_orders(capsys):
    grid = Grid(0.0, 1.0, 256)
    kinds = {
        "sigmoid_sum": lambda rng: SigmoidSumKernel(
            [(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.5, 2.0)),
              float(rng.normal()))], signature="u(y)"),
        "wire": lambda rng: WireKernel(
            float(rng.uniform(2.0, 5.0)),
            [(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.5, 1.5)),
              float(rng.normal() * 0.3))], signature="u(y)"),
        "volterra_sigmoid": lambda rng: VolterraKernel(1.0, "sigmoid"),
        "volterra_sin": lambda rng: VolterraKernel(1.0, "sin"),
        "volterra_linear": lambda rng: VolterraKernel(1.0, "none"),
        "linear_table": lambda rng: LinearTableKernel(
            float(rng.uniform(0.5, 2.0))),
    }
    problems = []
    summary = []
    for idx, (name, maker) in enumerate(kinds.items()):
        orders = []
        exact = 0
        for t in range(10):
            rng = np.random.default_rng([9, idx, t])
            op = NonlinearIntegralOperator(grid, maker(rng), w=1.0)
            u0 = GridFunction(grid, 0.4 * np.sin(2 * np.pi * grid.nodes)
                              + 0.1 * float(rng.normal()))
            v = GridFunction(grid, rng.standard_normal(grid.size))
            # An exactly linear kind matches its derivative at any step size;
            # a finite difference at h = 0.5 separates that case cleanly from
            # the roundoff floor that masks the order at small h.
            e_big, _ = _fd_order(op, u0, v, h=0.5)
            if e_big <= 1e-10:
                exact += 1
                continue
            e1, e2 = _fd_order(op, u0, v, h=1e-4)
            orders.append(math.log2(e1 / e2))
        if orders:
            observed = min(orders)
            summary.append(f"{name}:{observed:.2f}")
            if observed < 0.9:
                problems.append(f"{name}: observed order {observed}")
            if exact:
                problems.append(f"{name}: {exact} trials looked linear")
        else:
            summary.append(f"{name}:exact({exact})")
            if exact != 10:
                problems.append(f"{name}: only {exact}/10 trials exact")
    _line(capsys, 9, "frechet finite-difference order >= 0.9 [" + " ".join(summary) + "]",
          problems)


def test_10_newton_atlas(capsys):
    grid = Grid(0.0, 1.0, 256)
    kern = SigmoidSumKernel([(0.4, 1.0, 0.0)], signature="u(y)")
    op = NonlinearIntegralOperator(grid, kern, w=1.0)
    preimages = [
        GridFunction(grid, np.zeros(grid.size)),
        GridFunction(grid, np.full(grid.size, 1.0)),
        GridFunction(grid, np.full(grid.size, -1.2)),
        GridFunction(grid, 2.0 + 0.5 * np.sin(2 * np.pi * grid.nodes)),
    ]
    atlas = build_atlas(op, preimages, ell0=3, eps1=0.25)
    eps0 = atlas.constants["eps0"]
    problems = []
    if eps0 <= 0:
        problems.append(f"eps0 = {eps0}")

    # Local contraction: perturb each anchor image by smooth bumps with
    # H1 size up to 2 eps0.  Inside that ball a single frozen-Jacobian step
    # crushes the residual, so the contraction is measured on successive H1
    # residuals; explicit step ratios are checked too when the trace has any.
    ratio_count = 0
    for j, anchor in enumerate(atlas.anchors):
        for t in range(5):
            rng = np.random.default_rng([10, j, t])
            bump = rng.standard_normal(grid.size // 8)
            phi = BASIS.eval_modes(grid.nodes, bump.size)
            delta = bump @ phi
            scale = 2.0 * eps0 * rng.uniform(0.2, 1.0) / h1_norm(grid, delta)
            g = GridFunction(grid, anchor.g.values[0] + scale * delta)
            u, trace = local_invert(op, anchor, g, tol=1e-11, max_iter=50)
            if not trace.converged:
                problems.append(f"anchor {j} target {t}: not converged")
                continue
            res = trace.residuals_h1
            pairs = [(a, b) for a, b in zip(res, res[1:]) if a > 0]
            ratio_count += len(pairs) + len(trace.ratios)
            bad = [b / a for a, b in pairs if b / a >= 0.5]
            bad += [r for r in trace.ratios if r >= 0.5]
            if bad:
                problems.append(f"anchor {j} target {t}: ratio {max(bad)} >= 1/2")
    if ratio_count == 0:
        problems.append("no contraction ratios were recorded at all")

    # Global round trips through the cell router.
    worst = 0.0
    for t in range(50):
        rng = np.random.default_rng([10, 7, t])
        j = int(rng.integers(len(preimages)))
        v = preimages[j]
        pert = 0.05 * rng.standard_normal() * np.cos(2 * np.pi * grid.nodes)
        u_true = GridFunction(grid, v.values[0] + pert)
        g = op.apply(u_true)
        u, trace = global_invert(atlas, op, g, tol=1e-9, max_iter=80)
        if not trace.converged:
            problems.append(f"target {t}: global inversion failed")
            continue
        err = h1_norm(grid, u.values - u_true.values)
        worst = max(worst, err)
        if err > 1e-6:
            problems.append(f"target {t}: H1 error {err}")
        # Partition of unity: the target's own cell is the only one whose
        # composed mask passes it.
        own = cell_key(g, atlas.probe_idx, atlas.eps1)
        candidates = set(atlas.cell_map) | {own}
        candidates |= {tuple(i + s for i in own) for s in (-1, 1)}
        fired = [c for c in candidates
                 if np.any(compose_cell_masks(c, atlas.probe_idx, atlas.eps1,
                                              g, g).values != 0.0)]
        if fired != [own]:
            if len(fired) != 1 or fired[0] != own:
                problems.append(f"target {t}: masks fired for {fired}")
    _line(capsys, 10, f"newton atlas (ratios < 1/2 near anchors, 50 round trips "
              f"H1 err {worst:.2e} <= 1e-6, one mask per target)", problems)


def test_11_coercivity_rays(capsys):
    grid = Grid(0.0, 1.0, 512)
    problems = []
    for t in range(6):
        rng = np.random.default_rng([11, t])
        n_terms = int(rng.integers(1, 3))
        budget = rng.uniform(0.3, 0.8)
        raw = rng.uniform(0.2, 1.0, size=n_terms)
        raw *= budget / raw.sum()
        terms = [
            (float(raw[i] * rng.choice([-1.0, 1.0])),
             float(rng.uniform(0.5, 2.0)),
             float(rng.normal()))
            for i in range(n_terms)
        ]
        op = NonlinearIntegralOperator(grid, SigmoidSumKernel(terms, signature="u(y)"),
                                       w=1.0)
        report = estimate_coercivity(op, alpha=1.0, n_rays=32, seed=t)
        if not report.analytic_condition_ok:
            problems.append(f"op {t}: smallness condition unexpectedly violated")
            continue
        lower = report.analytic_slope * report.radii - 1e-8
        dips = report.min_values < lower
        if np.any(dips):
            problems.append(f"op {t}: ray value dipped below the analytic bound")
    _line(capsys, 11, "coercivity (32 rays to 1e3, values >= slope * r - 1e-8)", problems)


def test_12_cli_determinism(capsys, tmp_path):
    grid = Grid(0.0, 1.0, 65)
    rng = np.random.default_rng([12, 0])
    n = 2

    hidden = FiniteRankLayer(
        1, 2, n, rng.standard_normal((n, n, 2, 1)),
        SpectralCoeffs(BASIS, n, np.full((2, n), 0.5)),
        activation=Activation("relu"),
    )
    final = FiniteRankLayer(2, 1, n, rng.standard_normal((n, n, 1, 2)),
                            zero_bias(BASIS, 1, n))
    net_path = str(tmp_path / "net.json")
    save_network(FiniteRankNetwork([hidden, final]), net_path)

    op = NonlinearIntegralOperator(
        grid, SigmoidSumKernel([(0.3, 1.0, 0.0)], signature="u(y)"), w=1.0
    )
    op_path = str(tmp_path / "op.json")
    save_operator(op, op_path)
    target_path = str(tmp_path / "target.csv")
    write_grid_function_csv(
        op.apply(GridFunction(grid, np.cos(2 * np.pi * grid.nodes))), target_path
    )
    anchors_dir = tmp_path / "anchors"
    anchors_dir.mkdir()
    for j, level in enumerate((0.0, 1.5)):
        write_grid_function_csv(GridFunction(grid, np.full(65, level)),
                                str(anchors_dir / f"a{j}.csv"))
    table_path = str(tmp_path / "table_op.json")
    save_operator(NonlinearIntegralOperator(grid, LinearTableKernel(1.0)), table_path)

    commands = [
        ("certify", ["certify", "--net", net_path, "--grid-size", "128",
                     "--trials", "200"]),
        ("lift", ["lift", "--net", net_path, "--alpha", "0.1"]),
        ("invert", ["invert", "--op", op_path, "--target", target_path,
                    "--tol", "1e-9"]),
        ("invert_atlas", ["invert", "--op", op_path, "--target", target_path,
                          "--method", "atlas", "--anchors", str(anchors_dir),
                          "--tol", "1e-9"]),
        ("truncate", ["truncate", "--op", table_path, "--rank", "3"]),
        ("demo", ["demo", "volterra", "--grid-size", "128"]),
    ]
    problems = []
    for name, argv in commands:
        outputs = []
        codes = []
        for run in (1, 2):
            out = tmp_path / f"{name}_{run}"
            codes.append(cli_main(argv + ["--out-dir", str(out)]))
            outputs.append({
                f: open(out / f, "rb").read() for f in sorted(os.listdir(out))
            })
        if codes[0] != codes[1]:
            problems.append(f"{name}: exit codes differ {codes}")
        if codes[0] not in (0, 2):
            problems.append(f"{name}: unexpected exit code {codes[0]}")
        if not outputs[0]:
            problems.append(f"{name}: produced no files")
        if outputs[0] != outputs[1]:
            problems.append(f"{name}: outputs differ between identical runs")
    _line(capsys, 12, "CLI determinism (6 commands, byte-identical outputs)", problems)
