"""Certifying layer injectivity, and refuting it.

Two roads: layers whose activation is injective reduce to a matrix rank
question settled by SVD, while ReLU layers get a randomized search over
sign patterns that either produces a concrete colliding pair or reports
that none was found.
"""

import numpy as np

from injop import (
    Activation,
    BasisSpec,
    FiniteRankLayer,
    Grid,
    SpectralCoeffs,
    block_matrix,
    certify_bijective_activation,
    certify_relu_dss,
    verify_collision,
    zero_bias,
)

basis = BasisSpec("fourier", (0.0, 1.0))
grid = Grid(0.0, 1.0, 512)
rng = np.random.default_rng(7)

print("-- injective activation: rank check --")
n, d = 3, 2
layer = FiniteRankLayer(d, d, n, rng.standard_normal((n, n, d, d)),
                        zero_bias(basis, d, n),
                        activation=Activation("leaky_relu", 0.3))
report = certify_bijective_activation(layer)
mat = block_matrix(layer)
svals = np.linalg.svd(mat, compute_uv=False)
print("verdict      :", report.verdict)
print("sigma_min/max:", svals[-1], "/", svals[0])

print()
print("-- force a rank drop --")
broken = FiniteRankLayer(d, d, n, layer.c, zero_bias(basis, d, n),
                         activation=Activation("leaky_relu", 0.3))
# block_matrix is a view of the layer's matrix, so this edits `broken`:
# its last input column now repeats its first.
broken_mat = block_matrix(broken)
broken_mat[:, -1] = broken_mat[:, 0]
report = certify_bijective_activation(broken)
print("verdict      :", report.verdict)
v1, v2 = report.witness
print("witness gap  :", verify_collision(broken, v1, v2, grid))

print()
print("-- ReLU needs a search, not a rank check --")
# One mode, unit coefficient, bias -2 phi_1.  Both u = 0 and u = -2 phi_1
# push the pre-activation to a nonpositive function, so ReLU flattens the
# pair onto the same output.
bias = SpectralCoeffs(basis, 1, np.array([[-2.0]]))
relu_layer = FiniteRankLayer(1, 1, 1, np.ones((1, 1, 1, 1)), bias,
                             activation=Activation("relu"))
report = certify_relu_dss(relu_layer, grid, trials=1000, seed=0)
print("verdict      :", report.verdict)
print("trials used  :", report.trials)
v1, v2 = report.witness
print("witness pair coefficients:", v1.coeffs.ravel(), v2.coeffs.ravel())
print("collision residual       :", verify_collision(relu_layer, v1, v2, grid))

print()
print("-- a ReLU layer the search cannot break --")
# A large positive bias keeps every probed pre-activation strictly
# positive, the active set is everything, and injectivity rides on the
# (well-conditioned) coefficient blocks.
c = np.zeros((2, 2, 1, 1))
c[0, 0, 0, 0] = c[1, 1, 0, 0] = 1.0
big_bias = SpectralCoeffs(basis, 2, np.array([[10.0, 0.0]]))
safe = FiniteRankLayer(1, 1, 2, c, big_bias, activation=Activation("relu"))
report = certify_relu_dss(safe, grid, trials=40, seed=1)
print("verdict      :", report.verdict, "(absence of witness, not a proof)")
