"""Independent dense oracles built from explicit Kronecker products.

These reconstruct every elementary operator on the full tensor space
(C^N)^(x n) from first principles (numpy.kron chains) and restrict to a
weight subspace by row/column selection.  They share no code with the
matrix-free implementation beyond the basis enumeration order, which is
itself pinned by exact examples.
"""

from functools import reduce

import mpmath
import numpy as np

from kzcal.core import TRIGONOMETRIC, get_basis


def elementary(N: int, a: int, b: int) -> np.ndarray:
    m = np.zeros((N, N))
    m[a - 1, b - 1] = 1.0
    return m


def chain(N: int, n: int, factors: dict[int, np.ndarray]) -> np.ndarray:
    """Kron chain with the given 1-based site -> matrix placements."""
    mats = [factors.get(site, np.eye(N)) for site in range(1, n + 1)]
    return reduce(np.kron, mats)


def permutation_full(N: int, n: int, i: int, j: int) -> np.ndarray:
    out = np.zeros((N**n, N**n))
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            out += chain(N, n, {i: elementary(N, a, b), j: elementary(N, b, a)})
    return out


def t_full(N: int, n: int, i: int, j: int) -> np.ndarray:
    out = np.zeros((N**n, N**n))
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            if a > b:
                out += chain(N, n, {i: elementary(N, a, b), j: elementary(N, b, a)})
                out -= chain(N, n, {i: elementary(N, b, a), j: elementary(N, a, b)})
    return out


def twist_full(N: int, n: int, i: int, g) -> np.ndarray:
    return chain(N, n, {i: np.diag(np.asarray(g, dtype=float))})


def gaudin_full(params, i: int) -> np.ndarray:
    n, N = params.n, params.N
    out = twist_full(N, n, i, params.g)
    for j in range(1, n + 1):
        if j == i:
            continue
        dx = params.x[i - 1] - params.x[j - 1]
        if params.kind == TRIGONOMETRIC:
            out += (
                params.kappa
                * params.gamma
                / np.tanh(params.gamma * dx)
                * permutation_full(N, n, i, j)
            )
            out += params.kappa * params.gamma * t_full(N, n, i, j)
        else:
            out += params.kappa / dx * permutation_full(N, n, i, j)
    return out


def weight_rows(weight) -> np.ndarray:
    """Full-space row indices of the weight-subspace basis states, in order."""
    return get_basis(weight).codes


def restrict(mat: np.ndarray, weight) -> np.ndarray:
    rows = weight_rows(weight)
    return mat[np.ix_(rows, rows)]


# -- extended-precision momenta by dense inverse iteration --------------------


def gaudin_mp(ctx, params, i: int, weight):
    """Rational H_i on the weight subspace as a dense matrix in the mpmath context ctx.

    The 0/1 patterns come from the Kronecker oracles above, which are exact
    in float64; each kappa / (x_i - x_j) is formed at the precision of ctx.
    """
    n, N = params.n, params.N
    x = [ctx.mpf(v) for v in params.x]
    out = ctx.matrix(restrict(twist_full(N, n, i, params.g), weight).tolist())
    for j in range(1, n + 1):
        if j != i:
            pattern = ctx.matrix(restrict(permutation_full(N, n, i, j), weight).tolist())
            out += pattern * (ctx.mpf(params.kappa) / (x[i - 1] - x[j - 1]))
    return out


def _rayleigh(mat, v):
    return (v.T * mat * v)[0] / (v.T * v)[0]


def refine_momenta_invit(params, weight, vecs, columns, dps: int = 60):
    """Momenta of the given real eigenvector columns by dense shifted inverse iteration.

    The slow reference for the mixed-precision refinement in
    ``kzcal.classical``: a random combination of the dense mpf H_i, two
    shifted inverse-iteration steps per column, each a fresh dps-digit
    ``lu_solve`` of the whole combination, then the Rayleigh quotient of
    every H_i.  Returns one list of n mpf momenta per column.
    """
    ctx = mpmath.MPContext()
    ctx.dps = dps
    hams = [gaudin_mp(ctx, params, i, weight) for i in range(1, params.n + 1)]
    rng = np.random.Generator(np.random.Philox(12345))
    combo = ctx.zeros(hams[0].rows, hams[0].cols)
    for c, ham in zip(rng.standard_normal(params.n), hams):
        combo += ham * ctx.mpf(float(c))
    eye = ctx.eye(combo.rows)
    out = []
    for col in columns:
        v = ctx.matrix([float(a) for a in np.real(vecs[:, col])])
        lam = _rayleigh(combo, v)
        for _ in range(2):
            shift = lam + lam * ctx.mpf("1e-40") + ctx.mpf("1e-45")
            w = ctx.lu_solve(combo - eye * shift, v)
            v = w / ctx.norm(w)
            lam = _rayleigh(combo, v)
        out.append([_rayleigh(ham, v) for ham in hams])
    return out
