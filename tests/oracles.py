"""Independent dense oracles built from explicit Kronecker products.

These reconstruct every elementary operator on the full tensor space
(C^N)^(x n) from first principles (numpy.kron chains) and restrict to a
weight subspace by row/column selection.  They share no code with the
matrix-free implementation beyond the basis enumeration order, which is
itself pinned by exact examples.  The slow references at the end are the
computations that the package's fast paths replaced: dense and sparse
products, the recursive basis enumeration, the searched swap tables, the COO
assembly of a CSR matrix, the per-pair commutator actions and the complex
path integration.  The case-table reference checks the package's own
materialized T_ij.
"""

from functools import reduce
from itertools import permutations

import mpmath
import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from kzcal.core import TRIGONOMETRIC, StateVector, get_basis
from kzcal.errors import IntegrationFailureError
from kzcal.kz import _check_segment, _segment_rhs
from kzcal.operators import t_operator


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


# -- signed-swap case tables by sparse matrix products -------------------------


def _sparse_max_abs_diff(a, b) -> float:
    diff = (a - b).tocoo()
    return float(np.max(np.abs(diff.data))) if diff.nnz else 0.0


def t_case_tables_sparse(weight) -> float:
    """The slow reference for ``kzcal.identities.verify_t_case_tables``.

    Multiplies the materialized T_ij as scipy.sparse matrices and compares
    the single action, the square and the symmetrized triple product with
    expected matrices built by exchanging letters in a copy of the basis
    states and re-encoding.  Returns the max absolute deviation.
    """
    basis = get_basis(weight)
    n, dim = basis.n, basis.dim
    states = basis.states
    cols = np.arange(dim)
    worst = 0.0
    tmat = {
        (i0, j0): t_operator(i0 + 1, j0 + 1, weight).materialize()
        for i0, j0 in permutations(range(n), 2)
    }

    for (i0, j0), mat in tmat.items():
        a = states[:, i0].astype(int)
        b = states[:, j0].astype(int)
        mask = a != b
        swapped = states.copy()
        swapped[:, [i0, j0]] = states[:, [j0, i0]]
        rows = basis.rank(basis.encode(swapped))
        data = np.where(a < b, 1.0, -1.0)[mask]
        expected = sp.coo_matrix(
            (data, (rows[mask], cols[mask])), shape=(dim, dim)
        ).tocsr()
        worst = max(worst, _sparse_max_abs_diff(mat, expected))

        sq_expected = sp.diags(np.where(mask, -1.0, 0.0))
        worst = max(worst, _sparse_max_abs_diff(mat @ mat, sq_expected))

    for i0, j0, l0 in permutations(range(n), 3):
        sym = (
            tmat[(i0, j0)] @ tmat[(i0, l0)]
            + tmat[(l0, j0)] @ tmat[(i0, j0)]
            + tmat[(i0, l0)] @ tmat[(j0, l0)]
        )
        a = states[:, i0].astype(int)
        b = states[:, j0].astype(int)
        c = states[:, l0].astype(int)
        mask = ~((a == b) & (b == c))
        cycled = states.copy()
        cycled[:, [l0, i0, j0]] = states[:, [i0, j0, l0]]
        rows = basis.rank(basis.encode(cycled))
        expected = sp.coo_matrix(
            (np.full(int(mask.sum()), -1.0), (rows[mask], cols[mask])),
            shape=(dim, dim),
        ).tocsr()
        worst = max(worst, _sparse_max_abs_diff(sym, expected))
    return worst


# -- basis enumeration, CSR assembly, commutators, path integration ------------


def enumerate_states_recursive(weight) -> np.ndarray:
    """The slow reference for ``kzcal.core._enumerate_states``: depth-first fill."""
    n, N = weight.n, weight.N
    out = np.empty((weight.dimension(), n), dtype=np.int8)
    counts = list(weight.M)
    row = np.empty(n, dtype=np.int8)
    pos = 0

    def fill(k: int) -> None:
        nonlocal pos
        if k == n:
            out[pos] = row
            pos += 1
            return
        for a in range(N):
            if counts[a] > 0:
                counts[a] -= 1
                row[k] = a + 1
                fill(k + 1)
                counts[a] += 1

    fill(0)
    return out


def swap_table_search(basis, i: int, j: int):
    """The slow reference for ``WeightBasis.swap_table``: one binary search per pair.

    Exchanging letter a at site i with letter b at site j moves the code by
    (b - a)(N^(n-1-i) - N^(n-1-j)); every pair ranks its moved codes.
    """
    i, j = min(i, j), max(i, j)
    b_minus_a = basis.states[:, j] - basis.states[:, i]
    shift = basis.N ** np.int64(basis.n - 1 - i) - basis.N ** np.int64(basis.n - 1 - j)
    perm = basis.rank(basis.codes + b_minus_a.astype(np.int64) * shift)
    return perm, np.sign(-b_minus_a)


def materialize_coo(op) -> sp.csr_matrix:
    """The slow reference for ``TermOperator.materialize``: COO triplets, then tocsr()."""
    dim = op.dim
    rows, cols, data = [], [], []
    arange = np.arange(dim)
    for term in op.terms:
        tag = term[0]
        if tag == "diag":
            rows.append(arange)
            cols.append(arange)
            data.append(np.asarray(term[1]))
        elif tag == "swap":
            _, perm, coeff = term
            rows.append(arange)
            cols.append(perm)
            data.append(np.full(dim, coeff))
        else:
            _, perm, sign, coeff = term
            keep = sign != 0
            rows.append(arange[keep])
            cols.append(perm[keep])
            data.append(coeff * sign[keep].astype(float))
    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    return mat.tocsr()


def commutator_actions(conn, v):
    """Yield (i, j, [H_i, H_j] v) for 1 <= i < j <= n as H_i (H_j v) - H_j (H_i v).

    The slow reference for the row-blocked sweep of ``kzcal.kz``: each u_i =
    H_i v is computed once, then every pair applies two full matvecs.
    """
    n = conn.params.n
    u = [conn.hamiltonian(i).matvec(v) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        Hi = conn.hamiltonian(i)
        for j in range(i + 1, n + 1):
            yield i, j, Hi.matvec(u[j - 1]) - conn.hamiltonian(j).matvec(u[i - 1])


def integrate_path_complex(initial, path, conn):
    """The slow reference for ``kzcal.kz.integrate_path``: DOP853 on complex amplitudes.

    Same checks and segments as the package, but the state is never narrowed
    to float64.
    """
    snaps = path.snapshots()
    eps = conn.params.epsilon_x
    y = initial.amplitudes.copy()
    for a, b in zip(snaps[:-1], snaps[1:]):
        if np.array_equal(a, b):
            continue
        _check_segment(a, b, eps)
        sol = solve_ivp(
            _segment_rhs(conn, a, b),
            (0.0, 1.0),
            y,
            method="DOP853",
            rtol=path.tolerance,
            atol=path.atol,
            max_step=path.max_step,
        )
        if not sol.success:
            raise IntegrationFailureError(
                f"integration failed on segment {a} -> {b}: {sol.message}"
            )
        y = sol.y[:, -1]
    return StateVector(initial.weight, y)
