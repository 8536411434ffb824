"""Independent dense oracles built from explicit Kronecker products.

These reconstruct every elementary operator on the full tensor space
(C^N)^(x n) from first principles (numpy.kron chains) and restrict to a
weight subspace by row/column selection.  They share no code with the
matrix-free implementation beyond the basis enumeration order, which is
itself pinned by exact examples.  The slow references at the end are the
computations that the package's fast paths replaced: dense and sparse
products, the per-column 60-digit Rayleigh quotients, the Lax rows made anew
per item, the Lax characteristic polynomial by principal minors, the
double-double residual that splits every permuted block anew, the recursive
basis enumeration, the base-N codes and their binary search, the searched
swap tables, the per-state diagonals (the twists, the letter counts and the
path right-hand side's), the term-by-term operator action and path
right-hand side, the COO assembly of a CSR matrix, the CSR row builders (one
masks every term), the per-pair commutator actions, the covariant rows by
full operator applications, the constant covector rows one sector pass per
term, the identity sums one term at a time, the signed-swap triple row one
triple at a time, the T maps read back from CSR matrices, the dense joint
spectrum's combination and products through CSR matrices with scipy's
eigensolver, the Psi derivatives and the path integration in complex
arithmetic.  The case-table reference checks the package's own materialized
T_ij.
"""

from functools import reduce
from itertools import combinations, permutations

import mpmath
import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from kzcal.classical import _exact_product
from kzcal.core import TRIGONOMETRIC, StateVector, get_basis, omega_pairing
from kzcal.errors import IntegrationFailureError
from kzcal.kernel import PairKernel, hamiltonian_terms, pair_table
from kzcal.kz import _check_segment, _covariant_powers, _segment_rhs
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


def base_n_codes(states: np.ndarray, N: int) -> np.ndarray:
    """Base-N code of each row, the first site most significant: its full-space row index.

    int64, so valid only while N^n < 2^63, as on every sector these oracles run.
    """
    powers = N ** np.arange(states.shape[1] - 1, -1, -1, dtype=np.int64)
    return (states.astype(np.int64) - 1) @ powers


def search_rank(basis, codes: np.ndarray) -> np.ndarray:
    """Rows of the basis states with the given base-N codes: a binary search,
    since the lexicographic order is the numeric order of the codes."""
    own = base_n_codes(basis.states, basis.N)
    pos = np.searchsorted(own, codes)
    assert np.all(pos < basis.dim) and np.array_equal(own[pos], codes)
    return pos


def weight_rows(weight) -> np.ndarray:
    """Full-space row indices of the weight-subspace basis states, in order."""
    basis = get_basis(weight)
    return base_n_codes(basis.states, basis.N)


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


def csr_combination(mats, coeffs) -> np.ndarray:
    """sum_i c_i H_i as scipy.sparse adds the CSR matrices H_i, densified."""
    return sum(c * m for c, m in zip(coeffs, mats)).toarray()


def joint_attempt_csr(kernels, entries, dim, n, rng, symmetric):
    """``kzcal.classical._attempt_joint_diagonalization`` through CSR matrices.

    The combination is the CSR sum densified, H_i V the CSR product (each
    row summed in column order, duplicate columns summed first), and the
    non-symmetric eigensolve scipy.linalg.eig.
    """
    mats = [kernel.csr() for kernel in kernels]
    coeffs = rng.standard_normal(n)
    combo = csr_combination(mats, coeffs)
    lam, vecs = (np.linalg.eigh if symmetric else scipy.linalg.eig)(combo)
    vecs = np.asarray(vecs, dtype=np.complex128)
    vecs /= np.linalg.norm(vecs, axis=0, keepdims=True)
    p = np.empty((n, dim), dtype=np.complex128)
    residuals = np.empty((n, dim))
    for i, mat in enumerate(mats):
        mv = mat @ vecs
        p[i] = np.einsum("ij,ij->j", vecs.conj(), mv)
        residuals[i] = np.linalg.norm(mv - vecs * p[i], axis=0)
    worst = float(residuals.max()) if dim else 0.0
    return vecs, residuals, worst, (coeffs, lam), p


def rayleigh_momenta_per_column(ctx, basis, g, pairs, Q, D):
    """The slow reference for ``kzcal.classical._rayleigh_momenta``: one column at a time.

    v = Q - D is formed in ctx, each pair sum v . P_ij v is a ``ctx.fdot``
    shared by H_i and H_j, the twist part is summed per letter, and every
    quotient is an ``fsum`` at the precision of ctx.
    """
    n = basis.n
    letters = basis.states.T - 1
    perms = {ij: basis.swap_table(*ij) for ij in pairs}
    by_letter = [[np.flatnonzero(row == a) for a in range(len(g))] for row in letters]
    p = np.empty((n, Q.shape[1]), dtype=object)
    for col in range(Q.shape[1]):
        v = [ctx.mpf(a) - ctx.mpf(b) for a, b in zip(Q[:, col].tolist(), D[:, col].tolist())]
        sq = [t * t for t in v]
        shared = {ij: k * ctx.fdot(v, [v[r] for r in perms[ij]]) for ij, k in pairs.items()}
        norm = ctx.fsum(sq)
        for i in range(n):
            twist = [ga * ctx.fsum(sq[r] for r in rows) for ga, rows in zip(g, by_letter[i])]
            pair = [shared[i, j] if i < j else -shared[j, i] for j in range(n) if j != i]
            p[i, col] = ctx.fsum(twist + pair) / norm
    return p


# -- Lax rows per item and the characteristic polynomial by principal minors ---


def lax_rows(ctx, p_hp, params) -> list[list]:
    """The Lax matrix at the momenta p_hp as rows of numbers of ctx, every entry made anew.

    The slow reference for ``kzcal.classical._lax_rows``, whose off-diagonal
    entries come from a per-sector cache.
    """
    kern = PairKernel(params, ctx.mpf)
    x = [ctx.mpf(v) for v in params.x]
    A = [[None] * params.n for _ in range(params.n)]
    for i, p in enumerate(p_hp):
        A[i][i] = ctx.convert(p)
    for i, j in combinations(range(params.n), 2):
        A[i][j] = kern.lax(x[i] - x[j])
        A[j][i] = -A[i][j]  # the kernel is odd
    return A


def lax_minors(params, dps: int):
    """A context at dps digits and the terms of det(lambda - diag(p) - K) that p leaves fixed.

    The slow reference for ``kzcal.classical._charpoly``.  With K the Lax
    off-diagonal, det(lambda - diag(p) - K) is the sum over subsets S of
    det(-K_S) prod_{i not in S} (lambda - p_i); the minors are returned as
    (indices not in S, det(-K_S)).  K is antisymmetric, so odd minors vanish
    and det(-K_S) = Pf(K_S)^2, each Pfaffian expanded along its first row
    into smaller ones.
    """
    n = params.n
    ctx = mpmath.MPContext()
    ctx.dps = dps
    kern = PairKernel(params, ctx.mpf)
    x = [ctx.mpf(v) for v in params.x]
    pfaffian = {0: ctx.one}
    minors = [(tuple(range(n)), ctx.one)]
    for mask in range(3, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if len(members) % 2:
            continue
        first, total = members[0], ctx.zero
        for k, j in enumerate(members[1:]):
            term = kern.lax(x[first] - x[j]) * pfaffian[mask ^ (1 << first) ^ (1 << j)]
            total = total - term if k % 2 else total + term
        pfaffian[mask] = total
        minors.append((tuple(i for i in range(n) if not mask >> i & 1), total * total))
    return ctx, minors


def shifted_charpoly(minors, d: list, m: int) -> list:
    """q_0..q_m, the coefficients of mu^k in det(c + mu - diag(p) - K), with d_i = c - p_i.

    The slow reference for ``kzcal.classical._taylor`` of the Berkowitz
    polynomial: 2^(n-1) minors re-summed per target.
    """
    q = [0] * (m + 1)
    for rest, minor in minors:
        poly = [minor]  # minor * prod (mu + d_i) over the indices so far, truncated at mu^m
        for i in rest:
            grown = [poly[0] * d[i]] + [poly[k] * d[i] + poly[k - 1] for k in range(1, len(poly))]
            poly = grown + poly[-1:] if len(poly) <= m else grown
        for k, coeff in enumerate(poly):
            q[k] += coeff
    return q


# -- signed-swap case tables by sparse matrix products -------------------------


def dd_residual_per_term_split(terms, Q, lam):
    """The slow reference for ``kzcal.classical._dd_residual``: each Q[perm] split anew."""
    hi, lo = _exact_product(Q, -lam)
    for a_hi, a_lo, perm in terms:
        block = Q if perm is None else Q[perm]
        prod, err = _exact_product(a_hi, block)
        total = hi + prod
        back = total - hi
        lo = lo + ((hi - (total - back)) + (prod - back)) + err + a_lo * block
        hi = total
    return hi + lo


def scalar_identity_loops(x, gamma: float) -> dict[str, float]:
    """The slow reference for the x-only sums of ``kzcal.identities``: one term at a time.

    The scaled residuals of the rational scalar identities and of the two coth
    sums of ``verify_trig_identities``, summed in ``permutations`` order.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    coth = lambda u: 1.0 / np.tanh(u)
    out = {}
    for name, k, term in (
        ("pair_product", 3, lambda i, j, l: 1.0 / ((x[i] - x[j]) * (x[i] - x[l]))),
        (
            "triple_product", 4,
            lambda i, j, k, l: 1.0 / ((x[i] - x[j]) * (x[i] - x[k]) * (x[i] - x[l])),
        ),
        (
            "coth_pair_product", 3,
            lambda i, j, l: coth(gamma * (x[i] - x[j])) * coth(gamma * (x[i] - x[l])),
        ),
    ):
        expected = n * (n - 1) * (n - 2) / 3.0 if name == "coth_pair_product" else 0.0
        total, biggest = 0.0, 0.0
        for idx in permutations(range(n), k):
            t = term(*idx)
            total += t
            biggest = max(biggest, abs(t))
        out[name] = abs(total - expected) / max(biggest, abs(expected), 1e-300) if n >= k else 0.0
    fraction, addition = 0.0, 0.0
    for i, j, l in permutations(range(n), 3):
        a, b, c = x[i] - x[j], x[i] - x[l], x[j] - x[l]
        terms = (1.0 / (a * b), -1.0 / (a * c), 1.0 / (b * c))
        fraction = max(fraction, abs(sum(terms)) / max(abs(t) for t in terms))
        cij = coth(gamma * (x[i] - x[j]))
        cil = coth(gamma * (x[i] - x[l]))
        clj = coth(gamma * (x[l] - x[j]))
        resid = cij * cil + cij * clj + cil * -clj - 1.0
        addition = max(
            addition, abs(resid) / max(abs(cij * cil), abs(cij * clj), abs(cil * -clj), 1.0)
        )
    out["partial_fraction"], out["coth_addition"] = fraction, addition
    return out


def twist_sum_loops(params, weight) -> dict[str, float]:
    """The slow reference for ``kzcal.identities.verify_twist_sum_identities``.

    Each per-state diagonal accumulates in place, one index tuple at a time.
    """
    basis = get_basis(weight)
    x, g, n = np.asarray(params.x), np.asarray(params.g), basis.n
    gsite = g[basis.states.T - 1]
    kernels = {"pair_twist": lambda dx: 1.0 / dx}
    if params.kind == TRIGONOMETRIC:
        kernels["pair_twist_coth"] = lambda dx: 1.0 / np.tanh(params.gamma * dx)
    sums = {
        name: [(kern(x[i] - x[j]), gsite[i] + gsite[j]) for i, j in permutations(range(n), 2)]
        for name, kern in kernels.items()
    }
    sums["triple_twist"] = [
        (1.0 / ((x[i] - x[j]) * (x[i] - x[k])), gsite[i] + gsite[j] + gsite[k])
        for i, j, k in permutations(range(n), 3)
    ]
    out = {}
    for name, pairs in sums.items():
        diag, biggest = np.zeros(basis.dim), 0.0
        for c, letters in pairs:
            term = c * letters
            diag += term
            biggest = max(biggest, float(np.max(np.abs(term))))
        out[name] = float(np.max(np.abs(diag))) / max(biggest, 1e-300)
    return out


def t_triple_row_per_triple(weight) -> np.ndarray:
    """The slow reference for ``kzcal.identities._t_triple_row``: one T_il^T per triple."""
    n, dim = weight.n, weight.dimension()
    t_ops = {(i, j): t_operator(i + 1, j + 1, weight) for i, j in permutations(range(n), 2)}
    slid = {pair: op.rmatvec(np.ones(dim)) for pair, op in t_ops.items()}
    row = np.zeros(dim)
    for i, j, l in permutations(range(n), 3):
        row += t_ops[i, l].rmatvec(slid[i, j])
    return row


def t_maps_csr(weight, build):
    """The slow reference for ``kzcal.identities._t_maps``: each T_ij
    materialized as a CSR matrix, its one entry per row read back; an empty
    row keeps column 0 and value 0."""
    n, dim = weight.n, weight.dimension()
    col, val = np.zeros((n, n, dim), dtype=np.int32), np.zeros((n, n, dim))
    for i0, j0 in permutations(range(n), 2):
        mat = build(i0 + 1, j0 + 1, weight).materialize()
        counts = np.diff(mat.indptr)
        if np.any(counts > 1):
            return None
        col[i0, j0, counts == 1] = mat.indices
        val[i0, j0, counts == 1] = mat.data
    col.flags.writeable = val.flags.writeable = False
    return col, val


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
        rows = search_rank(basis, base_n_codes(swapped, basis.N))
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
        rows = search_rank(basis, base_n_codes(cycled, basis.N))
        expected = sp.coo_matrix(
            (np.full(int(mask.sum()), -1.0), (rows[mask], cols[mask])),
            shape=(dim, dim),
        ).tocsr()
        worst = max(worst, _sparse_max_abs_diff(sym, expected))
    return worst


# -- basis enumeration, CSR assembly, commutators, path integration ------------


def enumerate_states_recursive(weight) -> np.ndarray:
    """The slow reference for the states of ``kzcal.core._enumerate``: a
    depth-first fill, in the smallest signed dtype that holds the letter N."""
    n, N = weight.n, weight.N
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if N <= np.iinfo(t).max)
    out = np.empty((weight.dimension(), n), dtype=dtype)
    counts = list(weight.M)
    row = np.empty(n, dtype=dtype)
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
    codes = base_n_codes(basis.states, basis.N)
    perm = search_rank(basis, codes + b_minus_a.astype(np.int64) * shift)
    return perm, np.sign(-b_minus_a)


def diag_values(term, states) -> np.ndarray:
    """A diag term's value per state.  ("diag", d) holds it as d; a letter-form
    ("diag", tables, sites) is summed from +0, one whole-sector gather of the
    letters of `states` per site, in site order."""
    if len(term) == 2:
        return np.asarray(term[1])
    _, tables, sites = term
    out = np.zeros(len(states))
    for table, site in zip(tables, sites):
        out = out + table[states[:, site]]
    return out


def twist_per_state(basis, g, i0: int) -> np.ndarray:
    """g at the letter of site i0 of every state: the per-state twist of H_i."""
    return np.asarray(g, dtype=float)[basis.states[:, i0] - 1]


def letter_count_per_state(basis, a: int) -> np.ndarray:
    """How often letter a occurs in every state: the diagonal of M_a."""
    return np.count_nonzero(basis.states == a, axis=1).astype(float)


def segment_diag_per_state(basis, g, vel) -> np.ndarray:
    """The path right-hand side's diagonal per state: vel_i g at the letter of
    each moving site i, added to a zero array in site order."""
    g = np.asarray(g, dtype=float)
    diag = np.zeros(basis.dim)
    for i0 in range(basis.n):
        if vel[i0] != 0.0:
            diag = diag + vel[i0] * g[basis.states[:, i0] - 1]
    return diag


def apply_terms(terms: list[tuple], v: np.ndarray, transpose=False, states=None) -> np.ndarray:
    """The slow reference for ``kzcal.operators.RowKernel``: one numpy gather per term.

    The sum of the terms applied to v, in term order (transpose=True: the
    transpose, which negates the signed swaps); letter-form diag terms read
    the letters of `states`.
    """
    out = np.zeros_like(v, dtype=np.result_type(v.dtype, np.float64))
    for term in terms:
        tag = term[0]
        if tag == "diag":
            out += diag_values(term, states) * v
        elif tag == "swap":
            _, perm, coeff = term
            out += coeff * v[perm]
        elif transpose:
            _, perm, sign, coeff = term
            out -= coeff * (sign * v[perm])
        else:
            _, perm, sign, coeff = term
            out += coeff * (sign * v[perm])
    return out


def segment_rhs_terms(conn, a: np.ndarray, b: np.ndarray):
    """The slow reference for ``kzcal.kz._segment_rhs``: the Hamiltonian terms
    at x(t) = a + t (b - a), made anew on every call and applied one by one."""
    params, basis = conn.params, conn.basis
    n, vel = basis.n, b - a
    diag = ("diag", segment_diag_per_state(basis, params.g, vel))
    weights = [(i0, j0, vel[i0] - vel[j0]) for i0 in range(n) for j0 in range(i0 + 1, n)]
    kern = PairKernel(params)
    table = pair_table(basis, [pair for pair in weights if pair[2] != 0.0], kern.trig)

    def rhs(t, y):
        return apply_terms(hamiltonian_terms(diag, table, a + t * vel, kern), y) / params.hbar

    return rhs


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
            data.append(diag_values(term, get_basis(op.weight).states))
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


def csr_rows(ops, lo: int, hi: int) -> sp.csr_matrix:
    """Rows lo:hi of each operator, stacked in operator order, as one CSR matrix.

    Each row holds one entry per term, in term order, with int32 indices; the
    zero entries of a signed swap are left out and duplicate columns are not
    summed.  With duplicates summed, one operator's rows are
    ``TermOperator.materialize``.
    """
    width = max(len(op.terms) for op in ops)
    shape = (len(ops), hi - lo, width)
    col = np.empty(shape, dtype=np.int32)
    val = np.empty(shape)
    # a mask only where a row may hold fewer than `width` entries
    masked = any(len(op.terms) < width or any(t[0] == "tswap" for t in op.terms) for op in ops)
    keep = np.zeros(shape, dtype=bool) if masked else None
    for o, op in enumerate(ops):
        # every swap coefficient in one broadcast; diag and signed columns follow
        val[o, :, : len(op.terms)] = [t[2] if t[0] == "swap" else 0.0 for t in op.terms]
        if masked:
            keep[o, :, : len(op.terms)] = True
        for k, term in enumerate(op.terms):
            tag = term[0]
            if tag == "diag":
                col[o, :, k] = np.arange(lo, hi)
                val[o, :, k] = diag_values(term, get_basis(op.weight).states)[lo:hi]
            elif tag == "swap":
                col[o, :, k] = term[1][lo:hi]
            else:
                _, perm, sign, coeff = term
                col[o, :, k] = perm[lo:hi]
                val[o, :, k] = coeff * sign[lo:hi]
                keep[o, :, k] = sign[lo:hi] != 0
    nrows = len(ops) * (hi - lo)
    if keep is None:  # every row has `width` entries: no masking passes
        indptr = np.arange(0, nrows * width + 1, width, dtype=np.int32)
        arrays = (val.ravel(), col.ravel(), indptr)
    else:
        indptr = np.zeros(nrows + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=2, dtype=np.int32), out=indptr[1:])
        arrays = (val[keep], col[keep], indptr)
    return sp.csr_matrix(arrays, shape=(nrows, ops[0].dim))


def csr_rows_masked(ops, lo: int, hi: int) -> sp.csr_matrix:
    """The slow reference for ``csr_rows``: one mask entry and one
    strided coefficient write per term, for every operator."""
    width = max(len(op.terms) for op in ops)
    shape = (len(ops), hi - lo, width)
    col = np.empty(shape, dtype=np.int32)
    val = np.empty(shape)
    keep = np.zeros(shape, dtype=bool)
    for o, op in enumerate(ops):
        for k, term in enumerate(op.terms):
            tag = term[0]
            keep[o, :, k] = True
            if tag == "diag":
                col[o, :, k] = np.arange(lo, hi)
                val[o, :, k] = diag_values(term, get_basis(op.weight).states)[lo:hi]
            elif tag == "swap":
                col[o, :, k] = term[1][lo:hi]
                val[o, :, k] = term[2]
            else:
                _, perm, sign, coeff = term
                col[o, :, k] = perm[lo:hi]
                val[o, :, k] = coeff * sign[lo:hi]
                keep[o, :, k] = sign[lo:hi] != 0
    nrows = len(ops) * (hi - lo)
    if keep.all():
        indptr = np.arange(0, nrows * width + 1, width, dtype=np.int32)
        arrays = (val.ravel(), col.ravel(), indptr)
    else:
        indptr = np.zeros(nrows + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=2, dtype=np.int32), out=indptr[1:])
        arrays = (val[keep], col[keep], indptr)
    return sp.csr_matrix(arrays, shape=(nrows, ops[0].dim))


def covariant_row_rmatvec(i: int, k: int, conn) -> np.ndarray:
    """The slow reference for ``kzcal.kz.covariant_row``: every product an rmatvec.

    The all-ones covector and the constant row dH^T omega are gathered
    through every swap table like any other covector.
    """
    hbar = conn.params.hbar
    H = conn.hamiltonian(i)
    omega = np.ones(conn.basis.dim)
    r1 = H.rmatvec(omega)
    if k == 1:
        return r1
    dH = conn.derivative(i, order=1)
    if k == 2:
        return hbar * dH.rmatvec(omega) + H.rmatvec(r1)
    d2H = conn.derivative(i, order=2)
    return (
        hbar**2 * d2H.rmatvec(omega)
        + 2.0 * hbar * H.rmatvec(dH.rmatvec(omega))
        + hbar * dH.rmatvec(r1)
        + H.rmatvec(H.rmatvec(r1))
    )


def constant_rmatvec_terms(op, c) -> np.ndarray:
    """The slow reference for ``kzcal.kz._constant_rmatvec``: one pass over
    the sector per term, the diagonal first, then the terms in order."""
    kernel, out = op.row_kernel(), np.zeros(op.dim)
    if kernel.diags:
        out += kernel.diagonal(0, op.dim) * c
    for term in op.terms:
        tag = term[0]
        if tag == "swap":
            out += term[2] * c
        elif tag == "tswap":
            _, _, sign, coeff = term
            out -= coeff * (sign * c)
    return out


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


def mc_derivatives_complex(state, conn, max_order: int = 3) -> np.ndarray:
    """The slow reference for ``kzcal.kz.mc_derivatives``: every covariant
    power in complex arithmetic, whatever the state's imaginary part."""
    hbar = conn.params.hbar
    out = np.empty((max_order, conn.params.n), dtype=np.complex128)
    for i in range(1, conn.params.n + 1):
        for k, uk in enumerate(_covariant_powers(i, max_order, state.amplitudes, conn), 1):
            out[k - 1, i - 1] = omega_pairing(StateVector(state.weight, uk)) / hbar**k
    return out


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
        )
        if not sol.success:
            raise IntegrationFailureError(
                f"integration failed on segment {a} -> {b}: {sol.message}"
            )
        y = sol.y[:, -1]
    return StateVector(initial.weight, y)
