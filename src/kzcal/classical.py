"""Classical Calogero-Moser side: Lax matrices, trace integrals, joint spectra.

The n x n Lax matrix carries momenta on the diagonal and the pair kernel off
the diagonal (odd in i <-> j):

    rational:       L_ij = p_i delta_ij + kappa / (x_i - x_j)          (i != j)
    trigonometric:  L_ij = p_i delta_ij + kappa gamma / sinh(gamma (x_i - x_j))

Feeding the joint eigenvalues of the Gaudin family in as momenta pins the Lax
spectrum: each twist value g_a appears with multiplicity M_a (rational), or is
spread into an arithmetic string of length M_a and step 2 kappa gamma
(trigonometric).
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass, field

import mpmath
import numpy as np
import scipy.linalg

from .core import (
    RATIONAL,
    TRIGONOMETRIC,
    ModelParams,
    StateVector,
    WeightVector,
    get_basis,
    max_or_nan,
    min_pairwise_gap,
)
from .errors import DegenerateSpectrumError, SingularConfigurationError
from .kernel import PairKernel
from .operators import gaudin_hamiltonian

__all__ = [
    "JointSpectrumItem",
    "QcReport",
    "lax_matrix",
    "classical_hamiltonians",
    "gaudin_joint_spectrum",
    "qc_check",
    "string_energy",
    "string_spectrum",
]

#: default per-Hamiltonian eigen-residual bound for joint-spectrum items
JOINT_RESIDUAL_TOL = 1e-8

#: sectors above this dimension fall back to partial iterative extraction
DENSE_DIM_LIMIT = 2000

#: random combinations tried before a joint spectrum is reported degenerate
JOINT_RETRIES = 5

#: eigenpairs the partial extraction asks ARPACK for
PARTIAL_EIGENPAIRS = 6


@dataclass(frozen=True)
class JointSpectrumItem:
    """One joint eigen-tuple of the Gaudin family with its eigenvector.

    p_hp carries the momenta that the Lax check reads.  In a dense rational
    sector they are refined to 60 digits (mpf): with repeated twist values
    the Lax matrix on the level set is non-diagonalizable, so a
    multiplicity-m eigenvalue splits like the m-th root of the momentum error
    and double precision alone cannot resolve the multiset to 1e-8.  Elsewhere
    (trigonometric strings are simple eigenvalues, and the partial extraction
    above the dense limit) they are the float64 Rayleigh quotients p.
    """

    p: np.ndarray  # (n,) complex, one eigenvalue per H_i
    eigvec: StateVector
    residuals: np.ndarray  # per-i eigen-residual norms
    p_hp: np.ndarray = field(repr=False)


def lax_matrix(x, p, params: ModelParams) -> np.ndarray:
    """Lax matrix at coordinates x and momenta p, complex n x n."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p)
    n = x.size
    if min_pairwise_gap(x) <= params.epsilon_x:
        raise SingularConfigurationError("Lax matrix needs pairwise-distinct coordinates")
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    off = PairKernel(params).lax(dx)
    np.fill_diagonal(off, 0.0)
    L = off.astype(np.complex128)
    L[np.diag_indices(n)] = p
    return L


def classical_hamiltonians(L: np.ndarray, kmax: int) -> list[complex]:
    """Traces of Lax powers tr L^k for k = 1..kmax."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    traces = []
    power = np.eye(L.shape[0], dtype=np.complex128)
    for _ in range(kmax):
        power = power @ L
        traces.append(complex(np.trace(power)))
    return traces


def string_spectrum(weight: WeightVector, params: ModelParams) -> np.ndarray:
    """Predicted Lax eigenvalues: g_a - (M_a - 1 - 2 alpha) kappa gamma, sorted.

    In the rational kind the strings collapse onto the twist values.
    """
    step = params.kappa * params.gamma if params.kind == TRIGONOMETRIC else 0.0
    values = []
    for a, m in enumerate(weight.M):
        for alpha in range(m):
            values.append(params.g[a] - (m - 1 - 2 * alpha) * step)
    return np.sort(np.asarray(values))


def string_energy(weight: WeightVector, params: ModelParams, k: int) -> float:
    """sum over the string spectrum of the k-th powers."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(np.sum(string_spectrum(weight, params) ** k))


def _attempt_joint_diagonalization(mats, dim, n, rng, symmetric):
    """Diagonalize one random combination sum_i c_i H_i; the refinement reuses (c, eigenvalues).

    Returns (eigenvectors, residuals, worst residual, (c, eigenvalues), p),
    p[i, k] the Rayleigh quotient of H_i at the k-th eigenvector.
    """
    coeffs = rng.standard_normal(n)
    combo = sum(c * m for c, m in zip(coeffs, mats)).toarray()
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


_contexts = threading.local()


def _mp_context(dps: int) -> mpmath.MPContext:
    """A private mpmath context at dps digits, one per thread and precision.

    Its precision belongs to the caller alone; the process-wide mpmath.mp
    is shared with callers' threads and is neither read nor changed.
    Making a context takes about as long as a small characteristic
    polynomial, so each thread keeps one per precision; dps is set anew on
    every call.
    """
    cache = _contexts.__dict__
    if dps not in cache:
        cache[dps] = mpmath.MPContext()
    ctx = cache[dps]
    ctx.dps = dps
    return ctx


def _mp_coefficients(ctx, params: ModelParams):
    """The twists g_a and {(i, j): p(x_i - x_j)} for i < j, in ctx; exact float inputs.

    p is odd, so the P_ij coefficient of H_j is -p(x_i - x_j).
    """
    kern = PairKernel(params, ctx.mpf)
    x = [ctx.mpf(v) for v in params.x]
    n = params.n
    pairs = {(i, j): kern.p(x[i] - x[j]) for i in range(n) for j in range(i + 1, n)}
    return [ctx.mpf(v) for v in params.g], pairs


def _dd(value, parts: int = 2) -> tuple[float, ...]:
    """An mpf as an unevaluated sum of doubles, head first; four carry 60 digits exactly."""
    out = []
    for _ in range(parts):
        out.append(float(value))
        value = value - out[-1]
    return tuple(out)


def _split(a):
    """a = hi + lo exactly, each half with at most 26 significant bits (Dekker)."""
    t = 134217729.0 * a
    hi = t - (t - a)
    return hi, a - hi


def _exact_product(a, b, b_split=None):
    """(p, e) with p = fl(a b) and p + e = a b exactly, elementwise (Dekker); b_split: _split(b)."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), b_split or _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_residual(terms, Q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """R = A Q - Q diag(lam) in double-double, rounded to float64 at the end.

    A is the sum over terms (hi, lo, perm) of diag(hi + lo) times the row
    permutation perm (None: identity).  Products are exact and sums keep
    their rounding errors (two-sum), so R survives the cancellation.  Q is
    split once: the split of Q[perm] is the split of Q, permuted.
    """
    hi, lo = _exact_product(Q, -lam)
    halves = _split(Q)
    for a_hi, a_lo, perm in terms:
        block, split = (Q, halves) if perm is None else (Q[perm], tuple(h[perm] for h in halves))
        prod, err = _exact_product(a_hi, block, split)
        total = hi + prod
        back = total - hi
        lo = lo + ((hi - (total - back)) + (prod - back)) + err + a_lo * block
        hi = total
    return hi + lo


#: bits below the largest term that an exact sum resolves, a little over 60 digits
SUM_BITS = 210


def _exact_sums(t: np.ndarray, W: np.ndarray) -> np.ndarray:
    """t @ W.T as an expansion along axis 0, for doubles t (..., N) and a 0/1 matrix W.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
    2008): with sigma a power of two at least 2 N max|t|, q = (sigma + t) -
    sigma and t - q are exact, every q is a multiple of 2^-53 sigma and they
    add to less than sigma, so q @ W.T is exact in any order, BLAS included.
    The rest shrinks by 2^(51 - bit length of N) per round until it is below
    2^-SUM_BITS of the largest term; its rounded sum is the last entry.
    """
    size = t.shape[-1]
    sigma = np.ldexp(1.0, np.frexp(2 * size * np.max(np.abs(t), axis=-1, keepdims=True))[1])
    gain = 51 - size.bit_length()
    out = []
    for _ in range(-(-SUM_BITS // gain)):
        q = (sigma + t) - sigma
        out.append(q @ W.T)
        t = t - q
        sigma = np.ldexp(sigma, -gain)
    return np.stack(out + [t @ W.T])


def _mp_sums(ctx, parts: np.ndarray) -> np.ndarray:
    """The exact sums of the doubles over axis 0, each rounded once into ctx; NaN if not finite.

    A double is an integer times 2^(exp - 53); Python adds the integers exactly.
    """
    finite = np.isfinite(parts).all(axis=0)
    mant, exp = np.frexp(np.where(finite, parts, 0.0))
    low = exp.min(axis=0)
    man = np.ldexp(mant, 53).astype(np.int64).astype(object) << (exp - low).astype(object)
    to_mpf = np.frompyfunc(lambda m, e: ctx.mpf((m, e - 53)), 2, 1)
    sums = to_mpf(man.sum(axis=0), low.astype(object))
    sums[~finite] = ctx.nan
    return sums


def _product_terms(a, b, a_lo, b_lo) -> np.ndarray:
    """8 doubles per entry, in blocks along the last axis, adding up to (a - a_lo) (b - b_lo)."""
    pairs = ((a, b), (-a, b_lo), (-a_lo, b), (a_lo, b_lo))
    return np.concatenate([half for u, w in pairs for half in _exact_product(u, w)], axis=-1)


def _rayleigh_momenta(ctx, basis, g, pairs, Q: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Rayleigh quotients of every H_i at all columns of v = Q - D at once, in ctx.

    v is an exact pair of doubles, so v_r v_s is 8 exact doubles.  Per block
    of columns, error-free extraction sums them along rows into a few
    doubles per pair sum v . P_ij v and per sum of v_r^2 over the rows with
    letter a at site i (over a, the norm).  Their exact products with the
    4-double coefficients g_a and +-p(x_i - x_j) are extracted once more per
    H_i, so mpmath only adds a few doubles per quotient and per norm.
    """
    n, dim, nl = basis.n, basis.dim, len(g)
    letters = basis.states.T - 1
    groups = np.tile((letters[:, None, :] == np.arange(nl)[:, None]).reshape(n * nl, dim), 8)
    perms = np.array([basis.swap_table(*ij) for ij in pairs], dtype=np.intp).reshape(-1, dim)
    # H_i's numerator: its letter sums and the sums of its pairs, times the coefficients C[i]
    where, C = [], []
    for i in range(n):
        mine = [(k, c if i == ij[0] else -c) for k, (ij, c) in enumerate(pairs.items()) if i in ij]
        where.append([*range(i * nl, i * nl + nl), *(n * nl + k for k, _ in mine)])
        C.append([_dd(c, 4) for c in [*g, *(c for _, c in mine)]])
    C = np.array(C).transpose(2, 0, 1)[:, None, None]  # (4, 1, 1, n, terms)
    Qt, Dt = np.ascontiguousarray(Q.T), np.ascontiguousarray(D.T)
    p = np.empty((n, Q.shape[1]), dtype=object)
    ones = np.ones((1, 8 * dim))
    step = max(1, (1 << 14) // (8 * dim * max(1, len(perms))))  # 128 kB arrays
    for lo in range(0, Q.shape[1], step):
        q, d = Qt[lo:lo + step], Dt[lo:lo + step]
        letter_sums = _exact_sums(_product_terms(q, q, d, d), groups)
        pair_terms = _product_terms(q[:, None], q[:, perms], d[:, None], d[:, perms])
        sums = np.concatenate([letter_sums, _exact_sums(pair_terms, ones)[..., 0]], axis=-1)
        # sums: (parts, block, n nl + pairs); t: (8, parts, block, n, terms)
        t = np.concatenate(_exact_product(C, sums[:, :, where]))
        t = np.moveaxis(t, (0, 1), (2, 3)).reshape(len(q), n, -1)
        nums = _exact_sums(t, np.ones((1, t.shape[-1])))[..., 0]
        norms = np.moveaxis(sums[:, :, :nl], 2, 1).reshape(-1, len(q))
        p[:, lo:lo + step] = (_mp_sums(ctx, nums) / _mp_sums(ctx, norms)[:, None]).T
    return p


def _refine_newton(params, weight, Q: np.ndarray, coeffs, lam) -> np.ndarray:
    """Momenta at 60 digits from the float64 eigenpairs (lam, Q) of A = sum_i c_i H_i.

    A Jordan block of size m splits its eigenvalue by the m-th root of the
    momentum error, so double precision is not enough.  One mixed-precision
    Newton step (Dongarra, Moler and Wilkinson) refines every column: the
    residual R of the exactly rebuilt A is taken in double-double and
    D = Q ((Q^T R) / (lam_k - lam_j)) in float64, leaving v = Q - D, an exact
    pair of doubles, with error of order |R|^2.  The Rayleigh quotients of v
    then come from _rayleigh_momenta.
    """
    basis = get_basis(weight)
    n = params.n
    ctx = _mp_context(60)
    g, pairs = _mp_coefficients(ctx, params)
    c = [ctx.mpf(float(v)) for v in coeffs]
    terms = []
    for i in range(n):
        hi, lo = np.array([_dd(c[i] * ga) for ga in g]).T
        rows = basis.states[:, i] - 1
        terms.append((hi[rows, None], lo[rows, None], None))
    for (i, j), coeff in pairs.items():
        terms.append((*map(np.array, _dd((c[i] - c[j]) * coeff)), basis.swap_table(i, j)))
    gaps = lam[:, None] - lam[None, :]
    np.fill_diagonal(gaps, np.inf)
    D = Q @ ((Q.T @ _dd_residual(terms, Q, lam)) / gaps)
    return _rayleigh_momenta(ctx, basis, g, pairs, Q, D)


def gaudin_joint_spectrum(
    params: ModelParams, weight: WeightVector, seed: int
) -> list[JointSpectrumItem]:
    """Joint eigen-tuples (p_1, ..., p_n) of the Gaudin family on the sector.

    Diagonalizes one random real combination of the commuting family (the
    generic combination separates the joint spectrum), then reads each p_i as
    a Rayleigh quotient and verifies every per-i eigen-residual against
    JOINT_RESIDUAL_TOL.  The combination is drawn up to JOINT_RETRIES times
    before a degenerate spectrum is reported.  Sectors larger than
    DENSE_DIM_LIMIT are handled by partial iterative extraction of
    PARTIAL_EIGENPAIRS eigenpairs.
    """
    basis = get_basis(weight)
    n, dim = params.n, basis.dim
    mats = [gaudin_hamiltonian(i, params, weight).materialize() for i in range(1, n + 1)]
    symmetric = params.kind == RATIONAL

    if dim > DENSE_DIM_LIMIT:
        return _partial_spectrum(mats, params, weight, seed)

    # retry toward a quality target well below the contract tolerance: a
    # clean random combination typically lands near 1e-13
    quality = min(JOINT_RESIDUAL_TOL, 1e-11)
    best = None
    for attempt in range(JOINT_RETRIES):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        )
        trial = _attempt_joint_diagonalization(mats, dim, n, rng, symmetric)
        if best is None or trial[2] < best[2]:
            best = trial
        if trial[2] < quality:
            break
    vecs, residuals, worst, (coeffs, lam), p = best
    if worst >= JOINT_RESIDUAL_TOL:
        raise DegenerateSpectrumError(
            f"joint diagonalization residual {worst:.3e} exceeds {JOINT_RESIDUAL_TOL:.1e} "
            f"after {JOINT_RETRIES} re-randomizations; the sector may be degenerate"
        )
    # rational sectors with repeated twists feed a defective Lax matrix, so
    # their momenta go to 60 digits.  Trigonometric strings are simple
    # eigenvalues, and their H_i are not symmetric (T_ij^T = -T_ij): a
    # Rayleigh quotient is off linearly in the float64 eigenvector error,
    # ~1e-13, which exactly rebuilt coefficients would not reduce.
    p_hp = _refine_newton(params, weight, vecs.real, coeffs, lam) if symmetric else p
    return [
        JointSpectrumItem(
            p=p_hp[:, k].astype(np.complex128),
            eigvec=StateVector(weight, vecs[:, k].copy()),
            residuals=residuals[:, k].copy(),
            p_hp=p_hp[:, k].copy(),
        )
        for k in range(dim)
    ]


def _partial_spectrum(mats, params, weight, seed):
    # ARPACK, loaded only for sectors above the dense limit
    from scipy.sparse.linalg import ArpackError, eigs

    n = params.n
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    )
    coeffs = rng.standard_normal(n)
    combo = sum(c * m for c, m in zip(coeffs, mats))
    try:
        _, vecs = eigs(combo.tocsc(), k=PARTIAL_EIGENPAIRS, which="LM")
    except ArpackError as exc:
        raise DegenerateSpectrumError(f"partial eigensolve failed: {exc}") from exc
    items = []
    for k in range(vecs.shape[1]):
        v = vecs[:, k] / np.linalg.norm(vecs[:, k])
        p = np.empty(n, dtype=np.complex128)
        residuals = np.empty(n)
        for i, mat in enumerate(mats):
            mv = mat @ v
            p[i] = np.vdot(v, mv)
            residuals[i] = np.linalg.norm(mv - p[i] * v)
        if residuals.max() < JOINT_RESIDUAL_TOL:
            items.append(JointSpectrumItem(p, StateVector(weight, v), residuals, p_hp=p))
    if not items:
        raise DegenerateSpectrumError("no converged joint eigenpairs in partial mode")
    return items


@functools.lru_cache(maxsize=64)
def _lax_offdiagonal(params: ModelParams, dps: int) -> tuple[tuple, ...]:
    """The Lax matrix without its diagonal, as rows of mpf at dps digits (None on the diagonal).

    The same for every item of a sector, so it is made once per (params,
    dps).  mpf values are immutable and both signs are stored, so threads
    share the rows: the charpoly reads them only through ctx.fdot, and
    ctx.matrix converts them, both exactly.
    """
    ctx = _mp_context(dps)
    kern = PairKernel(params, ctx.mpf)
    x = [ctx.mpf(v) for v in params.x]
    A = [[None] * params.n for _ in range(params.n)]
    for i, j in itertools.combinations(range(params.n), 2):
        A[i][j] = kern.lax(x[i] - x[j])
        A[j][i] = -A[i][j]  # the kernel is odd
    return tuple(map(tuple, A))


def _lax_rows(ctx, p_hp, params: ModelParams) -> list[list]:
    """The Lax matrix at the refined momenta, as rows of numbers of ctx."""
    A = [list(row) for row in _lax_offdiagonal(params, ctx.dps)]
    for i, p in enumerate(p_hp):
        # exact: an mpf/mpc of another context keeps its digits (mpmath rounds
        # a binary operation at its left operand's precision, so arithmetic on
        # the 60-digit momenta would round there), and numpy scalars convert
        # as the float or complex they subclass
        A[i][i] = ctx.convert(p)
    return A


def _lax_eigenvalues_eig(p_hp, params: ModelParams, dps: int) -> np.ndarray:
    """Lax eigenvalues via an mpmath eigensolve of the n x n matrix at dps digits.

    The fallback of _lax_eigenvalues_hp, and its test oracle.  An eigensolver
    splits a Jordan block of size m by the m-th root of its backward error,
    so the working precision must grow with the largest multiplicity.
    """
    ctx = _mp_context(dps)
    A = ctx.matrix(_lax_rows(ctx, p_hp, params))
    return np.array([complex(e) for e in ctx.eig(A, left=False, right=False)])


def _charpoly(ctx, A: list[list]) -> list:
    """det(lambda - A), leading coefficient first, by Berkowitz's division-free method.

    For the trailing block [[a, R], [C, B]] of size k, det(lambda - block) is
    the lower-triangular Toeplitz matrix of (1, -a, -R C, -R B C, ...,
    -R B^(k-2) C) times det(lambda - B) (S. J. Berkowitz, Inform. Process.
    Lett. 18, 1984): O(n^4) products, each dot product exact until rounded.
    """
    n = len(A)
    poly = [ctx.one]
    for s in range(n - 1, -1, -1):
        R, w = A[s][s + 1:], [row[s] for row in A[s + 1:]]
        B = [row[s + 1:] for row in A[s + 1:]]
        toeplitz = [ctx.one, -A[s][s]]
        for step in range(n - s - 1):
            toeplitz.append(-ctx.fdot(R, w))
            if step < n - s - 2:
                w = [ctx.fdot(row, w) for row in B]
        poly = [ctx.fdot(toeplitz[i::-1], poly) for i in range(n - s + 1)]
    return poly


def _taylor(poly: list, c, m: int) -> list:
    """q_0..q_m, the coefficients of mu^k in P(c + mu) for poly leading first; O(n m).

    Each Horner pass divides by lambda - c; the remainder is the next q.
    """
    q = []
    for _ in range(m + 1):
        acc, quotient = poly[0], []
        for a in poly[1:]:
            quotient.append(acc)
            acc = acc * c + a
        q.append(acc)
        poly = quotient
    return q


@functools.lru_cache(maxsize=64)
def _sector(params: ModelParams, weight: WeightVector) -> tuple:
    """What qc_check reads of a sector besides the item, made once per (params, weight).

    (target, dps, clusters, trace targets, trace scales): the sorted string
    spectrum, read-only; the working precision 15 max(M) + 10 digits, at
    least 40; per distinct target c, (c, its multiplicity m, the distance to
    the next target); and for k = 1..n the power sums sum target^k and their
    scales sum |target|^k.
    """
    target = string_spectrum(weight, params)
    target.flags.writeable = False
    dps = max(40, 15 * max(weight.M) + 10)
    centers, counts = np.unique(target, return_counts=True)
    clusters = tuple(
        (c, int(m), np.min(np.abs(np.delete(centers, k) - c), initial=np.inf))
        for k, (c, m) in enumerate(zip(centers, counts))
    )
    powers = range(1, params.n + 1)
    traces = tuple(float(np.sum(target**k)) for k in powers)
    scales = tuple(float(np.sum(np.abs(target) ** k)) for k in powers)
    return target, dps, clusters, traces, scales


def _lax_eigenvalues_hp(p_hp, params: ModelParams, weight: WeightVector) -> np.ndarray:
    """Lax eigenvalues from the characteristic polynomial at the sector's dps, cluster by cluster.

    The level-set Lax matrix is defective at repeated targets, and a cluster
    of m eigenvalues splits like the m-th root of the momentum error, so the
    polynomial, taken once per item, is expanded at each distinct target c in
    mu = lambda - c to degree m, at dps digits.  A simple target (m = 1)
    takes mu = -q_0/q_1 in the context, Newton's step from c; a cluster takes
    the float64 roots of its truncation, scaled to unit size.  Where a root
    lies farther than 1e-3 of the distance to the next target the truncation
    is not accurate (only a large violation gets there) and the mpmath
    eigensolve answers instead.
    """
    _, dps, clusters, _, _ = _sector(params, weight)
    ctx = _mp_context(dps)
    poly = _charpoly(ctx, _lax_rows(ctx, p_hp, params))
    eigs = []
    for c, m, gap in clusters:
        q = _taylor(poly, ctx.mpf(c), m)
        if not q[m]:
            return _lax_eigenvalues_eig(p_hp, params, dps)
        if m == 1:
            mu = np.array([complex(-q[0] / q[1])])
        else:
            # the Fujiwara bound: every root of the truncation has |mu| < 2 s
            scale = max(abs(q[j] / q[m]) ** (ctx.one / (m - j)) for j in range(m)) or ctx.one
            nu = np.roots([complex(q[j] / (q[m] * scale ** (m - j))) for j in range(m, -1, -1)])
            mu = float(scale) * nu
        if not np.all(np.abs(mu) <= 1e-3 * gap):
            return _lax_eigenvalues_eig(p_hp, params, dps)
        eigs.append(c + mu)
    return np.concatenate(eigs).astype(np.complex128)


@dataclass(frozen=True)
class QcReport:
    """Finding of one quantum-classical comparison (never raised as an error)."""

    kind: str
    lax_eigenvalues: np.ndarray
    target_spectrum: np.ndarray
    max_mismatch: float
    traces: list[complex]
    trace_targets: list[float]
    max_trace_rel_error: float
    tolerance: float

    @property
    def ok(self) -> bool:
        """Both the eigenvalue mismatch and the trace error below tolerance; NaN fails."""
        return bool(max_or_nan([self.max_mismatch, self.max_trace_rel_error]) < self.tolerance)

    def summary(self) -> str:
        status = "match" if self.ok else "VIOLATION"
        return (
            f"{self.kind} Lax spectrum {status}: max eigenvalue mismatch "
            f"{self.max_mismatch:.3e} (tol {self.tolerance:.1e}), max trace "
            f"error {self.max_trace_rel_error:.3e}"
        )


def qc_check(
    item: JointSpectrumItem,
    params: ModelParams,
    weight: WeightVector,
    tol: float | None = None,
) -> QcReport:
    """Compare the Lax spectrum at one joint eigen-tuple with the prediction.

    Sort-and-pair multiset matching (by real part, then the full complex
    distance as the metric); a mismatch above tolerance is reported as a
    finding, not raised.  The Lax eigenvalues come from item.p_hp at
    15 max(M) + 10 digits, at least 40.  The traces tr L^k are compared for
    k = 1..n, where by Newton's identities they fix det(lambda - L).  What
    does not depend on the item (the mpf Lax off-diagonal, the targets and
    their clusters, the dps, the trace targets) is made once per sector.
    """
    if tol is None:
        tol = 1e-8 if params.kind == RATIONAL else 1e-7
    L = lax_matrix(params.x, item.p, params)
    target, _, _, trace_targets, scales = _sector(params, weight)
    eigs = _lax_eigenvalues_hp(item.p_hp, params, weight)
    eigs = eigs[np.argsort(eigs.real, kind="stable")]
    mismatch = float(np.max(np.abs(eigs - target)))
    traces = classical_hamiltonians(L, params.n)
    # relative to sum |target|^k, which a cancelling power sum does not shrink
    trace_err = max_or_nan(
        [abs(t - s) / max(a, 1e-30) for t, s, a in zip(traces, trace_targets, scales)]
    )
    return QcReport(
        kind=params.kind,
        lax_eigenvalues=eigs,
        target_spectrum=target,
        max_mismatch=mismatch,
        traces=traces,
        trace_targets=list(trace_targets),
        max_trace_rel_error=float(trace_err),
        tolerance=tol,
    )
