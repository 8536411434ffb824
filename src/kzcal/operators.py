"""Matrix-free elementary operators and the assembled Gaudin Hamiltonians.

Every operator here is an endomorphism of one weight subspace built from three
primitives, each realized by index tables over the enumerated basis:

* ``diag``: multiply amplitudes by a per-state vector (twist, letter counts);
* plain site swap: P_ij, amplitude transport along the swap table;
* signed site swap: T_ij, the swap weighted by sign(letter_i - letter_j),
  which annihilates states with equal letters at the two sites.

Rational Hamiltonian:  H_i = g^(i) + kappa * sum_{j != i} P_ij / (x_i - x_j).
Trigonometric:         H_i = g^(i) + kappa*gamma * sum_{j != i}
                              ( coth(gamma (x_i - x_j)) P_ij + T_ij ).

The pair coefficients come from ``kzcal.kernel``.  Analytic x-derivatives of
both families are provided for the covariant derivative expansion; finite
differences are used only as a test oracle.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import scipy.sparse as sp

from .core import ModelParams, StateVector, WeightBasis, WeightVector, get_basis
from .errors import InvalidSitesError, InvalidWeightError, UnsupportedOrderError
from .kernel import PairKernel, site_terms, t_term

__all__ = [
    "TermOperator",
    "apply_terms",
    "csr_rows",
    "split_rows",
    "apply_site_matrix",
    "weight_operator",
    "twist_operator",
    "permutation_operator",
    "t_operator",
    "gaudin_hamiltonian",
    "gaudin_derivative",
]


class TermOperator:
    """Linear map of one weight subspace stored as a flat list of primitive terms.

    Terms:
      ("diag", d)                  amplitude-wise multiply by d;
      ("swap", perm, coeff)        coeff * P, transport along perm;
      ("tswap", perm, sign, coeff) coeff * T, signed transport.

    Swap tables are involutions, so the transpose of a plain swap is itself
    and the transpose of a signed swap flips sign.  All operators in this
    package are real matrices, so the transpose action (rmatvec) is enough to
    slide the all-ones covector through products from the left.
    """

    def __init__(self, weight: WeightVector, terms: list[tuple]):
        self.weight = weight
        self.dim = weight.dimension()
        self.terms = terms

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return apply_terms(self.terms, v)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Transpose action x -> A^T x (plain transpose, no conjugation)."""
        return apply_terms(self.terms, v, transpose=True)

    def apply(self, state: StateVector) -> StateVector:
        if state.weight != self.weight:
            raise InvalidWeightError("state weight does not match operator subspace")
        return StateVector(self.weight, self.matvec(state.amplitudes))

    def materialize(self) -> sp.csr_matrix:
        """The operator as a CSR matrix with duplicate entries summed."""
        mat = csr_rows([self], 0, self.dim)
        mat.sum_duplicates()
        return mat


def csr_rows(ops: list[TermOperator], lo: int, hi: int) -> sp.csr_matrix:
    """Rows lo:hi of each operator, stacked in operator order, as one CSR matrix.

    Each row holds one entry per term, in term order, with int32 indices; the
    zero entries of a signed swap are left out and duplicate columns are not
    summed.  A CSR product therefore sums each row in the order, and with the
    roundings, of ``apply_terms``.
    """
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
                val[o, :, k] = term[1][lo:hi]
            elif tag == "swap":
                col[o, :, k] = term[1][lo:hi]
                val[o, :, k] = term[2]
            else:
                _, perm, sign, coeff = term
                col[o, :, k] = perm[lo:hi]
                val[o, :, k] = coeff * sign[lo:hi]
                keep[o, :, k] = sign[lo:hi] != 0
    nrows = len(ops) * (hi - lo)
    if keep.all():  # every row has `width` entries: skip the masking passes
        indptr = np.arange(0, nrows * width + 1, width, dtype=np.int32)
        arrays = (val.ravel(), col.ravel(), indptr)
    else:
        indptr = np.zeros(nrows + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=2, dtype=np.int32), out=indptr[1:])
        arrays = (val[keep], col[keep], indptr)
    return sp.csr_matrix(arrays, shape=(nrows, ops[0].dim))


def apply_terms(terms: list[tuple], v: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Sum of the terms applied to v, in term order (transpose=True: the transpose).

    Each row of the result takes the same operations in every row range, so
    the split of ``split_rows`` leaves it bitwise unchanged.
    """
    out = np.zeros_like(v, dtype=np.result_type(v.dtype, np.float64))

    def rows(lo: int, hi: int) -> None:
        part = out[lo:hi]
        for term in terms:
            tag = term[0]
            if tag == "diag":
                part += term[1][lo:hi] * v[lo:hi]
            elif tag == "swap":
                _, perm, coeff = term
                part += coeff * v[perm[lo:hi]]
            elif transpose:
                _, perm, sign, coeff = term
                part -= coeff * (sign[lo:hi] * v[perm[lo:hi]])
            else:
                _, perm, sign, coeff = term
                part += coeff * (sign[lo:hi] * v[perm[lo:hi]])

    split_rows(rows, out.shape[0])
    return out


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: no row range is shorter than this, so sectors below twice this size run
#: on the calling thread alone
MIN_CHUNK_ROWS = 16384

#: threads that take row chunks beside the calling thread
_WORKERS = _usable_cpus() - 1


def _new_pool() -> None:
    """Make the row pool; its threads start on first use.

    A forked child copies the pool but not its threads, so it makes its own.
    """
    global _POOL
    _POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="kzcal-rows") if _WORKERS else None


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def split_rows(fn, stop: int, step: int = 1) -> list:
    """[fn(lo, hi) for contiguous ranges covering rows 0..stop], in row order.

    The ranges run on the usable CPUs at once, the first on the calling
    thread; there are as many as CPUs, but none shorter than MIN_CHUNK_ROWS.
    Every range end but the last is a multiple of `step`.  fn may only read
    data built before the call (operator terms, swap tables, bases), since
    the package's lazy caches are not locked, and must not call split_rows
    itself.  No range then waits on another, so threads that call
    split_rows at the same time (``--jobs``) share the pool safely.
    """
    full = stop // step  # whole steps; the last range also takes the rest
    parts = min(_WORKERS + 1, full // -(-MIN_CHUNK_ROWS // step))
    if parts < 2:
        return [fn(0, stop)]
    ends = [step * (full * k // parts) for k in range(parts)] + [stop]
    futures = [_POOL.submit(fn, lo, hi) for lo, hi in zip(ends[1:-1], ends[2:])]
    try:
        results = [fn(ends[0], ends[1])]
    finally:
        wait(futures)  # no range outlives the call, even when the first one raises
    return results + [f.result() for f in futures]


# -- site and letter validation ---------------------------------------------


def _check_sites(i: int, j: int, n: int) -> tuple[int, int]:
    """Validate 1-based distinct sites, return 0-based pair."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise InvalidSitesError(f"sites must lie in 1..{n}, got ({i}, {j})")
    if i == j:
        raise InvalidSitesError(f"two-site operator needs distinct sites, got i=j={i}")
    return i - 1, j - 1


def _check_site(i: int, n: int) -> int:
    if not 1 <= i <= n:
        raise InvalidSitesError(f"site must lie in 1..{n}, got {i}")
    return i - 1


# -- elementary actions ------------------------------------------------------


def apply_site_matrix(i: int, a: int, b: int, state: StateVector) -> StateVector:
    """e_ab^(i): send letter b at site i to letter a, annihilate other states.

    For a != b the result lives in the shifted weight subspace
    M + e_a - e_b.  When that subspace is empty (M_b = 0) the zero vector is
    returned in the original subspace.
    """
    basis = get_basis(state.weight)
    i0 = _check_site(i, basis.n)
    N = basis.N
    if not (1 <= a <= N and 1 <= b <= N):
        raise InvalidSitesError(f"letters must lie in 1..{N}, got ({a}, {b})")
    if a == b:
        mask = basis.letters(i0) == a
        return StateVector(state.weight, np.where(mask, state.amplitudes, 0.0))
    M = list(state.weight.M)
    if M[b - 1] == 0:
        return StateVector.zeros(state.weight)
    M[a - 1] += 1
    M[b - 1] -= 1
    target_weight = WeightVector(tuple(M))
    target = get_basis(target_weight)
    src = basis.letters(i0) == b
    shift = (a - b) * basis.N ** np.int64(basis.n - 1 - i0)
    new_codes = basis.codes[src] + shift
    out = np.zeros(target.dim, dtype=np.complex128)
    out[target.rank(new_codes)] = state.amplitudes[src]
    return StateVector(target_weight, out)


# -- assembled operators ------------------------------------------------------


def permutation_operator(i: int, j: int, weight: WeightVector) -> TermOperator:
    basis = get_basis(weight)
    i0, j0 = _check_sites(i, j, basis.n)
    perm, _ = basis.swap_table(i0, j0)
    return TermOperator(weight, [("swap", perm, 1.0)])


def t_operator(i: int, j: int, weight: WeightVector) -> TermOperator:
    basis = get_basis(weight)
    i0, j0 = _check_sites(i, j, basis.n)
    perm, sign = basis.swap_table(i0, j0)
    return TermOperator(weight, [t_term(perm, sign, i0, j0, 1.0)])


def twist_operator(i: int, params: ModelParams, weight: WeightVector) -> TermOperator:
    basis = get_basis(weight)
    i0 = _check_site(i, basis.n)
    g = np.asarray(params.g)
    return TermOperator(weight, [("diag", g[basis.letters(i0) - 1].copy())])


def weight_operator(a: int, weight: WeightVector) -> TermOperator:
    """M_a = sum_l e_aa^(l): diagonal count of letter a in each basis state."""
    basis = get_basis(weight)
    if not 1 <= a <= basis.N:
        raise InvalidSitesError(f"letter must lie in 1..{basis.N}, got {a}")
    counts = np.count_nonzero(basis.states == a, axis=1).astype(float)
    return TermOperator(weight, [("diag", counts)])


def _check_instance(params: ModelParams, weight: WeightVector) -> WeightBasis:
    weight.validate_for(params.n)
    if weight.N != params.N:
        raise InvalidWeightError(
            f"weight has {weight.N} species but params.N = {params.N}"
        )
    return get_basis(weight)


def gaudin_hamiltonian(i: int, params: ModelParams, weight: WeightVector) -> TermOperator:
    """The i-th Gaudin Hamiltonian on the weight subspace (1-based site)."""
    basis = _check_instance(params, weight)
    i0 = _check_site(i, basis.n)
    terms = site_terms(basis, i0, PairKernel(params), np.asarray(params.g), params.x)
    return TermOperator(weight, terms)


def gaudin_derivative(
    i: int, j: int, order: int, params: ModelParams, weight: WeightVector
) -> TermOperator:
    """Analytic d^order/dx_j^order of the i-th Gaudin Hamiltonian (1-based sites).

    Only the pair kernels depend on x; the twist and (trigonometric) T terms
    drop out.  Orders 1 and 2 are supported.
    """
    if order not in (1, 2):
        raise UnsupportedOrderError(f"derivative order must be 1 or 2, got {order}")
    basis = _check_instance(params, weight)
    i0 = _check_site(i, basis.n)
    j0 = _check_site(j, basis.n)
    kern = PairKernel(params)
    # d/dx_j of a function of x_i - x_j picks up the chain factor -1 per order
    chain = 1.0 if i0 == j0 or order == 2 else -1.0
    pair_sites = [m for m in range(basis.n) if m != i0] if i0 == j0 else [j0]
    terms: list[tuple] = []
    for m in pair_sites:
        perm, _ = basis.swap_table(i0, m)
        coeff = chain * kern.dp(params.x[i0] - params.x[m], order)
        terms.append(("swap", perm, float(coeff)))
    if not terms:
        terms = [("diag", np.zeros(basis.dim))]
    return TermOperator(weight, terms)
