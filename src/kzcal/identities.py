"""Standalone numerical checks of the auxiliary identities behind the proofs.

Each check returns named residuals, each scaled by the size of the largest
contributing term, so catastrophic cancellation shows up instead of hiding.
Sums over empty index ranges return exactly zero.

Several of the operator sums are diagonal in the canonical basis (twist sums,
squared signed swaps), so their residuals are evaluated as exact operator
norms rather than on sampled states; the signed-swap triple sum is slid
through the all-ones covector, which also quantifies over every state at once.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, permutations

import numpy as np

from .core import TRIGONOMETRIC, ModelParams, WeightVector, get_basis, max_or_nan
from .operators import SWEEP_ROWS, t_operator

__all__ = [
    "verify_rational_scalar_identities",
    "verify_twist_sum_identities",
    "verify_omega_weight_identity",
    "verify_trig_identities",
    "verify_t_case_tables",
]


def _sum_residual(terms, expected=0.0) -> float:
    """|sum - expected| / max(largest |term|, |expected|, 1e-300); 0.0 for no terms.

    terms holds the summands along its first axis, one column per state if
    it has a second: an array, or an iterable of arrays, one per block of
    states (a whole sector's could take gigabytes).  Each column is summed
    in order, so it has the bits of the plain loop; NaN propagates.
    """
    worst = biggest = 0.0
    for block in [terms] if isinstance(terms, np.ndarray) else terms:
        if len(block) == 0:
            return 0.0
        total = np.cumsum(block, axis=0)[-1]
        worst = np.maximum(worst, np.max(np.abs(total - expected)))
        biggest = np.maximum(biggest, np.max(np.abs(block)))
    return float(worst) / max(biggest, abs(expected), 1e-300)


@lru_cache(maxsize=64)
def _tuples(n: int, k: int) -> np.ndarray:
    """The k-tuples of distinct indices below n, as k index rows in permutations
    order; read-only, since every caller shares them."""
    rows = np.fromiter(chain.from_iterable(permutations(range(n), k)), np.intp).reshape(-1, k).T
    rows.flags.writeable = False
    return rows


#: bytes of one float64 entry per (triple, state) of a case-table block; the
#: block's arrays together take about 16 times this
CASE_TABLE_BLOCK_BYTES = 1 << 19


def _state_blocks(basis, rows: int | None = None):
    """(lo, letters) per block of `rows` states (SWEEP_ROWS by default);
    letters[site, r] is that of state lo + r."""
    rows = rows or SWEEP_ROWS
    for lo in range(0, basis.dim, rows):
        yield lo, basis.states[lo : lo + rows].T


def verify_rational_scalar_identities(x) -> dict[str, float]:
    """Vanishing sums of products of pole kernels over distinct indices.

    pair_product:    sum over distinct (i, j, l)    of 1/((x_i-x_j)(x_i-x_l))
    triple_product:  sum over distinct (i, j, k, l) of the threefold product
    partial_fraction: the three-point identity behind the pair sum
    """
    x = np.asarray(x, dtype=float)
    i, j, l = _tuples(x.size, 3)
    a, b, c = x[i] - x[j], x[i] - x[l], x[j] - x[l]
    terms = (1.0 / (a * b), -1.0 / (a * c), 1.0 / (b * c))
    scale = np.max(np.abs(terms), axis=0)
    i4, j4, k4, l4 = _tuples(x.size, 4)
    return {
        "pair_product": _sum_residual(terms[0]),
        "triple_product": _sum_residual(
            1.0 / ((x[i4] - x[j4]) * (x[i4] - x[k4]) * (x[i4] - x[l4]))
        ),
        "partial_fraction": max_or_nan([0.0, *(np.abs(sum(terms)) / scale)]),
    }


def verify_twist_sum_identities(params: ModelParams, weight: WeightVector) -> dict[str, float]:
    """Vanishing twist-weighted kernel sums; all are diagonal operators.

    pair_twist:        sum_{i != j} (g^(i) + g^(j)) / (x_i - x_j)
    pair_twist_coth:   the same with the coth kernel (trigonometric kind)
    triple_twist:      sum over distinct (i, j, k) of
                       (g^(i) + g^(j) + g^(k)) / ((x_i - x_j)(x_i - x_k))
    """
    basis = get_basis(weight)
    x, g = np.asarray(params.x), np.asarray(params.g)
    twists = [g[s - 1] for _, s in _state_blocks(basis)]  # per site and state
    i, j = _tuples(basis.n, 2)
    kernels = {"pair_twist": 1.0 / (x[i] - x[j])}
    if params.kind == TRIGONOMETRIC:
        kernels["pair_twist_coth"] = 1.0 / np.tanh(params.gamma * (x[i] - x[j]))
    report = {
        name: _sum_residual(c[:, None] * (gs[i] + gs[j]) for gs in twists)
        for name, c in kernels.items()
    }
    i, j, k = _tuples(basis.n, 3)
    c = 1.0 / ((x[i] - x[j]) * (x[i] - x[k]))
    report["triple_twist"] = _sum_residual(c[:, None] * (gs[i] + gs[j] + gs[k]) for gs in twists)
    return report


def verify_omega_weight_identity(params: ModelParams, weight: WeightVector) -> dict[str, float]:
    """Letter-count identities sum_i g_{J_i}^k = sum_a M_a g_a^k per basis state.

    Checked for k = 2 (quadratic eigenvalue) and k = 3 (cubic analogue); the
    operators sum_i (g^(i))^k are diagonal, so the per-state check covers
    arbitrary states.
    """
    basis = get_basis(weight)
    g = np.asarray(params.g)
    M = np.asarray(weight.M, dtype=float)
    report = {}
    for k in (2, 3):
        per_state = np.cumsum(g[basis.states.T - 1] ** k, axis=0)[-1]  # in site order
        expected = float(np.dot(M, g**k))
        resid = float(np.max(np.abs(per_state - expected)))
        report[f"letter_power_{k}"] = resid / max(abs(expected), 1.0)
    return report


def verify_trig_identities(params: ModelParams, weight: WeightVector) -> dict[str, float]:
    """Identities specific to the signed-swap (trigonometric) structure.

    coth_pair_product: sum over distinct (i, j, l) of coth coth equals
                       n(n-1)(n-2)/3
    coth_addition:     the three-point coth summation formula (equals 1)
    t_square_sum:      sum_{i != j} of the squared signed swap acts as
                       -(n(n-1) - sum_a M_a (M_a - 1)) on the sector
    t_triple_sum:      the distinct-triple sum T_ij T_il slid through the
                       all-ones covector gives -(1/3)(n(n-1)(n-2)
                       - sum_a M_a (M_a - 1)(M_a - 2))
    """
    basis = get_basis(weight)
    x = np.asarray(params.x)
    gamma = params.gamma if params.kind == TRIGONOMETRIC else 1.0
    n = basis.n
    M = np.asarray(weight.M, dtype=float)

    i, j, l = _tuples(n, 3)
    cij = 1.0 / np.tanh(gamma * (x[i] - x[j]))
    cil = 1.0 / np.tanh(gamma * (x[i] - x[l]))
    clj = 1.0 / np.tanh(gamma * (x[l] - x[j]))
    cjl = -clj
    scale = np.maximum(np.max(np.abs([cij * cil, cij * clj, cil * cjl]), axis=0), 1.0)
    report = {
        "coth_pair_product": _sum_residual(cij * cil, n * (n - 1) * (n - 2) / 3.0),
        "coth_addition": max_or_nan(
            [0.0, *(np.abs(cij * cil + cij * clj + cil * cjl - 1.0) / scale)]
        ),
    }

    # sum of squared signed swaps: minus the count of pairs with distinct letters
    i, j = _tuples(n, 2)
    expected = -(n * (n - 1) - float(np.dot(M, M - 1.0)))
    deviation = max(
        float(np.max(np.abs(-np.count_nonzero(s[i] != s[j], axis=0) - expected)))
        for _, s in _state_blocks(basis)
    )
    report["t_square_sum"] = deviation / max(abs(expected), n * (n - 1), 1.0)

    report["t_triple_sum"] = 0.0
    if n >= 3:
        row = _t_triple_row(weight)
        expected = -(n * (n - 1) * (n - 2) - float(np.dot(M, (M - 1.0) * (M - 2.0)))) / 3.0
        scale = max(abs(expected), float(n * (n - 1) * (n - 2)))
        report["t_triple_sum"] = float(np.max(np.abs(row - expected))) / scale
    return report


@lru_cache(maxsize=1)
def _t_maps(weight: WeightVector, build) -> tuple[np.ndarray, np.ndarray] | None:
    """(col, val) of shape (n, n, dim): row r of T_ij = build(i + 1, j + 1, weight)
    holds val[i, j, r] at column col[i, j, r] only (val 0: an empty row, as
    at i = j); None when a T_ij has a diag term or not one entry per row.
    Each T_ij's column and value are read from its row kernel, once per
    sector: the column from its table, the value as the coefficient times
    the entry's sign.  The last sector's maps are kept, keyed also by
    `build`, so a replaced t_operator builds anew.
    """
    n, dim = weight.n, weight.dimension()
    col, val = np.zeros((n, n, dim), dtype=np.int32), np.zeros((n, n, dim))
    for i0, j0 in permutations(range(n), 2):
        kernel = build(i0 + 1, j0 + 1, weight).row_kernel()
        if kernel.diags or kernel.width != 1:
            return None
        col[i0, j0] = kernel.cols[:, 0]
        sign = kernel.signs(0, dim)[:, 0] if kernel.flip is not None else 1.0
        val[i0, j0] = kernel.coeffs[0] * sign
    col.flags.writeable = val.flags.writeable = False
    return col, val


def _t_triple_row(weight: WeightVector) -> np.ndarray:
    """The all-ones covector slid through the sum of T_ij T_il over distinct (i, j, l).

    T^T x puts val[r] x[r] at column col[r], so one bincount slides a
    covector through all T_ij of one i; they are summed over j before T_il^T
    applies.  The entries are small integers, so every sum is exact in any
    order.
    """
    n, dim = weight.n, weight.dimension()
    col, val = _t_maps(weight, t_operator)
    offsets = dim * np.arange(n)[:, None]
    row = np.zeros(dim)
    for i in range(n):
        slid = np.bincount((col[i] + offsets).ravel(), val[i].ravel(), n * dim).reshape(n, dim)
        rest = slid.sum(axis=0) - slid  # rest[l]: the covectors of every j but i and l
        row += np.bincount(col[i].ravel(), (val[i] * rest).ravel(), dim)
    return row


def _max_abs_entry(maps) -> float:
    """Largest |entry| of the sum of the monomial maps (batch axes broadcast); 0.0 for none."""
    worst = [0.0]
    for col, _ in maps:
        total = sum(np.where(other == col, val, 0.0) for other, val in maps)
        worst.append(float(np.max(np.abs(total), initial=0.0)))
    return max_or_nan(worst)


def verify_t_case_tables(weight: WeightVector) -> float:
    """Exact case-table check of the signed swap on every basis state.

    Verifies, in exact arithmetic on the operators' row kernels:
      * the single action (signed transposition, annihilation on equal letters),
      * the square (diagonal -1 on distinct letters, 0 otherwise),
      * the symmetrized triple product (minus a letter 3-cycle, 0 when all
        three letters coincide).
    Each T_ij is read from its row kernel as a monomial map, row r ->
    (column, value); products compose the maps.  The expected maps are
    rebuilt per basis state from the case analysis: an exchange's column by
    ranking the states with the two letters exchanged, a 3-cycle's as two
    exchanges in turn.  All pairs and triples are checked at once, per block
    of states sized so that one float64 per triple and state takes at most
    CASE_TABLE_BLOCK_BYTES (and at most SWEEP_ROWS states).  Returns the max
    absolute deviation (0.0 when all tables match exactly); inf when a T_ij
    has a diag term or two entries in one row.
    """
    maps = _t_maps(weight, t_operator)
    if maps is None:
        return math.inf
    basis = get_basis(weight)
    n, dim = basis.n, basis.dim
    col, val = (m.reshape(n * n, dim) for m in maps)  # T_ij's map in row i n + j
    i, j = _tuples(n, 2)
    ti, tj, tl = _tuples(n, 3)
    rows = min(SWEEP_ROWS, max(1, CASE_TABLE_BLOCK_BYTES // (8 * max(ti.size, 1))))
    kp, kij, kil, klj, kjl = i * n + j, ti * n + tj, ti * n + tl, tl * n + tj, tj * n + tl

    # swapped[i n + j, r]: the rank of state r with the letters of i and j exchanged
    moves = np.tile(np.arange(n), (i.size, 1))  # the site each site takes its letter from
    moves[np.arange(i.size), i], moves[np.arange(i.size), j] = j, i
    swapped = np.zeros((n * n, dim), dtype=np.intp)
    for lo, s in _state_blocks(basis, rows):
        hi = lo + s.shape[1]
        moved = basis.states[lo:hi][:, moves].transpose(1, 0, 2).reshape(-1, n)
        swapped[kp, lo:hi] = basis.rank(moved).reshape(i.size, hi - lo)

    def compose(a, k):  # the rows of A B, from A's rows and the map of B in row k
        return col[k[:, None], a[0]], a[1] * val[k[:, None], a[0]]

    # each expected map enters negated, so every sum below is actual - expected
    worst = [0.0]
    for lo, s in _state_blocks(basis, rows):
        hi = lo + s.shape[1]
        tp, tij, til, tlj = ((col[k, lo:hi], val[k, lo:hi]) for k in (kp, kij, kil, klj))
        single = (swapped[kp, lo:hi], -np.sign(s[i] - s[j]).astype(float))
        square = (np.arange(lo, hi), (s[i] != s[j]).astype(float))
        worst.append(_max_abs_entry([tp, single]))
        worst.append(_max_abs_entry([compose(tp, kp), square]))
        # T_ij T_il + T_lj T_ij + T_il T_jl = -(the cycle i <- l, j <- i, l <- j),
        # which exchanges i and j, then i and l
        cycled = swapped[kil[:, None], swapped[kij, lo:hi]]
        cycle = (cycled, (~((s[ti] == s[tj]) & (s[tj] == s[tl]))).astype(float))
        products = [compose(tij, kil), compose(tlj, kij), compose(til, kjl)]
        worst.append(_max_abs_entry([*products, cycle]))
    return max_or_nan(worst)
