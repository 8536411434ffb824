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
from itertools import permutations

import numpy as np

from .core import (
    TRIGONOMETRIC,
    ModelParams,
    WeightVector,
    get_basis,
    max_or_nan,
)
from .operators import t_operator

__all__ = [
    "verify_rational_scalar_identities",
    "verify_twist_sum_identities",
    "verify_omega_weight_identity",
    "verify_trig_identities",
    "verify_t_case_tables",
]


def _sum_residual(terms, expected=0.0) -> float:
    """|sum - expected| / max(largest |term|, |expected|, 1e-300); 0.0 for no terms.

    terms is an array with one float per summand, or an iterable of per-state
    arrays (stacked they could take gigabytes).  Either way the sum runs in
    the given order, so it has the bits of the plain loop.
    """
    if isinstance(terms, np.ndarray):
        if terms.size == 0:
            return 0.0
        total, biggest = np.cumsum(terms)[-1], np.max(np.abs(terms))
    else:
        total, biggest = 0.0, 0.0
        for term in terms:
            total = total + term
            biggest = max(biggest, np.max(np.abs(term)))
    return float(np.max(np.abs(total - expected))) / max(biggest, abs(expected), 1e-300)


def _tuples(n: int, k: int) -> np.ndarray:
    """The k-tuples of distinct indices below n, as k index rows in permutations order."""
    return np.array(list(permutations(range(n), k)), dtype=np.intp).reshape(-1, k).T


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
    x = np.asarray(params.x)
    g = np.asarray(params.g)
    gsite = g[basis.states.T - 1]
    pairs = list(permutations(range(basis.n), 2))
    report = {
        "pair_twist": _sum_residual(
            1.0 / (x[i] - x[j]) * (gsite[i] + gsite[j]) for i, j in pairs
        )
    }
    if params.kind == TRIGONOMETRIC:
        report["pair_twist_coth"] = _sum_residual(
            1.0 / np.tanh(params.gamma * (x[i] - x[j])) * (gsite[i] + gsite[j])
            for i, j in pairs
        )
    report["triple_twist"] = _sum_residual(
        1.0 / ((x[i] - x[j]) * (x[i] - x[k])) * (gsite[i] + gsite[j] + gsite[k])
        for i, j, k in permutations(range(basis.n), 3)
    )
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
        per_state = np.zeros(basis.dim)
        for i0 in range(basis.n):
            per_state += g[basis.states[:, i0] - 1] ** k
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

    # sum of squared signed swaps: diagonal pair count, exact per basis state
    diag = np.zeros(basis.dim)
    for i0, j0 in permutations(range(n), 2):
        diag -= (basis.states[:, i0] != basis.states[:, j0]).astype(float)
    expected = -(n * (n - 1) - float(np.dot(M, M - 1.0)))
    report["t_square_sum"] = float(np.max(np.abs(diag - expected))) / max(
        abs(expected), n * (n - 1), 1.0
    )

    report["t_triple_sum"] = 0.0
    if n >= 3:
        row = _t_triple_row(weight)
        expected = -(n * (n - 1) * (n - 2) - float(np.dot(M, (M - 1.0) * (M - 2.0)))) / 3.0
        scale = max(abs(expected), float(n * (n - 1) * (n - 2)))
        report["t_triple_sum"] = float(np.max(np.abs(row - expected))) / scale
    return report


def _t_triple_row(weight: WeightVector) -> np.ndarray:
    """The all-ones covector slid through the sum of T_ij T_il over distinct (i, j, l).

    Summed over j before T_il^T applies, so each T^T applies twice, not n - 1
    times; the entries are small integers, so the sum is exact in any order.
    """
    t_ops = {(i, j): t_operator(i + 1, j + 1, weight) for i, j in permutations(range(weight.n), 2)}
    slid = {pair: op.rmatvec(np.ones(op.dim)) for pair, op in t_ops.items()}
    total = [sum(slid[i, j] for j in range(weight.n) if j != i) for i in range(weight.n)]
    return sum(op.rmatvec(total[i] - slid[i, l]) for (i, l), op in t_ops.items())


def _monomial_map(mat) -> tuple[np.ndarray, np.ndarray] | None:
    """(col, val) with mat[r, col[r]] = val[r] the only entry of row r (val 0: empty row).

    None when some row stores two entries.
    """
    counts = np.diff(mat.indptr)
    if np.any(counts > 1):
        return None
    filled = counts == 1
    col = np.zeros(mat.shape[0], dtype=np.int64)
    val = np.zeros(mat.shape[0])
    col[filled] = mat.indices
    val[filled] = mat.data
    return col, val


def _compose(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Monomial map of the product A B; maps may carry leading batch axes."""
    col_a, val_a = a
    col_b, val_b = b
    return (
        np.take_along_axis(col_b, col_a, axis=-1),
        val_a * np.take_along_axis(val_b, col_a, axis=-1),
    )


def _max_abs_entry(maps) -> float:
    """Largest |entry| of the sum of the monomial maps, row by row."""
    worst = [0.0]
    for col, _ in maps:
        total = sum(np.where(other == col, val, 0.0) for other, val in maps)
        worst.append(float(np.max(np.abs(total))))
    return max_or_nan(worst)


def verify_t_case_tables(weight: WeightVector) -> float:
    """Exact case-table check of the signed swap on every basis state.

    Verifies, in exact arithmetic on the materialized operators:
      * the single action (signed transposition, annihilation on equal letters),
      * the square (diagonal -1 on distinct letters, 0 otherwise),
      * the symmetrized triple product (minus a letter 3-cycle, 0 when all
        three letters coincide).
    Each T_ij is read from its CSR matrix as a monomial map, row r ->
    (column, value); products compose the maps.  The expected maps are
    rebuilt per basis state from the case analysis, their columns by ranking
    the states with the letters moved.  Returns the max absolute deviation (0.0
    when all tables match exactly); inf when a T_ij stores two entries in one
    row, which no signed swap does.
    """
    basis = get_basis(weight)
    n, dim = basis.n, basis.dim
    s = basis.states.T
    # col[i0, j0], val[i0, j0]: the monomial map of T_ij (i0 = j0 unused)
    col = np.zeros((n, n, dim), dtype=np.int64)
    val = np.zeros((n, n, dim))
    for i0, j0 in permutations(range(n), 2):
        monomial = _monomial_map(t_operator(i0 + 1, j0 + 1, weight).materialize())
        if monomial is None:
            return math.inf
        col[i0, j0], val[i0, j0] = monomial

    # each expected map enters negated, so every sum below is actual - expected
    worst = [0.0]
    for i0, j0 in permutations(range(n), 2):
        tij = (col[i0, [j0]], val[i0, [j0]])  # shape (1, dim): broadcasts over triples
        # the site each site takes its letter from, per row: the exchange of i
        # and j, then per further site l the cycle i <- l, j <- i, l <- j
        ls = [l0 for l0 in range(n) if l0 not in (i0, j0)]
        moves = np.tile(np.arange(n), (1 + len(ls), 1))
        moves[0, [i0, j0]] = j0, i0
        moves[1:, i0], moves[1:, j0], moves[np.arange(1, 1 + len(ls)), ls] = ls, i0, j0
        ranked = basis.rank(basis.states[:, moves].transpose(1, 0, 2).reshape(-1, n))
        swapped, cycled = ranked[:dim], ranked[dim:].reshape(-1, dim)
        single = (swapped, -np.sign(s[i0] - s[j0]).astype(float))
        square = (np.arange(dim), (s[i0] != s[j0]).astype(float))
        worst.append(_max_abs_entry([tij, single]))
        worst.append(_max_abs_entry([_compose(tij, tij), square]))

        # the n - 2 triples (i, j, l) at once: T_ij T_il + T_lj T_ij + T_il T_jl = -cycle
        if not ls:
            continue
        til = (col[i0, ls], val[i0, ls])
        tlj = (col[ls, j0], val[ls, j0])
        tjl = (col[j0, ls], val[j0, ls])
        cycle = (cycled, (~((s[i0] == s[j0]) & (s[j0] == s[ls]))).astype(float))
        worst.append(
            _max_abs_entry([_compose(tij, til), _compose(tlj, tij), _compose(til, tjl), cycle])
        )
    return max_or_nan(worst)
