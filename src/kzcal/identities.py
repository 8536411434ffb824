"""Standalone numerical checks of the auxiliary identities behind the proofs.

Each check reports a raw residual and a residual scaled by the size of the
largest contributing term, so catastrophic cancellation shows up instead of
hiding.  Sums over empty index ranges return exactly zero.

Several of the operator sums are diagonal in the canonical basis (twist sums,
squared signed swaps), so their residuals are evaluated as exact operator
norms rather than on sampled states; the signed-swap triple sum is slid
through the all-ones covector, which also quantifies over every state at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "IdentityResidual",
    "rational_scalar_identity_report",
    "verify_rational_scalar_identities",
    "twist_sum_identity_report",
    "verify_twist_sum_identities",
    "omega_weight_identity_report",
    "verify_omega_weight_identity",
    "verify_trig_identities",
    "verify_t_case_tables",
]


@dataclass(frozen=True)
class IdentityResidual:
    raw: float
    scaled: float


def _entry(total: float, scale: float) -> IdentityResidual:
    scale = max(scale, 1e-300)
    return IdentityResidual(raw=abs(total), scaled=abs(total) / scale)


def rational_scalar_identity_report(x) -> dict[str, IdentityResidual]:
    """Vanishing sums of products of pole kernels over distinct indices.

    pair_product:    sum over distinct (i, j, l)    of 1/((x_i-x_j)(x_i-x_l))
    triple_product:  sum over distinct (i, j, k, l) of the threefold product
    partial_fraction: the three-point identity behind the pair sum
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    report: dict[str, IdentityResidual] = {}

    total, biggest = 0.0, 0.0
    for i, j, l in permutations(range(n), 3):
        term = 1.0 / ((x[i] - x[j]) * (x[i] - x[l]))
        total += term
        biggest = max(biggest, abs(term))
    report["pair_product"] = _entry(total, biggest) if n >= 3 else _entry(0.0, 1.0)

    total, biggest = 0.0, 0.0
    for i, j, k, l in permutations(range(n), 4):
        term = 1.0 / ((x[i] - x[j]) * (x[i] - x[k]) * (x[i] - x[l]))
        total += term
        biggest = max(biggest, abs(term))
    report["triple_product"] = _entry(total, biggest) if n >= 4 else _entry(0.0, 1.0)

    worst_raw, worst_scaled = 0.0, 0.0
    for i, j, l in permutations(range(n), 3):
        a, b, c = x[i] - x[j], x[i] - x[l], x[j] - x[l]
        terms = (1.0 / (a * b), -1.0 / (a * c), 1.0 / (b * c))
        resid = sum(terms)
        worst_raw = max(worst_raw, abs(resid))
        worst_scaled = max(worst_scaled, abs(resid) / max(abs(t) for t in terms))
    if n >= 3:
        report["partial_fraction"] = IdentityResidual(worst_raw, worst_scaled)
    else:
        report["partial_fraction"] = IdentityResidual(0.0, 0.0)
    return report


def verify_rational_scalar_identities(x) -> float:
    return max_or_nan([e.scaled for e in rational_scalar_identity_report(x).values()])


def twist_sum_identity_report(
    params: ModelParams, weight: WeightVector
) -> dict[str, IdentityResidual]:
    """Vanishing twist-weighted kernel sums; all are diagonal operators.

    pair_twist:        sum_{i != j} (g^(i) + g^(j)) / (x_i - x_j)
    pair_twist_coth:   the same with the coth kernel (trigonometric kind)
    triple_twist:      sum over distinct (i, j, k) of
                       (g^(i) + g^(j) + g^(k)) / ((x_i - x_j)(x_i - x_k))
    """
    basis = get_basis(weight)
    x = np.asarray(params.x)
    g = np.asarray(params.g)
    gsite = [g[basis.letters(i0) - 1] for i0 in range(basis.n)]
    n = basis.n
    report: dict[str, IdentityResidual] = {}

    def kernel_sum(kernel) -> tuple[np.ndarray, float]:
        diag = np.zeros(basis.dim)
        biggest = 0.0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                c = kernel(x[i] - x[j])
                term = c * (gsite[i] + gsite[j])
                diag += term
                biggest = max(biggest, float(np.max(np.abs(term))))
        return diag, biggest

    diag, biggest = kernel_sum(lambda dx: 1.0 / dx)
    report["pair_twist"] = _entry(float(np.max(np.abs(diag))), biggest)

    if params.kind == TRIGONOMETRIC:
        diag, biggest = kernel_sum(lambda dx: 1.0 / np.tanh(params.gamma * dx))
        report["pair_twist_coth"] = _entry(float(np.max(np.abs(diag))), biggest)

    diag = np.zeros(basis.dim)
    biggest = 0.0
    for i, j, k in permutations(range(n), 3):
        c = 1.0 / ((x[i] - x[j]) * (x[i] - x[k]))
        term = c * (gsite[i] + gsite[j] + gsite[k])
        diag += term
        biggest = max(biggest, float(np.max(np.abs(term))))
    if n >= 3:
        report["triple_twist"] = _entry(float(np.max(np.abs(diag))), biggest)
    else:
        report["triple_twist"] = IdentityResidual(0.0, 0.0)
    return report


def verify_twist_sum_identities(params: ModelParams, weight: WeightVector) -> float:
    return max_or_nan([e.scaled for e in twist_sum_identity_report(params, weight).values()])


def omega_weight_identity_report(
    params: ModelParams, weight: WeightVector
) -> dict[str, IdentityResidual]:
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
            per_state += g[basis.letters(i0) - 1] ** k
        expected = float(np.dot(M, g**k))
        resid = float(np.max(np.abs(per_state - expected)))
        report[f"letter_power_{k}"] = _entry(resid, max(abs(expected), 1.0))
    return report


def verify_omega_weight_identity(params: ModelParams, weight: WeightVector) -> float:
    return max_or_nan([e.scaled for e in omega_weight_identity_report(params, weight).values()])


def verify_trig_identities(
    params: ModelParams, weight: WeightVector
) -> dict[str, IdentityResidual]:
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
    report: dict[str, IdentityResidual] = {}

    coth = lambda u: 1.0 / np.tanh(u)

    total, biggest = 0.0, 0.0
    for i, j, l in permutations(range(n), 3):
        term = coth(gamma * (x[i] - x[j])) * coth(gamma * (x[i] - x[l]))
        total += term
        biggest = max(biggest, abs(term))
    expected = n * (n - 1) * (n - 2) / 3.0
    if n >= 3:
        report["coth_pair_product"] = _entry(total - expected, max(biggest, expected))
    else:
        report["coth_pair_product"] = IdentityResidual(0.0, 0.0)

    worst_raw, worst_scaled = 0.0, 0.0
    for i, j, l in permutations(range(n), 3):
        cij = coth(gamma * (x[i] - x[j]))
        cil = coth(gamma * (x[i] - x[l]))
        clj = coth(gamma * (x[l] - x[j]))
        cjl = -clj
        resid = cij * cil + cij * clj + cil * cjl - 1.0
        scale = max(abs(cij * cil), abs(cij * clj), abs(cil * cjl), 1.0)
        worst_raw = max(worst_raw, abs(resid))
        worst_scaled = max(worst_scaled, abs(resid) / scale)
    report["coth_addition"] = (
        IdentityResidual(worst_raw, worst_scaled) if n >= 3 else IdentityResidual(0.0, 0.0)
    )

    # sum of squared signed swaps: diagonal pair count, exact per basis state
    diag = np.zeros(basis.dim)
    for i0 in range(n):
        for j0 in range(n):
            if i0 != j0:
                diag -= (basis.letters(i0) != basis.letters(j0)).astype(float)
    expected = -(n * (n - 1) - float(np.dot(M, M - 1.0)))
    report["t_square_sum"] = _entry(
        float(np.max(np.abs(diag - expected))), max(abs(expected), float(n * (n - 1)))
    )

    if n >= 3:
        t_ops = {(i, j): t_operator(i + 1, j + 1, weight) for i, j in permutations(range(n), 2)}
        omega = np.ones(basis.dim)
        slid = {pair: op.rmatvec(omega) for pair, op in t_ops.items()}
        row = np.zeros(basis.dim)
        for i, j, l in permutations(range(n), 3):
            row += t_ops[i, l].rmatvec(slid[i, j])
        expected = -(n * (n - 1) * (n - 2) - float(np.dot(M, (M - 1.0) * (M - 2.0)))) / 3.0
        scale = max(abs(expected), float(n * (n - 1) * (n - 2)))
        report["t_triple_sum"] = _entry(float(np.max(np.abs(row - expected))), scale)
    else:
        report["t_triple_sum"] = IdentityResidual(0.0, 0.0)
    return report


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
    rebuilt per basis state from the case analysis, their columns by moving
    letters in the base-N codes.  Returns the max absolute deviation (0.0
    when all tables match exactly); inf when a T_ij stores two entries in one
    row, which no signed swap does.
    """
    basis = get_basis(weight)
    n, dim = basis.n, basis.dim
    s = basis.states.T.astype(np.int64)
    power = basis.N ** np.arange(n - 1, -1, -1, dtype=np.int64)
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
        swapped = basis.rank(basis.codes + (s[j0] - s[i0]) * (power[i0] - power[j0]))
        single = (swapped, -np.sign(s[i0] - s[j0]).astype(float))
        square = (np.arange(dim), (s[i0] != s[j0]).astype(float))
        worst.append(_max_abs_entry([tij, single]))
        worst.append(_max_abs_entry([_compose(tij, tij), square]))

        # the n - 2 triples (i, j, l) at once: T_ij T_il + T_lj T_ij + T_il T_jl
        # against minus the map r -> (r with letters i <- l, j <- i, l <- j)
        ls = [l0 for l0 in range(n) if l0 not in (i0, j0)]
        if not ls:
            continue
        til = (col[i0, ls], val[i0, ls])
        tlj = (col[ls, j0], val[ls, j0])
        tjl = (col[j0, ls], val[j0, ls])
        si, sj, sl = s[i0], s[j0], s[ls]
        cycled = basis.rank(
            basis.codes
            + (sl - si) * power[i0]
            + (si - sj) * power[j0]
            + (sj - sl) * power[ls][:, None]
        )
        cycle = (cycled, (~((si == sj) & (sj == sl))).astype(float))
        worst.append(
            _max_abs_entry([_compose(tij, til), _compose(tlj, tij), _compose(til, tjl), cycle])
        )
    return max_or_nan(worst)
