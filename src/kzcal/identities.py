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
        omega = np.ones(basis.dim)
        row = np.zeros(basis.dim)
        for i, j, l in permutations(range(n), 3):
            tij = t_operator(i + 1, j + 1, weight)
            til = t_operator(i + 1, l + 1, weight)
            row += til.rmatvec(tij.rmatvec(omega))
        expected = -(n * (n - 1) * (n - 2) - float(np.dot(M, (M - 1.0) * (M - 2.0)))) / 3.0
        scale = max(abs(expected), float(n * (n - 1) * (n - 2)))
        report["t_triple_sum"] = _entry(float(np.max(np.abs(row - expected))), scale)
    else:
        report["t_triple_sum"] = IdentityResidual(0.0, 0.0)
    return report


def _sparse_max_abs_diff(a, b) -> float:
    diff = (a - b).tocoo()
    return float(np.max(np.abs(diff.data))) if diff.nnz else 0.0


def verify_t_case_tables(weight: WeightVector) -> float:
    """Exact case-table check of the signed swap on every basis state.

    Verifies, in integer arithmetic on the materialized operators:
      * the single action (signed transposition, annihilation on equal letters),
      * the square (diagonal -1 on distinct letters, 0 otherwise),
      * the symmetrized triple product (minus a letter 3-cycle, 0 when all
        three letters coincide).
    The expected matrices are rebuilt per basis state from the case analysis.
    Returns the max absolute deviation (0.0 when all tables match exactly).
    """
    import scipy.sparse as sp

    basis = get_basis(weight)
    n, dim = basis.n, basis.dim
    states = basis.states
    cols = np.arange(dim)
    worst = 0.0
    tmat = {}
    for i0 in range(n):
        for j0 in range(n):
            if i0 != j0:
                tmat[(i0, j0)] = t_operator(i0 + 1, j0 + 1, weight).materialize()

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
