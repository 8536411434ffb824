"""Quadratic and cubic Calogero eigen-relations on projected KZ solutions.

The strongest testable form of each eigen-relation is a covector identity on
the weight subspace, valid for arbitrary states: sliding the all-ones
covector through the substituted derivative operators must reproduce the
potential term plus the closed-form eigenvalue.  A KZ solution can take any
value at a point, so the pointwise identity and the PDE statement are
equivalent; the PDE residual on integrated solutions is kept as a secondary,
integrator-limited cross-check.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import (
    RATIONAL,
    TRIGONOMETRIC,
    ModelParams,
    StateVector,
    WeightVector,
)
from .errors import DegenerateProjectionWarning, UnsupportedRelationError
from .kernel import PairKernel
from .kz import KzConnection, covariant_row, mc_derivatives, mc_wavefunction

__all__ = [
    "calogero_energy",
    "h2_covector_residual",
    "h3_covector_residual",
    "momentum_covector_residual",
    "pde_residual_on_solution",
]

#: floor on |E Psi| below which residuals are reported in absolute terms
RESIDUAL_FLOOR = 1e-30

H2 = "h2"
H3 = "h3"
MOMENTUM = "momentum"


def calogero_energy(weight: WeightVector, params: ModelParams, k: int) -> float:
    """Closed-form eigenvalue of the k-th Hamiltonian on the weight subspace.

    Quadratic: sum_a M_a g_a^2, plus (kappa^2 gamma^2 / 3) sum_a M_a (M_a^2-1)
    in the trigonometric kind.  Cubic: sum_a M_a g_a^3, rational kind only.
    """
    M = np.asarray(weight.M, dtype=float)
    g = np.asarray(params.g)
    if k == 2:
        e = float(np.dot(M, g**2))
        if params.kind == TRIGONOMETRIC:
            e += (params.kappa**2 * params.gamma**2 / 3.0) * float(
                np.dot(M, M**2 - 1.0)
            )
        return e
    if k == 3:
        if params.kind != RATIONAL:
            raise UnsupportedRelationError(
                "the cubic eigenvalue is only defined for the rational kind"
            )
        return float(np.dot(M, g**3))
    raise UnsupportedRelationError(f"no closed-form eigenvalue for k={k}")


def _pair_potential_sum(params: ModelParams) -> float:
    """sum_{i != j} kappa (kappa - hbar) K(x_i - x_j) over ordered pairs."""
    x = np.asarray(params.x)
    kern = PairKernel(params)
    kk = params.kappa * (params.kappa - params.hbar)
    total = 0.0
    for i in range(params.n):
        for j in range(params.n):
            if i != j:
                total += kern.potential(x[i] - x[j], kk)
    return total


def _scaled_row_residual(lhs: np.ndarray, coeff: float) -> float:
    """Max-norm of lhs - coeff * ones, scaled by the larger of the two sides."""
    row = lhs - coeff
    scale = max(float(np.max(np.abs(lhs))), abs(coeff), RESIDUAL_FLOOR)
    return float(np.max(np.abs(row))) / scale


def h2_covector_residual(params: ModelParams, weight: WeightVector) -> float:
    """Covector form of the quadratic eigen-relation, any kind.

    Builds omega^T [ sum_i (hbar dH_i/dx_i + H_i^2) ] and compares with
    (V(x) + E) omega^T, where V is the ordered-pair potential sum and E the
    closed-form eigenvalue.  Exact for arbitrary states, so the returned
    scaled residual is rounding-limited.
    """
    conn = KzConnection(params, weight)
    lhs = np.zeros(conn.basis.dim)
    for i in range(1, params.n + 1):
        lhs += covariant_row(i, 2, conn)
    coeff = _pair_potential_sum(params) + calogero_energy(weight, params, 2)
    return _scaled_row_residual(lhs, coeff)


def h3_covector_residual(params: ModelParams, weight: WeightVector) -> float:
    """Covector form of the cubic eigen-relation, rational kind only.

    omega^T [ sum_i A_3^(i) - 3 kappa (kappa - hbar) sum_i w_i H_i ] must equal
    E_3 omega^T, with w_i = sum_{j != i} (x_i - x_j)^{-2}; the first-derivative
    term of the cubic Hamiltonian is replaced algebraically by H_i / hbar.
    """
    if params.kind != RATIONAL:
        raise UnsupportedRelationError("cubic covector identity needs the rational kind")
    conn = KzConnection(params, weight)
    x = np.asarray(params.x)
    kk = 3.0 * params.kappa * (params.kappa - params.hbar)
    lhs = np.zeros(conn.basis.dim)
    for i in range(1, params.n + 1):
        w_i = sum(1.0 / (x[i - 1] - x[j]) ** 2 for j in range(params.n) if j != i - 1)
        lhs += covariant_row(i, 3, conn) - kk * w_i * covariant_row(i, 1, conn)
    coeff = calogero_energy(weight, params, 3)
    return _scaled_row_residual(lhs, coeff)


def momentum_covector_residual(params: ModelParams, weight: WeightVector) -> float:
    """Covector form of the total-momentum relation: sum_i H_i = sum_a M_a g_a."""
    conn = KzConnection(params, weight)
    lhs = np.zeros(conn.basis.dim)
    for i in range(1, params.n + 1):
        lhs += covariant_row(i, 1, conn)
    coeff = float(np.dot(weight.M, params.g))
    return _scaled_row_residual(lhs, coeff)


def pde_residual_on_solution(
    state: StateVector, conn: KzConnection, relation: str
) -> float:
    """Residual of the chosen eigen-relation on a KZ solution value.

    The state is treated as the value of a solution at conn.params.x;
    derivatives of Psi come from the covariant substitution.  Returns
    |LHS - E Psi| / max(|E Psi|, floor); when the projection degenerates the
    absolute residual is returned with a warning.
    """
    params = conn.params
    psi = mc_wavefunction(state)
    if relation == MOMENTUM:
        ders = mc_derivatives(state, conn, max_order=1)
        lhs = params.hbar * np.sum(ders[0])
        energy = float(np.dot(conn.weight.M, params.g))
    elif relation == H2:
        ders = mc_derivatives(state, conn, max_order=2)
        lhs = params.hbar**2 * np.sum(ders[1]) - _pair_potential_sum(params) * psi
        energy = calogero_energy(conn.weight, params, 2)
    elif relation == H3:
        if params.kind != RATIONAL:
            raise UnsupportedRelationError("cubic relation needs the rational kind")
        ders = mc_derivatives(state, conn, max_order=3)
        x = np.asarray(params.x)
        kk = 3.0 * params.hbar * params.kappa * (params.kappa - params.hbar)
        drift = sum(
            ders[0, i] / (x[i] - x[j]) ** 2
            for i in range(params.n)
            for j in range(params.n)
            if j != i
        )
        lhs = params.hbar**3 * np.sum(ders[2]) - kk * drift
        energy = calogero_energy(conn.weight, params, 3)
    else:
        raise UnsupportedRelationError(f"unknown relation {relation!r}")
    target = energy * psi
    if abs(target) < RESIDUAL_FLOOR:
        warnings.warn(
            "projection of the state is numerically zero; reporting the "
            "absolute residual",
            DegenerateProjectionWarning,
            stacklevel=2,
        )
        return abs(lhs - target)
    return abs(lhs - target) / abs(target)
