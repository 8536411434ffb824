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
from dataclasses import dataclass

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
    "EigenReport",
    "calogero_energy",
    "h2_covector_residual",
    "h3_covector_residual",
    "momentum_covector_residual",
    "pde_residual_on_solution",
    "eigen_report",
    "explore_quartic_relation",
]

#: floor on |E Psi| below which residuals are reported in absolute terms
RESIDUAL_FLOOR = 1e-30

H2 = "h2"
H3 = "h3"
MOMENTUM = "momentum"


@dataclass(frozen=True)
class EigenReport:
    """One verified eigen-relation: predicted eigenvalue and relative residual."""

    relation: str  # H2_rational | H2_trig | H3_rational | momentum
    predicted_eigenvalue: complex
    residual: float
    instance: dict


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


def _relation_name(relation: str, params: ModelParams) -> str:
    if relation == H2:
        return "H2_trig" if params.kind == TRIGONOMETRIC else "H2_rational"
    if relation == H3:
        return "H3_rational"
    return "momentum"


def eigen_report(relation: str, params: ModelParams, weight: WeightVector) -> EigenReport:
    """Covector residual of one relation packaged with its predicted eigenvalue."""
    if relation == H2:
        residual = h2_covector_residual(params, weight)
        energy = calogero_energy(weight, params, 2)
    elif relation == H3:
        residual = h3_covector_residual(params, weight)
        energy = calogero_energy(weight, params, 3)
    elif relation == MOMENTUM:
        residual = momentum_covector_residual(params, weight)
        energy = float(np.dot(weight.M, params.g))
    else:
        raise UnsupportedRelationError(f"unknown relation {relation!r}")
    instance = {
        "n": params.n,
        "N": params.N,
        "M": list(weight.M),
        "kind": params.kind,
        "hbar": params.hbar,
        "kappa": params.kappa,
        "gamma": params.gamma,
    }
    return EigenReport(_relation_name(relation, params), energy, residual, instance)


def explore_quartic_relation(params: ModelParams, weight: WeightVector) -> float:
    """Numerical probe of the conjectured quartic eigen-relation (rational kind).

    If a fourth Hamiltonian of the usual hierarchy shape (leading sum_i d^4_i
    plus lower-order derivative terms with x-dependent coefficients)
    diagonalizes the projected solutions with eigenvalue sum_a M_a g_a^4, then
    sum_i omega^T A_4^(i) minus that eigenvalue row must lie in the span of
    the lower-order covariant rows.  Returns the relative out-of-span
    residual.  Exploratory output only; never part of acceptance.
    """
    if params.kind != RATIONAL:
        raise UnsupportedRelationError("quartic probe implemented for rational kind")
    conn = KzConnection(params, weight)
    n, hbar = params.n, params.hbar
    x = np.asarray(params.x)
    dim = conn.basis.dim
    omega = np.ones(dim)

    def third_kernel_row(i: int) -> np.ndarray:
        # omega^T d^3H_i/dx_i^3; the swap tables absorb into the all-ones row
        total = sum(
            -6.0 * params.kappa / (x[i - 1] - x[j0]) ** 4
            for j0 in range(n)
            if j0 != i - 1
        )
        return total * omega

    # A_3 = hbar^2 H'' + 2 hbar H' H + hbar H H' + H^3   (primes are d/dx_i)
    # d/dx_i A_3 = hbar^2 H''' + 2 hbar (H'' H + H' H') + hbar (H' H' + H H'')
    #              + H' H^2 + H H' H + H^2 H'
    # A_4 = hbar d/dx_i A_3 + A_3 H
    target = np.zeros(dim)
    for i in range(1, n + 1):
        H = conn.hamiltonian(i)
        dH = conn.derivative(i, order=1)
        d2H = conn.derivative(i, order=2)
        r1 = H.rmatvec(omega)
        r3 = covariant_row(i, 3, conn)
        w1 = dH.rmatvec(omega)
        d2_row = d2H.rmatvec(omega)
        dA3 = (
            hbar**2 * third_kernel_row(i)
            + 2.0 * hbar * H.rmatvec(d2_row)
            + 3.0 * hbar * dH.rmatvec(w1)
            + hbar * d2H.rmatvec(r1)
            + H.rmatvec(H.rmatvec(w1))
            + H.rmatvec(dH.rmatvec(r1))
            + dH.rmatvec(H.rmatvec(r1))
        )
        target += hbar * dA3 + H.rmatvec(r3)
    e4 = float(np.dot(np.asarray(weight.M, float), np.asarray(params.g) ** 4))
    target -= e4 * omega

    # span of rows available to a hierarchy-shaped quartic Hamiltonian:
    # constants, first derivatives, mixed second derivatives, third powers
    rows = [omega]
    for i in range(1, n + 1):
        rows.append(conn.hamiltonian(i).rmatvec(omega))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                rows.append(covariant_row(i, 2, conn))
            else:
                rows.append(
                    hbar * conn.derivative(i, j, order=1).rmatvec(omega)
                    + conn.hamiltonian(j).rmatvec(conn.hamiltonian(i).rmatvec(omega))
                )
    for i in range(1, n + 1):
        rows.append(covariant_row(i, 3, conn))
    A = np.stack(rows, axis=1)
    coeffs, *_ = np.linalg.lstsq(A, target, rcond=None)
    leftover = target - A @ coeffs
    scale = max(float(np.max(np.abs(target))), 1.0)
    return float(np.max(np.abs(leftover))) / scale
