"""KZ connection: algebraic covariant derivatives, path integration, projection.

A solution of the first-order system hbar dPhi/dx_i = H_i Phi is realized
numerically by integrating the induced linear ODE along piecewise-linear paths
in coordinate space.  Higher x-derivatives of a solution are never computed by
differencing: repeated substitution of the system into itself turns
(hbar d/dx_i)^k Phi into an operator A_k acting on the instantaneous state,

    A_1 = H_i,
    A_{k+1} = hbar (d/dx_i A_k) + A_k H_i,

which only needs the analytic derivatives of H_i.  The scalar wave function is
the all-ones projection Psi = sum_J Phi_J.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .core import (
    ModelParams,
    StateVector,
    WeightVector,
    get_basis,
    max_or_nan,
    min_pairwise_gap,
    omega_pairing,
)
from .errors import (
    IntegrationFailureError,
    InvalidWeightError,
    SingularPathError,
    UnsupportedOrderError,
)
from .kernel import PairKernel, hamiltonian_terms, pair_table
from .operators import (
    TermOperator,
    apply_terms,
    csr_rows,
    gaudin_derivative,
    gaudin_hamiltonian,
    split_rows,
)

__all__ = [
    "KzConnection",
    "PathSpec",
    "covariant_power",
    "covariant_row",
    "integrate_path",
    "mc_wavefunction",
    "mc_derivatives",
    "commutator_norms",
    "flatness_residual",
]


class KzConnection:
    """Cached operator family of one instance: H_i and its x_i-derivatives."""

    def __init__(self, params: ModelParams, weight: WeightVector):
        weight.validate_for(params.n)
        if weight.N != params.N:
            raise InvalidWeightError(
                f"weight has {weight.N} species but params.N = {params.N}"
            )
        self.params = params
        self.weight = weight
        self.basis = get_basis(weight)
        self._h: dict[int, TermOperator] = {}
        self._dh: dict[tuple[int, int, int], TermOperator] = {}

    def hamiltonian(self, i: int) -> TermOperator:
        op = self._h.get(i)
        if op is None:
            op = gaudin_hamiltonian(i, self.params, self.weight)
            self._h[i] = op
        return op

    def derivative(self, i: int, j: int | None = None, order: int = 1) -> TermOperator:
        """d^order H_i / dx_j^order; j defaults to i."""
        j = i if j is None else j
        key = (i, j, order)
        op = self._dh.get(key)
        if op is None:
            op = gaudin_derivative(i, j, order, self.params, self.weight)
            self._dh[key] = op
        return op


def _covariant_powers(i: int, max_order: int, v: np.ndarray, conn: KzConnection) -> list:
    """[A_1 v, ..., A_max_order v] for site i, applying H_i to v once."""
    hbar = conn.params.hbar
    H = conn.hamiltonian(i)
    u1 = H.matvec(v)
    if max_order == 1:
        return [u1]
    dH = conn.derivative(i, order=1)
    w = dH.matvec(v)
    hu1 = H.matvec(u1)
    u2 = hbar * w + hu1
    if max_order == 2:
        return [u1, u2]
    d2H = conn.derivative(i, order=2)
    u3 = (
        hbar**2 * d2H.matvec(v)
        + 2.0 * hbar * dH.matvec(u1)
        + hbar * H.matvec(w)
        + H.matvec(hu1)
    )
    return [u1, u2, u3]


def covariant_power(i: int, k: int, state: StateVector, conn: KzConnection) -> StateVector:
    """What (hbar d/dx_i)^k Phi equals for a KZ solution with value `state`."""
    if k not in (1, 2, 3):
        raise UnsupportedOrderError(f"covariant power must be 1..3, got {k}")
    return StateVector(state.weight, _covariant_powers(i, k, state.amplitudes, conn)[-1])


def covariant_row(i: int, k: int, conn: KzConnection) -> np.ndarray:
    """The all-ones covector slid through A_k: the row omega^T A_k^(i)."""
    if k not in (1, 2, 3):
        raise UnsupportedOrderError(f"covariant power must be 1..3, got {k}")
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


@dataclass(frozen=True)
class PathSpec:
    """Piecewise-linear path through coordinate snapshots."""

    start: tuple[float, ...]
    waypoints: tuple[tuple[float, ...], ...]
    tolerance: float = 1e-10
    atol: float = 1e-12
    max_step: float = np.inf

    def __post_init__(self):
        object.__setattr__(self, "start", tuple(float(v) for v in self.start))
        object.__setattr__(
            self, "waypoints", tuple(tuple(float(v) for v in w) for w in self.waypoints)
        )
        if self.tolerance <= 0 or self.atol <= 0:
            raise SingularPathError("path tolerances must be positive")
        for w in self.waypoints:
            if len(w) != len(self.start):
                raise SingularPathError("waypoint length differs from start")

    def snapshots(self) -> list[np.ndarray]:
        return [np.asarray(self.start)] + [np.asarray(w) for w in self.waypoints]


def _check_segment(a: np.ndarray, b: np.ndarray, eps: float) -> None:
    """Reject segments whose linear interpolation touches x_i = x_j."""
    for i in range(a.size):
        for j in range(i + 1, a.size):
            d0 = a[i] - a[j]
            d1 = b[i] - b[j]
            if d0 * d1 <= 0.0 or min(abs(d0), abs(d1)) <= eps:
                raise SingularPathError(
                    f"segment brings x_{i + 1} and x_{j + 1} within {eps:g} "
                    "of collision"
                )


def _segment_rhs(conn: KzConnection, a: np.ndarray, b: np.ndarray):
    """ODE right-hand side along x(t) = (1-t) a + t b, t in [0, 1].

    dPhi/dt = (1/hbar) sum_i vel_i H_i Phi with vel = b - a; the pair (i, j)
    enters the sum once, with weight vel_i - vel_j, as the kernel is odd.
    """
    params = conn.params
    basis = conn.basis
    n = basis.n
    vel = b - a
    g = np.asarray(params.g)
    diag = np.zeros(basis.dim)
    for i0 in range(n):
        if vel[i0] != 0.0:
            diag = diag + vel[i0] * g[basis.letters(i0) - 1]
    weights = [(i0, j0, vel[i0] - vel[j0]) for i0 in range(n) for j0 in range(i0 + 1, n)]
    table = pair_table(basis, [pair for pair in weights if pair[2] != 0.0])
    kern = PairKernel(params)
    hbar = params.hbar

    def rhs(t, y):
        return apply_terms(hamiltonian_terms(diag, table, a + t * vel, kern), y) / hbar

    return rhs


def integrate_path(initial: StateVector, path: PathSpec, conn: KzConnection) -> StateVector:
    """Propagate a state along the path; returns the value at the endpoint.

    The result is deterministic for fixed inputs.  Segments of zero length are
    skipped exactly, so a trivial path returns the initial amplitudes bitwise.
    Initial amplitudes with zero imaginary part are integrated in float64.
    """
    if initial.weight != conn.weight:
        raise InvalidWeightError("initial state is not in the connection's subspace")
    snaps = path.snapshots()
    eps = conn.params.epsilon_x
    if len(snaps[0]) != conn.params.n:
        raise SingularPathError("path dimension differs from the number of sites")
    for s in snaps:
        if min_pairwise_gap(s) <= eps:
            raise SingularPathError("a path snapshot has coincident coordinates")
    y = initial.amplitudes
    if not np.any(y.imag):
        # every H_i is real, so a real state stays real along the path
        y = y.real
    y = y.copy()
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
        y = sol.y[:, -1].copy()  # a view would keep every step's state alive
        # the finished solver holds a closure over itself (OdeSolver.fun), so
        # its stage arrays (16 states for DOP853) wait for a cyclic
        # collection.  It is still in the youngest generation, whose
        # collection takes microseconds; collecting older ones would bring
        # on full collections, which take tens of ms beside mpmath state.
        gc.collect(0)
    return StateVector(initial.weight, y)


def mc_wavefunction(state: StateVector) -> complex:
    """The scalar wave function: the plain sum of the amplitudes."""
    return omega_pairing(state)


def mc_derivatives(state: StateVector, conn: KzConnection, max_order: int = 3) -> np.ndarray:
    """d^k Psi / dx_i^k for k = 1..max_order, treating `state` as a solution value.

    Returns an array of shape (max_order, n); entry [k-1, i-1] is the k-th
    derivative along x_i, computed as omega^T A_k Phi / hbar^k.
    """
    if not 1 <= max_order <= 3:
        raise UnsupportedOrderError(f"max_order must be 1..3, got {max_order}")
    n = conn.params.n
    hbar = conn.params.hbar
    out = np.empty((max_order, n), dtype=np.complex128)
    for i in range(1, n + 1):
        for k, uk in enumerate(_covariant_powers(i, max_order, state.amplitudes, conn), 1):
            out[k - 1, i - 1] = omega_pairing(StateVector(state.weight, uk)) / hbar**k
    return out


#: rows per block of the commutator sweeps.  A block holds the CSR rows of
#: all n H_i, their product with the n columns of U = [H_1 v ... H_n v] and
#: those rows of every pair's commutator: about 25 MB at n = 14.
SWEEP_ROWS = 2048


def _commutator_rows(conn: KzConnection, v: np.ndarray):
    """rows(lo, hi) -> C; C[p] is rows lo:hi of [H_i, H_j] v for the p-th pair i < j.

    U = [H_1 v ... H_n v] is formed here, once.  Each call then multiplies
    rows lo:hi of every H_a by U's real view in one CSR product, whose rows
    sum in the order of ``TermOperator.matvec``, so C[p] equals those rows of
    H_i (H_j v) - H_j (H_i v) bitwise.  The H_i are built here as well, so
    calls may run on any thread.
    """
    n, dim = conn.params.n, conn.basis.dim
    hams = [conn.hamiltonian(a) for a in range(1, n + 1)]
    U = np.empty((dim, n), dtype=np.complex128)
    for a, H in enumerate(hams):
        U[:, a] = H.matvec(v)
    Ur = U.view(np.float64)
    I, J = np.triu_indices(n, 1)

    def rows(lo: int, hi: int) -> np.ndarray:
        # W[a, r, b] = (H_a u_b)[lo + r]
        W = (csr_rows(hams, lo, hi) @ Ur).view(np.complex128).reshape(n, hi - lo, n)
        return W[I, :, J] - W[J, :, I]

    return rows


def _curvature_rows(conn: KzConnection, v: np.ndarray):
    """rows(lo, hi) -> C; C[p] is rows lo:hi of the curvature action of the p-th pair.

    The curvature of the connection hbar d_i - H_i in directions (i, j) is
    hbar (d_j H_i - d_i H_j) + [H_i, H_j]; its derivative rows come from one
    CSR product of the rows of every d_j H_i with v's real view.
    """
    n, hbar = conn.params.n, conn.params.hbar
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    ders = [conn.derivative(i, j) for i, j in pairs] + [conn.derivative(j, i) for i, j in pairs]
    vr = v.view(np.float64).reshape(-1, 2)
    commutator = _commutator_rows(conn, v)

    def rows(lo: int, hi: int) -> np.ndarray:
        # D[0, p] = rows of d_j H_i v, D[1, p] = rows of d_i H_j v
        D = (csr_rows(ders, lo, hi) @ vr).view(np.complex128).reshape(2, len(pairs), hi - lo)
        return hbar * (D[0] - D[1]) + commutator(lo, hi)

    return rows


def _block_norms(rows, dim: int, npairs: int) -> np.ndarray:
    """Per-pair 2-norms of rows(0, dim), one SWEEP_ROWS block at a time.

    The squared moduli are summed within each block, then over the blocks in
    row order, however ``split_rows`` shares the blocks out.
    """

    def sums(lo: int, hi: int) -> list:
        out = []
        for b in range(lo, hi, SWEEP_ROWS):
            C = rows(b, min(b + SWEEP_ROWS, hi))
            out.append(np.sum(C.real * C.real + C.imag * C.imag, axis=1))
        return out

    total = np.zeros(npairs)
    for chunk in split_rows(sums, dim, SWEEP_ROWS):
        for block in chunk:
            total += block
    return np.sqrt(total)


def commutator_norms(conn: KzConnection, v: np.ndarray) -> np.ndarray:
    """||[H_i, H_j] v|| for 1 <= i < j <= n, in that pair order."""
    n = conn.params.n
    return _block_norms(_commutator_rows(conn, v), conn.basis.dim, n * (n - 1) // 2)


def flatness_residual(
    params: ModelParams, weight: WeightVector, rng: np.random.Generator
) -> float:
    """Max curvature action over site pairs on a random unit state.

    The curvature hbar (d_j H_i - d_i H_j) + [H_i, H_j] vanishes identically
    for both kernel kinds.  Its derivative part vanishes because d_j H_i and
    d_i H_j are the same P_ij, with coefficients -p'(x_i - x_j) and
    -p'(x_j - x_i), and the derivative p' of the P_ij coefficient is even.
    So beside commutativity (on a second random state) the suite pins that
    symmetry of the analytic derivatives.  Path independence of the transport
    itself is the ``kz-integrate`` suite's closed loop.
    """
    conn = KzConnection(params, weight)
    v = StateVector.random(weight, rng).amplitudes
    if params.n < 2:
        return 0.0
    npairs = params.n * (params.n - 1) // 2
    return max_or_nan([0.0, *_block_norms(_curvature_rows(conn, v), conn.basis.dim, npairs)])
