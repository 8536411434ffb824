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

from dataclasses import dataclass

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as dop853

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


def _constant_rmatvec(op: TermOperator, c) -> np.ndarray:
    """op^T (c, ..., c) from the term coefficients alone.

    A swap table is a permutation, so a transposed swap maps a constant
    covector to itself.  Each term adds what ``apply_terms`` adds, in term
    order, so the result equals op.rmatvec(np.full(op.dim, c)) bitwise.
    """
    out = np.zeros(op.dim)
    for term in op.terms:
        tag = term[0]
        if tag == "diag":
            out += term[1] * c
        elif tag == "swap":
            out += term[2] * c
        else:
            _, _, sign, coeff = term
            out -= coeff * (sign * c)
    return out


def covariant_row(i: int, k: int, conn: KzConnection) -> np.ndarray:
    """The all-ones covector slid through A_k: the row omega^T A_k^(i)."""
    if k not in (1, 2, 3):
        raise UnsupportedOrderError(f"covariant power must be 1..3, got {k}")
    hbar = conn.params.hbar
    H = conn.hamiltonian(i)
    r1 = _constant_rmatvec(H, 1.0)
    if k == 1:
        return r1
    dH = conn.derivative(i, order=1)
    w = _constant_rmatvec(dH, 1.0)
    if k == 2:
        return hbar * w + H.rmatvec(r1)
    d2H = conn.derivative(i, order=2)
    # dH's terms are swaps (a zero diag at n = 1), so its row w is constant too
    return (
        hbar**2 * _constant_rmatvec(d2H, 1.0)
        + 2.0 * hbar * _constant_rmatvec(H, w[0])
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


# scipy's DOP853 tableau (a private module, so a test pins its shapes)
_STAGES = dop853.N_STAGES
_A, _B, _C = dop853.A[:_STAGES, :_STAGES], dop853.B, dop853.C[:_STAGES]


@dataclass(frozen=True)
class Transport:
    """What ``solve_ivp`` returns: the state at t = 1 and its solver facts."""

    y: np.ndarray
    nfev: int
    success: bool
    message: str


def _weighted_rows(K: list, coeffs, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of sum_j coeffs[j] K[j], in stage order; zero coefficients add nothing."""
    acc = None
    for j, c in enumerate(coeffs):
        if c != 0.0:
            if acc is None:
                acc = K[j][lo:hi] * c
            else:
                acc += K[j][lo:hi] * c
    return acc


def _stage_state(K: list, coeffs, h: float, y: np.ndarray) -> np.ndarray:
    """y + (sum_j coeffs[j] K[j]) h, each range of the row pool in one pass."""
    out = np.empty_like(y)

    def rows(lo: int, hi: int) -> None:
        out[lo:hi] = y[lo:hi] + _weighted_rows(K, coeffs, lo, hi) * h

    split_rows(rows, y.size)
    return out


def solve_ivp(fun, y0: np.ndarray, rtol: float, atol: float, max_step: float = np.inf):
    """kzcal's DOP853 stepper: y(1) for y' = fun(t, y), y(0) = y0, real or complex.

    Every step decision is that of scipy's ``solve_ivp(method="DOP853")``
    (Hairer, Norsett and Wanner, Solving ODEs I, II.4): its tableau, its
    first step (``select_initial_step``), its step control (safety 0.9,
    factors 0.2 to 10, exponent -1/8, no growth right after a rejection), its
    err5/err3 error norm and its TOO_SMALL_STEP failure, which here also ends
    a NaN step, on which scipy would loop forever.  The stage sums run on the
    ranges of ``split_rows`` and the norms come from ``_block_norms``, with
    no BLAS call, so the result does not depend on the CPU count or the BLAS
    threads.  The function keeps scipy's name because the traced benchmark
    counts right-hand sides by wrapping ``kz.solve_ivp`` and reading
    ``nfev`` and ``success`` from the returned ``Transport``.
    """
    dim = y0.size
    rtol = max(rtol, 100 * np.finfo(float).eps)
    nfev = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return fun(t, y)

    def norms(rows, count):
        return _block_norms(rows, dim, count, whole=True)

    y = y0
    K = [f(0.0, y)] + [None] * _STAGES
    scale = atol + np.abs(y) * rtol
    d0, d1 = norms(lambda lo, hi: np.stack([y[lo:hi], K[0][lo:hi]]) / scale[lo:hi], 2) / dim**0.5
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, 1.0)
    df = f(h0, y + h0 * K[0]) - K[0]
    (d2,) = norms(lambda lo, hi: (df[lo:hi] / scale[lo:hi])[None], 1) / dim**0.5 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, 1.0, max_step)

    def error_rows(lo, hi):  # the err5 and err3 rows of the step to y_new
        scale = atol + np.maximum(np.abs(y[lo:hi]), np.abs(y_new[lo:hi])) * rtol
        errors = [_weighted_rows(K, E, lo, hi) for E in (dop853.E5, dop853.E3)]
        return np.stack(errors) / scale

    t = 0.0
    while t < 1.0:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:
                message = "Required step size is less than spacing between numbers."
                return Transport(y, nfev, False, message)
            t_new = min(t + h_abs, 1.0)
            h = h_abs = t_new - t
            for s in range(1, _STAGES):
                K[s] = f(t + _C[s] * h, _stage_state(K, _A[s, :s], h, y))
            y_new = _stage_state(K, _B, h, y)
            K[-1] = f(t + h, y_new)
            e5, e3 = norms(error_rows, 2) ** 2
            if e5 == 0 and e3 == 0:
                error_norm = 0.0
            else:
                error_norm = h * e5 / np.sqrt((e5 + 0.01 * e3) * dim)
            factor = 10.0 if error_norm == 0 else 0.9 * error_norm ** (-1 / 8)
            if error_norm < 1:
                h_abs *= min(1.0 if rejected else 10.0, factor)
                break
            h_abs *= max(0.2, factor)  # also when error_norm is NaN
            rejected = True
        t, y, K[0] = t_new, y_new, K[-1]
    return Transport(y, nfev, True, "The solver reached the end of the interval.")


def integrate_path(initial: StateVector, path: PathSpec, conn: KzConnection) -> StateVector:
    """Propagate a state along the path; returns the value at the endpoint.

    The result is deterministic for fixed inputs.  Every snapshot and segment
    is checked against collisions before the first segment is integrated.
    Segments of zero length are skipped exactly, so a trivial path returns
    the initial amplitudes bitwise.
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
    segments = [(a, b) for a, b in zip(snaps[:-1], snaps[1:]) if not np.array_equal(a, b)]
    for a, b in segments:
        _check_segment(a, b, eps)
    y = initial.amplitudes
    if not np.any(y.imag):
        # every H_i is real, so a real state stays real along the path
        y = y.real
    y = y.copy()
    for a, b in segments:
        sol = solve_ivp(_segment_rhs(conn, a, b), y, path.tolerance, path.atol, path.max_step)
        if not sol.success:
            raise IntegrationFailureError(
                f"integration failed on segment {a} -> {b}: {sol.message}"
            )
        y = sol.y
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


#: rows per block of the commutator sweeps and of every norm's sum of
#: squares.  A sweep block holds the CSR rows of all n H_i, their
#: product with the n columns of U = [H_1 v ... H_n v] and those rows of
#: every pair's commutator: about 25 MB at n = 14.
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
    hbar (d_j H_i - d_i H_j) + [H_i, H_j].  d_j H_i and d_i H_j are the one
    swap P_ij with coefficients a and b, so the derivative rows are
    hbar (a - b) v[perm], added to the commutator rows.  A pair with
    a - b = 0 adds nothing: a v[perm] - b v[perm] would be exactly +0 there.
    """
    n, hbar = conn.params.n, conn.params.hbar
    skew = []
    for p, (i, j) in enumerate((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)):
        ((_, perm, a),) = conn.derivative(i, j).terms
        ((_, _, b),) = conn.derivative(j, i).terms
        if a - b != 0.0:  # zero exactly when a == b is finite
            skew.append((p, perm, hbar * (a - b)))
    commutator = _commutator_rows(conn, v)

    def rows(lo: int, hi: int) -> np.ndarray:
        C = commutator(lo, hi)
        for p, perm, s in skew:
            C[p] += s * v[perm[lo:hi]]
        return C

    return rows


def _block_norms(rows, dim: int, count: int, whole: bool = False) -> np.ndarray:
    """2-norms of the `count` rows of rows(0, dim), summed one SWEEP_ROWS block at a time.

    rows is called on one block at a time, or with whole=True on each range
    of ``split_rows`` at once.  The squared moduli are summed within each
    block, then over the blocks in row order, however ``split_rows`` shares
    the blocks out.  Every norm of the float64 suites comes from here.
    """

    def sums(lo: int, hi: int) -> list:
        out = []
        step = hi - lo if whole else SWEEP_ROWS
        for c in range(lo, hi, step):
            C = rows(c, min(c + step, hi))
            sq = C.real * C.real
            if np.iscomplexobj(C):
                sq += C.imag * C.imag
            blocks = sq.shape[1] // SWEEP_ROWS
            full = blocks * SWEEP_ROWS
            out.extend(np.sum(sq[:, :full].reshape(count, blocks, SWEEP_ROWS), axis=2).T)
            if full < sq.shape[1]:
                out.append(np.sum(sq[:, full:], axis=1))
        return out

    total = np.zeros(count)
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
