"""KZ connection: algebraic covariant derivatives, path integration, projection.

A solution of the first-order system hbar dPhi/dx_i = H_i Phi is realized
numerically by integrating the induced linear ODE along piecewise-linear paths
in coordinate space.  Higher x-derivatives of a solution are never computed by
differencing: repeated substitution of the system into itself turns
(hbar d/dx_i)^k Phi into an operator A_k acting on the instantaneous state,

    A_1 = H_i,
    A_{k+1} = hbar (d/dx_i A_k) + A_k H_i,

which only needs the analytic derivatives of H_i.  The scalar wave function is
the all-ones projection Psi = sum_J Phi_J.  Flatness reuses the commutator
sweep: the derivative part of the curvature is one swap per pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ModelParams,
    StateVector,
    WeightVector,
    check_instance,
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
from .kernel import PairKernel, diag_term, hamiltonian_terms, pair_table
from .operators import (
    SWEEP_ROWS,
    RowKernel,
    TermOperator,
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
        check_instance(params, weight)
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
    covector to itself.  The diagonal, then each other term, adds what its
    entry adds in ``RowKernel.rows``, in term order, so the result equals
    op.rmatvec(np.full(op.dim, c)) bitwise.  With no signed swap and no
    diagonal, every row is one value.  With no signed swap and a diagonal of
    one table at one site, a row depends only on the letter there: when the
    sector has more states than letters, the sums are formed once per
    letter, from +0, and gathered with the basis letters.  Otherwise each
    range of the row pool sums its rows term by term.
    """
    kernel = op.row_kernel()
    lookup = kernel.lookup if op.weight.N < op.dim else None  # a table no longer than a pass
    if kernel.flip is None and (lookup is not None or not kernel.diags):
        # per letter at the diag's site (slot 0 is read by no state), or one value
        row = np.zeros(1 if lookup is None else op.weight.N + 1)
        if lookup is not None:
            row += lookup[0] * c
        for term in op.terms:
            if term[0] == "swap":
                row += term[2] * c
        if lookup is None:
            return np.full(op.dim, row[0])
        return row.take(kernel.letters[:, lookup[1]])
    out = np.empty(op.dim)

    def rows(lo: int, hi: int) -> None:
        part = out[lo:hi]
        part[:] = 0.0
        if kernel.diags:
            part += kernel.diagonal(lo, hi) * c
        for term in op.terms:
            tag = term[0]
            if tag == "swap":
                part += term[2] * c
            elif tag == "tswap":
                _, _, sign, coeff = term
                part -= coeff * (sign[lo:hi] * c)

    split_rows(rows, op.dim)
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

    def __post_init__(self):
        object.__setattr__(self, "start", tuple(float(v) for v in self.start))
        object.__setattr__(
            self, "waypoints", tuple(tuple(float(v) for v in w) for w in self.waypoints)
        )
        if not (0 < self.tolerance < np.inf and 0 < self.atol < np.inf):
            raise SingularPathError("path tolerances must be positive and finite")
        for w in self.waypoints:
            if len(w) != len(self.start):
                raise SingularPathError("waypoint length differs from start")
        if not np.isfinite([self.start, *self.waypoints]).all():
            raise SingularPathError("path coordinates must be finite")

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


def _path_diagonal(g, vel: np.ndarray) -> tuple:
    """The diag term of sum_i vel_i g^(i): vel_i g at the letter of each
    moving site i, summed in site order."""
    moving = np.flatnonzero(vel)
    return diag_term(vel[moving, None] * np.asarray(g), moving)


def _segment_rhs(conn: KzConnection, a: np.ndarray, b: np.ndarray):
    """ODE right-hand side along x(t) = (1-t) a + t b, t in [0, 1].

    dPhi/dt = (1/hbar) sum_i vel_i H_i Phi with vel = b - a; the pair (i, j)
    enters the sum once, with weight vel_i - vel_j, as the kernel is odd.
    """
    params = conn.params
    basis = conn.basis
    n = basis.n
    vel = b - a
    weights = [(i0, j0, vel[i0] - vel[j0]) for i0 in range(n) for j0 in range(i0 + 1, n)]
    kern = PairKernel(params)
    table = pair_table(basis, [pair for pair in weights if pair[2] != 0.0], kern.trig)
    hbar = params.hbar
    # when site s alone moves, the pairs are (k, s) for k in ascending order:
    # the columns of s's site table; otherwise the pair columns are stacked
    moving = np.flatnonzero(vel)
    cols = basis.site_table(moving[0]) if moving.size == 1 else None
    diag = _path_diagonal(params.g, vel)
    terms = hamiltonian_terms(diag, table, a, kern)
    rows = RowKernel.from_terms(basis.dim, terms, cols, basis.states)

    def rhs(t, y):
        terms = hamiltonian_terms(diag, table, a + t * vel, kern)
        rows.set_coefficients([term[-1] for term in terms[1:]])
        return rows.apply(y, divisor=hbar)

    return rhs


# The DOP853 tableau of Hairer, Norsett and Wanner (Solving ODEs I, II.4), as
# far as the stepper reads it: the nodes C, the stage weights A (row s weighs
# K[0..s-1]) and the weights B of the 12 stages, and the error weights E5 and
# E3 (B less the third-order weights) over the 13 slopes.  Each literal is the
# repr of the double that scipy's ``solve_ivp(method="DOP853")`` uses, so the
# steps are scipy's; tests/test_kz.py checks all five bitwise against scipy.
_STAGES = 12
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
])
_A = np.zeros((_STAGES, _STAGES))
_A[np.tril_indices(_STAGES, -1)] = [  # the rows below the diagonal, in order
    0.05260015195876773,
    0.0197250569845379, 0.0591751709536137,
    0.02958758547680685, 0.0, 0.08876275643042054,
    0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242,
    0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125,
    0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023,
    0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
    27.59209969944671, 20.154067550477894, -43.48988418106996,
    0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
    21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627,
    -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
    -3.0467644718982196,
    2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
    12.360567175794303, 0.6433927460157636,
]
_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
])
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0,
])
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0,
])


@dataclass(frozen=True)
class Transport:
    """What ``solve_ivp`` returns: the state at t = 1 and its solver facts."""

    y: np.ndarray
    nfev: int
    success: bool
    message: str


def _weighted_rows(K: list, coeffs, lo: int, hi: int, out: np.ndarray, product: np.ndarray):
    """out = rows lo:hi of sum_j coeffs[j] K[j], in stage order; zero
    coefficients add nothing.  `product` (the shape of out) takes each
    weighted term before it is added."""
    (k0, c0), *rest = [(K[j], c) for j, c in enumerate(coeffs) if c != 0.0]
    np.multiply(k0[lo:hi], c0, out=out)
    for k, c in rest:
        np.multiply(k[lo:hi], c, out=product)
        out += product


def _stage_state(K: list, coeffs, h: float, y: np.ndarray) -> np.ndarray:
    """y + (sum_j coeffs[j] K[j]) h, formed in place by each range of the row pool."""
    out = np.empty_like(y)

    def rows(lo: int, hi: int) -> None:
        part = out[lo:hi]
        _weighted_rows(K, coeffs, lo, hi, part, np.empty_like(part))
        part *= h
        part += y[lo:hi]

    split_rows(rows, y.size)
    return out


def solve_ivp(fun, y0: np.ndarray, rtol: float, atol: float):
    """kzcal's DOP853 stepper: y(1) for y' = fun(t, y), y(0) = y0, real or complex.

    Every step decision is that of scipy's ``solve_ivp(method="DOP853")``
    (Hairer, Norsett and Wanner, Solving ODEs I, II.4): its tableau, held
    here as float64 literals bitwise equal to scipy's arrays, its first step
    (``select_initial_step``), its step control (safety 0.9, factors 0.2 to
    10, exponent -1/8, no growth right after a rejection), its err5/err3
    error norm and its TOO_SMALL_STEP failure, which here also ends a NaN
    step, on which scipy would loop forever.  The stage sums run on the
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
    h_abs = min(100 * h0, h1, 1.0)

    def error_rows(lo, hi):  # the err5 and err3 rows of the step to y_new
        scale = atol + np.maximum(np.abs(y[lo:hi]), np.abs(y_new[lo:hi])) * rtol
        errors = np.empty((2, hi - lo), dtype=y.dtype)
        product = np.empty(hi - lo, dtype=y.dtype)
        for row, E in zip(errors, (_E5, _E3)):
            _weighted_rows(K, E, lo, hi, row, product)
        errors /= scale
        return errors

    t = 0.0
    while t < 1.0:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
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
        sol = solve_ivp(_segment_rhs(conn, a, b), y, path.tolerance, path.atol)
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
    derivative along x_i, computed as omega^T A_k Phi / hbar^k.  Every H_i
    and derivative is real, so a state whose imaginary part is exactly zero
    (an ``integrate_path`` result) runs its powers in float64: their values
    are the real parts of the complex ones, bitwise.  The pairings sum the
    complex cast, as a real sum need not have the bits of the complex one.
    """
    if not 1 <= max_order <= 3:
        raise UnsupportedOrderError(f"max_order must be 1..3, got {max_order}")
    n = conn.params.n
    hbar = conn.params.hbar
    v = state.amplitudes
    if not np.any(v.imag):
        v = np.ascontiguousarray(v.real)
    out = np.empty((max_order, n), dtype=np.complex128)
    for i in range(1, n + 1):
        for k, uk in enumerate(_covariant_powers(i, max_order, v, conn), 1):
            out[k - 1, i - 1] = omega_pairing(StateVector(state.weight, uk)) / hbar**k
    return out


def _commutator_rows(conn: KzConnection, v: np.ndarray):
    """rows(lo, hi) -> C; C[p] is rows lo:hi of [H_i, H_j] v for the p-th pair i < j.

    U = [H_1 v ... H_n v] is formed here, once, by the ranges of
    ``split_rows``: each runs every H_a's row kernel on the real and the
    imaginary part of v as single contiguous columns and writes its own rows
    of U.  Each call then runs rows lo:hi of every H_a on the 2n columns of
    U's real view.  Those are the rows of ``TermOperator.matvec``, column by
    column, so C[p] equals rows lo:hi of H_i (H_j v) - H_j (H_i v) bitwise.
    The H_i and their kernels are built here as well, so calls may run on
    any thread.  A block holds the n products and the rows of every pair's
    commutator: about 15 MB at n = 14.
    """
    n, dim = conn.params.n, conn.basis.dim
    kernels = [conn.hamiltonian(a).row_kernel() for a in range(1, n + 1)]
    parts = [np.ascontiguousarray(part)[:, None] for part in (v.real, v.imag)]
    U = np.empty((dim, n), dtype=np.complex128)
    Ur = U.view(np.float64)  # column 2a + p: part p of H_a v

    def form(lo: int, hi: int) -> None:
        column = np.empty((hi - lo, 1))
        for a, kernel in enumerate(kernels):
            for p, part in enumerate(parts):
                kernel.rows(part, lo, hi, column)
                Ur[lo:hi, 2 * a + p] = column[:, 0]

    split_rows(form, dim)
    I, J = np.triu_indices(n, 1)

    def rows(lo: int, hi: int) -> np.ndarray:
        # W[a, r, b] = (H_a u_b)[lo + r]
        W = np.empty((n, hi - lo, 2 * n))
        for a, kernel in enumerate(kernels):
            kernel.rows(Ur, lo, hi, W[a])
        W = W.view(np.complex128)
        return W[I, :, J] - W[J, :, I]

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
    """Max over site pairs of a bound on the curvature action on a random unit state.

    The curvature in directions (i, j) is F_ij = hbar (d_j H_i - d_i H_j) +
    [H_i, H_j].  d_j H_i and d_i H_j are the one swap P_ij with coefficients
    a = -p'(x_i - x_j) and b = -p'(x_j - x_i); P_ij is a permutation and v a
    unit state, so ||[H_i, H_j] v|| + |hbar (a - b)| bounds ||F_ij v||.  p' is
    even for both kernel kinds, so a == b and the residual is the commutator
    norm bitwise: beside commutativity (on a second random state) the suite
    pins that symmetry of the analytic derivatives.  Path independence of the
    transport itself is the ``kz-integrate`` suite's closed loop.
    """
    conn = KzConnection(params, weight)
    v = StateVector.random(weight, rng).amplitudes
    pairs = ((i, j) for i in range(1, params.n + 1) for j in range(i + 1, params.n + 1))
    residuals = []
    for (i, j), norm in zip(pairs, commutator_norms(conn, v)):
        ((_, _, a),) = conn.derivative(i, j).terms
        ((_, _, b),) = conn.derivative(j, i).terms
        residuals.append(norm + abs(params.hbar * (a - b)))
    return max_or_nan([0.0, *residuals])
