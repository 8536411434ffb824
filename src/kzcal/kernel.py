"""The pair kernel of both kinds and the one builder of the Gaudin terms.

One kernel, in four roles:

    role                      rational            trigonometric
    P_ij coefficient of H_i   kappa / dx          kappa gamma coth(gamma dx)
    T_ij coefficient of H_i   (no T term)         kappa gamma
    Calogero pair potential   c / dx^2            c gamma^2 / sinh^2(gamma dx)
    Lax off-diagonal          kappa / dx          kappa gamma / sinh(gamma dx)

with dx = x_i - x_j.  The kernel computes in the caller's number type: float
through numpy, the mpf type of an mpmath context (``ctx.mpf``) through that
context, at its precision.

Every float64 Hamiltonian in the package is a sum of such pair terms over the
swap tables of the basis, assembled by ``hamiltonian_terms``; the H_i and the
path-segment right-hand side both go through it.  The 60-digit momentum
refinement takes its pair coefficients from the same kernel in mpf.
"""

from __future__ import annotations

import numpy as np

from .core import TRIGONOMETRIC, ModelParams, WeightBasis

__all__ = [
    "PairKernel", "pair_table", "t_term", "diag_term", "twist_term", "hamiltonian_terms",
    "site_terms",
]


class PairKernel:
    """The pair kernel of one instance in the number type `num` (float by default).

    An mpf type brings its mpmath context along (``num.context``), whose
    functions then evaluate the kernel.
    """

    def __init__(self, params: ModelParams, num=float):
        self.trig = params.kind == TRIGONOMETRIC
        self.kappa = num(params.kappa)
        self.gamma = num(params.gamma)
        self.lib = getattr(num, "context", np)

    def p(self, dx, w=1):
        """Coefficient of P_ij in w H_i."""
        if self.trig:
            return self.kappa * self.gamma * w / self.lib.tanh(self.gamma * dx)
        return self.kappa * w / dx

    def t(self, w=1):
        """Coefficient of T_ij in w H_i (trigonometric kind only)."""
        return self.kappa * self.gamma * w

    def dp(self, dx, order: int):
        """d^order/d(dx)^order of the P_ij coefficient, order 1 or 2."""
        kappa, gamma = self.kappa, self.gamma
        if not self.trig:
            return -kappa / dx**2 if order == 1 else 2.0 * kappa / dx**3
        sh = self.lib.sinh(gamma * dx)
        if order == 1:
            return -kappa * gamma**2 / sh**2
        return 2.0 * kappa * gamma**3 * self.lib.cosh(gamma * dx) / sh**3

    def potential(self, dx, c):
        """Calogero pair potential with coupling c, e.g. c = kappa (kappa - hbar)."""
        if self.trig:
            return c * self.gamma**2 / self.lib.sinh(self.gamma * dx) ** 2
        return c / dx**2

    def lax(self, dx):
        """Off-diagonal Lax matrix entry; dx may be an array."""
        if self.trig:
            return self.kappa * self.gamma / self.lib.sinh(self.gamma * dx)
        return self.kappa / dx


def pair_table(basis: WeightBasis, pairs, signed: bool) -> list[tuple]:
    """(i0, j0, w, perm, sign) for each (i0, j0, w): the pair's swap table and,
    when `signed`, its sign (None otherwise)."""
    return [
        (i0, j0, w, basis.swap_table(i0, j0), basis.swap_sign(i0, j0) if signed else None)
        for i0, j0, w in pairs
    ]


def t_term(perm: np.ndarray, sign: np.ndarray, i0: int, j0: int, coeff) -> tuple:
    """coeff * T_ij as a term over the swap table of the pair.

    The table's sign is sign(letter_min - letter_max) of the pair, the
    orientation of T_ij for i0 < j0; T_ji = -T_ij flips the coefficient.
    """
    return ("tswap", perm, sign, coeff if i0 < j0 else -coeff)


def diag_term(values, sites) -> tuple:
    """The diagonal sum_k values[k, a_k - 1] as a term, a_k the letter at 0-based site sites[k].

    values has one row of N per site.  The term is ("diag", tables, sites):
    tables[k] is values[k] + 0.0 (no -0) behind one slot that no letter
    reads (NaN), so that a 1-based letter indexes it, and sites is a tuple.
    Per state the sum starts at +0 and adds the rows in order, so no
    operator stores a number per state.
    """
    values = np.asarray(values, dtype=np.float64)
    tables = np.full((len(sites), values.shape[-1] + 1), np.nan)
    tables[:, 1:] = values + 0.0
    return ("diag", tables, tuple(int(s) for s in sites))


def hamiltonian_terms(diag, table, x, kern: PairKernel) -> list[tuple]:
    """Terms of diag + sum over the table of w (p(x_i - x_j) P_ij + t T_ij).

    The diagonal term comes first and each pair contributes its swap, then
    its signed swap; TermOperator applies terms in this order.
    """
    terms: list[tuple] = [diag]
    for i0, j0, w, perm, sign in table:
        terms.append(("swap", perm, kern.p(x[i0] - x[j0], w)))
        if kern.trig:
            terms.append(t_term(perm, sign, i0, j0, kern.t(w)))
    return terms


def twist_term(params: ModelParams, i0: int) -> tuple:
    """The diag term g^(i) at 0-based site i0, over the shared ``params.twist_table``."""
    return ("diag", params.twist_table, (i0,))


def site_terms(basis: WeightBasis, i0: int, kern: PairKernel, params: ModelParams) -> list[tuple]:
    """Terms of H_i at 0-based site i0."""
    table = pair_table(basis, [(i0, j0, 1) for j0 in range(basis.n) if j0 != i0], kern.trig)
    return hamiltonian_terms(twist_term(params, i0), table, params.x, kern)
