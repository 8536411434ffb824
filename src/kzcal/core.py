"""Problem parameters, weight-subspace bases, state vectors and the all-ones pairing.

The Hilbert space is (C^N)^{x n}.  A weight subspace is spanned by the tensor
basis states e_{j_1} x ... x e_{j_n} whose letter counts match a fixed
occupation vector (M_1, ..., M_N).  Everything downstream (operators, KZ
integration, spectra) works with amplitude vectors over one such subspace,
enumerated here in a fixed lexicographic order.
"""

from __future__ import annotations

import math
import numbers
import warnings
import weakref
from dataclasses import dataclass, field, replace as _replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    DimensionCapError,
    InvalidIndexError,
    InvalidParamsError,
    InvalidWeightError,
    ModelAssumptionWarning,
    SingularConfigurationError,
)

RATIONAL = "rational"
TRIGONOMETRIC = "trigonometric"
KINDS = (RATIONAL, TRIGONOMETRIC)

#: refuse to enumerate subspaces larger than this unless the caller overrides
DEFAULT_DIM_CAP = 200_000

#: coordinates closer than this are treated as coincident
DEFAULT_EPSILON_X = 1e-8

def _integer(v, error: type, name: str) -> int:
    """int(v) for an integral real number v that is not a boolean; raises `error` otherwise."""
    if type(v) is int:  # the common case, and the whole cost of a weight with many species
        return v
    # int() would read 2.5 as 2 and True as 1; v == int(v) is exact where float(v) overflows
    try:
        integral = isinstance(v, numbers.Real) and v == int(v)
    except (OverflowError, ValueError):  # an infinity or a nan
        integral = False
    if isinstance(v, (bool, np.bool_)) or not integral:
        raise error(f"{name} must be an integer, got {v!r}")
    return int(v)


@dataclass(frozen=True)
class ModelParams:
    """All continuous parameters of one problem instance.

    n marked points at real coordinates x, an N-dimensional twist
    diag(g_1, ..., g_N), the non-stationarity constant hbar, the coupling
    kappa, and (trigonometric kind only) the deformation rate gamma.
    """

    n: int
    N: int
    x: tuple[float, ...]
    g: tuple[float, ...]
    hbar: float
    kappa: float
    gamma: float = 0.0
    kind: str = RATIONAL
    strict: bool = True
    epsilon_x: float = DEFAULT_EPSILON_X

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, InvalidParamsError, "n"))
        object.__setattr__(self, "N", _integer(self.N, InvalidParamsError, "N"))
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "g", tuple(float(v) for v in self.g))
        if self.n < 1 or self.N < 1:
            raise InvalidParamsError(f"need n >= 1 and N >= 1, got n={self.n}, N={self.N}")
        if len(self.x) != self.n:
            raise InvalidParamsError(f"len(x)={len(self.x)} does not match n={self.n}")
        if len(self.g) != self.N:
            raise InvalidParamsError(f"len(g)={len(self.g)} does not match N={self.N}")
        if not all(map(math.isfinite, (*self.x, *self.g, self.hbar, self.kappa, self.gamma))):
            raise InvalidParamsError("x, g, hbar, kappa and gamma must be finite")
        if self.hbar == 0.0:
            raise InvalidParamsError("hbar must be nonzero")
        if self.kind not in KINDS:
            raise InvalidParamsError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.gamma < 0.0:
            raise InvalidParamsError(f"gamma must be >= 0, got {self.gamma}")
        if self.kind == TRIGONOMETRIC and self.gamma == 0.0:
            raise InvalidParamsError("trigonometric kind requires gamma > 0")
        gap = min_pairwise_gap(self.x)
        if self.n > 1 and gap <= self.epsilon_x:
            raise SingularConfigurationError(
                f"minimum coordinate gap {gap:.3e} is below epsilon_x={self.epsilon_x:.3e}"
            )
        issues = []
        if len(set(self.g)) != self.N:
            issues.append("twist values g_a are not pairwise distinct")
        if any(v == 0.0 for v in self.g):
            issues.append("some twist value g_a is zero")
        if issues:
            msg = "; ".join(issues)
            if self.strict:
                raise InvalidParamsError(msg + " (pass strict=False to allow)")
            warnings.warn(msg, ModelAssumptionWarning, stacklevel=2)
        if self.n < self.N:
            warnings.warn(
                f"n={self.n} < N={self.N}; formulas stay well defined but this "
                "leaves the usual regime",
                ModelAssumptionWarning,
                stacklevel=2,
            )

    def replace(self, **changes) -> "ModelParams":
        return _replace(self, **changes)

    @cached_property
    def twist_table(self) -> np.ndarray:
        """The table of g that the twist term of every H_i reads
        (``kernel.diag_term``): made once per instance, read-only and shared."""
        from .kernel import diag_term  # kernel imports this module

        table = diag_term([self.g], (0,))[1]
        table.flags.writeable = False
        return table


def max_or_nan(values) -> float:
    """Largest of the values, NaN when any of them is NaN.

    The builtin max compares with <, so max(1e-15, nan) returns 1e-15 and a
    failed sub-check would pass unnoticed.
    """
    return float(np.max(np.asarray(values, dtype=float)))


def min_pairwise_gap(x: Sequence[float]) -> float:
    xs = np.sort(np.asarray(x, dtype=float))
    if xs.size < 2:
        return math.inf
    return float(np.min(np.diff(xs)))


@dataclass(frozen=True)
class WeightVector:
    """Occupation numbers (M_1, ..., M_N); letter a occurs M_a times."""

    M: tuple[int, ...]

    def __post_init__(self):
        M = tuple(_integer(v, InvalidWeightError, "occupation number") for v in self.M)
        object.__setattr__(self, "M", M)
        if any(v < 0 for v in self.M):
            raise InvalidWeightError(f"occupation numbers must be >= 0, got {self.M}")
        if len(self.M) < 1:
            raise InvalidWeightError("weight vector must have at least one entry")

    @property
    def n(self) -> int:
        return sum(self.M)

    @property
    def N(self) -> int:
        return len(self.M)

    def dimension(self) -> int:
        """Multinomial n! / (M_1! ... M_N!), over the nonzero M_a; computed once per weight."""
        return self._dimension

    @cached_property
    def _dimension(self) -> int:
        return math.factorial(self.n) // math.prod(map(math.factorial, filter(None, self.M)))

    def validate_for(self, n: int) -> None:
        if self.n != n:
            raise InvalidWeightError(f"weight {self.M} sums to {self.n}, expected n={n}")


def check_instance(params: ModelParams, weight: WeightVector) -> None:
    """Raise InvalidWeightError unless weight is a sector of params: n sites, N letters."""
    weight.validate_for(params.n)
    if weight.N != params.N:
        raise InvalidWeightError(f"weight has {weight.N} species but N = {params.N}")


class WeightBasis:
    """Enumerated basis of one weight subspace with cached index tables.

    states[k] is the k-th multi-index in lexicographic order, with 1-based
    letters in the smallest signed dtype that holds N, stored column by
    column (states[:, i] is contiguous).  The swap tables of
    all sites are built together on first use and kept; a signed swap's sign
    array is kept only while some operator holds it.
    """

    __slots__ = ("weight", "n", "N", "dim", "states", "_column", "_step", "_table", "_sites",
                 "_swap_cache", "_signs")

    def __init__(self, weight: WeightVector, dim_cap: int = DEFAULT_DIM_CAP):
        self.weight, self.n, self.N, self.dim = weight, weight.n, weight.N, weight.dimension()
        if self.dim > dim_cap:
            raise DimensionCapError(
                f"subspace dimension {self.dim} exceeds cap {dim_cap} for weight {weight.M}"
            )
        self.states, (self._column, self._step, self._table) = _enumerate(weight, self.dim)
        self._sites: list[np.ndarray] | None = None
        self._swap_cache: dict[tuple[int, int], np.ndarray] = {}
        # id(perm) -> the sign of that cached table, while an operator holds it
        self._signs: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def _offsets(self, states) -> tuple[np.ndarray, np.ndarray]:
        """Per site, each letter's column of the rank table and its prefix's flat offset."""
        col = np.take(self._column, states.T, mode="clip")
        steps = self._step[col]
        return col, np.cumsum(steps, axis=0) - steps

    def rank(self, states) -> np.ndarray:
        """Lexicographic rank of each row of states; InvalidIndexError unless all are states."""
        col, offset = self._offsets(np.asarray(states, dtype=np.int64))
        ranks = np.take(self._table, offset + col, mode="clip").sum(axis=0)
        if np.shape(states)[1:] != (self.n,) or np.any(ranks >= self.dim):
            raise InvalidIndexError("multi-index does not belong to this weight subspace")
        return ranks

    def swap_table(self, i: int, j: int) -> np.ndarray:
        """perm for the site pair, 0-based sites, in either order.

        perm[k] is the row of states[k] with sites i, j exchanged, a column
        of ``site_table(min(i, j))``.  A plain swap needs nothing else; the
        signed swap of T_ij takes its sign from ``swap_sign``.
        """
        i, j = min(i, j), max(i, j)
        perm = self._swap_cache.get((i, j))
        if perm is None:
            perm = self._swap_cache[(i, j)] = self.site_table(i)[:, j - 1]
        return perm

    def swap_sign(self, i: int, j: int) -> np.ndarray:
        """sign(letter_i - letter_j) of every state as int8, canonical i < j.

        The amplitude factor picked up under the signed swap of T_ij; the
        basis is in lexicographic order, so sign[k] = sign(k - perm[k]).  One
        array per pair is built and shared while some operator holds it, and
        freed with the last of them.
        """
        perm = self.swap_table(i, j)
        sign = self._signs.get(id(perm))
        if sign is None:
            i, j = min(i, j), max(i, j)
            sign = np.sign(self.states[:, i] - self.states[:, j]).astype(np.int8, copy=False)
            sign.flags.writeable = False  # is_swap_sign trusts it by identity
            self._signs[id(perm)] = sign
        return sign

    def is_swap_sign(self, perm: np.ndarray, sign: np.ndarray) -> bool:
        """Whether sign[k] = sign(k - perm[k]) for every row k, as it is for
        the arrays of ``swap_sign``; those are recognized without a pass."""
        if self._signs.get(id(perm)) is sign:  # the basis keeps its tables alive
            return True
        return np.array_equal(sign, np.sign(np.arange(self.dim) - perm))

    def site_table(self, i: int) -> np.ndarray:
        """S_i, int32 of shape (dim, n - 1), C-contiguous: column c exchanges
        0-based site i with its c-th other site, the others in ascending order.

        Each pair is stored in the tables of both its sites, so that the
        exchanges of one site are the rows of one table.
        """
        if self._sites is None:
            self._sites = self._site_tables()
        return self._sites[i]

    def _site_tables(self) -> list[np.ndarray]:
        """Every S_i, from the adjacent exchanges: four rank-table reads each.

        The other pairs are composed, (i k) = (k-1 k)(i k-1)(k-1 k), once
        each; a pair below i is read back from the table of its first site.
        A site's columns are the rows of one scratch table, then transposed.
        Every step runs on the row pool.
        """
        from .operators import split_rows  # operators imports this module

        n, dim = self.n, self.dim
        adjacent = np.empty((max(n - 1, 0), dim), dtype=np.intp)

        def exchange(lo: int, hi: int) -> None:
            col, offset = self._offsets(self.states[lo:hi])
            for m in range(n - 1):  # only the rank terms of sites m, m + 1 change
                a, b, here = col[m], col[m + 1], offset[m]
                adjacent[m, lo:hi] = (
                    np.arange(lo, hi) - self._table[here + a] - self._table[offset[m + 1] + b]
                    + self._table[here + b] + self._table[here + self._step[b] + a]
                )

        split_rows(exchange, dim)
        scratch = np.empty((max(n - 1, 0), dim), dtype=np.int32)
        tables: list[np.ndarray] = []
        for i in range(n):
            perm = None
            for k in range(i + 1, n):
                adj = adjacent[k - 1]
                if perm is None:
                    perm = adj
                else:  # the whole previous column is read, so one step at a time
                    prev, perm = perm, np.empty(dim, dtype=np.intp)
                    split_rows(lambda lo, hi: np.take(adj, prev[adj[lo:hi]], out=perm[lo:hi]), dim)
                scratch[k - 1] = perm
            table = np.empty((dim, n - 1), dtype=np.int32)

            def place(lo: int, hi: int) -> None:
                for k in range(i):
                    scratch[k, lo:hi] = tables[k][lo:hi, i - 1]
                table[lo:hi] = scratch[:, lo:hi].T

            split_rows(place, dim)
            tables.append(table)
        for table in tables:  # shared by every operator of the basis
            table.flags.writeable = False
        return tables


def _enumerate(weight: WeightVector, dim: int) -> tuple[np.ndarray, tuple]:
    """The states in lexicographic order, Fortran-ordered, and (column, step,
    table) of ``WeightBasis.rank``.

    A prefix's letter counts P <= M are a row in mixed radix M_c + 1 over the
    K occupied species c (the last fastest) at flat offset sum_c P_c step[c].
    ``np.nonzero`` walks the species each prefix has room for in parent, then
    letter order.  Entry (P, c) counts the arrangements of the letters left
    that start with a species before c, by Mult(R) = sum_c Mult(R - e_c), so
    it is below dim; column K (other letters) and used-up species hold dim.
    """
    occupied = np.flatnonzero(weight.M)
    counts, K = np.array(weight.M, dtype=np.int64)[occupied], occupied.size
    radix = (counts + 1).tolist()
    weights = np.array([math.prod(radix[c + 1:]) for c in range(K)], dtype=np.int64)
    room = np.arange(math.prod(radix))[:, None] // weights % radix < counts
    labels = (occupied + 1).astype(np.min_scalar_type(-weight.N - 1))
    states, prefix = np.empty((1, 0), dtype=labels.dtype), np.zeros(1, dtype=np.int64)
    for _ in range(weight.n):
        parent, species = np.nonzero(room[prefix])
        states = np.column_stack((states[parent], labels[species]))
        prefix = prefix[parent] + weights[species]
    table = np.full((len(room), K + 1), dim, dtype=np.int64)
    mult = [0] * (len(room) - 1) + [1]  # the full prefix leaves one arrangement
    for p in range(len(room) - 2, -1, -1):
        for c in np.flatnonzero(room[p]):
            table[p, c], mult[p] = mult[p], mult[p] + mult[p + weights[c]]
    column = np.full(weight.N + 2, K, dtype=np.intp)
    column[occupied + 1] = np.arange(K)
    # stored site by site, so that the letters of one site are contiguous
    return np.asfortranarray(states), (column, np.append(weights, 0) * (K + 1), table.ravel())


@lru_cache(maxsize=256)
def _cached_basis(weight: WeightVector, dim_cap: int) -> WeightBasis:
    return WeightBasis(weight, dim_cap)


def get_basis(weight: WeightVector, dim_cap: int = DEFAULT_DIM_CAP) -> WeightBasis:
    """Memoized basis for the weight subspace (bases are immutable)."""
    return _cached_basis(weight, dim_cap)


def release_bases() -> None:
    """Forget every memoized basis; its tables go with the last operator that holds them."""
    _cached_basis.cache_clear()


def weight_of(J: Sequence[int], N: int) -> WeightVector:
    """Occupation vector of one multi-index."""
    counts = [0] * N
    for v in J:
        if not 1 <= int(v) <= N:
            raise InvalidIndexError(f"index entry {v} outside 1..{N}")
        counts[int(v) - 1] += 1
    return WeightVector(tuple(counts))


@dataclass
class StateVector:
    """Complex amplitudes over the canonical basis of one weight subspace.

    Treated as immutable after construction; operators return new instances.
    """

    weight: WeightVector
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise InvalidWeightError("amplitudes must be a 1-d array")
        if amps.shape[0] != self.weight.dimension():
            raise InvalidWeightError(
                f"amplitude count {amps.shape[0]} does not match subspace "
                f"dimension {self.weight.dimension()}"
            )
        self.amplitudes = amps

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def zeros(cls, weight: WeightVector) -> "StateVector":
        return cls(weight, np.zeros(weight.dimension(), dtype=np.complex128))

    @classmethod
    def uniform(cls, weight: WeightVector) -> "StateVector":
        dim = weight.dimension()
        return cls(weight, np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128))

    @classmethod
    def basis_state(cls, weight: WeightVector, J: Sequence[int]) -> "StateVector":
        basis = get_basis(weight)
        amps = np.zeros(basis.dim, dtype=np.complex128)
        amps[basis.rank([J])[0]] = 1.0
        return cls(weight, amps)

    @classmethod
    def random(cls, weight: WeightVector, rng: np.random.Generator) -> "StateVector":
        dim = weight.dimension()
        state = cls(weight, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        return cls(weight, state.amplitudes / state.norm())

    def copy(self) -> "StateVector":
        return StateVector(self.weight, self.amplitudes.copy())

    def norm(self) -> float:
        # a plain reduction: numpy's BLAS would split a large state over its threads
        v = self.amplitudes
        return float(np.sqrt(np.sum(v.real * v.real + v.imag * v.imag)))


def omega_pairing(state: StateVector) -> complex:
    """Pairing with the all-ones covector: the plain sum of amplitudes."""
    return complex(np.sum(state.amplitudes))
