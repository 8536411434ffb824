"""Problem parameters, weight-subspace bases, state vectors and the all-ones pairing.

The Hilbert space is (C^N)^{x n}.  A weight subspace is spanned by the tensor
basis states e_{j_1} x ... x e_{j_n} whose letter counts match a fixed
occupation vector (M_1, ..., M_N).  Everything downstream (operators, KZ
integration, spectra) works with amplitude vectors over one such subspace,
enumerated here in a fixed lexicographic order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
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
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "g", tuple(float(v) for v in self.g))
        if self.n < 1 or self.N < 1:
            raise InvalidParamsError(f"need n >= 1 and N >= 1, got n={self.n}, N={self.N}")
        if len(self.x) != self.n:
            raise InvalidParamsError(f"len(x)={len(self.x)} does not match n={self.n}")
        if len(self.g) != self.N:
            raise InvalidParamsError(f"len(g)={len(self.g)} does not match N={self.N}")
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
        from dataclasses import replace as _replace

        return _replace(self, **changes)


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
        object.__setattr__(self, "M", tuple(int(v) for v in self.M))
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
        """Multinomial n! / (M_1! ... M_N!)."""
        dim = math.factorial(self.n)
        for m in self.M:
            dim //= math.factorial(m)
        return dim

    def validate_for(self, n: int) -> None:
        if self.n != n:
            raise InvalidWeightError(f"weight {self.M} sums to {self.n}, expected n={n}")


class WeightBasis:
    """Enumerated basis of one weight subspace with cached index tables.

    states[k] is the k-th multi-index in lexicographic order, stored with
    1-based letters.  Because the lexicographic order coincides with numeric
    order of the base-N digit codes, ranking is a binary search.  Swap tables
    for two-site operators are built on demand and memoized.
    """

    __slots__ = ("weight", "n", "N", "dim", "states", "codes", "_swap_cache")

    def __init__(self, weight: WeightVector, dim_cap: int = DEFAULT_DIM_CAP):
        self.weight = weight
        self.n = weight.n
        self.N = weight.N
        dim = weight.dimension()
        if dim > dim_cap:
            raise DimensionCapError(
                f"subspace dimension {dim} exceeds cap {dim_cap} for weight {weight.M}"
            )
        self.dim = dim
        self.states = _enumerate_states(weight)
        self.codes = self.encode(self.states)
        self._swap_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def encode(self, states: np.ndarray) -> np.ndarray:
        """Base-N digit code of each row; first site is most significant."""
        powers = self.N ** np.arange(self.n - 1, -1, -1, dtype=np.int64)
        return (states.astype(np.int64) - 1) @ powers

    def rank(self, codes: np.ndarray) -> np.ndarray:
        """Row indices of the given codes (codes must belong to the basis)."""
        pos = np.searchsorted(self.codes, codes)
        if np.any(pos >= self.dim) or np.any(self.codes[pos] != codes):
            raise InvalidIndexError("multi-index does not belong to this weight subspace")
        return pos

    def index_of(self, J: Sequence[int]) -> int:
        arr = np.asarray(J, dtype=np.int64).reshape(1, -1)
        return int(self.rank(self.encode(arr))[0])

    def swap_table(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(perm, sign) for the site pair, 0-based sites, canonical i < j.

        perm[k] is the row of states[k] with sites i, j exchanged; sign[k] is
        sign(letter_i - letter_j) of states[k], the amplitude factor picked up
        under the signed swap of T_ij.

        Only adjacent pairs are searched for.  The others are composed from
        (i j) = (j-1 j)(i j-1)(j-1 j), building and keeping (i k) for the k
        between.
        """
        return self._table(min(i, j), max(i, j))

    def _table(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        tab = self._swap_cache.get((i, j))
        if tab is not None:
            return tab
        k = j
        while k > i + 1 and (i, k - 1) not in self._swap_cache:
            k -= 1
        for m in range(k, j + 1):
            if m == i + 1:
                # exchanging letter a at site i with letter b at site m moves
                # the code by (b - a)(N^(n-1-i) - N^(n-1-m))
                b_minus_a = self.states[:, m] - self.states[:, i]
                shift = self.N ** np.int64(self.n - 1 - i) - self.N ** np.int64(self.n - 1 - m)
                perm = self.rank(self.codes + b_minus_a.astype(np.int64) * shift)
            else:
                adj = self._table(m - 1, m)[0]
                perm = adj[self._swap_cache[(i, m - 1)][0][adj]]
            self._swap_cache[(i, m)] = (perm, np.sign(self.states[:, i] - self.states[:, m]))
        return self._swap_cache[(i, j)]

    def letters(self, i: int) -> np.ndarray:
        """1-based letters at 0-based site i, one per basis state."""
        return self.states[:, i]


def _enumerate_states(weight: WeightVector) -> np.ndarray:
    """All multi-indices with the given letter counts, lexicographic order.

    The prefixes grow one site at a time.  ``np.nonzero`` walks the letters
    still available to each prefix in row-major order, which is parent order,
    then letter order, so every level stays lexicographic.
    """
    states = np.empty((1, 0), dtype=np.int8)
    left = np.array([weight.M], dtype=np.int64)
    for _ in range(weight.n):
        parent, letter = np.nonzero(left > 0)
        states = np.column_stack((states[parent], (letter + 1).astype(np.int8)))
        left = left[parent]
        left[np.arange(parent.size), letter] -= 1
    return states


@lru_cache(maxsize=256)
def _cached_basis(weight: WeightVector, dim_cap: int) -> WeightBasis:
    return WeightBasis(weight, dim_cap)


def get_basis(weight: WeightVector, dim_cap: int = DEFAULT_DIM_CAP) -> WeightBasis:
    """Memoized basis for the weight subspace (bases are immutable)."""
    return _cached_basis(weight, dim_cap)


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
        amps[basis.index_of(J)] = 1.0
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
