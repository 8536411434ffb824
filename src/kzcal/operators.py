"""Matrix-free elementary operators and the assembled Gaudin Hamiltonians.

Every operator here is an endomorphism of one weight subspace built from three
primitives, each realized by index tables over the enumerated basis:

* ``diag``: multiply amplitudes by a sum of per-letter values of some sites
  (twist, letter counts);
* plain site swap: P_ij, amplitude transport along the swap table;
* signed site swap: T_ij, the swap weighted by sign(letter_i - letter_j),
  which annihilates states with equal letters at the two sites.

Rational Hamiltonian:  H_i = g^(i) + kappa * sum_{j != i} P_ij / (x_i - x_j).
Trigonometric:         H_i = g^(i) + kappa*gamma * sum_{j != i}
                              ( coth(gamma (x_i - x_j)) P_ij + T_ij ).

The pair coefficients come from ``kzcal.kernel``.  Analytic x-derivatives of
both families are provided for the covariant derivative expansion; finite
differences are used only as a test oracle.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache

import numpy as np

from .core import ModelParams, StateVector, WeightVector, check_instance, get_basis
from .errors import InvalidSitesError, InvalidWeightError, UnsupportedOrderError
from .kernel import PairKernel, diag_term, site_terms, t_term, twist_term


def _load_sparsetools():
    """scipy's compiled CSR routines, loaded from the installed scipy's sparse/.

    Only the extension module is loaded; scipy's package import, and
    scipy.sparse's with it, is left to the code that builds sparse matrices.
    The extension registers itself under its own name, so a later
    ``import scipy.sparse`` finds this module and uses it.
    """
    spec = importlib.util.find_spec("scipy")
    roots = (spec.submodule_search_locations or []) if spec else []
    paths = [
        os.path.join(root, "sparse", "_sparsetools" + suffix)
        for root in roots
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    ]
    path = next((path for path in paths if os.path.isfile(path)), None)
    if path is None:
        raise ImportError("kzcal needs scipy's compiled extension sparse/_sparsetools")
    loader = importlib.machinery.ExtensionFileLoader("scipy.sparse._sparsetools", path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(loader.name, path, loader=loader)
    )
    loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools()

__all__ = [
    "TermOperator",
    "RowKernel",
    "SWEEP_ROWS",
    "split_rows",
    "weight_operator",
    "twist_operator",
    "permutation_operator",
    "t_operator",
    "gaudin_hamiltonian",
    "gaudin_derivative",
]


class TermOperator:
    """Linear map of one weight subspace stored as a flat list of primitive terms.

    Terms:
      ("diag", tables, sites)      amplitude-wise multiply by, per state, the
                                   sum over k of tables[k][letter at sites[k]]
                                   (``kernel.diag_term``);
      ("swap", perm, coeff)        coeff * P, transport along perm;
      ("tswap", perm, sign, coeff) coeff * T, signed transport.

    Swap tables are involutions, so the transpose of a plain swap is itself
    and the transpose of a signed swap flips sign.  All operators in this
    package are real matrices, so the transpose action (rmatvec) is enough to
    slide the all-ones covector through products from the left.

    A signed swap's sign must be sign(r - perm[r]) in every row r, as
    ``WeightBasis.swap_table`` gives it: the kernel reads it from perm, so
    other terms raise ValueError.

    Products run through a ``RowKernel`` made from the terms on first use,
    and so does ``materialize``.  `cols` may give the term tables as the
    columns of one int32 table, in term order (a site table of the basis),
    which the kernel then reads with no copy.
    """

    def __init__(self, weight: WeightVector, terms: list[tuple], cols: np.ndarray | None = None):
        self.weight = weight
        self.dim = weight.dimension()
        self.terms = terms
        self._cols = cols

    @property
    def terms(self) -> list[tuple]:
        return self._terms

    @terms.setter
    def terms(self, terms: list[tuple]) -> None:
        signed = [term for term in terms if term[0] == "tswap"]
        if signed:
            basis = get_basis(self.weight)
            if not all(basis.is_swap_sign(perm, sign) for _, perm, sign, _ in signed):
                raise ValueError("a signed swap's sign must be sign(r - perm[r])")
        # new terms drop the kernel and the table that went with the old ones
        self._terms, self._cols, self._kernel = terms, None, None

    def row_kernel(self) -> "RowKernel":
        if self._kernel is None:
            diag = any(term[0] == "diag" for term in self._terms)
            letters = get_basis(self.weight).states if diag else None
            self._kernel = RowKernel.from_terms(self.dim, self._terms, self._cols, letters)
        return self._kernel

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.row_kernel().apply(v)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Transpose action x -> A^T x (plain transpose, no conjugation)."""
        return self.row_kernel().apply(v, transpose=True)

    def apply(self, state: StateVector) -> StateVector:
        if state.weight != self.weight:
            raise InvalidWeightError("state weight does not match operator subspace")
        return StateVector(self.weight, self.matvec(state.amplitudes))

    def materialize(self):
        """The operator as a scipy.sparse CSR matrix, from its row kernel's entries."""
        return self.row_kernel().csr()


#: rows per block of the row kernel, of the commutator sweeps and of every
#: norm's sum of squares
SWEEP_ROWS = 2048


@lru_cache(maxsize=16)
def _unit_rows(dim: int) -> np.ndarray:
    """0..dim as int32: the indptr and the column of a one-entry-per-row block.

    Read-only, since every caller shares it."""
    unit = np.arange(dim + 1, dtype=np.int32)
    unit.flags.writeable = False
    return unit


class RowKernel:
    """One operator's rows, summed by scipy's compiled CSR matvec.

    Row r of the operator times x is

        diag[r] x[r] + sum_c coeffs[e] s_e(r) x[cols[r, c]],

    over the columns c of an int32 table in order, with one entry e per
    column, or with a swap entry and then a signed swap entry per column
    (`paired`).  s_e(r) = 1 for a swap and sign(r - cols[r, c]) for a
    signed swap: that is sign(l_a - l_b) of row r for the pair a < b that
    the column exchanges, since the basis is in lexicographic order, so no
    sign table is read.  The transpose negates the signed coefficients.

    diag[r] is formed for each range from the letters of its states (see
    ``diagonal``): the kernel reads the basis's letters and swap tables and
    stores no array per state of its own.
    The rows start at 0, and ``_sparsetools.csr_matvec`` (``csr_matvecs``
    for several columns of x) adds diag x into them in one pass of one entry
    per row, then the entries of each block of SWEEP_ROWS rows in order;
    zero signed entries are kept.  Every row thus sums the products of the
    terms in term order, bitwise, however the rows are split.  A row sum
    starts at +0 and so never is -0, which makes the zero products, and the
    imaginary zero of a real coefficient times a complex amplitude, add
    nothing.
    """

    def __init__(self, dim: int, cols: np.ndarray, signed, paired: bool = False,
                 diags=(), letters: np.ndarray | None = None):
        self.dim, self.cols, self.paired = dim, cols, paired
        self.diags, self.letters = list(diags), letters  # (tables, sites) per diag term
        # one diag term of one site: its table, and the site whose letters index it
        self.lookup = None
        if len(self.diags) == 1 and len(self.diags[0][1]) == 1:
            self.lookup = self.diags[0][0][0], self.diags[0][1][0]
        self.width = len(signed)
        # with signed entries: the transpose's factor per entry, and the
        # unsigned entries of a layout that is neither paired nor all signed
        self.flip = self.plain = None
        if any(signed):
            self.flip = np.where(signed, -1.0, 1.0)
            if not (paired or all(signed)):
                self.plain = np.flatnonzero(np.logical_not(signed))
        block = min(dim, SWEEP_ROWS)
        self.indptr = np.arange(block + 1, dtype=np.int32) * np.int32(self.width)
        self.data = np.empty((block, self.width))  # the coefficient row, once per row

    @classmethod
    def from_terms(cls, dim: int, terms: list[tuple], cols: np.ndarray | None = None,
                   letters: np.ndarray | None = None):
        """The kernel of the terms, several diag terms summed; `cols` may give
        the tables of the entries, a signed swap after a swap of the same
        table sharing its column.  A signed swap's own sign array is not
        read: ``TermOperator`` checks that it is sign(r - perm[r]).  Diag
        terms read `letters`, the basis states."""
        diags, tables, signed = [], [], []
        for term in terms:
            if term[0] == "diag":
                diags.append(term[1:])
            else:
                tables.append(term[1])
                signed.append(term[0] == "tswap")
        paired = (
            signed == [False, True] * (len(signed) // 2)
            and all(a is b for a, b in zip(tables[::2], tables[1::2]))
        )
        if paired:
            tables = tables[::2]
        if cols is None and len(tables) == 1:  # a lone table is read through a view
            cols = tables[0][:, None].astype(np.int32, copy=False)
        elif cols is None and tables:
            cols = np.stack(tables, axis=1).astype(np.int32)
        elif cols is None:
            cols = np.empty((dim, 0), dtype=np.int32)
        kernel = cls(dim, cols, signed, paired, diags, letters)
        kernel.set_coefficients([term[-1] for term in terms if term[0] != "diag"])
        return kernel

    def set_coefficients(self, coeffs) -> None:
        """The entries' coefficients, in entry order (signed ones before their sign)."""
        self.coeffs = np.asarray(coeffs, dtype=np.float64)
        self.data[:] = self.coeffs

    def diagonal(self, lo: int, hi: int) -> np.ndarray | None:
        """Rows lo:hi of the diagonal; None without a diag term.

        Each term's value starts at +0 and adds tables[k][letter at
        sites[k]] in order; several terms are summed in term order.
        """
        total = None
        for tables, sites in self.diags:
            letters = self.letters[lo:hi]
            # no table holds -0, so +0 plus the first value is that value
            value = np.zeros(hi - lo) if not sites else tables[0].take(letters[:, sites[0]])
            for table, site in zip(tables[1:], sites[1:]):
                value += table.take(letters[:, site])
            total = value if total is None else total + value
        return total

    def signs(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """s_e(r) of rows lo:hi, one column per column of the table: the
        sign of the signed swap that reads it, 1 where only swaps do.

        Written into `out` (int32, of shape (hi - lo, columns)) when given.
        """
        sign = np.subtract(_unit_rows(self.dim)[lo:hi, None], self.cols[lo:hi], out=out)
        np.sign(sign, out=sign)
        if self.plain is not None:
            sign[:, self.plain] = 1
        return sign

    def apply(self, v: np.ndarray, transpose: bool = False, divisor=None) -> np.ndarray:
        """The operator (its transpose) times v, real or complex, on the row pool;
        each range divided by `divisor` when given, as out / divisor divides."""
        out = np.empty(v.shape, dtype=np.result_type(v.dtype, np.float64))
        x = np.ascontiguousarray(v, dtype=out.dtype).view(np.float64).reshape(self.dim, -1)
        y = out.view(np.float64).reshape(self.dim, -1)

        def rows(lo: int, hi: int) -> None:
            self.rows(x, lo, hi, y[lo:hi], transpose)
            if divisor is not None:  # in out's own dtype: complex division for a complex v
                np.divide(out[lo:hi], divisor, out=out[lo:hi])

        split_rows(rows, self.dim)
        return out

    def rows(self, x: np.ndarray, lo: int, hi: int, out: np.ndarray, transpose: bool = False):
        """out = rows lo:hi of the operator (its transpose) times x.

        x is C-contiguous float64 of shape (dim, m); out, of shape
        (hi - lo, m), is C-contiguous too, since the kernel writes into it.
        """
        m = x.shape[1]
        block = self.data.shape[0]
        data = self.data
        if self.flip is not None:  # per call: the signed entries change with the row
            scale = self.coeffs * self.flip if transpose else self.coeffs
            rows = min(block, hi - lo)
            if self.paired:  # each column read by a swap, then by a signed swap
                data, idx = data[:rows].copy(), np.empty((rows, self.width), dtype=np.int32)
                slot, scale = data[:, 1::2], scale[1::2]
            else:
                data = slot = np.empty((rows, self.width))
            sign = np.empty((rows, self.cols.shape[1]), dtype=np.int32)
        out[...] = 0.0
        if self.diags:  # one entry per row: 0 + diag x, never -0
            self._diagonal_rows(x, lo, hi, out)
        if not self.width:
            return
        for c in range(lo, hi, block):
            e = min(c + block, hi)
            ind = cols = self.cols[c:e]
            if self.flip is not None:
                np.multiply(self.signs(c, e, sign[: e - c]), scale, out=slot[: e - c])
                if self.paired:
                    ind = idx[: e - c]
                    ind[:, 0::2] = cols
                    ind[:, 1::2] = cols
            # the kernels take 2-d arrays by their buffers: an input that is
            # not C-contiguous is copied, so out has to be
            y = out[c - lo : e - lo]
            if m == 1:
                _sparsetools.csr_matvec(e - c, self.dim, self.indptr, ind, data, x, y)
            else:
                _sparsetools.csr_matvecs(e - c, self.dim, m, self.indptr, ind, data, x, y)

    def _diagonal_rows(self, x: np.ndarray, lo: int, hi: int, out: np.ndarray) -> None:
        """out += rows lo:hi of diag x, as ``rows`` takes x and out.

        With one column and one table, x[r] table[letter of row r] is one
        pass that reads the table as the vector and x as the entries; the
        product is the same double either way round.
        """
        unit = _unit_rows(self.dim)
        m = x.shape[1]
        if m == 1 and self.lookup is not None:
            table, site = self.lookup
            letters = self.letters[lo:hi, site].astype(np.int32)
            _sparsetools.csr_matvec(
                hi - lo, table.size, unit[: hi - lo + 1], letters, x[lo:hi], table, out
            )
            return
        args = (hi - lo, self.dim, unit[: hi - lo + 1], unit[lo:hi], self.diagonal(lo, hi))
        if m == 1:
            _sparsetools.csr_matvec(*args, x, out)
        else:
            _sparsetools.csr_matvecs(*args[:2], m, *args[2:], x, out)

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Every row's entries in order: their columns, their values (a signed
        entry's coefficient times its sign) and which of them are not zero
        signed entries (None: all of them)."""
        cols = np.repeat(self.cols, 2, axis=1) if self.paired else self.cols
        val, keep = np.empty(cols.shape), None
        val[:] = self.coeffs
        if self.flip is not None:
            signed = slice(1, None, 2) if self.paired else slice(None)
            sign = self.signs(0, self.dim)
            val[:, signed] *= sign
            keep = np.ones(cols.shape, dtype=bool)
            keep[:, signed] = sign != 0
        return cols, val, keep

    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The operator as (rows, cols, values), one entry per row and column it touches.

        An entry sums, from its first term on, the terms of its row that
        fall on its column: the diagonal first, then the entries in order,
        as ``csr`` sums them (its sort keeps that order in rows of up to 16
        terms).  Entries run by row, then column; zero entries are kept.
        """
        dim = self.dim
        cols, val, _ = self._entries()
        diag = self.diagonal(0, dim)
        if diag is not None:
            cols = np.hstack([_unit_rows(dim)[:dim, None], cols])
            val = np.hstack([diag[:, None], val])
        order = np.argsort(cols, axis=1, kind="stable")
        cols = np.take_along_axis(cols, order, axis=1)
        val = np.take_along_axis(val, order, axis=1)
        for c in range(1, cols.shape[1]):  # each term adds to the sum of its run so far
            run = cols[:, c] == cols[:, c - 1]
            val[run, c] += val[run, c - 1]
        last = np.ones(cols.shape, dtype=bool)
        last[:, :-1] = cols[:, 1:] != cols[:, :-1]
        rows = np.broadcast_to(_unit_rows(dim)[:dim, None], cols.shape)
        return rows[last], cols[last], val[last]

    def csr(self):
        """The operator as a scipy.sparse CSR matrix with int32 indices.

        Each row holds the diagonal, then the entries in order, with the zero
        entries of the signed swaps left out and duplicate columns summed.
        scipy.sparse is imported here, on first use: only the tests, the
        partial spectrum above the dense limit and the benchmark's tracer
        build CSR matrices.
        """
        import scipy.sparse as sp

        dim = self.dim
        cols, val, keep = self._entries()
        diag = self.diagonal(0, dim)
        if diag is not None:
            rows = _unit_rows(dim)[:dim, None]
            cols = np.hstack([rows, cols])
            val = np.hstack([diag[:, None], val])
            if keep is not None:
                keep = np.hstack([np.ones(rows.shape, dtype=bool), keep])
        if keep is None:  # every row is full: no mask
            # flatten copies: sum_duplicates sorts the indices of a site table in place
            width = cols.shape[1]
            arrays = (val.ravel(), cols.flatten(), _unit_rows(dim) * np.int32(width))
        else:
            indptr = np.zeros(dim + 1, dtype=np.int32)
            np.cumsum(keep.sum(axis=1, dtype=np.int32), out=indptr[1:])
            arrays = (val[keep], cols[keep], indptr)
        mat = sp.csr_matrix(arrays, shape=(dim, dim))
        mat.sum_duplicates()
        return mat


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: no row range is shorter than this, so sectors below twice this size run
#: on the calling thread alone
MIN_CHUNK_ROWS = 16384

#: threads that take row chunks beside the calling thread
_WORKERS = _usable_cpus() - 1


def _new_pool() -> None:
    """Make the row pool; its threads start on first use.

    A forked child copies the pool but not its threads, so it makes its own.
    """
    global _POOL
    _POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="kzcal-rows") if _WORKERS else None


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def split_rows(fn, stop: int, step: int = 1) -> list:
    """[fn(lo, hi) for contiguous ranges covering rows 0..stop], in row order.

    The ranges run on the usable CPUs at once, the first on the calling
    thread; there are as many as CPUs, but none shorter than MIN_CHUNK_ROWS.
    Every range end but the last is a multiple of `step`.  fn may only read
    data built before the call (operator terms, swap tables, bases), since
    the package's lazy caches are not locked, and must not call split_rows
    itself.  No range then waits on another, so callers' threads that call
    split_rows at the same time share the pool safely.
    """
    full = stop // step  # whole steps; the last range also takes the rest
    parts = min(_WORKERS + 1, full // -(-MIN_CHUNK_ROWS // step))
    if parts < 2:
        return [fn(0, stop)]
    ends = [step * (full * k // parts) for k in range(parts)] + [stop]
    futures = [_POOL.submit(fn, lo, hi) for lo, hi in zip(ends[1:-1], ends[2:])]
    try:
        results = [fn(ends[0], ends[1])]
    finally:
        wait(futures)  # no range outlives the call, even when the first one raises
    return results + [f.result() for f in futures]


# -- site and letter validation ---------------------------------------------


def _check_sites(i: int, j: int, n: int) -> tuple[int, int]:
    """Validate 1-based distinct sites, return 0-based pair."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise InvalidSitesError(f"sites must lie in 1..{n}, got ({i}, {j})")
    if i == j:
        raise InvalidSitesError(f"two-site operator needs distinct sites, got i=j={i}")
    return i - 1, j - 1


def _check_site(i: int, n: int) -> int:
    if not 1 <= i <= n:
        raise InvalidSitesError(f"site must lie in 1..{n}, got {i}")
    return i - 1


# -- assembled operators ------------------------------------------------------


def permutation_operator(i: int, j: int, weight: WeightVector) -> TermOperator:
    basis = get_basis(weight)
    i0, j0 = _check_sites(i, j, basis.n)
    return TermOperator(weight, [("swap", basis.swap_table(i0, j0), 1.0)])


def t_operator(i: int, j: int, weight: WeightVector) -> TermOperator:
    basis = get_basis(weight)
    i0, j0 = _check_sites(i, j, basis.n)
    perm, sign = basis.swap_table(i0, j0), basis.swap_sign(i0, j0)
    return TermOperator(weight, [t_term(perm, sign, i0, j0, 1.0)])


def twist_operator(i: int, params: ModelParams, weight: WeightVector) -> TermOperator:
    basis = get_basis(weight)
    i0 = _check_site(i, basis.n)
    return TermOperator(weight, [twist_term(params, i0)])


def weight_operator(a: int, weight: WeightVector) -> TermOperator:
    """M_a = sum_l e_aa^(l): diagonal count of letter a in each basis state."""
    basis = get_basis(weight)
    if not 1 <= a <= basis.N:
        raise InvalidSitesError(f"letter must lie in 1..{basis.N}, got {a}")
    is_a = np.zeros((basis.n, basis.N))
    is_a[:, a - 1] = 1.0
    return TermOperator(weight, [diag_term(is_a, range(basis.n))])


def gaudin_hamiltonian(i: int, params: ModelParams, weight: WeightVector) -> TermOperator:
    """The i-th Gaudin Hamiltonian on the weight subspace (1-based site)."""
    check_instance(params, weight)
    basis = get_basis(weight)
    i0 = _check_site(i, basis.n)
    terms = site_terms(basis, i0, PairKernel(params), params)
    return TermOperator(weight, terms, basis.site_table(i0))


def gaudin_derivative(
    i: int, j: int, order: int, params: ModelParams, weight: WeightVector
) -> TermOperator:
    """Analytic d^order/dx_j^order of the i-th Gaudin Hamiltonian (1-based sites).

    Only the pair kernels depend on x; the twist and (trigonometric) T terms
    drop out.  Orders 1 and 2 are supported.
    """
    if order not in (1, 2):
        raise UnsupportedOrderError(f"derivative order must be 1 or 2, got {order}")
    check_instance(params, weight)
    basis = get_basis(weight)
    i0 = _check_site(i, basis.n)
    j0 = _check_site(j, basis.n)
    kern = PairKernel(params)
    # d/dx_j of a function of x_i - x_j picks up the chain factor -1 per order
    chain = 1.0 if i0 == j0 or order == 2 else -1.0
    pair_sites = [m for m in range(basis.n) if m != i0] if i0 == j0 else [j0]
    terms: list[tuple] = []
    for m in pair_sites:
        coeff = chain * kern.dp(params.x[i0] - params.x[m], order)
        terms.append(("swap", basis.swap_table(i0, m), float(coeff)))
    if not terms:
        terms = [diag_term(np.empty((0, basis.N)), ())]
    # d_i H_i swaps site i with every other site: the columns of its site table
    return TermOperator(weight, terms, basis.site_table(i0) if i0 == j0 else None)
