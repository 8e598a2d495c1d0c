"""Bounded-variable LP layer used by the branch-and-cut driver.

Models are maximization problems over a fixed column set with a growable
row set (cuts append rows).  A model holds numbers only: no column or row
labels, and no text rendering.  It keeps its rows once, in growable numpy
arrays: column, coefficient and row id per nonzero, row start offsets, and
row lower and upper bounds.  Capacities double as they fill (one capacity
test per append), so appending a row costs amortized O(1).  ``add_rows``
appends any number of rows given in CSR form, all of one sense, in one
call; ``add_row`` is its one-row wrapper for a {column: coefficient} dict.
Both drop zero coefficients, keep the rest in the order given, and reject
malformed CSR data, bad senses, non-finite data, invalid columns and a
column repeated within a row at append time; an error names the row by its
index.  An append is a fixed handful of numpy calls whatever its size: the
repeat check sorts only a block whose columns fall inside a row, and row
ids are filled when the rows are handed to HiGHS, in one call per solve.

Each model owns one persistent HiGHS instance, created on its first solve:
single-threaded dual simplex, no presolve, output off, so identical call
sequences give identical results.  A solve hands HiGHS the slice of rows
added since the previous one, pushes the current column bounds and
objective (callers change them in place or reassign them between solves),
and runs from the previous basis -- every solve after the first is warm,
with no argument to ask for it.  ``set_basis`` hands the next solve a
starting basis instead (HiGHS's status codes: 0 at lower, 1 basic, 2 at
upper); it is passed to HiGHS after the pending rows, and rows appended
after the call start basic.  A solve never reports "optimal" unless its
primal residuals are at most 1e-7; the row activities are recomputed from
the model's own arrays (``np.bincount`` over the row ids), independent of
HiGHS's copy.  A point HiGHS calls optimal that fails this gate is
recomputed once from a fresh factorization of the same basis
(``setBasis(getBasis())``, then ``run``): the updated factorization can
drift along a long chain of warm starts, and the refactor takes no
iterations.  If the point still fails, the solve reports status
"iteration_limit".  A non-finite objective raises ValueError at the solve.

HiGHS is driven through scipy's private ``scipy.optimize._highspy._core._Highs``
class because the public ``linprog`` builds a fresh model on every call and
keeps no basis; pyproject.toml pins the scipy range that offers its methods
and that keeps the binding at ``scipy/optimize/_highspy/_core<suffix>``.
The binding is loaded from that file, found with
``importlib.util.find_spec("scipy")`` (which locates scipy without importing
it), and registered in ``sys.modules`` under its own name before it runs.
Importing it the ordinary way would first run ``scipy/optimize/__init__.py``,
which pulls in linalg, sparse, special, fft and linprog: about three
quarters of the package's import time, for one extension that loads in a
few milliseconds.  There is no other import path.  If
``scipy.optimize`` was imported first, its module is reused; if it is
imported later, it finds this one.  Either way the process holds one
binding and one ``_Highs`` type.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

from .tolerances import FEAS_TOL

_HIGHS_CORE = "scipy.optimize._highspy._core"


def _load_highs_core():
    """scipy's HiGHS binding, without running scipy.optimize's package
    import; see the module docstring."""
    if _HIGHS_CORE in sys.modules:
        return sys.modules[_HIGHS_CORE]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scflp needs scipy, which is not installed")
    folders = [Path(d, "optimize", "_highspy") for d in scipy_spec.submodule_search_locations or ()]
    paths = [f / f"_core{suffix}" for f in folders for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"no HiGHS binding _core{EXTENSION_SUFFIXES[0]} in {', '.join(map(str, folders))}")
    spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_CORE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS_CORE]
        raise
    return module


highs_core = _load_highs_core()

_MS = highs_core.HighsModelStatus
_STATUS = {_MS.kOptimal: "optimal", _MS.kInfeasible: "infeasible", _MS.kUnbounded: "unbounded"}
# simplex strategy 1 is serial dual simplex; allow_unbounded_or_infeasible
# stays off (HiGHS's default), so HiGHS decides infeasible vs unbounded itself
_OPTIONS = {"output_flag": False, "threads": 1, "solver": "simplex", "simplex_strategy": 1, "presolve": "off"}
_SENSES = ("<=", ">=", "=")
_BS = highs_core.HighsBasisStatus
_BASIS_STATUS = np.array([_BS.kLower, _BS.kBasic, _BS.kUpper], dtype=object)  # indexed by status code


class LpModel:
    """Dense-column maximization LP with mutable variable bounds."""

    def __init__(self, objective, lower, upper):
        self.objective = np.asarray(objective, dtype=float).copy()
        self.lower = np.asarray(lower, dtype=float).copy()
        self.upper = np.asarray(upper, dtype=float).copy()
        self.ncols = self.objective.size
        if self.lower.shape != (self.ncols,) or self.upper.shape != (self.ncols,):
            raise ValueError("bound arrays must match the objective length")
        self._highs = None  # created on the first solve
        self._cols = np.arange(self.ncols, dtype=np.int32)
        self._synced = 0  # rows already passed to HiGHS
        self._basis = None  # (col codes, row codes) for the next solve, from set_basis
        # the row store; only the first _nnz / _nrows entries are live
        self._nrows = 0
        self._nnz = 0
        # 64-bit indices: numpy gathers and bincounts with them 1.5-3x faster
        # than with the 32-bit ones HiGHS takes; _sync converts each new slice
        self._index = np.empty(0, np.int64)  # column of each nonzero
        self._value = np.empty(0)
        self._row_id = np.empty(0, np.int64)  # filled by _sync, for the rows it hands HiGHS
        self._start = np.zeros(1, np.int64)  # row k: nonzeros _start[k] to _start[k + 1]
        self._row_lo = np.empty(0)
        self._row_hi = np.empty(0)

    def _reserve(self, nnz: int, nrows: int):
        """Grow the row store to hold nnz nonzeros and nrows rows; a group
        that must grow at least doubles its capacity, and the first
        allocation holds a small model's base rows and first cuts."""

        def grown(arr, live, cap):
            out = np.empty(cap, arr.dtype)
            out[:live] = arr[:live]
            return out

        if nnz > self._value.size:
            cap = max(nnz, 2 * self._value.size, 256)
            self._index, self._value, self._row_id = (
                grown(a, self._nnz, cap) for a in (self._index, self._value, self._row_id)
            )
        if nrows > self._row_lo.size:
            cap = max(nrows, 2 * self._row_lo.size, 32)
            self._start = grown(self._start, self._nrows + 1, cap + 1)
            self._row_lo, self._row_hi = (grown(a, self._nrows, cap) for a in (self._row_lo, self._row_hi))

    @property
    def nrows(self) -> int:
        return self._nrows

    def add_row(self, coef: dict[int, float], sense: str, rhs: float) -> int:
        """Append one row given as a {column: coefficient} dict.  Returns
        the row's index."""
        index = np.fromiter(coef.keys(), np.int64, len(coef))
        value = np.fromiter(coef.values(), float, len(coef))
        return self.add_rows((0, index.size), index, value, sense, rhs)

    def add_rows(self, indptr, index, value, sense: str, rhs) -> int:
        """Append k rows in CSR form: row t has the columns
        index[indptr[t]:indptr[t + 1]] with coefficients value[...].  sense
        is one of "<=", ">=", "=" for every row; rhs is one value for every
        row or one per row.  Zero coefficients are dropped and the rest kept
        in the order given; the columns of a row must be distinct.  Invalid
        data raises ValueError and leaves the model unchanged.  Returns the
        first new row's index."""
        indptr = np.asarray(indptr, dtype=np.int64)
        index = np.asarray(index, dtype=np.int64)
        value = np.asarray(value, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        k = indptr.size - 1
        malformed = k < 0 or index.ndim != 1 or indptr[0] != 0 or indptr[-1] != index.size or value.shape != index.shape
        if malformed or (k > 1 and np.count_nonzero(indptr[1:] < indptr[:-1])):  # one row's count is index.size
            raise ValueError("malformed row data: indptr must rise from 0 to the number of entries")
        if rhs.shape not in ((), (k,)):
            raise ValueError(f"{rhs.size} right-hand sides for {k} rows")
        if not isinstance(sense, str) or sense not in _SENSES:
            raise ValueError(f"bad row sense {sense!r}")
        lo = -np.inf if sense == "<=" else rhs
        hi = np.inf if sense == ">=" else rhs
        r0 = self._nrows
        # a sum of squares is finite when every entry is; it can also
        # overflow, so the culprit is found before anything is refused
        if not math.isfinite(value @ value + rhs.sum()):
            bad = np.flatnonzero(~np.isfinite(np.broadcast_to(rhs, (k,))))
            if bad.size:
                raise ValueError(f"row {r0 + bad[0]} has a non-finite right-hand side")
            bad = np.flatnonzero(~np.isfinite(value))
            if bad.size:
                t = int(np.searchsorted(indptr, bad[0], side="right")) - 1
                raise ValueError(f"row {r0 + t} has a non-finite coefficient")
        if np.count_nonzero(value) < value.size:
            keep = value != 0.0
            indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]  # kept entries before each start
            index, value = index[keep], value[keep]
        # one test for both ends: a negative column reads as a huge unsigned one
        if index.size and np.maximum.reduce(index.view(np.uint64)) >= self.ncols:
            bad = index[(index < 0) | (index >= self.ncols)][0]
            raise ValueError(f"row references invalid column {bad}")
        r1 = r0 + k
        # HiGHS refuses a row that repeats a column.  Columns that rise
        # strictly inside each row repeat none, so only a block whose columns
        # fall (do not rise) somewhere other than at a row start is sorted
        fall = index[1:] <= index[:-1]
        inner = np.count_nonzero(fall)
        if inner:  # indptr is sorted and ends past every fall position
            at = fall.nonzero()[0] + 1
            inner = np.count_nonzero(indptr[np.searchsorted(indptr, at)] != at)
        if inner:
            key = np.repeat(np.arange(r0, r1), np.diff(indptr)) * self.ncols + index
            key.sort()
            dup = np.flatnonzero(key[1:] == key[:-1])
            if dup.size:
                r, j = divmod(int(key[dup[0]]), self.ncols)
                raise ValueError(f"row {r} repeats column {j}")

        n0 = self._nnz
        n1 = n0 + index.size
        if n1 > self._value.size or r1 > self._row_lo.size:
            self._reserve(n1, r1)
        self._index[n0:n1] = index
        self._value[n0:n1] = value
        np.add(indptr[1:], n0, out=self._start[r0 + 1 : r1 + 1])
        self._row_lo[r0:r1] = lo
        self._row_hi[r0:r1] = hi
        self._nrows, self._nnz = r1, n1
        return r0

    def set_basis(self, col_status, row_status):
        """Start the next solve from the basis given by one status code per
        column and per current row: 0 at lower, 1 basic, 2 at upper.  Rows
        appended after the call start basic.  Wrong lengths, unknown codes or
        a basic count other than the row count raise ValueError and leave
        the model unchanged; a basis HiGHS refuses raises ValueError at the
        next solve."""
        col = np.asarray(col_status)
        row = np.asarray(row_status)
        if col.shape != (self.ncols,) or row.shape != (self._nrows,):
            raise ValueError(f"basis of {col.size} columns and {row.size} rows for a model of {self.ncols} and {self._nrows}")
        codes = np.concatenate((col, row))
        if not np.isin(codes, (0, 1, 2)).all():
            raise ValueError("basis status codes must be 0 (at lower), 1 (basic) or 2 (at upper)")
        basic = np.count_nonzero(codes == 1)
        if basic != self._nrows:
            raise ValueError(f"basis has {basic} basic entries for {self._nrows} rows")
        self._basis = (codes[: self.ncols].astype(np.intp), codes[self.ncols :].astype(np.intp))

    def _sync(self):
        """Bring the HiGHS instance up to date with the model: append the
        rows added since the last solve, push column bounds and objective,
        then pass HiGHS a basis given to set_basis.  A non-finite objective
        raises ValueError before anything is pushed."""
        obj = self.objective
        if not math.isfinite(obj @ obj):  # also on overflow: the search decides
            bad = np.flatnonzero(~np.isfinite(obj))
            if bad.size:
                raise ValueError(f"column {bad[0]} has a non-finite objective coefficient")
        if self._highs is None:
            self._highs = highs_core._Highs()
            for key, value in _OPTIONS.items():
                self._highs.setOptionValue(key, value)
            _check(self._highs.addVars(self.ncols, self.lower, self.upper), "addVars")
            self._highs.changeObjectiveSense(highs_core.ObjSense.kMaximize)
        r0, r1 = self._synced, self._nrows
        if r1 > r0:
            start = self._start[r0 : r1 + 1]
            n0, n1 = int(start[0]), int(start[-1])
            starts = (start[:-1] - n0).astype(np.int32)
            self._row_id[n0:n1] = np.repeat(np.arange(r0, r1), start[1:] - start[:-1])
            cols = self._index[n0:n1].astype(np.int32)
            lo, hi = self._row_lo[r0:r1], self._row_hi[r0:r1]
            _check(self._highs.addRows(r1 - r0, lo, hi, n1 - n0, starts, cols, self._value[n0:n1]), "addRows")
            self._synced = r1
        _check(self._highs.changeColsBounds(self.ncols, self._cols, self.lower, self.upper), "changeColsBounds")
        _check(self._highs.changeColsCost(self.ncols, self._cols, self.objective), "changeColsCost")
        if self._basis is not None:
            col, row = self._basis
            self._basis = None
            basis = highs_core.HighsBasis()
            basis.col_status = _BASIS_STATUS[col].tolist()
            basis.row_status = _BASIS_STATUS[row].tolist() + [_BS.kBasic] * (r1 - row.size)
            basis.valid = True
            _check(self._highs.setBasis(basis), "setBasis")
        return self._highs

    def _row_activity(self, x: np.ndarray) -> np.ndarray:
        """A @ x from the row store."""
        nnz = self._nnz
        return np.bincount(
            self._row_id[:nnz], weights=self._value[:nnz] * x[self._index[:nnz]], minlength=self._nrows
        )


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    objective: float
    x: np.ndarray | None
    max_violation: float = 0.0
    message: str = ""


def _check(status, call: str):
    if status == highs_core.HighsStatus.kError:
        raise ValueError(f"HiGHS rejected the model data in {call}")


def lp_solve(model: LpModel) -> LpResult:
    """Maximize the model objective; see module docstring for guarantees."""
    highs = model._sync()
    highs.run()
    verdict = highs.getModelStatus()
    message = highs.modelStatusToString(verdict)
    status = _STATUS.get(verdict, "iteration_limit")  # time and iteration limits, solver errors
    if status != "optimal":
        return LpResult(status, float("nan"), None, float("inf"), message)
    x, viol = _primal(model, highs)
    if not viol <= FEAS_TOL:  # a nan residual fails too
        # the updated factorization can drift on long warm-start chains;
        # refactoring from the same basis recomputes the point from scratch
        highs.setBasis(highs.getBasis())
        highs.run()
        if highs.getModelStatus() == _MS.kOptimal:
            x, viol = _primal(model, highs)
        if not viol <= FEAS_TOL:
            return LpResult("iteration_limit", float("nan"), None, viol, "residuals above tolerance")
    return LpResult("optimal", float(model.objective @ x), x, viol, message)


def _primal(model: LpModel, highs) -> tuple[np.ndarray, float]:
    """HiGHS's primal point and its largest bound or row violation,
    recomputed from the model's own arrays."""
    x = np.asarray(highs.getSolution().col_value, dtype=float)
    ax = model._row_activity(x)
    n = model.nrows
    gaps = np.concatenate((model.lower - x, x - model.upper, model._row_lo[:n] - ax, ax - model._row_hi[:n]))
    return x, float(gaps.max(initial=0.0))
