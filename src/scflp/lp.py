"""Bounded-variable LP layer used by the branch-and-cut driver.

Models are maximization problems over a fixed column set with a growable
row set (cuts append rows).  Each model owns one persistent HiGHS instance,
created on its first solve: single-threaded dual simplex, no presolve,
output off, so identical call sequences give identical results.  A solve
appends only the rows added since the previous one, pushes the current
column bounds and objective (callers change them in place or reassign
them between solves), and runs from the previous basis -- every solve after
the first is warm, with no argument to ask for it.  A solve never reports
"optimal" with primal residuals above 1e-7, measured by one sparse mat-vec
over a CSR copy of the rows; numerical trouble surfaces as status
"iteration_limit" instead.

HiGHS is driven through scipy's private ``scipy.optimize._highspy._core._Highs``
class because the public ``linprog`` builds a fresh model on every call and
keeps no basis; pyproject.toml pins the scipy range that offers its methods.

``to_lp_text`` renders a model in the LP interchange format (Maximize /
Subject To / Bounds / End sections, one row per line, ``<=``, ``>=``, ``=``
relations, 12 significant digits) so external solvers can cross-check any
model this package builds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as highs_core

FEAS_TOL = 1e-7

_MS = highs_core.HighsModelStatus
_STATUS = {_MS.kOptimal: "optimal", _MS.kInfeasible: "infeasible", _MS.kUnbounded: "unbounded"}
# simplex strategy 1 is serial dual simplex
_OPTIONS = {"output_flag": False, "threads": 1, "solver": "simplex", "simplex_strategy": 1, "presolve": "off"}


@dataclass
class LpRow:
    coef: dict[int, float]
    sense: str  # "<=", ">=", "="
    rhs: float
    tag: str = ""


class LpModel:
    """Dense-column maximization LP with mutable variable bounds."""

    def __init__(self, objective, lower, upper, names=None):
        self.objective = np.asarray(objective, dtype=float)
        self.lower = np.asarray(lower, dtype=float).copy()
        self.upper = np.asarray(upper, dtype=float).copy()
        self.ncols = self.objective.size
        if self.lower.shape != (self.ncols,) or self.upper.shape != (self.ncols,):
            raise ValueError("bound arrays must match the objective length")
        self.names = list(names) if names is not None else [f"v{j}" for j in range(self.ncols)]
        self.rows: list[LpRow] = []
        self._highs = None  # created on the first solve
        self._cols = np.arange(self.ncols, dtype=np.int32)
        self._synced = 0  # rows already passed to HiGHS and to the CSR copy
        self._matrix = sparse.csr_matrix((0, self.ncols))
        self._row_lo = np.empty(0)
        self._row_hi = np.empty(0)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def add_row(self, coef, sense: str, rhs: float, tag: str = "") -> int:
        if sense not in ("<=", ">=", "="):
            raise ValueError(f"bad row sense {sense!r}")
        if isinstance(coef, dict):
            entries = {int(j): float(c) for j, c in coef.items() if c != 0.0}
        else:
            arr = np.asarray(coef, dtype=float)
            entries = {int(j): float(arr[j]) for j in np.flatnonzero(arr)}
        for j in entries:
            if not 0 <= j < self.ncols:
                raise ValueError(f"row references invalid column {j}")
        self.rows.append(LpRow(entries, sense, float(rhs), tag))
        return len(self.rows) - 1

    def _sync(self):
        """Bring the HiGHS instance and the CSR copy up to date with the
        model: append new rows, push column bounds and objective."""
        if self._highs is None:
            self._highs = highs_core._Highs()
            for key, value in _OPTIONS.items():
                self._highs.setOptionValue(key, value)
            _check(self._highs.addVars(self.ncols, self.lower, self.upper), "addVars")
            self._highs.changeObjectiveSense(highs_core.ObjSense.kMaximize)
        new = self.rows[self._synced :]
        if new:
            indptr = np.cumsum([0] + [len(r.coef) for r in new], dtype=np.int32)
            index = np.fromiter(itertools.chain.from_iterable(r.coef for r in new), np.int32, indptr[-1])
            value = np.fromiter(itertools.chain.from_iterable(r.coef.values() for r in new), float, indptr[-1])
            rhs = np.array([r.rhs for r in new])
            lo = np.where([r.sense == "<=" for r in new], -np.inf, rhs)
            hi = np.where([r.sense == ">=" for r in new], np.inf, rhs)
            _check(self._highs.addRows(len(new), lo, hi, index.size, indptr[:-1], index, value), "addRows")
            block = sparse.csr_matrix((value, index, indptr), shape=(len(new), self.ncols))
            self._matrix = sparse.vstack([self._matrix, block], format="csr")
            self._row_lo = np.concatenate([self._row_lo, lo])
            self._row_hi = np.concatenate([self._row_hi, hi])
            self._synced = len(self.rows)
        _check(self._highs.changeColsBounds(self.ncols, self._cols, self.lower, self.upper), "changeColsBounds")
        _check(self._highs.changeColsCost(self.ncols, self._cols, self.objective), "changeColsCost")
        return self._highs

    def to_lp_text(self) -> str:
        def num(x: float) -> str:
            return f"{x:.12g}"

        def expr(coef: dict[int, float]) -> str:
            parts = []
            for j in sorted(coef):
                c = coef[j]
                if not parts:
                    parts.append(f"{'-' if c < 0 else ''}{num(abs(c))} {self.names[j]}")
                else:
                    parts.append(f"{'-' if c < 0 else '+'} {num(abs(c))} {self.names[j]}")
            return " ".join(parts) if parts else "0"

        lines = ["Maximize", f" obj: {expr({j: c for j, c in enumerate(self.objective) if c != 0.0})}"]
        lines.append("Subject To")
        for k, row in enumerate(self.rows):
            tag = row.tag or f"c{k}"
            lines.append(f" {tag}: {expr(row.coef)} {row.sense} {num(row.rhs)}")
        lines.append("Bounds")
        for j in range(self.ncols):
            lo = "-inf" if np.isneginf(self.lower[j]) else num(self.lower[j])
            hi = "+inf" if np.isposinf(self.upper[j]) else num(self.upper[j])
            lines.append(f" {lo} <= {self.names[j]} <= {hi}")
        lines.append("End")
        return "\n".join(lines) + "\n"


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
    if verdict == _MS.kUnboundedOrInfeasible:
        # Decide by primal feasibility: a zero objective cannot be unbounded.
        # The next solve pushes the real objective back.
        highs.changeColsCost(model.ncols, model._cols, np.zeros(model.ncols))
        highs.run()
        status = {_MS.kOptimal: "unbounded", _MS.kInfeasible: "infeasible"}.get(highs.getModelStatus(), status)
    if status != "optimal":
        return LpResult(status, float("nan"), None, float("inf"), message)
    x = np.asarray(highs.getSolution().col_value, dtype=float)
    ax = model._matrix @ x
    gaps = np.concatenate([model.lower - x, x - model.upper, model._row_lo - ax, ax - model._row_hi])
    viol = float(np.max(gaps, initial=0.0))
    if viol > FEAS_TOL:
        return LpResult("iteration_limit", float("nan"), None, viol, "residuals above tolerance")
    return LpResult("optimal", float(model.objective @ x), x, viol, message)
