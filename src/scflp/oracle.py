"""Ground-truth solvers used by tests and acceptance checks.

``brute_force_solve`` enumerates every leader/follower pair of the max-min
problem.  ``full_lp_value`` evaluates the LP relaxation of a formulation
with its cut family fully described: explicit rows for SF and EF, and for
GSF the solver's own root cut loop, whose anchor-cut separation is exact at
every point, run to convergence.  Neither is built for speed; caps are
explicit and exceeding one raises instead of truncating.  The explicit
anchor-cut family of GSF is ``verify.enumerate_gsf_value``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bnc import BncConfig, _Search, add_cut_row, build_model
from .cuts import ef_cut, submodular_cut
from .instance import Instance
from .lp import lp_solve
from .market import compute_cy, indicator
from .rmedian import CapExceededError

TIE_TOL = 1e-12
_PAIR_CAP = 10_000_000  # leader/follower pairs brute_force_solve evaluates
_ROW_CAP = 200_000  # SF rows full_lp_value writes out
_Y_CAP = 100_000  # follower choices full_lp_value enumerates


@dataclass(frozen=True)
class OracleReport:
    value: float
    optimal_x: list  # all maximizing leader choices, lexicographic order


def _follower_table(inst: Instance) -> np.ndarray:
    """Max attractiveness per follower choice, choices in lexicographic
    order: a (|Y|, m) array."""
    combos = list(itertools.combinations(range(inst.n), inst.r))
    vy = np.empty((len(combos), inst.m))
    for t, combo in enumerate(combos):
        vy[t] = inst.v[:, combo].max(axis=1)
    return vy


def brute_force_solve(inst: Instance) -> OracleReport:
    """Exhaustive max-min enumeration; ties on the max side are collected."""
    pairs = math.comb(inst.n, inst.p) * math.comb(inst.n, inst.r)
    if pairs > _PAIR_CAP:
        raise CapExceededError(f"{pairs} pair evaluations exceed cap {_PAIR_CAP}")
    vy = _follower_table(inst)
    w = inst.w
    best = -math.inf
    ties: list[tuple] = []
    for x_combo in itertools.combinations(range(inst.n), inst.p):
        ci = inst.v[:, x_combo].max(axis=1)
        g = (ci[None, :] / (ci[None, :] + vy)) @ w
        t = int(np.argmin(g))  # first minimizer = lexicographically smallest y
        val = float(g[t])
        if val > best + TIE_TOL * (1.0 + abs(val)):
            best = val
            ties = [x_combo]
        elif val >= best - TIE_TOL * (1.0 + abs(best)):
            ties.append(x_combo)
    optimal_x = [indicator(inst.n, combo) for combo in ties]
    return OracleReport(value=best, optimal_x=optimal_x)


def _follower_choices(inst: Instance):
    """Indicator vectors of every follower choice, lexicographic order."""
    for combo in itertools.combinations(range(inst.n), inst.r):
        yield indicator(inst.n, combo)


def _explicit_value(inst: Instance, formulation: str, cuts) -> float:
    """LP value of the formulation's base model plus one row per cut, the
    rows added in the order the cuts come."""
    model = build_model(inst, formulation)
    for cut in cuts:
        add_cut_row(model, inst, cut)
    res = lp_solve(model)
    if res.status != "optimal":
        raise RuntimeError(f"{formulation} explicit-family LP failed: {res.status}")
    return res.objective


def full_lp_value(inst: Instance, formulation: str) -> float:
    """Exact LP relaxation value of the fully described formulation."""
    n_y = math.comb(inst.n, inst.r)
    if n_y > _Y_CAP:
        raise CapExceededError(f"|Y| = {n_y} exceeds cap {_Y_CAP}")
    if formulation == "SF":
        total = (2**inst.n) * n_y
        if total > _ROW_CAP:
            raise CapExceededError(f"SF needs {total} rows, above cap {_ROW_CAP}")
        subsets = [S for size in range(inst.n + 1) for S in itertools.combinations(range(inst.n), size)]

        def classic_cuts():
            for y in _follower_choices(inst):
                cy = compute_cy(inst, y)
                yield from (submodular_cut(inst, y, S, cy) for S in subsets)

        return _explicit_value(inst, "SF", classic_cuts())
    if formulation == "EF":
        return _explicit_value(inst, "EF", (ef_cut(inst, y) for y in _follower_choices(inst)))
    if formulation != "GSF":
        raise ValueError(f"unknown formulation {formulation!r}")
    # a violation threshold far below EPS_VIOL: the loop stops at the
    # relaxation value, not up to EPS_VIOL above it
    search = _Search(inst, BncConfig(formulation="GSF", eps_viol=1e-10))
    outcome, obj, _ = search.cut_loop(-math.inf)
    # anchor separation is exact at any point: a loop that stopped with
    # nothing fresh to add has reached the relaxation value
    if outcome not in ("certified", "branch"):
        raise RuntimeError(f"GSF row generation failed to converge ({outcome})")
    return obj

