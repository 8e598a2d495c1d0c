"""Executable checks of the structural facts behind the formulations.

``verify_hull`` compares support functions of three descriptions of the
per-follower-choice hypograph set: the anchor-cut polytope over the unit
box, the LP relaxation of the assignment extension, and the convex hull
of the integer points themselves.  Support functions identify convex
bodies, so random-direction probing decides equality at desk scale
without a vertex enumerator.  The first two descriptions always coincide
and touch the integer points at every integral leader vector; the check
reports any direction where they rise above the integer hull (which does
happen: the per-customer aggregation can be strictly looser than the
true hull at fractional points, with no effect on solver exactness).
The two LP descriptions are held as independent blocks of one model per
call, the assignment block first, and each direction is solved once on
both: the blocks share no row or column, so a block-diagonal LP's optimum
is the sum of its blocks' optima (Dantzig and Wolfe 1960), and each
block's part of the answer gives its own description's support.  The
anchor-cut polytope's (n+1)^m rows are all built, but its block starts
from the rows tight at the integer points, at most min(2^n, (n+1)^m) of
them (``_tight_rows``), and adds the others as they are needed: after each
solve, the explicit row the anchor part violates most joins the model,
and the same model is solved again, until the anchor part satisfies every
row of the list.  The rows are tested against the list itself, not
through the solver's separation.  ``_anchor_polytope`` and
``_assignment_polytope`` build each description as a standalone LP, the
explicit references the tests compare the blocks with.

``verify_prop61`` cross-checks the anchor-cut separation reduction
against a literal minimization over all anchor vectors,
``enumerate_gsf_value`` solves the GSF relaxation over the explicit
anchor-cut family, and
``verify_aggregation`` confirms that one shared allocation block is as
tight as one block per follower choice and that the prefix-greedy
allocation is LP-optimal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bnc import _base_model, add_cut_row, add_eta_row, add_linking_rows, build_model
from .cuts import ef_cut, greedy_assignment, gsf_separation_costs, improved_cut, tight_ell
from .instance import Instance
from .lp import LpModel, lp_solve
from .market import compute_cy, indicator, open_sites
from .oracle import full_lp_value
from .rmedian import CapExceededError
from .tolerances import at_most


@dataclass(frozen=True)
class HullCheckReport:
    y: tuple
    trials: int
    max_discrepancy: float


def _anchor_rows(inst: Instance, y, cy: np.ndarray) -> np.ndarray:
    """Every anchor cut for y as a ((n+1)^m, 1 + n) array of [constant,
    x-coefficients] rows, anchor vectors in itertools.product order.

    A cut is a sum over customers of per-customer terms, and improved_cut
    sums them in customer order; so the n+1 one-customer cuts of each
    customer, added up in that order by broadcasting, give every row bit
    for bit as improved_cut would, with m (n+1) calls instead of (n+1)^m."""
    n = inst.n
    total = (n + 1) ** inst.m
    if total > 200_000:
        raise CapExceededError(f"(n+1)^m = {total} anchor cuts is too many")
    rows = None
    for i in range(inst.m):
        alone = Instance(m=1, n=n, w=inst.w[i : i + 1], v=inst.v[i : i + 1], p=inst.p, r=inst.r)
        terms = np.empty((n + 1, 1 + n))
        for ell in range(n + 1):
            cut = improved_cut(alone, y, (ell,), cy[i : i + 1])
            terms[ell, 0] = cut.constant
            terms[ell, 1:] = cut.xcoef
        rows = terms if rows is None else (rows[:, None, :] + terms).reshape(-1, 1 + n)
    return rows


def _tight_rows(inst: Instance, corners: np.ndarray) -> list[int]:
    """Sorted distinct ``_anchor_rows`` indices of the rows tight at the
    given 0/1 corners.  At 1_S every customer anchors at the first site of
    its ``sigma`` row that lies in S, or at the virtual site n when S is
    empty; that row equals the share of S at 1_S, as the classic submodular
    cut of S does.  An anchor vector's index is its place in the product
    order, customer 0 most significant.  The empty set's row, all anchors
    at n, is the one row with constant 0, the smallest."""
    m, n = inst.m, inst.n
    inside = corners[:, inst.sigma] > 0.5  # [s, i, k]: site sigma[i, k] is open at corner s
    ell = np.where(inside.any(axis=2), inst.sigma[np.arange(m), inside.argmax(axis=2)], n)
    return np.unique(ell @ (n + 1) ** np.arange(m - 1, -1, -1)).tolist()


def _add_anchor_rows(model: LpModel, rows: np.ndarray, first: int) -> None:
    """Append ``_anchor_rows`` rows [constant, xcoef] as
    eta - xcoef.x <= constant, over the columns eta, x that start at
    ``first``: dense rows [1, -xcoef], whose zeros add_rows drops."""
    width = rows.shape[1]
    dense = np.ones_like(rows)
    np.negative(rows[:, 1:], out=dense[:, 1:])
    cols = np.tile(np.arange(first, first + width), len(rows))
    model.add_rows(np.arange(0, dense.size + 1, width), cols, dense.ravel(), "<=", rows[:, 0])


def _box(*widths: int) -> LpModel:
    """Zero-objective model of blocks of the given widths, each a free eta
    column followed by columns in [0, 1]; no rows."""
    lower = np.concatenate([np.r_[-np.inf, np.zeros(w - 1)] for w in widths])
    upper = np.concatenate([np.r_[np.inf, np.ones(w - 1)] for w in widths])
    return LpModel(np.zeros(lower.size), lower, upper)


def _add_assignment_rows(model: LpModel, inst: Instance, y) -> None:
    """The linking rows and the single cut for y, over the columns eta, x, z
    at the start of the model."""
    add_linking_rows(model, inst.m, inst.n, 1 + inst.n)
    add_cut_row(model, inst, ef_cut(inst, y))


def _anchor_polytope(inst: Instance, rows: np.ndarray) -> LpModel:
    """eta and x columns, the given ``_anchor_rows`` rows, unit box, no
    cardinality row: the anchor description as an explicit LP."""
    model = _box(1 + inst.n)
    _add_anchor_rows(model, rows, 0)
    return model


def _assignment_polytope(inst: Instance, y) -> LpModel:
    """eta, x, z columns with the linking rows and the single cut for y:
    the assignment description as a standalone LP."""
    model = _box(1 + inst.n + inst.m * inst.n)
    _add_assignment_rows(model, inst, y)
    return model


def _hull_model(inst: Instance, y, rows: np.ndarray, held: list[int]) -> LpModel:
    """Both descriptions as independent blocks of one LP: the assignment
    block on columns [eta, x, z], then the anchor block on [eta, x] holding
    the ``rows`` listed in ``held``.  No row or column is shared."""
    m, n = inst.m, inst.n
    model = _box(1 + n + m * n, 1 + n)
    _add_assignment_rows(model, inst, y)
    _add_anchor_rows(model, rows[held], 1 + n + m * n)
    return model


def _supports(model: LpModel, rows: np.ndarray, held: list[int], alpha: float, beta: np.ndarray) -> tuple[float, float]:
    """(anchor, assignment) supports in direction (alpha, beta) from a
    ``_hull_model`` whose anchor block holds the ``rows`` listed in ``held``.

    Both blocks get the direction and one LP is solved: a block-diagonal
    LP's optimum is the sum of its blocks' optima, so each block's part of
    the answer is optimal for that block alone.  Then the row outside the
    model that the anchor part violates most (ties to the lowest index;
    violated means eta above the row's right-hand side by more than
    ``at_most`` allows) joins the anchor block, and the model is solved
    again, until no row is violated.  The last anchor part is optimal over
    a subset of the rows and satisfies all of them, so it is the optimum of
    the anchor polytope of all rows.  Each round adds a row not yet in the
    model, so the loop ends.  The model and ``held`` keep the added rows
    for the next direction."""
    a0 = model.ncols - rows.shape[1]  # first anchor column
    obj = np.zeros(model.ncols)
    obj[0] = obj[a0] = alpha
    obj[1 : 1 + beta.size] = obj[a0 + 1 :] = beta
    model.objective = obj
    while True:
        res = lp_solve(model)
        if res.status != "optimal":
            raise RuntimeError(f"support LP failed: {res.status}")
        eta, x = res.x[a0], res.x[a0 + 1 :]
        rhs = rows[:, 0] + rows[:, 1:] @ x
        excess = np.where(at_most(eta, rhs), -np.inf, eta - rhs)
        excess[held] = -np.inf
        k = int(np.argmax(excess))
        if excess[k] == -np.inf:
            return float(obj[a0:] @ res.x[a0:]), float(obj[:a0] @ res.x[:a0])
        held.append(k)
        _add_anchor_rows(model, rows[k : k + 1], a0)


def verify_hull(inst: Instance, y, trials: int = 200, seed: int = 0) -> HullCheckReport:
    """Support-function agreement over random directions (objective weight
    on eta kept above 0.1 so every LP stays bounded and well conditioned)."""
    if inst.n > 10:
        raise CapExceededError("hull check enumerates 2^n integer points; n must stay small")
    rng = np.random.default_rng(seed)
    cy = compute_cy(inst, y)
    rows = _anchor_rows(inst, y, cy)
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=inst.n)))  # (2^n, n)
    held = _tight_rows(inst, corners)  # the rows tight at the corners; the rest join on demand
    model = _hull_model(inst, y, rows, held)
    values = (corners[:, None, :] * cy).max(axis=2) @ inst.w  # share of each corner's open set
    worst = 0.0
    for _ in range(trials):
        d = rng.normal(size=1 + inst.n)
        d /= np.linalg.norm(d)
        while d[0] <= 0.1:
            d = rng.normal(size=1 + inst.n)
            d /= np.linalg.norm(d)
        alpha, beta = float(d[0]), d[1:]
        s_anchor, s_assign = _supports(model, rows, held, alpha, beta)
        s_points = float((alpha * values + corners @ beta).max())
        worst = max(
            worst,
            abs(s_anchor - s_assign),
            abs(s_anchor - s_points),
            abs(s_assign - s_points),
        )
    return HullCheckReport(tuple(int(b) for b in np.asarray(y)), trials, worst)


def verify_prop61(inst: Instance, xstar, y) -> float:
    """|min over all anchor vectors of the cut RHS at xstar - weighted
    r-median value of the separation costs under y|; expected 0."""
    xstar = np.asarray(xstar, dtype=float)
    rows = _anchor_rows(inst, y, compute_cy(inst, y))
    best = float((rows[:, 0] + rows[:, 1:] @ xstar).min())
    rm = gsf_separation_costs(inst, xstar)
    ys = open_sites(y)
    reduced = float(inst.w @ rm.cost[:, ys].min(axis=1))
    return abs(best - reduced)


def enumerate_gsf_value(inst: Instance) -> float:
    """GSF relaxation value over the explicit anchor-cut family: the base
    GSF model plus all (n+1)^m anchor cuts of every follower choice, in
    lexicographic order.  Cross-checks ``oracle.full_lp_value``'s row
    generation at desk scale."""
    model = build_model(inst, "GSF")
    for combo in itertools.combinations(range(inst.n), inst.r):
        y = indicator(inst.n, combo)
        _add_anchor_rows(model, _anchor_rows(inst, y, compute_cy(inst, y)), 0)
    res = lp_solve(model)
    if res.status != "optimal":
        raise RuntimeError(f"GSF explicit-family LP failed: {res.status}")
    return res.objective


@dataclass(frozen=True)
class AggregationReport:
    shared_value: float
    disaggregated_value: float
    max_greedy_gap: float
    max_dual_gap: float


def _per_customer_lp(ci: np.ndarray, x: np.ndarray) -> float:
    """max c.z s.t. 0 <= z <= x, sum z <= 1, solved as an LP."""
    n = ci.size
    model = LpModel(ci, np.zeros(n), np.asarray(x, dtype=float))
    model.add_row({j: 1.0 for j in range(n)}, "<=", 1.0)
    res = lp_solve(model)
    if res.status != "optimal":
        raise RuntimeError(f"per-customer LP failed: {res.status}")
    return res.objective


def verify_aggregation(inst: Instance, trials: int = 5, seed: int = 0) -> AggregationReport:
    """Shared vs per-follower-choice allocation blocks, plus greedy/dual
    closed forms against per-customer LP values at random fractional x."""
    if math.comb(inst.n, inst.r) > 200 or inst.m * inst.n > 400:
        raise CapExceededError("aggregation check needs an enumerable follower set and m*n <= 400")
    y_list = [indicator(inst.n, combo) for combo in itertools.combinations(range(inst.n), inst.r)]

    shared = full_lp_value(inst, "EF")

    m, n = inst.m, inst.n
    model = _base_model(inst, 1 + n + len(y_list) * m * n)
    for t, y in enumerate(y_list):
        base = 1 + n + t * m * n
        add_linking_rows(model, m, n, base)
        add_eta_row(model, base, ef_cut(inst, y).zcoef, 0.0)
    disagg = lp_solve(model)
    if disagg.status != "optimal":
        raise RuntimeError("disaggregated-allocation LP failed")

    rng = np.random.default_rng(seed)
    max_greedy = 0.0
    max_dual = 0.0
    for _ in range(trials):
        x = rng.uniform(0.0, 1.0, size=n)
        z = greedy_assignment(inst, x)
        ell = tight_ell(inst, x)
        for y in y_list:
            cy = compute_cy(inst, y)
            for i in range(m):
                lp_val = _per_customer_lp(cy[i], x)
                greedy_val = float(cy[i] @ z[i])
                u = cy[i, ell[i]] if ell[i] < n else 0.0
                dual_val = u + float(x @ np.maximum(cy[i] - u, 0.0))
                max_greedy = max(max_greedy, abs(lp_val - greedy_val))
                max_dual = max(max_dual, abs(lp_val - dual_val))
    return AggregationReport(shared, disagg.objective, max_greedy, max_dual)
