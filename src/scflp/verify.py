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
block's part of the answer gives its own description's support.  An
anchor cut is a sum of per-customer terms, so the minimum over all
(n+1)^m anchor vectors is the sum of the per-customer minima; the anchor
block holds that sum explicitly, as eta <= sum_i theta_i and theta_i below
each of customer i's n+1 terms (the multicut form of Birge and Louveaux
1988), m (n+1) + 1 rows whose projection onto (eta, x) is the anchor-cut
polytope.

``verify_prop61`` cross-checks the anchor-cut separation reduction
against a literal minimization over all anchor vectors, and
``verify_aggregation`` confirms that one shared allocation block is as
tight as one block per follower choice and that the prefix-greedy
allocation is LP-optimal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bnc import _base_model, add_cut_row, add_eta_row, add_linking_rows
from .cuts import ef_cut, greedy_assignment, gsf_separation_costs, improved_cut, tight_ell
from .instance import Instance
from .lp import LpModel, lp_solve
from .market import compute_cy, indicator, open_sites
from .oracle import full_lp_value
from .rmedian import CapExceededError


@dataclass(frozen=True)
class HullCheckReport:
    y: tuple
    trials: int
    max_discrepancy: float


def _customer_terms(inst: Instance, y, cy: np.ndarray) -> np.ndarray:
    """Every customer's anchor terms as an (m, n+1, 1 + n) array: entry
    [i, l] is [constant, x-coefficients] of improved_cut on customer i
    alone with anchor l (l = n the virtual site).  Each anchor cut is the
    in-order sum over customers of one term per customer."""
    m, n = inst.m, inst.n
    terms = np.empty((m, n + 1, 1 + n))
    for i in range(m):
        alone = Instance(m=1, n=n, w=inst.w[i : i + 1], v=inst.v[i : i + 1], p=inst.p, r=inst.r)
        for ell in range(n + 1):
            cut = improved_cut(alone, y, (ell,), cy[i : i + 1])
            terms[i, ell, 0] = cut.constant
            terms[i, ell, 1:] = cut.xcoef
    return terms


def _anchor_rows(inst: Instance, y, cy: np.ndarray) -> np.ndarray:
    """Every anchor cut for y as a ((n+1)^m, 1 + n) array of [constant,
    x-coefficients] rows, anchor vectors in itertools.product order.

    improved_cut sums its per-customer terms in customer order, so adding
    the ``_customer_terms`` up in that order by broadcasting gives every
    row bit for bit as improved_cut would, with m (n+1) calls instead of
    (n+1)^m."""
    total = (inst.n + 1) ** inst.m
    if total > 200_000:
        raise CapExceededError(f"(n+1)^m = {total} anchor cuts is too many")
    terms = _customer_terms(inst, y, cy)
    rows = terms[0]
    for block in terms[1:]:
        rows = (rows[:, None, :] + block).reshape(-1, 1 + inst.n)
    return rows


def _add_theta_rows(model: LpModel, terms: np.ndarray, eta: int, x0: int, theta0: int) -> None:
    """Append the per-customer anchor system for ``_customer_terms`` terms
    over the column eta, the n x columns from x0 and the m theta columns
    from theta0: eta - sum_i theta_i <= 0, then for each customer i and
    anchor l in order, theta_i - terms[i, l, 1:].x <= terms[i, l, 0]."""
    m, anchors, width = terms.shape
    n = width - 1
    model.add_row({eta: 1.0, **{theta0 + i: -1.0 for i in range(m)}}, "<=", 0.0)
    value = np.ones((m, anchors, width))
    np.negative(terms[:, :, 1:], out=value[:, :, :n])
    cols = np.empty((m, anchors, width), np.int64)
    cols[:, :, :n] = np.arange(x0, x0 + n)
    cols[:, :, n] = theta0 + np.arange(m)[:, None]
    model.add_rows(np.arange(0, value.size + 1, width), cols.ravel(), value.ravel(), "<=", terms[:, :, 0].ravel())


def _hull_model(inst: Instance, y, terms: np.ndarray) -> LpModel:
    """Both descriptions as independent blocks of one LP: the assignment
    block (linking rows and the single cut for y) on columns [eta, x, z],
    then the anchor block on [eta, x, theta], theta one free column per
    customer.  x and z lie in the unit box; no row or column is shared."""
    m, n = inst.m, inst.n
    a0 = 1 + n + m * n  # the anchor block's eta
    ncols = a0 + 1 + n + m
    lower, upper = np.zeros(ncols), np.ones(ncols)
    free = np.r_[0, a0, a0 + 1 + n : ncols]  # both etas and theta
    lower[free], upper[free] = -np.inf, np.inf
    model = LpModel(np.zeros(ncols), lower, upper)
    add_linking_rows(model, m, n, 1 + n)
    add_cut_row(model, inst, ef_cut(inst, y))
    _add_theta_rows(model, terms, a0, a0 + 1, a0 + 1 + n)
    return model


def _supports(model: LpModel, first: int, alpha: float, beta: np.ndarray) -> tuple[float, float]:
    """(anchor, assignment) supports in direction (alpha, beta) from a
    ``_hull_model`` whose anchor block starts at column ``first``.  Both
    blocks get the direction in the model's objective (z and theta keep
    weight 0) and one LP is solved: a block-diagonal LP's
    optimum is the sum of its blocks' optima, so each block's part of the
    answer is optimal for that block alone."""
    obj = model.objective
    obj[0] = obj[first] = alpha
    obj[1 : 1 + beta.size] = obj[first + 1 : first + 1 + beta.size] = beta
    res = lp_solve(model)
    if res.status != "optimal":
        raise RuntimeError(f"support LP failed: {res.status}")
    return float(obj[first:] @ res.x[first:]), float(obj[:first] @ res.x[:first])


def verify_hull(inst: Instance, y, trials: int = 200, seed: int = 0) -> HullCheckReport:
    """Support-function agreement over random directions (objective weight
    on eta kept above 0.1 so every LP stays bounded and well conditioned)."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if inst.n > 10:
        raise CapExceededError("hull check enumerates 2^n integer points; n must stay small")
    rng = np.random.default_rng(seed)
    cy = compute_cy(inst, y)
    model = _hull_model(inst, y, _customer_terms(inst, y, cy))
    first = 1 + inst.n + inst.m * inst.n
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=inst.n)))  # (2^n, n)
    values = (corners[:, None, :] * cy).max(axis=2) @ inst.w  # share of each corner's open set
    worst = 0.0
    for _ in range(trials):
        d = rng.normal(size=1 + inst.n)
        d /= np.linalg.norm(d)
        while d[0] <= 0.1:
            d = rng.normal(size=1 + inst.n)
            d /= np.linalg.norm(d)
        alpha, beta = float(d[0]), d[1:]
        s_anchor, s_assign = _supports(model, first, alpha, beta)
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
