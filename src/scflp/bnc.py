"""LP-based branch-and-cut driver for the three reformulations.

The driver loops: pop the open node with the best bound, set the leader
bounds from its fixings, solve its LP, run the formulation's separation
(pool heuristic first, exact fallback), resolve while violated cuts arrive,
and either accept a certified integral point as incumbent or branch on the
most fractional leader variable.  Separation certifies an integral point
only at its exact value, up to the certification slack (see ``separation``).
Cuts are globally valid and shared by every node.  Incumbent values are
recomputed with an exact best-response solve, so reported objectives do not
inherit LP or separation tolerances.  Open nodes and their bounds live only
on the heap; a stop on the clock or the gap tolerance leaves them there.

GSF separates at fractional points with in-out stabilization (Ben-Ameur &
Neto 2007): the search keeps one center, started at x = p/n on every site.
At each fractional GSF point the center moves to the midpoint of itself and
the LP x, and the anchor cuts are separated there, keeping those the LP
point violates.  When that pass has no cut the registry has not seen, the
plain pass at the LP point runs in the same round, so a round that installs
nothing certifies exactly what the plain pass certifies.  Integral points,
SF and EF separate at the LP point only, and ``sep_time_s`` covers both
passes.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .cuts import Cut
# unused here; perfbench/tracing.py wraps these bnc bindings and refuses missing ones
from .cuts import ef_cut, improved_cut, submodular_cut, tight_ell  # noqa: F401
from .instance import Instance
from .lp import LpModel, lp_solve
from .market import follower_best_response, indicator, response_costs
from .separation import FollowerPool, RelaxPoint, separate_ef, separate_gsf, separate_sf
from .tolerances import EPS_VIOL, at_most

FORMULATIONS = ("SF", "GSF", "EF")


@dataclass(frozen=True)
class BncConfig:
    formulation: str = "GSF"
    time_limit: float = 7200.0
    gap_tol: float = 0.0  # relative; solve certifies (UB - LB)/UB <= gap_tol
    eps_viol: float = EPS_VIOL

    def __post_init__(self):
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"unknown formulation {self.formulation!r}")
        if not self.time_limit > 0:  # also refuses nan
            raise ValueError(f"time limit must be positive, got {self.time_limit}")
        if not self.gap_tol >= 0:
            raise ValueError(f"gap tolerance must be nonnegative, got {self.gap_tol}")
        if not 0 <= self.eps_viol < math.inf:  # a nan threshold would turn fractional separation off
            raise ValueError(f"violation threshold must be finite and nonnegative, got {self.eps_viol}")


@dataclass
class SolveReport:
    """Solve outcome plus the usual search statistics."""

    formulation: str
    objective: float  # best incumbent value (exact best-response evaluation)
    best_x: np.ndarray | None
    upper_bound: float  # max of the incumbent and the bounds of the nodes left open
    gap_pct: float  # (upper_bound - objective) / upper_bound * 100
    nodes: int  # explored nodes beyond the root
    cuts: int
    sep_time_s: float
    total_time_s: float
    root_bound: float
    root_gap_pct: float  # (root bound - objective) / objective * 100
    status: str  # "optimal" | "limit"

    def csv_row(self, label: str) -> str:
        obj = "" if math.isnan(self.objective) else f"{self.objective:.6f}"
        rg = "" if math.isnan(self.root_gap_pct) else f"{self.root_gap_pct:.4f}"
        return (
            f"{label},{self.formulation},{obj},{self.total_time_s:.3f},{self.nodes},"
            f"{self.cuts},{self.sep_time_s:.3f},{rg},{self.status}"
        )


CSV_HEADER = "instance,formulation,objective,time_s,nodes,cuts,sep_time_s,root_gap_pct,status"


def _base_model(inst: Instance, ncols: int) -> LpModel:
    """Model of ncols columns that maximizes eta (column 0), capped by total
    demand; every other column lies in [0,1], and the leader variables
    (columns 1..n) sum to p."""
    obj = np.zeros(ncols)
    obj[0] = 1.0
    lower = np.zeros(ncols)
    lower[0] = -np.inf
    upper = np.ones(ncols)
    upper[0] = inst.total_demand  # valid cap: every capture ratio is below 1
    model = LpModel(obj, lower, upper)
    model.add_row({1 + j: 1.0 for j in range(inst.n)}, "=", float(inst.p))
    return model


def build_model(inst: Instance, formulation: str) -> LpModel:
    """Base relaxation: objective variable eta capped by total demand,
    leader variables in [0,1] summing to p, and for EF the allocation
    variables with their linking rows, started from ``_ef_start_basis``."""
    n, m = inst.n, inst.m
    model = _base_model(inst, 1 + n + (m * n if formulation == "EF" else 0))
    if formulation == "EF":
        add_linking_rows(model, m, n, 1 + n)
        model.set_basis(*_ef_start_basis(inst))
    return model


def _ef_start_basis(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Optimal basis of the base EF LP at an integral leader choice x0 and
    its greedy one-hot allocation, as (column, row) status codes of
    ``LpModel.set_basis``.  x0 opens the p sites with the most first-choice
    demand, ties by w @ v, then by index.  eta and the open x_j sit at
    upper, the closed ones at lower.  With k_i customer i's first open site
    in sigma_i, z_ij is basic up to and including k_i and at lower after it;
    linking row (i, j) is at upper strictly before k_i and basic from it on;
    the cardinality row is basic and every sum_j z_ij <= 1 row at upper.
    The basis is triangular, so a dual simplex run from it starts optimal
    (without an iteration) and the allocation block starts where HiGHS
    would otherwise reach it one degenerate pivot at a time."""
    m, n, sigma = inst.m, inst.n, inst.sigma
    first_choice = np.bincount(sigma[:, 0], weights=inst.w, minlength=n)
    open_ = np.zeros(n, bool)
    open_[np.lexsort((-(inst.w @ inst.v), -first_choice))[: inst.p]] = True
    k = open_[sigma].argmax(axis=1)  # rank of each customer's first open site in sigma
    rank = np.empty((m, n), np.intp)
    np.put_along_axis(rank, sigma, np.arange(n), axis=1)  # rank[i, j]: j's place in sigma_i
    col = np.concatenate(([2], np.where(open_, 2, 0), np.where(rank <= k[:, None], 1, 0).ravel()))
    row = np.concatenate(([1], np.where(rank < k[:, None], 2, 1).ravel(), np.full(m, 2)))
    return col, row


def add_linking_rows(model: LpModel, m: int, n: int, first_z: int) -> None:
    """Append the EF linking rows of one m x n allocation block whose z[i, j]
    sits in column first_z + i*n + j: z_ij - x_j <= 0 for every (i, j), then
    sum_j z_ij <= 1 for every i (x_j is column 1 + j)."""
    z = first_z + np.arange(m * n)
    x = 1 + np.tile(np.arange(n), m)
    model.add_rows(np.arange(0, 2 * m * n + 1, 2), np.column_stack((z, x)).ravel(), np.tile((1.0, -1.0), m * n), "<=", 0.0)
    model.add_rows(np.arange(0, m * n + 1, n), z, np.ones(m * n), "<=", 1.0)


def add_eta_row(model: LpModel, first: int, coef, constant: float) -> int:
    """Append eta - sum_k coef[k] * v[first + k] <= constant, coef flattened
    in row-major order; zero coefficients are dropped."""
    coef = np.asarray(coef, dtype=float).ravel()
    cols = coef.nonzero()[0]
    index = np.empty(cols.size + 1, np.int64)
    value = np.empty(cols.size + 1)
    index[0], value[0] = 0, 1.0
    np.add(cols, first, out=index[1:])
    np.negative(coef[cols], out=value[1:])
    return model.add_rows((0, index.size), index, value, "<=", constant)


def add_cut_row(model: LpModel, inst: Instance, cut: Cut) -> int:
    if cut.kind == "EF":
        return add_eta_row(model, 1 + inst.n, cut.zcoef, cut.constant)  # z follows eta and x
    return add_eta_row(model, 1, cut.xcoef, cut.constant)


class _Search:
    """Shared state of one branch-and-cut run."""

    def __init__(self, inst: Instance, cfg: BncConfig):
        self.t0 = time.perf_counter()  # the solve's one clock; model building counts against the limit
        self.inst = inst
        self.cfg = cfg
        self.model = build_model(inst, cfg.formulation)
        self.pool = FollowerPool(self.inst)
        self.registry: set[tuple] = set()
        self.cuts = 0
        self.sep_time = 0.0
        self.center = np.full(inst.n, inst.p / inst.n)  # GSF's in-out stabilization center

    def out_of_time(self) -> bool:
        return time.perf_counter() - self.t0 > self.cfg.time_limit

    def point(self, res) -> RelaxPoint:
        n = self.inst.n
        x = res.x[1 : 1 + n]
        z = None
        if self.cfg.formulation == "EF":
            z = res.x[1 + n :].reshape(self.inst.m, n)
        return RelaxPoint(eta=res.x[0], x=x, z=z)

    def separate(self, pt: RelaxPoint) -> list[Cut]:
        """The formulation's separation at pt, stabilized at fractional GSF
        points as the module docstring describes."""
        t = time.perf_counter()
        form = self.cfg.formulation
        eps = self.cfg.eps_viol
        if form == "GSF" and not pt.integral:
            self.center = 0.5 * (self.center + pt.x)
            cuts = separate_gsf(pt, self.pool, eps, at=self.center)
            if all(cut.provenance in self.registry for cut in cuts):
                cuts = separate_gsf(pt, self.pool, eps)
        else:
            separate = separate_sf if form == "SF" else separate_gsf if form == "GSF" else separate_ef
            cuts = separate(pt, self.pool, eps)
        self.sep_time += time.perf_counter() - t
        return cuts

    def best_response(self, xint: np.ndarray):
        """Exact follower best response to the integral leader choice xint:
        (y, value).  The last exact separation solve (deterministic, same w
        and r) is reused when its costs equal the best response's bit for
        bit, as each formulation's do at a point with xint's greedy
        allocation (``market.response_costs``); else a fresh solve starts from the pool."""
        last = self.pool.last_solve
        if last is not None and np.array_equal(last[0].cost, response_costs(self.inst, xint).cost):
            return indicator(self.inst.n, last[1]), last[2]
        return follower_best_response(self.inst, xint, mode="rmedian", start=self.pool.sites())

    def install(self, cuts: list[Cut]) -> int:
        fresh = 0
        for cut in cuts:
            if cut.provenance in self.registry:
                continue
            self.registry.add(cut.provenance)
            add_cut_row(self.model, self.inst, cut)
            fresh += 1
        self.cuts += fresh
        return fresh

    def cut_loop(self, lb: float):
        """Solve-separate at the current bounds until separation has
        nothing fresh to add, the bound is dominated, or time runs out.

        Returns (outcome, objective, point): "certified" or "branch" when
        separation found nothing fresh at the point, else "dominated" or
        "timeout", after which the node stays open at bound objective unless
        the incumbent prunes it.  The loop has one stopping rule: a round
        that installs no fresh cut returns.  Every other round installs a
        cut the registry has not seen, and each family is finite (SF:
        follower choice and prefix set, GSF: follower choice and anchor
        vector, EF: follower choice), so the loop ends; the time limit is
        checked on every round.  Every node's LP is feasible (the leader
        fixings leave p sites open), so an LP status other than "optimal"
        raises RuntimeError.
        """
        while True:
            res = lp_solve(self.model)
            if res.status != "optimal":
                raise RuntimeError(f"LP failure: {res.status} ({res.message})")
            obj = res.objective
            if _dominated(obj, lb, self.cfg.gap_tol):
                return "dominated", obj, None
            pt = self.point(res)
            if self.out_of_time():
                return "timeout", obj, pt
            fresh = self.install(self.separate(pt))
            if fresh == 0:
                return ("certified" if pt.integral else "branch"), obj, pt


def _dominated(bound: float, lb: float, gap_tol: float) -> bool:
    return at_most(bound * (1.0 - gap_tol), lb)


def _emit(events, t0: float, event: str, **fields):
    """Write one JSON line: the event, its time t in seconds since t0 (the
    start of the solve), then the fields."""
    if events is not None:
        events.write(json.dumps({"event": event, "t": time.perf_counter() - t0, **fields}) + "\n")


def _most_fractional(x: np.ndarray) -> int:
    """The coordinate farthest from an integer.  At a point that is not
    ``RelaxPoint.integral`` it lies more than INT_TOL from one, so no
    integral coordinate can win."""
    return int(np.argmax(0.5 - np.abs(x - 0.5)))


def solve(inst: Instance, cfg: BncConfig, events=None) -> SolveReport:
    """Run the branch-and-cut search; see the module docstring."""
    search = _Search(inst, cfg)
    t0 = search.t0
    n = inst.n
    lb, best_x = -math.inf, None
    root_bound = math.nan
    counter = itertools.count()
    heap = [(-inst.total_demand, next(counter), frozenset(), frozenset())]
    if inst.p == n:  # single leader choice: its exact value is the optimum
        best_x = indicator(n, range(n))
        _, lb = search.best_response(best_x)
        root_bound, heap = lb, []
    processed = 0

    while heap:
        neg_bound, _, fix0, fix1 = node = heapq.heappop(heap)
        bound = -neg_bound
        if at_most(bound, lb):
            continue
        if _dominated(bound, lb, cfg.gap_tol) or search.out_of_time():
            heapq.heappush(heap, node)  # it stays open; pops are best-first, so no open node beats it
            break
        processed += 1

        search.model.lower[1 : 1 + n] = 0.0
        search.model.upper[1 : 1 + n] = 1.0
        search.model.upper[[1 + j for j in fix0]] = 0.0
        search.model.lower[[1 + j for j in fix1]] = 1.0
        outcome, obj, pt = search.cut_loop(lb)

        if processed == 1:
            root_bound = obj
        _emit(
            events,
            t0,
            "node",
            processed=processed,
            outcome=outcome,
            bound=obj,
            incumbent=None if lb == -math.inf else lb,
            open=len(heap),
            cuts=search.cuts,
        )

        if outcome in ("dominated", "timeout"):
            if not at_most(obj, lb):  # still open: set aside by the gap tolerance or the clock
                heapq.heappush(heap, (-obj, next(counter), fix0, fix1))
            continue
        if outcome == "certified":
            xint = np.round(pt.x).astype(np.int8)
            _, val = search.best_response(xint)
            if val > lb:
                lb, best_x = val, xint
            continue
        # branch on the most fractional leader variable
        j_star = _most_fractional(pt.x)
        up = (fix0, fix1 | {j_star})
        down = (fix0 | {j_star}, fix1)
        for child0, child1 in (up, down):
            if len(child1) <= inst.p and n - len(child0) >= inst.p:
                heapq.heappush(heap, (-obj, next(counter), child0, child1))

    ub = max([lb] + [-hb for hb, *_ in heap])
    gap = 0.0 if ub == lb else (ub - lb) / ub * 100.0 if ub > 0 else math.inf
    objective = lb if best_x is not None else math.nan
    status = "optimal" if at_most(ub, objective) else "limit"
    rg = math.nan
    if best_x is not None and objective > 0 and not math.isnan(root_bound):
        rg = (root_bound - objective) / objective * 100.0
    report = SolveReport(
        cfg.formulation,
        objective,
        best_x,
        ub,
        gap,
        max(processed - 1, 0),
        search.cuts,
        search.sep_time,
        time.perf_counter() - t0,
        root_bound,
        rg,
        status,
    )
    _emit(events, t0, "done", objective=None if best_x is None else objective, bound=ub, nodes=report.nodes, cuts=report.cuts, status=status)
    return report


def root_relaxation(inst: Instance, cfg: BncConfig, true_opt: float):
    """Run the cut loop at the root only; returns (bound, root gap %,
    status), the gap being (bound - true_opt) / true_opt * 100.  status is
    "optimal" when the loop finished and "limit" when the clock stopped it,
    leaving a valid but looser bound.  With p == n the bound is the single
    leader choice's exact value and the status "optimal"."""
    search = _Search(inst, cfg)
    if inst.p == inst.n:
        _, bound = search.best_response(indicator(inst.n, range(inst.n)))
        status = "optimal"
    else:
        outcome, bound, _ = search.cut_loop(-math.inf)
        status = "limit" if outcome == "timeout" else "optimal"
    return bound, (bound - true_opt) / true_opt * 100.0, status
