"""LP-based branch-and-cut driver for the three reformulations.

The driver loops: pop the open node with the best bound, set the leader
bounds from its fixings, solve its LP, run the formulation's separation
(pool heuristic first, exact fallback), resolve while violated cuts arrive,
and either accept a certified integral point as incumbent or branch on the
most fractional leader variable.  Separation certifies an integral point
only at its exact value, up to the certification slack (see ``separation``).
Cuts are globally valid and shared by every node.  Incumbent values are
recomputed with an exact best-response solve, so reported objectives do not
inherit LP or separation tolerances.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .cuts import Cut, sigma_order
# unused here; perfbench/tracing.py wraps these bnc bindings and refuses missing ones
from .cuts import ef_cut, improved_cut, submodular_cut, tight_ell  # noqa: F401
from .instance import Instance
from .lp import LpModel, lp_solve
from .market import follower_best_response, indicator, response_costs
from .separation import FollowerPool, RelaxPoint, separate_ef, separate_gsf, separate_sf
from .tolerances import EPS_VIOL, INT_TOL, at_most

FORMULATIONS = ("SF", "GSF", "EF")
SEP_ROUNDS = 50  # fractional separation rounds per tree node
ROOT_SEP_ROUNDS = 10_000  # the root runs its cut loop to convergence


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


@dataclass
class SolveReport:
    """Solve outcome plus the usual search statistics."""

    formulation: str
    objective: float  # best incumbent value (exact best-response evaluation)
    best_x: np.ndarray | None
    upper_bound: float
    gap_pct: float
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


def build_model(inst: Instance, formulation: str) -> LpModel:
    """Base relaxation: objective variable eta capped by total demand,
    leader variables in [0,1] summing to p, and for EF the allocation
    variables with their linking rows."""
    n, m = inst.n, inst.m
    ncols = 1 + n + (m * n if formulation == "EF" else 0)
    obj = np.zeros(ncols)
    obj[0] = 1.0
    lower = np.zeros(ncols)
    lower[0] = -np.inf
    upper = np.ones(ncols)
    upper[0] = inst.total_demand  # valid cap: every capture ratio is below 1
    names = ["eta"] + [f"x{j}" for j in range(n)]
    if formulation == "EF":
        names += [f"z{i}_{j}" for i in range(m) for j in range(n)]
    model = LpModel(obj, lower, upper, names)
    model.add_row({1 + j: 1.0 for j in range(n)}, "=", float(inst.p), "card")
    if formulation == "EF":
        add_linking_rows(model, m, n, zcol(inst, 0, 0))
    return model


def zcol(inst: Instance, i: int, j: int) -> int:
    return 1 + inst.n + i * inst.n + j


def add_linking_rows(model: LpModel, m: int, n: int, first_z: int, tag_suffix: str = "") -> None:
    """Append the EF linking rows of one m x n allocation block whose z[i, j]
    sits in column first_z + i*n + j: z_ij - x_j <= 0 for every (i, j), then
    sum_j z_ij <= 1 for every i (x_j is column 1 + j)."""
    z = first_z + np.arange(m * n)
    x = 1 + np.tile(np.arange(n), m)
    model.add_rows(
        np.arange(0, 2 * m * n + 1, 2),
        np.column_stack((z, x)).ravel(),
        np.tile((1.0, -1.0), m * n),
        "<=",
        0.0,
        [f"open{i}_{j}{tag_suffix}" for i in range(m) for j in range(n)],
    )
    model.add_rows(np.arange(0, m * n + 1, n), z, np.ones(m * n), "<=", 1.0, [f"one{i}{tag_suffix}" for i in range(m)])


def add_eta_row(model: LpModel, first: int, coef, constant: float, tag: str = "") -> int:
    """Append eta - sum_k coef[k] * v[first + k] <= constant, coef flattened
    in row-major order; zero coefficients are dropped."""
    coef = np.asarray(coef, dtype=float).ravel()
    cols = coef.nonzero()[0]
    index = np.empty(cols.size + 1, np.int64)
    value = np.empty(cols.size + 1)
    index[0], value[0] = 0, 1.0
    np.add(cols, first, out=index[1:])
    np.negative(coef[cols], out=value[1:])
    return model.add_rows((0, index.size), index, value, "<=", constant, (tag,))


def add_cut_row(model: LpModel, inst: Instance, cut: Cut) -> int:
    if cut.kind == "EF":
        return add_eta_row(model, zcol(inst, 0, 0), cut.zcoef, cut.constant, f"cut{model.nrows}")
    return add_eta_row(model, 1, cut.xcoef, cut.constant, f"cut{model.nrows}")


class _Search:
    """Shared state of one branch-and-cut run."""

    def __init__(self, inst: Instance, cfg: BncConfig):
        self.inst = inst
        self.cfg = cfg
        self.model = build_model(inst, cfg.formulation)
        self.sigma = sigma_order(inst)
        self.pool = FollowerPool()
        self.registry: set[tuple] = set()
        self.cuts = 0
        self.sep_time = 0.0
        self.t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def out_of_time(self) -> bool:
        return self.elapsed() > self.cfg.time_limit

    def point(self, res) -> RelaxPoint:
        n = self.inst.n
        x = res.x[1 : 1 + n]
        z = None
        if self.cfg.formulation == "EF":
            z = res.x[1 + n :].reshape(self.inst.m, n)
        return RelaxPoint(eta=res.x[0], x=x, z=z)

    def separate(self, pt: RelaxPoint) -> list[Cut]:
        t = time.perf_counter()
        form = self.cfg.formulation
        args = (pt, self.inst, self.pool, self.cfg.eps_viol)
        if form == "SF":
            cuts = separate_sf(*args)
        elif form == "GSF":
            cuts = separate_gsf(*args, self.sigma)
        else:
            cuts = separate_ef(*args)
        self.sep_time += time.perf_counter() - t
        return cuts

    def best_response(self, xint: np.ndarray):
        """Exact follower best response to the integral leader choice xint:
        (y, value).  The last exact separation solve is reused when its
        r-median costs are bit-identical to the best response's (same
        instance, so the same weights and r): the solver is deterministic.
        A fresh solve starts from the pool's members."""
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

    def cut_loop(self, is_root: bool, lb: float):
        """Solve-separate at the current bounds until certified, out of
        fractional rounds, dominated, or infeasible.

        Returns (outcome, objective, point) where outcome is one of
        "certified", "branch", "round_cap", "dominated", "infeasible",
        "timeout"; after "certified" and "branch" separation found nothing
        fresh at the point, after "round_cap" it had just added cuts.
        """
        cap = ROOT_SEP_ROUNDS if is_root else SEP_ROUNDS
        frac_rounds = 0
        while True:
            res = lp_solve(self.model)
            if res.status == "infeasible":
                return "infeasible", -math.inf, None
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
            if not pt.integral:
                frac_rounds += 1
                if frac_rounds >= cap:
                    return "round_cap", obj, pt  # solve branches at the last point


def _dominated(bound: float, lb: float, gap_tol: float) -> bool:
    return at_most(bound * (1.0 - gap_tol), lb)


def _exact_value(inst: Instance, x) -> float:
    _, value = follower_best_response(inst, x, mode="rmedian")
    return value


def _emit(events, payload: dict):
    if events is not None:
        events.write(json.dumps(payload) + "\n")


def _finish(report: SolveReport, events) -> SolveReport:
    """Close the event log with the solve's "done" event; returns report."""
    objective = None if math.isnan(report.objective) else report.objective
    _emit(events, {"event": "done", "objective": objective, "bound": report.upper_bound, "nodes": report.nodes, "cuts": report.cuts, "status": report.status})
    return report


def _most_fractional(x: np.ndarray) -> int:
    frac = 0.5 - np.abs(x - 0.5)
    frac[np.abs(x - np.round(x)) <= INT_TOL] = -1.0
    return int(np.argmax(frac))


def solve(inst: Instance, cfg: BncConfig, events=None) -> SolveReport:
    """Run the branch-and-cut search; see the module docstring."""
    t0 = time.perf_counter()

    if inst.p == inst.n:  # single leader choice
        x = indicator(inst.n, range(inst.n))
        val = _exact_value(inst, x)
        dt = time.perf_counter() - t0
        return _finish(SolveReport(cfg.formulation, val, x, val, 0.0, 0, 0, 0.0, dt, val, 0.0, "optimal"), events)

    search = _Search(inst, cfg)
    n = inst.n
    lb, best_x = -math.inf, None
    root_bound = math.nan
    status = "optimal"
    counter = itertools.count()
    heap = [(-inst.total_demand, next(counter), frozenset(), frozenset())]
    processed = 0

    while heap:
        neg_bound, _, fix0, fix1 = heapq.heappop(heap)
        bound = -neg_bound
        if _dominated(bound, lb, cfg.gap_tol):
            continue
        if search.out_of_time():
            heapq.heappush(heap, (neg_bound, next(counter), fix0, fix1))
            status = "limit"
            break
        processed += 1
        is_root = processed == 1

        search.model.lower[1 : 1 + n] = 0.0
        search.model.upper[1 : 1 + n] = 1.0
        search.model.upper[[1 + j for j in fix0]] = 0.0
        search.model.lower[[1 + j for j in fix1]] = 1.0
        outcome, obj, pt = search.cut_loop(is_root, lb)

        if is_root:
            root_bound = obj if outcome != "infeasible" else math.nan
        _emit(
            events,
            {
                "event": "node",
                "processed": processed,
                "outcome": outcome,
                "bound": None if obj == -math.inf else obj,
                "incumbent": None if lb == -math.inf else lb,
                "open": len(heap),
                "cuts": search.cuts,
            },
        )

        if outcome in ("infeasible", "dominated"):
            continue
        if outcome == "timeout":
            heapq.heappush(heap, (-obj, next(counter), fix0, fix1))
            status = "limit"
            break
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

    ub = lb
    if heap:
        open_bounds = [-hb for hb, *_ in heap]
        ub = max(lb, max(open_bounds, default=lb))
    gap = 0.0 if status == "optimal" else (ub - lb) / ub * 100.0 if ub > 0 else math.inf
    objective = lb if best_x is not None else math.nan
    rg = math.nan
    if best_x is not None and objective > 0 and not math.isnan(root_bound):
        rg = (root_bound - objective) / objective * 100.0
    dt = time.perf_counter() - t0
    report = SolveReport(
        cfg.formulation,
        objective,
        best_x,
        ub,
        gap,
        max(processed - 1, 0),
        search.cuts,
        search.sep_time,
        dt,
        root_bound,
        rg,
        status,
    )
    return _finish(report, events)


def root_relaxation(inst: Instance, cfg: BncConfig, true_opt: float):
    """Run the cut loop at the root only; returns (bound, root gap %), the
    gap being (bound - true_opt) / true_opt * 100."""
    if inst.p == inst.n:
        x = indicator(inst.n, range(inst.n))
        val = _exact_value(inst, x)
        return val, 0.0
    search = _Search(inst, cfg)
    outcome, obj, _ = search.cut_loop(is_root=True, lb=-math.inf)
    if outcome == "infeasible":
        raise RuntimeError("root relaxation infeasible")
    return obj, (obj - true_opt) / true_opt * 100.0
