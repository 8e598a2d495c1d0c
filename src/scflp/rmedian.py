"""Exact r-median solver: pick r columns of a nonnegative cost matrix
minimizing the weighted sum of per-row minima.

Every site-set value comes from one evaluator, ``_combo_values``: it folds
``np.minimum`` over rows of a cached contiguous ``cost.T`` into one
C-contiguous (K, m) matrix of row minima and sums ``mins * w`` along each
row.  A row's sum does not depend on K, so ``set_value``,
``rmedian_enumerate`` and the branch-and-bound leaves give the same set the
same value bit for bit.  Enumeration and leaves share one chunked scan,
``_scan``, that keeps the first minimizer in lexicographic order, so ties go
to the lexicographically smallest set.

The exact path is a best-bound branch-and-bound on site in/out decisions.
Node bounds come from subgradient ascent on the Lagrangian obtained by
relaxing the one-median-per-customer constraints (each customer must be
assigned to exactly one open column); its inner problem picks the q cheapest
free columns in closed form, which is where the cardinality constraint
enters.  The ascent takes Polyak steps toward the incumbent value, halves
its step factor after a run of non-improving iterations, stops as soon as
the node prunes, and starts each child from its parent's best multipliers.

After each node's bound, Lagrangian reduced-cost fixing (Beasley 1993,
"Lagrangean heuristics for location problems", EJOR 65) drops every free
column k whose forced-in bound ``lag - s_(q) + s_k`` is strictly above
``ub + _tol(ub)``: ``lag`` is the bound at the node's best multipliers,
``s_k`` column k's reduced cost and ``s_(q)`` the q-th smallest free one.
No set within the tolerance of the incumbent is dropped, so ties survive,
and the q cheapest columns are never dropped.  Dropped columns stay out in
the node's whole subtree.  A node with at most ``_ENUM_CHUNK`` completions
left, at once or after fixing, is scanned outright over its free columns in
ascending order.

Incumbents come from greedy construction plus first-improvement swaps,
scored in batches by the same evaluator, and from the caller's candidate
site sets (``start``), scored in one evaluator call; the lowest value wins,
ties going to the lexicographically smaller set.  Costs are nonnegative,
so an incumbent of exactly zero can only be tied: nodes whose
lexicographically smallest completion sorts at or after a zero incumbent
are pruned (the zero floor).  An incumbent ``tuple(range(r))`` at 0.0
thus prunes the root with no bound and no scan.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# site sets per evaluator call in a scan; larger blocks raise peak memory
# (the (K, m) minima matrix) without making the scan faster
_SCAN_CHUNK = 256
# a node with at most this many completions is scanned, not branched on
_ENUM_CHUNK = 4096
# subgradient iterations per node bound
_SUBGRAD_ITERS = 200
# non-improving subgradient iterations before the step factor halves
_STALL_ITERS = 10
# most site sets rmedian_enumerate scans
_ENUM_CAP = 2_000_000


class CapExceededError(RuntimeError):
    """An enumeration would exceed its configured evaluation cap."""


@dataclass(frozen=True)
class RMedianInstance:
    cost: np.ndarray  # (m, n), nonnegative
    w: np.ndarray  # (m,), positive
    r: int

    def __post_init__(self):
        cost = np.asarray(self.cost, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if cost.ndim != 2:
            raise ValueError("cost must be an (m, n) matrix")
        if w.shape != (cost.shape[0],):
            raise ValueError("w length must match the cost row count")
        # min and max propagate NaN, which fails both comparisons
        if cost.size and not (cost.min() >= 0.0 and cost.max() < math.inf):
            raise ValueError("costs must be finite and nonnegative")
        if w.size and not w.min() > 0.0:
            raise ValueError("weights must be positive")
        if not 1 <= self.r <= cost.shape[1]:
            raise ValueError(f"r={self.r} out of range [1, {cost.shape[1]}]")
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.cost.shape[1]

    @cached_property
    def cost_t(self) -> np.ndarray:
        """(n, m) C-contiguous transpose: one site's costs are one row."""
        return np.ascontiguousarray(self.cost.T)


def _tol(u: float) -> float:
    return 1e-9 * (1.0 + abs(u))


def _combo_values(rm: RMedianInstance, combos: np.ndarray, base: np.ndarray | None = None) -> np.ndarray:
    """Values of the K site sets in the rows of the (K, q) index array
    ``combos``, each joined with the sites whose row minima are ``base``.

    The row minima form one C-contiguous (K, m) matrix and each value is
    the sum of one of its rows, which does not depend on K; a
    matrix-vector product with ``w`` would, in the last bits."""
    ct = rm.cost_t
    mins = base
    for col in combos.T:
        mins = ct[col] if mins is None else np.minimum(mins, ct[col])
    if mins.ndim == 1:  # no columns to add: every set is the base alone
        mins = np.broadcast_to(mins, (len(combos), ct.shape[1]))
    return (mins * rm.w).sum(axis=1)


def set_value(rm: RMedianInstance, sites) -> float:
    """Canonical objective evaluator shared by every solution path."""
    return float(_combo_values(rm, np.asarray(list(sites), dtype=np.intp)[None, :])[0])


def _scan(rm: RMedianInstance, fin: tuple, free, q: int, base: np.ndarray | None):
    """Best set among fin joined with q of the sorted ``free`` sites, where
    ``base`` holds the row minima of fin (None when fin is empty).  Returns
    (value, sorted sites); ties go to the lexicographically smallest set."""
    combos = itertools.combinations(free, q)
    total = math.comb(len(free), q)
    best_val, best = math.inf, None
    for start in range(0, total, _SCAN_CHUNK):
        k = min(_SCAN_CHUNK, total - start)
        flat = itertools.chain.from_iterable(itertools.islice(combos, k))
        block = np.fromiter(flat, dtype=np.intp, count=k * q).reshape(k, q)
        vals = _combo_values(rm, block, base)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val, best = float(vals[j]), block[j]
    return best_val, tuple(sorted(fin + tuple(int(s) for s in best)))


def rmedian_enumerate(rm: RMedianInstance):
    """Scan all C(n, r) column subsets; ties go to the lexicographically
    smallest set.  Raises CapExceededError above ``_ENUM_CAP`` evaluations."""
    total = math.comb(rm.n, rm.r)
    if total > _ENUM_CAP:
        raise CapExceededError(f"C({rm.n}, {rm.r}) = {total} exceeds cap {_ENUM_CAP}")
    best_val, best_sites = _scan(rm, (), range(rm.n), rm.r, None)
    return np.array(best_sites, dtype=int), best_val


def _greedy_swap(rm: RMedianInstance):
    """Greedy construction followed by first-improvement 1-swaps; every
    step scores all candidate sites in one evaluator call.  Every accepted
    swap lowers the value by more than 1e-15, so no site set comes back and
    the swaps end."""
    n, r = rm.n, rm.r
    is_open = np.zeros(n, dtype=bool)
    base = None
    for _ in range(r):
        cand = np.flatnonzero(~is_open)
        k = int(cand[np.argmin(_combo_values(rm, cand[:, None], base))])
        is_open[k] = True
        base = rm.cost[:, k] if base is None else np.minimum(base, rm.cost[:, k])
    chosen = np.flatnonzero(is_open).tolist()
    best_val = set_value(rm, chosen)
    improved = True
    while improved:
        improved = False
        outside = np.flatnonzero(~is_open)
        for a in chosen:
            rest = [k for k in chosen if k != a]
            base = rm.cost[:, rest].min(axis=1) if rest else None
            vals = _combo_values(rm, outside[:, None], base)
            better = np.flatnonzero(vals < best_val - 1e-15)
            if better.size:
                b = int(outside[better[0]])
                is_open[a], is_open[b] = False, True
                chosen = sorted(rest + [b])
                best_val = float(vals[better[0]])
                improved = True
                break
    return tuple(chosen), best_val


def _lagrangian_bound(t: np.ndarray, n_forced: int, q: int, ub: float, iters: int, u: np.ndarray) -> float:
    """Lower bound for choosing q of the free columns (the forced columns
    occupy t[:, :n_forced]).  Valid for any multiplier vector; subgradient
    ascent with Polyak steps toward ``ub`` sharpens it, and stops once the
    bound would prune against ``ub``.  ``u`` is the starting point (the row
    minima of t give the trivial bound) and receives the best multipliers
    found."""
    target = ub + _tol(ub)
    cur = u
    best, best_u = -math.inf, cur
    mu = 2.0
    stall = 0
    for _ in range(iters):
        slack = t - cur[:, None]
        s = np.minimum(slack, 0.0).sum(axis=0)
        open_cols = np.arange(n_forced)
        if q > 0:
            cheapest = np.argpartition(s[n_forced:], q - 1)[:q]
            open_cols = np.concatenate([open_cols, n_forced + cheapest])
        val = float(cur.sum()) + float(s[open_cols].sum())
        if val > best:
            best, best_u = val, cur
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_ITERS:
                mu *= 0.5
                stall = 0
        if best >= target:
            break
        # subgradient: 1 - (number of open columns priced below u_i)
        g = 1.0 - (slack[:, open_cols] < 0.0).sum(axis=1)
        gnorm = float(g @ g)
        if gnorm < 1e-16:
            break
        cur = cur + (mu * (target - val) / gnorm) * g
    u[:] = best_u
    return best


def _start_incumbent(rm: RMedianInstance, start) -> tuple[tuple, float]:
    """Greedy+swap incumbent, replaced by the best candidate site set of
    ``start`` when that is lower or ties and sorts first."""
    incumbent, ub = _greedy_swap(rm)
    cands = [tuple(sorted(int(k) for k in c)) for c in start]
    if not cands:
        return incumbent, ub
    if any(len(set(c)) != rm.r or len(c) != rm.r or c[0] < 0 or c[-1] >= rm.n for c in cands):
        raise ValueError(f"every start set must hold {rm.r} distinct sites of 0..{rm.n - 1}")
    val, sites = min(zip(_combo_values(rm, np.array(cands, dtype=np.intp)).tolist(), cands))
    if val < ub or (val == ub and sites < incumbent):
        return sites, val
    return incumbent, ub


def rmedian_solve(rm: RMedianInstance, time_limit: float | None = None, start=()):
    """Exact branch-and-bound; returns (sites, value, status).

    ``start`` holds candidate site sets (each r distinct sites, in any
    order) for the starting incumbent; it is read only when the root is
    not one scan.  status is "optimal" unless ``time_limit`` (seconds)
    interrupts the search, in which case the best incumbent found is
    returned with status "limit".  The limit is honoured only once an
    incumbent exists: a root that is one scan runs it (at most
    ``_ENUM_CHUNK`` evaluations), a larger root starts from the greedy or
    a start incumbent.
    """
    n, r = rm.n, rm.r
    t0 = time.perf_counter()

    # a search that is one scan at the root needs no starting incumbent
    incumbent, ub = _start_incumbent(rm, start) if math.comb(n, r) > _ENUM_CHUNK else ((), math.inf)
    t = None  # weighted costs, built for the first node that needs a Lagrangian bound

    # heap of (bound, tiebreak, forced_in tuple, forced_out frozenset,
    # the parent's best multipliers or None at the root)
    counter = itertools.count()
    heap = [(0.0, next(counter), (), frozenset(), None)]
    status = "optimal"
    while heap:
        bound, _, fin, fout, u = heapq.heappop(heap)
        target = ub + _tol(ub)
        if bound >= target:
            continue
        free = [k for k in range(n) if k not in fin and k not in fout]
        q = r - len(fin)
        if ub == 0.0 and tuple(sorted(fin + tuple(free[:q]))) >= incumbent:
            continue  # zero floor: no completion is lower and none sorts before the incumbent
        if incumbent and time_limit is not None and time.perf_counter() - t0 > time_limit:
            status = "limit"
            break
        if math.comb(len(free), q) > _ENUM_CHUNK:
            if t is None:
                t = rm.w[:, None] * rm.cost
            sub_t = t[:, list(fin) + free]
            u = sub_t.min(axis=1) if u is None else u.copy()
            lag = _lagrangian_bound(sub_t, len(fin), q, ub, _SUBGRAD_ITERS, u)
            bound = max(lag, bound)
            if bound >= target:
                continue
            # reduced-cost fixing at the best multipliers; s - s_(q) is
            # exactly <= 0 for the q cheapest columns, so lag + (s - s_(q))
            # stays below the target for them and at least q columns remain
            s = np.minimum(sub_t[:, len(fin) :] - u[:, None], 0.0).sum(axis=0)
            drop = lag + (s - np.partition(s, q - 1)[q - 1]) > target
            if drop.any():
                fout = fout | {k for k, d in zip(free, drop.tolist()) if d}
                free = [k for k, d in zip(free, drop.tolist()) if not d]
        if math.comb(len(free), q) <= _ENUM_CHUNK:
            base = rm.cost[:, list(fin)].min(axis=1) if fin else None
            val, sites = _scan(rm, fin, free, q, base)
            if val < ub or (val == ub and sites < incumbent):
                incumbent, ub = sites, val
            continue
        # branch on the free site with the largest weighted usage among
        # the row minima of the allowed columns
        allowed = list(fin) + free
        argmin = np.asarray(allowed)[np.argmin(rm.cost[:, allowed], axis=1)]
        usage = np.zeros(n)
        np.add.at(usage, argmin, rm.w)
        k_star = max(free, key=lambda k: (usage[k], -k))
        heapq.heappush(heap, (bound, next(counter), tuple(fin) + (k_star,), fout, u))
        heapq.heappush(heap, (bound, next(counter), fin, fout | {k_star}, u))

    return np.array(incumbent, dtype=int), ub, status
