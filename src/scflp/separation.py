"""Separation oracles for the three cut families.

Each oracle takes the current relaxation point, tries cheap heuristics
against a pool of previously optimal follower responses, and falls back to
an exact r-median solve (for the classic cuts, only at integral points).
Pool scans and exact passes at fractional points keep cuts violated by more
than ``eps``, so an empty exact return certifies that no inequality of the
family is violated by more than that.  At an integral point
(``RelaxPoint.integral``) the exact pass keeps its cut unless eta is at most
its value there up to the certification slack (``tolerances.at_most``): an
empty return certifies the point at its exact best-response value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cuts import Cut, ef_cut, ef_separation_costs, gsf_separation_costs, improved_cut, submodular_cut, tight_ell
from .instance import Instance
from .market import compute_cy, indicator, open_sites, response_costs
from .rmedian import RMedianInstance, rmedian_solve
from .tolerances import EPS_VIOL, INT_TOL, at_most


class FollowerPool:
    """Ordered set of distinct follower choices, scanned newest first.

    Members are optimal solutions of previously solved exact separation
    problems, so their cuts are the ones most likely to be violated again.
    ``scan`` computes each member's capture matrix once per instance.
    ``last_solve`` holds the most recent exact separation solve recorded
    on the pool: (r-median instance, sites, value), or None.
    """

    def __init__(self):
        self._members: list[np.ndarray] = []
        self._seen: set[bytes] = set()
        self._inst: Instance | None = None  # the instance _captures belong to
        self._captures: list[np.ndarray | None] = []
        self.last_solve: tuple[RMedianInstance, np.ndarray, float] | None = None

    def add(self, y) -> bool:
        y = np.asarray(y, dtype=np.int8)
        key = y.tobytes()
        if key in self._seen:
            return False
        self._seen.add(key)
        self._members.append(y)
        self._captures.append(None)
        return True

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(reversed(self._members))

    def sites(self):
        """Open sites of each member, newest first, computed as consumed."""
        return (open_sites(y) for y in self)

    def scan(self, inst: Instance):
        """(y, compute_cy(inst, y)) per member, newest first."""
        if inst is not self._inst:
            self._inst = inst
            self._captures = [None] * len(self._members)
        for k in range(len(self._members) - 1, -1, -1):
            cy = self._captures[k]
            if cy is None:
                cy = self._captures[k] = compute_cy(inst, self._members[k])
            yield self._members[k], cy


@dataclass(frozen=True)
class RelaxPoint:
    """LP solution handed to the oracles: objective value eta, leader
    vector x in [0,1]^n and allocations z (extended formulation only)."""

    eta: float
    x: np.ndarray
    z: np.ndarray | None = None
    integral: bool = field(init=False)  # is_integral(x), computed once

    def __post_init__(self):
        object.__setattr__(self, "integral", is_integral(self.x))


def _violated(cut: Cut, pt: RelaxPoint, eps: float) -> bool:
    return pt.eta > cut.rhs_at(pt.x, pt.z) + eps


def _exact_verdict(cut: Cut, pt: RelaxPoint, eps: float) -> list[Cut]:
    """[cut] if the exact pass's cut is violated at pt (see the module docstring), else []."""
    if pt.integral:
        return [] if at_most(pt.eta, cut.rhs_at(pt.x, pt.z)) else [cut]
    return [cut] if _violated(cut, pt, eps) else []


def is_integral(x) -> bool:
    x = np.asarray(x)
    return bool((np.abs(x - x.round()) <= INT_TOL).all())


def _exact(rm: RMedianInstance, pool: FollowerPool | None):
    """Exact r-median solve of a separation problem, started from the pool's
    members and recorded on the pool."""
    sites, value, status = rmedian_solve(rm, start=pool.sites() if pool is not None else ())
    if status != "optimal":
        raise RuntimeError("exact separation hit the r-median limit")
    if pool is not None:
        pool.last_solve = (rm, sites, value)
    return sites, value


def separate_sf(
    pt: RelaxPoint,
    inst: Instance,
    pool: FollowerPool,
    eps: float = EPS_VIOL,
) -> list[Cut]:
    """Classic-cut separation.

    Cuts are built at the rounded point (ties round up) for pool members and
    returned when violated at x.  At an integral x (``pt.integral``) an
    empty scan falls back to an exact best-response r-median whose argmin
    joins the pool; an empty return then certifies the point.  At a
    fractional x no exactness is claimed.
    """
    if pt.z is not None:
        raise ValueError("classic separation takes points without allocations")
    rounded = np.floor(np.asarray(pt.x) + 0.5)  # ties at .5 round up
    support = (rounded > 0.5).nonzero()[0].tolist()
    hits = []
    for y, cy in pool.scan(inst):
        cut = submodular_cut(inst, y, support, cy)
        if _violated(cut, pt, eps):
            hits.append(cut)
    if hits or not pt.integral:
        return hits
    sites, _ = _exact(response_costs(inst, pt.x), pool)
    y_star = indicator(inst.n, sites)
    pool.add(y_star)
    return _exact_verdict(submodular_cut(inst, y_star, support), pt, eps)


def separate_gsf(
    pt: RelaxPoint,
    inst: Instance,
    pool: FollowerPool,
    eps: float = EPS_VIOL,
) -> list[Cut]:
    """Anchor-cut separation, exact at arbitrary points.

    The deepest anchor vector at x is follower independent, so the pool scan
    prices each member's cut directly; the exact pass solves the r-median on
    the anchor-reduction costs and certifies the point when its cut for the
    argmin follower choice is unviolated.
    """
    if pt.z is not None:
        raise ValueError("anchor separation takes points without allocations")
    ell = tight_ell(inst, pt.x)
    hits = []
    for y, cy in pool.scan(inst):
        cut = improved_cut(inst, y, ell, cy)
        if _violated(cut, pt, eps):
            hits.append(cut)
    if hits:
        return hits
    sites, _ = _exact(gsf_separation_costs(inst, pt.x), pool)
    y_star = indicator(inst.n, sites)
    pool.add(y_star)
    return _exact_verdict(improved_cut(inst, y_star, ell), pt, eps)


def separate_ef(
    pt: RelaxPoint,
    inst: Instance,
    pool: FollowerPool | None = None,
    eps: float = EPS_VIOL,
) -> list[Cut]:
    """Assignment-cut separation; always exact, no heuristic path.  A given
    pool only records the exact solve (``FollowerPool.last_solve``)."""
    if pt.z is None:
        raise ValueError("assignment separation needs allocations")
    sites, _ = _exact(ef_separation_costs(inst, pt.z), pool)
    return _exact_verdict(ef_cut(inst, indicator(inst.n, sites)), pt, eps)
