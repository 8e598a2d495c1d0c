"""Separation oracles for the three cut families.

The classic (SF), anchor (GSF) and assignment (EF) cuts are separated by
one pass (``_separate``) that differs only in the family's cut builder and
r-median costs.  The pass first scans a pool of previously optimal follower
responses; when no member's cut is violated it solves the family's
separation r-median exactly (SF only at integral points), started from the
pool's members, and adds the argmin to the pool.  The pool is bound to one
instance, which the separators read from it, and computes each member's
capture matrix once, when the member joins.  At every point SF's cut for
a member is the classic cut deepest at the point over the prefix sets of
its support (``cuts.deepest_prefix``); SF's fractional pass is pool-only
and claims no exactness.  Pool scans and exact
passes at fractional points keep cuts violated by more than ``eps``, so an
empty exact return certifies that no inequality of the family is violated
by more than that.  At an integral point (``RelaxPoint.integral``) the exact
pass keeps its cut unless eta is at most its value there up to the
certification slack (``tolerances.at_most``): an empty return certifies the
point at its exact best-response value.  ``separate_gsf`` can also take its
anchor vector and r-median costs at another leader vector ``at`` (the
search's in-out center, see ``bnc``) while keeping only cuts violated at
the LP point; such a pass certifies nothing, and the search runs it only at
fractional points, falling back to the plain pass when it finds nothing new.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cuts import Cut, deepest_prefix, ef_cut, ef_separation_costs, gsf_separation_costs, improved_cut, submodular_cut, tight_ell
from .instance import Instance
from .market import compute_cy, indicator, open_sites, response_costs
from .rmedian import RMedianInstance, rmedian_solve
from .tolerances import EPS_VIOL, INT_TOL, at_most


class FollowerPool:
    """Distinct follower choices of one instance, scanned newest first.

    Members are optimal solutions of previously solved exact separation
    problems, so their cuts are the ones most likely to be violated again.
    One insertion-ordered map holds each member as (y, capture matrix); the
    matrix is computed once, when the member joins.  ``last_solve`` holds
    the most recent exact separation solve recorded on the pool:
    (r-median instance, sites, value), or None.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self._members: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self.last_solve: tuple[RMedianInstance, np.ndarray, float] | None = None

    def add(self, y) -> np.ndarray:
        """Add follower choice y unless present; returns its capture matrix."""
        y = np.asarray(y, dtype=np.int8)
        key = y.tobytes()
        if key not in self._members:
            self._members[key] = (y, compute_cy(self.inst, y))
        return self._members[key][1]

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return (y for y, _ in self.scan())

    def sites(self):
        """Open sites of each member, newest first, computed as consumed."""
        return (open_sites(y) for y in self)

    def scan(self):
        """(y, capture matrix) per member, newest first."""
        return reversed(self._members.values())


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


def is_integral(x) -> bool:
    x = np.asarray(x)
    return bool((np.abs(x - x.round()) <= INT_TOL).all())


def _separate(pt: RelaxPoint, pool: FollowerPool, eps: float, cut_for, costs) -> list[Cut]:
    """The one separation pass: cut_for(y, cy) builds a family's cut for
    follower choice y with capture matrix cy, and costs, when not None,
    returns the exact separation r-median at pt.  Pool cuts violated by
    more than eps are returned; with none, the exact argmin joins the pool,
    its solve is recorded, and its cut is kept by the module docstring's
    rule."""
    hits = [cut for cut in (cut_for(y, cy) for y, cy in pool.scan()) if _violated(cut, pt, eps)]
    if hits or costs is None:
        return hits
    rm = costs()
    sites, value, status = rmedian_solve(rm, start=pool.sites())
    if status != "optimal":
        raise RuntimeError("exact separation hit the r-median limit")
    pool.last_solve = (rm, sites, value)
    y_star = indicator(pool.inst.n, sites)
    cut = cut_for(y_star, pool.add(y_star))
    if pt.integral:
        return [] if at_most(pt.eta, cut.rhs_at(pt.x, pt.z)) else [cut]
    return [cut] if _violated(cut, pt, eps) else []


def separate_sf(pt: RelaxPoint, pool: FollowerPool, eps: float = EPS_VIOL) -> list[Cut]:
    """Classic-cut separation: each follower choice's cut is the classic
    cut deepest at x over the prefixes of the LP support (``deepest_prefix``:
    sites with x > 0 by descending x, ties by index).  At an integral x
    (``pt.integral``) an exact pass on the follower's best-response costs
    follows an empty pool scan; every prefix's cut is valid and the open
    set, itself a prefix, attains the exact share, so the deepest cut is
    tight and an empty return certifies the point.  At a fractional x only
    the pool is scanned and no exactness is claimed.
    """
    if pt.z is not None:
        raise ValueError("classic separation takes points without allocations")
    inst = pool.inst
    x = np.asarray(pt.x)
    cols = (x > 0.0).nonzero()[0]
    order = cols[np.argsort(-x[cols], kind="stable")]  # descending x, ties by index
    xs = x[order]
    costs = (lambda: response_costs(inst, x)) if pt.integral else None
    return _separate(pt, pool, eps, lambda y, cy: submodular_cut(inst, y, deepest_prefix(inst, cy, order, xs), cy), costs)


def separate_gsf(pt: RelaxPoint, pool: FollowerPool, eps: float = EPS_VIOL, at=None) -> list[Cut]:
    """Anchor-cut separation, exact at arbitrary points.

    The deepest anchor vector at x is follower independent, so every cut,
    pool member's or argmin's, is the anchor cut at ``tight_ell``; the exact
    pass solves the r-median on the anchor-reduction costs.

    With ``at`` (a leader vector, the search's stabilization center) the
    anchor vector and the r-median costs are taken at ``at`` instead of at
    pt.x, and a cut is still kept only if pt violates it by more than eps.
    Such a pass returns valid cuts but certifies nothing when it returns
    none; it is meant for fractional points only.
    """
    if pt.z is not None:
        raise ValueError("anchor separation takes points without allocations")
    inst = pool.inst
    x = pt.x if at is None else at
    ell = tight_ell(inst, x)
    return _separate(pt, pool, eps, lambda y, cy: improved_cut(inst, y, ell, cy), lambda: gsf_separation_costs(inst, x))


def separate_ef(pt: RelaxPoint, pool: FollowerPool, eps: float = EPS_VIOL) -> list[Cut]:
    """Assignment-cut separation, exact at arbitrary points: cuts bound eta
    through the allocations z, and the exact pass solves the r-median on
    the costs at z."""
    if pt.z is None:
        raise ValueError("assignment separation needs allocations")
    inst = pool.inst
    return _separate(pt, pool, eps, lambda y, cy: ef_cut(inst, y, cy), lambda: ef_separation_costs(inst, pt.z))
