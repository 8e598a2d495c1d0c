"""Cut families for the three reformulations.

Site indices are 0-based throughout; index n denotes the virtual site with
zero attractiveness and zero capture ratio.  An anchor vector ell assigns
each customer an anchor site in {0, ..., n}; the per-customer cut built from
it bounds the objective variable eta by

    sum_i w_i * ( c[i, ell_i] + sum_j (c[i, j] - c[i, ell_i])^+ x_j ).

Classic aggregated cuts (kind SF) are the special case where every customer
anchors inside a common site set S; the assignment cuts (kind EF) bound eta
through the allocation variables z instead of x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance
from .market import compute_cy
from .rmedian import RMedianInstance

# prefix mass of an LP point is treated as reaching 1 within this slack
_UNIT_SLACK = 1e-9


@dataclass(frozen=True)
class Cut:
    """One linear inequality: eta <= constant + xcoef.x (SF/GSF) or
    eta <= constant + sum_ij zcoef[i,j] z[i,j] (EF)."""

    kind: str  # "SF" | "GSF" | "EF"
    constant: float
    xcoef: np.ndarray | None
    zcoef: np.ndarray | None
    provenance: tuple  # hashable identity for duplicate suppression

    def rhs_at(self, x: np.ndarray | None = None, z: np.ndarray | None = None) -> float:
        if self.kind == "EF":
            return self.constant + float((self.zcoef * z).sum())
        return self.constant + float(self.xcoef @ x)


def _key(bits) -> tuple:
    return tuple(np.asarray(bits).ravel().astype(np.int64).tolist())


def sigma_order(inst: Instance) -> np.ndarray:
    """Per-customer site permutation by descending attractiveness, ties by
    ascending index.  The capture-ratio ordering it induces is the same for
    every follower choice."""
    return np.argsort(-inst.v, axis=1, kind="stable")


def submodular_cut(inst: Instance, y, S, cy: np.ndarray | None = None) -> Cut:
    """Classic aggregated cut for follower choice y and site set S:
    constant G_y(S), coefficient on j the marginal gain of adding j to S."""
    c = compute_cy(inst, y) if cy is None else cy
    S = sorted(int(j) for j in S)
    if S:
        base = c[:, S].max(axis=1)
    else:
        base = np.zeros(inst.m)
    constant = float(inst.w @ base)
    gain = np.maximum(c - base[:, None], 0.0)
    xcoef = inst.w @ gain
    xcoef[S] = 0.0
    return Cut("SF", constant, xcoef, None, ("SF", _key(y), tuple(S)))


def improved_cut(inst: Instance, y, ell, cy: np.ndarray | None = None) -> Cut:
    """Per-customer cut for follower choice y and anchor vector ell."""
    c = compute_cy(inst, y) if cy is None else cy
    ell = np.asarray(ell, dtype=int)
    anchors = np.zeros(inst.m)
    real = ell < inst.n
    anchors[real] = c[np.flatnonzero(real), ell[real]]
    constant = float(inst.w @ anchors)
    xcoef = inst.w @ np.maximum(c - anchors[:, None], 0.0)
    return Cut("GSF", constant, xcoef, None, ("GSF", _key(y), tuple(ell.tolist())))


def _prefix_lengths(xs_sorted: np.ndarray) -> np.ndarray:
    """Per row of an (m, n) matrix of LP masses in descending-v order: the
    number of leading sites whose cumulative mass stays below one; 1 when
    the very first site is fully open."""
    k = np.count_nonzero(np.cumsum(xs_sorted, axis=1) < 1.0 - _UNIT_SLACK, axis=1)
    k[xs_sorted[:, 0] >= 1.0 - _UNIT_SLACK] = 1
    return k


def tight_ell(inst: Instance, xstar, sigma: np.ndarray | None = None) -> np.ndarray:
    """Anchor vector whose cut is deepest at xstar: per customer, the first
    site (by descending v) past the unit prefix mass, or the virtual site n
    when the whole row's mass stays below one.  Independent of the follower
    choice."""
    sigma = sigma_order(inst) if sigma is None else sigma
    xs = np.clip(np.asarray(xstar, dtype=float), 0.0, 1.0)
    k = _prefix_lengths(xs[sigma])
    inside = k < inst.n
    ell = np.full(inst.m, inst.n)
    ell[inside] = sigma[inside, k[inside]]
    return ell


def gsf_separation_costs(inst: Instance, xstar, sigma: np.ndarray | None = None) -> RMedianInstance:
    """r-median reduction of the exact anchor-cut separation at xstar.

    For each customer the prefix sites (descending v, mass below one) keep
    their fractional weights and the remaining unit mass sits on the first
    site past the prefix; the cost against follower site k prices both
    against v[i, k].  The virtual site carries v = 0, so the remainder term
    vanishes when the prefix spans the whole row.
    """
    sigma = sigma_order(inst) if sigma is None else sigma
    xs = np.clip(np.asarray(xstar, dtype=float), 0.0, 1.0)
    lengths = _prefix_lengths(xs[sigma])
    b = np.empty((inst.m, inst.n))
    for i in range(inst.m):
        order = sigma[i]
        k = lengths[i]
        prefix = order[:k]
        vi = inst.v[i]
        vpre = vi[prefix]
        mass = float(xs[prefix].sum())
        rest = max(1.0 - mass, 0.0)
        vnext = vi[order[k]] if k < inst.n else 0.0
        b[i] = rest * vnext / (vnext + vi) + (xs[prefix] * vpre) @ (1.0 / (vpre[:, None] + vi[None, :]))
    return RMedianInstance(cost=b, w=inst.w, r=inst.r)


def ef_cut(inst: Instance, y, cy: np.ndarray | None = None) -> Cut:
    """Assignment cut: eta <= sum_ij w_i c[i,j] z[i,j]; one per follower
    choice suffices in the extended formulation."""
    c = compute_cy(inst, y) if cy is None else cy
    return Cut("EF", 0.0, None, inst.w[:, None] * c, ("EF", _key(y)))


def ef_separation_costs(inst: Instance, zstar) -> RMedianInstance:
    """r-median reduction of the assignment-cut separation at zstar:
    cost[i, k] = sum_j zstar[i, j] v[i, j] / (v[i, j] + v[i, k])."""
    z = np.clip(np.asarray(zstar, dtype=float), 0.0, 1.0)
    d = np.empty((inst.m, inst.n))
    for i in range(inst.m):
        vi = inst.v[i]
        d[i] = (z[i] * vi) @ (1.0 / (vi[:, None] + vi[None, :]))
    return RMedianInstance(cost=d, w=inst.w, r=inst.r)
