"""Cut families for the three reformulations.

Site indices are 0-based throughout; index n denotes the virtual site with
zero attractiveness and zero capture ratio.  An anchor vector ell assigns
each customer an anchor site in {0, ..., n}; the per-customer cut built from
it bounds the objective variable eta by

    sum_i w_i * ( c[i, ell_i] + sum_j (c[i, j] - c[i, ell_i])^+ x_j ).

Classic aggregated cuts (kind SF) are the special case where every customer
anchors inside a common site set S; the assignment cuts (kind EF) bound eta
through the allocation variables z instead of x.  EF is the paper's extended
formulation of GSF with the same LP bound, so the GSF separation reduction is
the EF one at the prefix-greedy allocation (``greedy_assignment``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance
from .market import compute_cy
from .rmedian import RMedianInstance
from .tolerances import UNIT_SLACK

# the separation-cost kernels work on blocks of customers whose
# (block, n, n) temporary takes about this many bytes: a few blocks fit in
# cache, and the whole (m, n, n) array at m = n = 100 would take 8 MB
_BLOCK_BYTES = 1 << 20


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
    """Per-customer cut for follower choice y and anchor vector ell.

    Constant and coefficients are one in-order sum over customers of the
    terms [w_i c[i, ell_i], w_i (c[i, :] - c[i, ell_i])^+] (``np.add.reduce``
    over axis 0, where a BLAS product may fuse or reorder), so the cut
    equals the in-order sum of its one-customer cuts bit for bit."""
    c = compute_cy(inst, y) if cy is None else cy
    ell = np.asarray(ell, dtype=int)
    terms = np.zeros((inst.m, 1 + inst.n))
    real = ell < inst.n
    terms[real, 0] = c[real, ell[real]]
    np.subtract(c, terms[:, :1], out=terms[:, 1:])
    np.maximum(terms, 0.0, out=terms)  # the anchor column is >= 0 already
    terms *= inst.w[:, None]
    total = np.add.reduce(terms, axis=0)
    return Cut("GSF", float(total[0]), total[1:], None, ("GSF", _key(y), tuple(ell.tolist())))


def _prefix_lengths(xs_sorted: np.ndarray) -> np.ndarray:
    """Per row of an (m, n) matrix of LP masses in descending-v order: the
    number of leading sites whose cumulative mass stays below one; 1 when
    the very first site is fully open."""
    k = (xs_sorted.cumsum(axis=1) < 1.0 - UNIT_SLACK).sum(axis=1)
    k[xs_sorted[:, 0] >= 1.0 - UNIT_SLACK] = 1
    return k


def tight_ell(inst: Instance, xstar) -> np.ndarray:
    """Anchor vector whose cut is deepest at xstar: per customer, the first
    site (by descending v) past the unit prefix mass, or the virtual site n
    when the whole row's mass stays below one.  Independent of the follower
    choice."""
    sigma = inst.sigma
    xs = np.asarray(xstar, dtype=float).clip(0.0, 1.0)
    k = _prefix_lengths(xs[sigma])
    inside = k < inst.n
    ell = np.full(inst.m, inst.n)
    ell[inside] = sigma[inside, k[inside]]
    return ell


def deepest_prefix(inst: Instance, c: np.ndarray, order: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Site set of the classic cut for capture matrix c that is deepest at
    a point with masses xs > 0 on the sites order (its support, by
    descending mass): the prefix S_k = order[:k], k in 0..q, whose cut has
    the smallest right-hand side at the point, smallest k on ties.

    Every right-hand side is scored at once: with b_k the row maxima of c
    over S_k (0 for k = 0), the cut's value at the point is
    sum_i w_i (b_k,i + sum_t xs_t (c[i, order_t] - b_k,i)^+); sites inside
    S_k add nothing to the inner sum, and sites off the support carry no
    mass.  Customers go in blocks whose (block, q + 1, q) temporary takes
    about _BLOCK_BYTES."""
    q = order.size
    cs = c[:, order]
    value = np.zeros((inst.m, q + 1))  # b_k per customer, then the cut's value per customer
    np.maximum.accumulate(cs, axis=1, out=value[:, 1:])
    step = max(1, _BLOCK_BYTES // (8 * (q + 1) * max(q, 1)))
    buf = np.empty((min(step, inst.m), q + 1, q))
    for s in range(0, inst.m, step):
        e = min(s + step, inst.m)
        gain = buf[: e - s]
        np.subtract(cs[s:e, None, :], value[s:e, :, None], out=gain)
        np.maximum(gain, 0.0, out=gain)
        value[s:e] += gain @ xs
    return order[: int((inst.w @ value).argmin())]


def _ratio_sums(a: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """out[i, k] = sum_j a[i, j] / (u[i, j] + v[i, k]) for (m, q) arrays a
    and u and an (m, n) array v.  Columns where a is all zero add nothing
    and are dropped; customers go in blocks that share one (block, q, n)
    buffer of about _BLOCK_BYTES."""
    cols = a.any(axis=0).nonzero()[0]
    a, u = a[:, cols], u[:, cols]
    (m, q), n = a.shape, v.shape[1]
    out = np.zeros((m, n))
    step = max(1, _BLOCK_BYTES // (8 * max(q, 1) * n))
    buf = np.empty((min(step, m), q, n))
    for s in range(0, m, step):
        e = min(s + step, m)
        recip = buf[: e - s]
        np.add(u[s:e, :, None], v[s:e, None, :], out=recip)
        np.divide(1.0, recip, out=recip)
        np.matmul(a[s:e, None, :], recip, out=out[s:e, None, :])
    return out


def greedy_assignment(inst: Instance, x) -> np.ndarray:
    """Prefix-greedy allocation for leader vector x: each customer's unit
    prefix of sites (``_prefix_lengths``) keeps its x mass and the next site
    takes the rest of one, capped at its own mass (giving it the whole rest
    differs only where a prefix's mass lands within ``UNIT_SLACK`` of one).
    Optimal for every follower choice at once; one-hot for integral x."""
    sigma = inst.sigma
    xs = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)[sigma]  # masses in descending-v order
    lengths = _prefix_lengths(xs)
    zs = np.where(np.arange(inst.n) < lengths[:, None], xs, 0.0)
    rows = (lengths < inst.n).nonzero()[0]
    nxt = lengths[rows]
    rest = 1.0 - xs.cumsum(axis=1)[rows, nxt - 1]  # in-order sums, as a walk would take them
    zs[rows, nxt] = np.minimum(xs[rows, nxt], rest)
    z = np.empty_like(zs)
    np.put_along_axis(z, sigma, zs, axis=1)
    return z


def gsf_separation_costs(inst: Instance, xstar) -> RMedianInstance:
    """r-median reduction of the exact anchor-cut separation at xstar: the
    assignment-cut reduction at its greedy allocation, which attains the
    deepest anchor cut for every follower choice at once."""
    return ef_separation_costs(inst, greedy_assignment(inst, xstar))


def ef_cut(inst: Instance, y, cy: np.ndarray | None = None) -> Cut:
    """Assignment cut: eta <= sum_ij w_i c[i,j] z[i,j]; one per follower
    choice suffices in the extended formulation."""
    c = compute_cy(inst, y) if cy is None else cy
    return Cut("EF", 0.0, None, inst.w[:, None] * c, ("EF", _key(y)))


def ef_separation_costs(inst: Instance, zstar) -> RMedianInstance:
    """r-median reduction of the assignment-cut separation at zstar:
    cost[i, k] = sum_j zstar[i, j] v[i, j] / (v[i, j] + v[i, k])."""
    z = np.asarray(zstar, dtype=float).clip(0.0, 1.0)
    return RMedianInstance(cost=_ratio_sums(z * inst.v, inst.v, inst.v), w=inst.w, r=inst.r)
