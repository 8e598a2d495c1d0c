"""Market-share evaluation under the partially binary choice rule.

For a fixed follower choice y, customer i gives a leader facility j the
capture ratio

    c[i, j] = v[i, j] / (v[i, j] + max_{k open in y} v[i, k]),

and the leader's share is sum_i w_i * max over open leader sites of c[i, j].
The map x -> share is, per follower choice, a weighted sum of per-customer
max functions, so its set form is nondecreasing and submodular.
"""

from __future__ import annotations

import numpy as np

from .instance import Instance
from .rmedian import RMedianInstance, rmedian_enumerate, rmedian_solve


def open_sites(bits) -> np.ndarray:
    """Indices of the open sites in a 0/1 vector."""
    return (np.asarray(bits) > 0.5).ravel().nonzero()[0]


def indicator(n: int, sites) -> np.ndarray:
    y = np.zeros(n, dtype=np.int8)
    y[list(sites)] = 1
    return y


def compute_cy(inst: Instance, y) -> np.ndarray:
    """Capture-ratio matrix c for follower choice y (shape (m, n)).

    The virtual site n carries c = 0 by convention; callers index it
    implicitly.  Rejects an all-zero y, whose denominator term would vanish.
    Within every row the ordering of c matches the ordering of v, whatever y.
    """
    ys = open_sites(y)
    if ys.size == 0:
        raise ValueError("follower choice must open at least one site")
    vy = inst.v[:, ys].max(axis=1)  # (m,)
    return inst.v / (inst.v + vy[:, None])


def share_of_set(cy: np.ndarray, w: np.ndarray, sites) -> float:
    """Set form of the leader share: sum_i w_i max_{j in sites} c[i, j].

    Empty site sets evaluate to 0 (max over the empty set is 0), matching
    the constant of the S = {} submodular cut.
    """
    sites = np.asarray(list(sites), dtype=int)
    if sites.size == 0:
        return 0.0
    return float(w @ cy[:, sites].max(axis=1))


def leader_share(inst: Instance, x, y) -> float:
    """Leader market share g(x, y); 0.0 for an all-zero x (empty-set convention)."""
    return share_of_set(compute_cy(inst, y), inst.w, open_sites(x))


def follower_share(inst: Instance, x, y) -> float:
    """Follower market share; complements leader_share to sum(w)."""
    xs = open_sites(x)
    ys = open_sites(y)
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both players must open at least one site")
    vx = inst.v[:, xs].max(axis=1)
    vy = inst.v[:, ys].max(axis=1)
    return float(inst.w @ (vy / (vx + vy)))


def response_costs(inst: Instance, x) -> RMedianInstance:
    """r-median reduction of the follower's best response to integral x.

    With c_i = max over open leader sites of v[i, j], the follower facing
    cost a[i, k] = c_i / (c_i + v[i, k]) keeps the leader share at
    sum_i w_i min over open follower sites of a[i, k].
    """
    xs = open_sites(x)
    if xs.size == 0:
        raise ValueError("leader choice must open at least one site")
    ci = inst.v[:, xs].max(axis=1)
    a = ci[:, None] / (ci[:, None] + inst.v)
    return RMedianInstance(cost=a, w=inst.w, r=inst.r)


def follower_best_response(inst: Instance, x, mode: str = "rmedian", enum_cap: int = 2_000_000, start=()):
    """Minimize the leader share over follower choices; returns (y, value).

    ``rmedian`` solves the cost reduction exactly with the branch-and-bound
    solver, started from the candidate site sets ``start`` (see
    ``rmedian_solve``); ``enumerate`` scans all C(n, r) choices and breaks
    ties by the lexicographically smallest open-site set.  Both modes
    return the same value.
    """
    rm = response_costs(inst, x)
    if mode == "enumerate":
        sites, value = rmedian_enumerate(rm, cap=enum_cap)
    elif mode == "rmedian":
        sites, value, status = rmedian_solve(rm, start=start)
        if status != "optimal":
            raise RuntimeError(f"best-response solve hit a limit (status={status})")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return indicator(inst.n, sites), value
