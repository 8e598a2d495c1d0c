"""Standalone LPs of the descriptions that ``scflp.verify`` and the oracle
check, each built from its explicit rows: the references tests compare the
checks' models with."""

import itertools

import numpy as np

from scflp.bnc import add_cut_row, add_linking_rows, build_model
from scflp.cuts import ef_cut
from scflp.lp import LpModel, lp_solve
from scflp.market import compute_cy, indicator
from scflp.verify import _anchor_rows


def _box(width: int) -> LpModel:
    """Zero-objective model of a free eta column followed by width - 1
    columns in [0, 1]; no rows."""
    return LpModel(np.zeros(width), np.r_[-np.inf, np.zeros(width - 1)], np.r_[np.inf, np.ones(width - 1)])


def add_anchor_rows(model: LpModel, rows: np.ndarray, first: int) -> None:
    """Append ``_anchor_rows`` rows [constant, xcoef] as
    eta - xcoef.x <= constant, over the columns eta, x that start at
    ``first``: dense rows [1, -xcoef], whose zeros add_rows drops."""
    width = rows.shape[1]
    dense = np.ones_like(rows)
    np.negative(rows[:, 1:], out=dense[:, 1:])
    cols = np.tile(np.arange(first, first + width), len(rows))
    model.add_rows(np.arange(0, dense.size + 1, width), cols, dense.ravel(), "<=", rows[:, 0])


def anchor_polytope(inst, rows: np.ndarray) -> LpModel:
    """eta and x columns, the given ``_anchor_rows`` rows, unit box, no
    cardinality row: the anchor description as an explicit LP."""
    model = _box(1 + inst.n)
    add_anchor_rows(model, rows, 0)
    return model


def assignment_polytope(inst, y) -> LpModel:
    """eta, x, z columns with the linking rows and the single cut for y:
    the assignment description as a standalone LP."""
    model = _box(1 + inst.n + inst.m * inst.n)
    add_linking_rows(model, inst.m, inst.n, 1 + inst.n)
    add_cut_row(model, inst, ef_cut(inst, y))
    return model


def enumerate_gsf_value(inst) -> float:
    """GSF relaxation value over the explicit anchor-cut family: the base
    GSF model plus all (n+1)^m anchor cuts of every follower choice, in
    lexicographic order.  Cross-checks ``oracle.full_lp_value``'s row
    generation at desk scale."""
    model = build_model(inst, "GSF")
    for combo in itertools.combinations(range(inst.n), inst.r):
        y = indicator(inst.n, combo)
        add_anchor_rows(model, _anchor_rows(inst, y, compute_cy(inst, y)), 0)
    res = lp_solve(model)
    if res.status != "optimal":
        raise RuntimeError(f"GSF explicit-family LP failed: {res.status}")
    return res.objective
