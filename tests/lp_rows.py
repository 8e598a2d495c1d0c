"""Rows of an ``LpModel`` as records, read from its row store, for tests
that compare a model's rows with a reference."""

from dataclasses import dataclass

import numpy as np


@dataclass
class LpRow:
    coef: dict[int, float]  # column -> coefficient, in stored order
    sense: str  # "<=", ">=", "="
    rhs: float


def lp_rows(model) -> list[LpRow]:
    start = model._start[: model.nrows + 1].tolist()
    index = model._index[: model._nnz].tolist()
    value = model._value[: model._nnz].tolist()
    out = []
    for k, (lo, hi) in enumerate(zip(model._row_lo[: model.nrows].tolist(), model._row_hi[: model.nrows].tolist())):
        sense, rhs = ("<=", hi) if lo == -np.inf else (">=", lo) if hi == np.inf else ("=", lo)
        s, e = start[k], start[k + 1]
        out.append(LpRow(dict(zip(index[s:e], value[s:e])), sense, rhs))
    return out
