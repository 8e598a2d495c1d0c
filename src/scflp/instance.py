"""Problem data model, random instance generators, and the on-disk format.

The native file format is UTF-8 text::

    scflp 1
    m n p r
    w_1 ... w_m
    v_11 ... v_1n
    ...
    v_m1 ... v_mn

Anything from ``#`` to the end of a line is a comment; blank lines are
skipped.  Numbers are plain decimals with an optional exponent (the parse is
locale independent, decimal point only).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

FORMAT_HEADER = "scflp 1"


class InstanceError(ValueError):
    """Malformed instance file or invalid instance data."""


@dataclass(frozen=True, eq=False)  # identity equality and hash: fields w and v are arrays
class Instance:
    """SCFLP instance: m customers, n candidate sites, demand weights w,
    attractiveness matrix v, leader cardinality p, follower cardinality r."""

    m: int
    n: int
    w: np.ndarray  # (m,) positive
    v: np.ndarray  # (m, n) positive
    p: int
    r: int

    def __post_init__(self):
        # private copies: freezing them leaves the caller's arrays writable
        w = np.array(self.w, dtype=float)
        v = np.array(self.v, dtype=float)
        if self.m < 1 or self.n < 1:
            raise InstanceError("m and n must be at least 1")
        if w.shape != (self.m,):
            raise InstanceError(f"w has shape {w.shape}, expected ({self.m},)")
        if v.shape != (self.m, self.n):
            raise InstanceError(f"v has shape {v.shape}, expected ({self.m}, {self.n})")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise InstanceError("non-positive demand weight")
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise InstanceError("non-positive attractiveness")
        if not 1 <= self.p <= self.n:
            raise InstanceError(f"p={self.p} out of range [1, {self.n}]")
        if not 1 <= self.r <= self.n:
            raise InstanceError(f"r={self.r} out of range [1, {self.n}]")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)

    @property
    def total_demand(self) -> float:
        return float(self.w.sum())

    @cached_property
    def sigma(self) -> np.ndarray:
        """(m, n) read-only per-customer site permutation by descending
        attractiveness, ties by ascending index.  The capture-ratio ordering
        it induces is the same for every follower choice."""
        order = np.argsort(-self.v, axis=1, kind="stable")
        order.setflags(write=False)
        return order


@dataclass(frozen=True)
class GeneratorParams:
    """Parameters for the two random-instance recipes.

    ``biesinger``: customer and site locations coincide, drawn uniformly at
    random on the [0,100]x[0,100] plane; v = 1/(d+1).
    ``qi``: customers and sites drawn independently with integer coordinates
    on [0,70]x[0,70]; v = exp(-0.1 d).
    Both draw demands uniformly from {1,...,10}.
    """

    style: str
    m: int
    n: int
    p: int
    r: int
    seed: int = 0

    def __post_init__(self):
        if self.style not in ("biesinger", "qi"):
            raise InstanceError(f"unknown generator style {self.style!r}")
        if self.seed < 0:
            raise InstanceError(f"seed must be nonnegative, got {self.seed}")


def _tokenize(text: str):
    """Yield (line_number, tokens) for non-empty lines, comments stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _next(lines, missing: str):
    """Next (line_number, tokens) of lines; missing is the refusal at the end."""
    try:
        return next(lines)
    except StopIteration:
        raise InstanceError(missing) from None


def _parse(cast, tok: str, lineno: int, what: str):
    try:
        return cast(tok)
    except ValueError:
        raise InstanceError(f"line {lineno}: bad {what} {tok!r}") from None


def _positives(lines, missing: str, count: int, what: str, things: str) -> np.ndarray:
    """Next line of lines as exactly count positive, finite numbers; things
    names them in the count refusal."""
    lineno, toks = _next(lines, missing)
    if len(toks) != count:
        raise InstanceError(f"line {lineno}: expected {count} {things}, got {len(toks)}")
    vals = np.array([_parse(float, t, lineno, what) for t in toks])
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        raise InstanceError(f"line {lineno}: non-positive {what}")
    return vals


def load_instance(text) -> Instance:
    """Parse an instance from a string or a readable text stream."""
    if hasattr(text, "read"):
        text = text.read()
    lines = _tokenize(text)
    lineno, toks = _next(lines, "empty instance file")
    if toks != FORMAT_HEADER.split():
        raise InstanceError(f"line {lineno}: malformed header {' '.join(toks)!r}, expected {FORMAT_HEADER!r}")
    lineno, toks = _next(lines, "missing size line 'm n p r'")
    if len(toks) != 4:
        raise InstanceError(f"line {lineno}: size line needs 4 integers 'm n p r', got {len(toks)}")
    m, n, p, r = (_parse(int, t, lineno, "size field") for t in toks)
    w = _positives(lines, "missing weight line", m, "weight", "weights")
    v = [_positives(lines, f"missing attractiveness row {i + 1} of {m}", n, "attractiveness", "attractiveness values") for i in range(m)]
    for lineno, _ in lines:
        raise InstanceError(f"line {lineno}: unexpected trailing data")
    return Instance(m=m, n=n, w=w, v=np.array(v), p=p, r=r)  # Instance checks the shapes


def save_instance(inst: Instance) -> str:
    """Render an instance in the native format, 12 significant digits."""
    # Python floats format faster than numpy scalars, to the same text
    num = "{:.12g}".format
    out = [FORMAT_HEADER, f"{inst.m} {inst.n} {inst.p} {inst.r}", " ".join(map(num, inst.w.tolist()))]
    out.extend(" ".join(map(num, row)) for row in inst.v.tolist())
    return "\n".join(out) + "\n"


def generate_instance(params: GeneratorParams) -> Instance:
    """Generate a random instance; deterministic for a fixed seed."""
    rng = np.random.default_rng(params.seed)
    m, n = params.m, params.n
    if params.style == "biesinger":
        # Shared location pool: customers take the first m points, sites the
        # first n, so they coincide whenever m == n.
        pts = rng.uniform(0.0, 100.0, size=(max(m, n), 2))
        cust, site = pts[:m], pts[:n]
        d = np.hypot(cust[:, 0:1] - site[None, :, 0], cust[:, 1:2] - site[None, :, 1])
        v = 1.0 / (d + 1.0)
    else:
        cust = rng.integers(0, 71, size=(m, 2)).astype(float)
        site = rng.integers(0, 71, size=(n, 2)).astype(float)
        d = np.hypot(cust[:, 0:1] - site[None, :, 0], cust[:, 1:2] - site[None, :, 1])
        v = np.exp(-0.1 * d)
    w = rng.integers(1, 11, size=m).astype(float)
    return Instance(m=m, n=n, w=w, v=v, p=params.p, r=params.r)
