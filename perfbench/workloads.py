"""The benchmark's workloads: fixed instance sets, the operations run on
them, and the output gate every result must pass.

Instance sets are fixed (seeds as in the acceptance criteria they come
from), so their reference values can be recorded once and every run of a
workload does the same work.  The benchmark's ``--seed`` only orders the
operations of each pass.  All calls go through module attributes
(``scflp.solve``, ``scflp.verify.verify_hull``, ...) so that the traced run
can swap the bindings without the untraced run knowing about it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import scflp
import scflp.verify
from scflp.market import indicator

REFERENCE_FILE = Path(__file__).with_name("reference.json")

OBJ_TOL = 1e-9  # objectives vs reference, across formulations, vs enumeration
HULL_TOL = 1e-7  # verify_hull max_discrepancy vs reference
HULL_TRIALS = 10  # support directions per hull_probe instance


@dataclass
class Op:
    """One closed-loop operation: a call into the public API and its gate."""

    name: str
    group: str  # formulation ("SF", "GSF", "EF") or "hull"
    run: Callable[[], object]
    check: Callable[[object], str | None]  # error text, or None when correct


@dataclass
class Workload:
    name: str
    ops: list[Op]
    instance_seeds: list[int]
    expected_hooks: set[str]  # bindings, and "child<parent" span pairs, the traced run must see
    gate: dict = field(default_factory=dict)  # shared state of the output checks


def _solve_check(wl: Workload, key: str, inst, ref: float) -> Callable[[object], str | None]:
    """Status, reference objective, agreement across formulations, and the
    reported leader set re-evaluated by full enumeration of follower choices."""
    enum_cache = wl.gate.setdefault("enum", {})
    first_obj = wl.gate.setdefault("first", {})

    def check(rep) -> str | None:
        if rep.status != "optimal":
            return f"status {rep.status}"
        if not abs(rep.objective - ref) <= OBJ_TOL:
            return f"objective {rep.objective!r} != reference {ref!r}"
        seen = first_obj.setdefault(key, rep.objective)
        if not abs(rep.objective - seen) <= OBJ_TOL:
            return f"objective {rep.objective!r} disagrees with {seen!r} of another formulation"
        bx = tuple(int(b) for b in rep.best_x)
        if (key, bx) not in enum_cache:
            _, enum_cache[(key, bx)] = scflp.follower_best_response(inst, rep.best_x, mode="enumerate")
        achieved = enum_cache[(key, bx)]
        if not abs(achieved - rep.objective) <= OBJ_TOL:
            return f"best_x reaches {achieved!r} under enumeration, reported {rep.objective!r}"
        return None

    return check


def _solve_op(wl: Workload, key: str, inst, form: str, ref: float) -> Op:
    cfg = scflp.BncConfig(formulation=form)
    return Op(f"{key}/{form}", form, lambda: scflp.solve(inst, cfg), _solve_check(wl, key, inst, ref))


_SOLVE_HOOKS = {
    "scflp.solve",
    "scflp.generate_instance",
    "scflp.bnc.build_model",
    "scflp.bnc.add_cut_row",
    "scflp.bnc.lp_solve",
    "scflp.bnc.follower_best_response",
    "scflp.market.rmedian_solve",
    "scflp.separation.rmedian_solve",
    "scflp.separation.tight_ell",
    "scflp.separation.gsf_separation_costs",
    "scflp.separation.ef_separation_costs",
    "scflp.separation.improved_cut",
    "scflp.separation.ef_cut",
    "scflp.bnc.separate_gsf",
    "scflp.bnc.separate_ef",
    "lp.solve<bnc.solve",
    "rmedian.solve<separation.gsf",
    "rmedian.solve<separation.ef",
    "rmedian.solve<market.best_response",
}
_SF_HOOKS = {"scflp.bnc.separate_sf", "scflp.separation.submodular_cut", "rmedian.solve<separation.sf"}


def _references(name: str) -> dict:
    return json.loads(REFERENCE_FILE.read_text())[name]


def ladder40_instances():
    """Criterion-7 set: biesinger m=n=40, p,r in {2,3}, seeds 70000+idx;
    yields (key, seed, instance)."""
    for idx, (p, r) in enumerate(itertools.product((2, 3), repeat=2)):
        seed = 70_000 + idx
        yield f"p{p}r{r}", seed, scflp.generate_instance(
            scflp.GeneratorParams("biesinger", m=40, n=40, p=p, r=r, seed=seed)
        )


def ladder40() -> Workload:
    """The criterion-7 set, each instance solved with SF, GSF and EF.  SF at
    p=r=3 is over half of the time and keeps the LP layer dominant; without
    it the r=3 solves would make the r-median a third of the time."""
    refs = _references("ladder40")
    wl = Workload("ladder40", [], [], _SOLVE_HOOKS | _SF_HOOKS)
    for key, seed, inst in ladder40_instances():
        wl.instance_seeds.append(seed)
        wl.ops += [_solve_op(wl, key, inst, form, refs[key]) for form in ("SF", "GSF", "EF")]
    return wl


def rmedian100_instance():
    return scflp.generate_instance(scflp.GeneratorParams("biesinger", m=100, n=100, p=2, r=3, seed=1))


def rmedian100() -> Workload:
    """Biesinger m=n=100, p=2, r=3, seed 1, solved with GSF and EF: about
    90% of the time is r-median solves.  The qi instance of the same size
    is left out so that a pass fits the run length."""
    refs = _references("rmedian100")
    inst = rmedian100_instance()
    wl = Workload("rmedian100", [], [1], set(_SOLVE_HOOKS))
    wl.ops = [_solve_op(wl, "biesinger", inst, form, refs["biesinger"]) for form in ("GSF", "EF")]
    return wl


DESK_INSTANCES = 80


def desk() -> Workload:
    """Criterion-2 generator (sizes from seed 20240001, instance seeds
    50000+k), the first 80 of its 200 instances with m,n in [3,8] and
    p,r <= 3, each solved with SF, GSF and EF.  Thousands of tiny LPs, so
    fixed per-call costs dominate.  References come from the brute-force
    oracle."""
    rng = np.random.default_rng(20_240_001)
    wl = Workload("desk", [], [], _SOLVE_HOOKS | _SF_HOOKS | {"scflp.brute_force_solve"})
    for k in range(DESK_INSTANCES):
        style = "biesinger" if k % 2 == 0 else "qi"
        m = int(rng.integers(3, 9))
        n = int(rng.integers(3, 9))
        p = int(rng.integers(1, min(3, n) + 1))
        r = int(rng.integers(1, min(3, n) + 1))
        seed = 50_000 + k
        wl.instance_seeds.append(seed)
        inst = scflp.generate_instance(scflp.GeneratorParams(style, m=m, n=n, p=p, r=r, seed=seed))
        ref = scflp.brute_force_solve(inst).value
        for form in ("SF", "GSF", "EF"):
            wl.ops.append(_solve_op(wl, f"k{k}", inst, form, ref))
    return wl


def hull_instances():
    """Criterion-4 recipe (rng seed 20240003): 30 instances with m in [2,4],
    n in [3,6], random p and r, and a random follower choice y each."""
    rng = np.random.default_rng(20_240_003)
    out = []
    for _ in range(30):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, 5))
        p = int(rng.integers(1, n + 1))
        r = int(rng.integers(1, n + 1))
        w = rng.integers(1, 11, size=m).astype(float)
        v = rng.uniform(0.1, 3.0, size=(m, n))
        inst = scflp.Instance(m=m, n=n, w=w, v=v, p=p, r=r)
        y = indicator(n, rng.choice(n, size=r, replace=False))
        out.append((inst, y))
    return out


def hull_probe() -> Workload:
    """Criterion 4's verify_hull calls (direction seeds 60000+k), cut to the
    first 10 of its 200 directions per instance so that a pass fits the run
    length.  Each support LP re-solves a fixed model of up to 2401 rows
    with a new objective."""
    refs = _references("hull_probe")
    seeds = [60_000 + k for k in range(30)]
    wl = Workload(
        "hull_probe",
        [],
        seeds,
        {
            "scflp.verify.verify_hull",
            "scflp.verify.lp_solve",
            "scflp.verify.improved_cut",
            "scflp.verify.ef_cut",
            "lp.solve<verify.hull",
        },
    )
    for k, (inst, y) in enumerate(hull_instances()):
        ref = refs[str(k)]

        def run(inst=inst, y=y, seed=seeds[k]):
            return scflp.verify.verify_hull(inst, y, trials=HULL_TRIALS, seed=seed)

        def check(rep, ref=ref) -> str | None:
            if not abs(rep.max_discrepancy - ref) <= HULL_TOL:
                return f"max_discrepancy {rep.max_discrepancy!r} != reference {ref!r}"
            return None

        wl.ops.append(Op(f"h{k}", "hull", run, check))
    return wl


WORKLOADS = {"ladder40": ladder40, "rmedian100": rmedian100, "desk": desk, "hull_probe": hull_probe}
