"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here, not deferred.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

import scflp.bnc as bnc_mod
from scflp import (
    BncConfig,
    GeneratorParams,
    RMedianInstance,
    brute_force_solve,
    follower_best_response,
    full_lp_value,
    generate_instance,
    rmedian_enumerate,
    rmedian_solve,
    root_relaxation,
    solve,
)
from scflp.market import indicator
from scflp.verify import greedy_assignment, verify_hull, verify_prop61

from conftest import golden_instance, random_choice, random_instance

TIE_CLASS = {(1, 1, 0), (1, 0, 1), (0, 1, 1)}


def _report(name: str, ok: bool, detail: str):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_golden_values():
    t0 = time.perf_counter()
    inst = golden_instance()
    sf = full_lp_value(inst, "SF")
    gsf = full_lp_value(inst, "GSF")
    ef = full_lp_value(inst, "EF")
    rep = solve(inst, BncConfig(formulation="GSF"))
    dt = time.perf_counter() - t0
    ok = (
        abs(sf - 25 / 18) <= 1e-9
        and abs(gsf - 4 / 3) <= 1e-9
        and abs(ef - 4 / 3) <= 1e-9
        and abs(rep.objective - 4 / 3) <= 1e-9
        and tuple(rep.best_x) in TIE_CLASS
        and dt < 1.0
    )
    _report(
        "criterion 1 golden values",
        ok,
        f"SF={sf:.12f} GSF={gsf:.12f} EF={ef:.12f} O={rep.objective:.12f} in {dt:.2f}s",
    )


def test_criterion_1_sf_vertex():
    inst = golden_instance()
    from scflp.bnc import add_cut_row, build_model
    from scflp.cuts import submodular_cut
    from scflp.lp import lp_solve

    model = build_model(inst, "SF")
    for size in range(4):
        for S in itertools.combinations(range(3), size):
            add_cut_row(model, inst, submodular_cut(inst, [1, 1, 1], S))
    res = lp_solve(model)
    ok = res.status == "optimal" and np.allclose(res.x[1:4], 2 / 3, atol=1e-8)
    _report("criterion 1 classic relaxation vertex", ok, f"x*={res.x[1:4]}")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20_240_001)
    failures = []
    for k in range(200):
        style = "biesinger" if k % 2 == 0 else "qi"
        m = int(rng.integers(3, 9))
        n = int(rng.integers(3, 9))
        p = int(rng.integers(1, min(3, n) + 1))
        r = int(rng.integers(1, min(3, n) + 1))
        inst = generate_instance(GeneratorParams(style, m=m, n=n, p=p, r=r, seed=50_000 + k))
        want = brute_force_solve(inst).value
        for form in ("SF", "GSF", "EF"):
            rep = solve(inst, BncConfig(formulation=form, time_limit=120.0))
            if rep.status != "optimal" or abs(rep.objective - want) > 1e-9:
                failures.append((k, form, rep.objective, want))
                continue
            _, achieved = follower_best_response(inst, rep.best_x, mode="enumerate")
            if abs(achieved - want) > 1e-9:
                failures.append((k, form, achieved, want))
    dt = time.perf_counter() - t0
    ok = not failures and dt < 300.0
    _report("criterion 2 oracle equivalence", ok, f"200 instances x 3 formulations in {dt:.1f}s, failures={failures[:3]}")


def test_criterion_3_relaxation_equality_at_desk_scale():
    rng = np.random.default_rng(20_240_002)
    strict = 0
    worst_pair = 0.0
    instances = [golden_instance()]
    while len(instances) < 50:
        n = int(rng.integers(3, 7))
        inst = random_instance(rng, m=int(rng.integers(2, 7)), n=n)
        if math.comb(inst.n, inst.r) <= 20:
            instances.append(inst)
    for inst in instances:
        sf = full_lp_value(inst, "SF")
        gsf = full_lp_value(inst, "GSF")
        ef = full_lp_value(inst, "EF")
        worst_pair = max(worst_pair, abs(gsf - ef))
        assert gsf <= sf + 1e-9
        if gsf < sf - 1e-6:
            strict += 1
    ok = worst_pair <= 1e-6 and strict >= 1
    _report("criterion 3 relaxation equality", ok, f"max |GSF-EF|={worst_pair:.2e}, strict GSF<SF on {strict}/50")


def test_criterion_4_hull_checks():
    rng = np.random.default_rng(20_240_003)
    worst = 0.0
    for k in range(30):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, 5))
        inst = random_instance(rng, m=m, n=n)
        y = random_choice(rng, n, inst.r)
        rep = verify_hull(inst, y, trials=200, seed=60_000 + k)
        worst = max(worst, rep.max_discrepancy)
    ok = worst < 1e-7
    _report("criterion 4 hull support functions", ok, f"max discrepancy {worst:.2e} over 30x200 directions")


def test_criterion_5_separation_reduction_identity():
    rng = np.random.default_rng(20_240_004)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        inst = random_instance(rng, m=m, n=n)
        x = rng.uniform(0.0, 1.0, size=n)
        y = random_choice(rng, n, inst.r)
        worst = max(worst, verify_prop61(inst, x, y))
    ok = worst < 1e-10
    _report("criterion 5 anchor reduction identity", ok, f"max discrepancy {worst:.2e} over 100 triples")


def test_criterion_6_rmedian_exactness():
    rng = np.random.default_rng(20_240_005)
    checked = 0
    for k in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(2, 13))
        cost = rng.uniform(0.0, 5.0, size=(m, n))
        if k % 5 == 0:
            cost = np.round(cost, 1)
        w = rng.integers(1, 10, size=m).astype(float)
        for r in range(1, n + 1):
            rm = RMedianInstance(cost=cost, w=w, r=r)
            _, val_e = rmedian_enumerate(rm)
            _, val_b, status = rmedian_solve(rm)
            assert status == "optimal" and val_b == val_e, (k, r, val_b, val_e)
            checked += 1
    _report("criterion 6 r-median exactness", True, f"{checked} (matrix, r) pairs matched enumeration exactly")


def test_criterion_7_scaled_benchmark():
    results = []
    for idx, (p, r) in enumerate(itertools.product((2, 3), repeat=2)):
        inst = generate_instance(GeneratorParams("biesinger", m=40, n=40, p=p, r=r, seed=70_000 + idx))
        t0 = time.perf_counter()
        rep_gsf = solve(inst, BncConfig(formulation="GSF", time_limit=300.0))
        t_gsf = time.perf_counter() - t0
        t0 = time.perf_counter()
        rep_ef = solve(inst, BncConfig(formulation="EF", time_limit=300.0))
        t_ef = time.perf_counter() - t0
        assert rep_gsf.status == "optimal" and t_gsf < 300.0, f"GSF p={p} r={r} {t_gsf:.1f}s"
        assert rep_ef.status == "optimal" and t_ef < 300.0, f"EF p={p} r={r} {t_ef:.1f}s"
        assert abs(rep_gsf.objective - rep_ef.objective) <= 1e-9
        opt = rep_gsf.objective
        _, rg_gsf, st_gsf = root_relaxation(inst, BncConfig(formulation="GSF"), true_opt=opt)
        _, rg_ef, st_ef = root_relaxation(inst, BncConfig(formulation="EF"), true_opt=opt)
        _, rg_sf, st_sf = root_relaxation(inst, BncConfig(formulation="SF"), true_opt=opt)
        assert st_gsf == st_ef == st_sf == "optimal"
        assert abs(rg_gsf - rg_ef) <= 0.01, f"root gaps differ: {rg_gsf:.4f} vs {rg_ef:.4f}"
        assert rg_gsf <= rg_sf + 1e-9, f"dominance violated: {rg_gsf:.4f} > {rg_sf:.4f}"
        results.append((p, r, opt, rg_gsf, rg_sf, t_gsf, t_ef))
    detail = "; ".join(f"p={p} r={r} O={o:.3f} rG(GSF)={a:.3f}% rG(SF)={b:.3f}% [{tg:.2f}s/{te:.2f}s]" for p, r, o, a, b, tg, te in results)
    _report("criterion 7 scaled benchmark", True, detail)


def test_r5_ladder_at_n100():
    """The r=5 rung of the ladder: biesinger and qi m=n=100, p=r=5, seed 1,
    reach a proven optimum with GSF and EF, and the two agree."""
    results = []
    for style in ("biesinger", "qi"):
        inst = generate_instance(GeneratorParams(style, m=100, n=100, p=5, r=5, seed=1))
        reps = {form: solve(inst, BncConfig(formulation=form, time_limit=60.0)) for form in ("GSF", "EF")}
        for form, rep in reps.items():
            assert rep.status == "optimal", f"{style} {form} ended {rep.status}"
        assert abs(reps["GSF"].objective - reps["EF"].objective) <= 1e-9
        results.append(f"{style} O={reps['GSF'].objective:.6f} [{reps['GSF'].total_time_s:.2f}s/{reps['EF'].total_time_s:.2f}s]")
    _report("r=5 ladder at n=100", True, "; ".join(results))


def test_criterion_7_optional_published_instance():
    path = Path(__file__).parent / "data" / "biesinger_100x100_p2_r2.scflp"
    if not path.exists():
        pytest.skip("original benchmark file not supplied; optional check gated on availability")
    inst = __import__("scflp").load_instance(path.read_text())
    rep = solve(inst, BncConfig(formulation="EF", time_limit=7200.0))
    _report("criterion 7 published value", abs(rep.objective - 279.0) < 5e-4, f"O={rep.objective:.3f}")


def test_criterion_8_separation_soundness(monkeypatch):
    rng = np.random.default_rng(20_240_006)
    recorded = []
    original = bnc_mod._Search.separate

    def recording(self, pt):
        cuts = original(self, pt)
        recorded.append((self.inst, cuts))
        return cuts

    monkeypatch.setattr(bnc_mod._Search, "separate", recording)
    instances = []
    for k in range(10):
        n = int(rng.integers(4, 9))
        inst = random_instance(
            rng, m=int(rng.integers(2, 5)), n=n, p=int(rng.integers(1, 4)), r=int(rng.integers(1, 4))
        )
        instances.append(inst)
        for form in ("SF", "GSF", "EF"):
            solve(inst, BncConfig(formulation=form, time_limit=60.0))
    monkeypatch.setattr(bnc_mod._Search, "separate", original)

    checked = 0
    for inst, cuts in recorded:
        if not cuts:
            continue
        xs = list(itertools.combinations(range(inst.n), inst.p))
        values = {}
        zs = {}
        for combo in xs:
            x = indicator(inst.n, combo)
            _, values[combo] = follower_best_response(inst, x, mode="enumerate")
            zs[combo] = greedy_assignment(inst, np.asarray(x, dtype=float))
        for cut in cuts:
            for combo in xs:
                x = np.asarray(indicator(inst.n, combo), dtype=float)
                rhs = cut.rhs_at(x=x, z=zs[combo])
                assert rhs >= values[combo] - 1e-9, (cut.kind, combo, rhs, values[combo])
                checked += 1
    _report("criterion 8 separation soundness", True, f"{checked} (cut, x) pairs verified on 10 instances")
