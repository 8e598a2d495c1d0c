import io
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from scflp import BncConfig, GeneratorParams, bnc, brute_force_solve, follower_best_response, generate_instance, root_relaxation, solve
from scflp.bnc import _Search, add_cut_row, build_model
from scflp.cuts import ef_cut
from scflp.lp import LpModel, lp_solve
from scflp.market import indicator, leader_share
from scflp.separation import RelaxPoint

from conftest import random_choice, random_instance

TIE_CLASS = {(1, 1, 0), (1, 0, 1), (0, 1, 1)}


@pytest.mark.parametrize("form", ["SF", "GSF", "EF"])
def test_golden_optimum_all_formulations(form, golden):
    rep = solve(golden, BncConfig(formulation=form, time_limit=60.0))
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(4 / 3, abs=1e-9)
    assert tuple(rep.best_x) in TIE_CLASS
    assert rep.upper_bound >= rep.objective - 1e-12


@pytest.mark.parametrize("form", ["SF", "GSF", "EF"])
def test_single_leader_choice_short_circuits(form):
    rng = np.random.default_rng(3)
    inst = random_instance(rng, m=4, n=4, p=4, r=2)
    buf = io.StringIO()
    rep = solve(inst, BncConfig(formulation=form), events=buf)
    assert rep.nodes == 0
    _, val = follower_best_response(inst, np.ones(4, dtype=np.int8))
    assert rep.objective == pytest.approx(val, rel=1e-14)
    done = json.loads(buf.getvalue().splitlines()[-1])
    assert done["event"] == "done" and done["objective"] == rep.objective


@pytest.mark.parametrize("form", ["SF", "GSF", "EF"])
def test_matches_brute_force_on_random_instances(form):
    rng = np.random.default_rng(17)
    for _ in range(20):
        inst = random_instance(rng, m=int(rng.integers(2, 9)), n=int(rng.integers(2, 9)))
        inst = random_instance(
            rng,
            m=inst.m,
            n=inst.n,
            p=int(rng.integers(1, min(3, inst.n) + 1)),
            r=int(rng.integers(1, min(3, inst.n) + 1)),
        )
        want = brute_force_solve(inst)
        rep = solve(inst, BncConfig(formulation=form, time_limit=120.0))
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(want.value, abs=1e-9)
        assert leader_share(inst, rep.best_x, follower_best_response(inst, rep.best_x)[0]) == pytest.approx(
            want.value, abs=1e-9
        )


def test_equal_optima_across_formulations():
    rng = np.random.default_rng(23)
    for _ in range(5):
        inst = random_instance(rng, m=4, n=6, p=2, r=2)
        values = [solve(inst, BncConfig(formulation=f)).objective for f in ("SF", "GSF", "EF")]
        assert max(values) - min(values) < 1e-9


def test_root_relaxation_goldens(golden):
    bound, rg = root_relaxation(golden, BncConfig(formulation="GSF"), true_opt=4 / 3)
    assert bound == pytest.approx(4 / 3, abs=1e-9)
    assert abs(rg) < 1e-7
    bound_ef, rg_ef = root_relaxation(golden, BncConfig(formulation="EF"), true_opt=4 / 3)
    assert bound_ef == pytest.approx(4 / 3, abs=1e-9)
    assert abs(rg_ef) < 1e-7
    # classic root loop certifies nothing beyond its heuristics: bound stays
    # at or above the fully cut classic relaxation value 25/18
    bound_sf, rg_sf = root_relaxation(golden, BncConfig(formulation="SF"), true_opt=4 / 3)
    assert bound_sf >= 25 / 18 - 1e-9
    assert rg_sf >= (25 / 18 - 4 / 3) / (4 / 3) * 100.0 - 1e-6


def test_root_gap_arithmetic_convention(golden):
    # gap is reported relative to the true optimum, positive for loose roots
    rg = (25 / 18 - 4 / 3) / (4 / 3) * 100.0
    assert rg == pytest.approx(100.0 / 24.0, abs=1e-12)


def test_ef_branching_on_x_suffices(golden):
    """With x fixed integral, the assignment relaxation with every cut
    already attains the exact best-response value: no allocation branching
    is ever needed."""
    rng = np.random.default_rng(29)
    for _ in range(5):
        inst = random_instance(rng, m=3, n=5, p=2, r=2)
        model = build_model(inst, "EF")
        for combo in itertools.combinations(range(5), 2):
            add_cut_row(model, inst, ef_cut(inst, indicator(5, combo)))
        x = indicator(5, rng.choice(5, size=2, replace=False))
        for j in range(5):
            model.lower[1 + j] = model.upper[1 + j] = float(x[j])
        res = lp_solve(model)
        assert res.status == "optimal"
        _, val = follower_best_response(inst, x, mode="enumerate")
        assert res.objective == pytest.approx(val, abs=1e-9)


def test_anytime_bounds_under_tiny_time_limits():
    rng = np.random.default_rng(31)
    for _ in range(5):
        inst = random_instance(rng, m=4, n=7, p=3, r=2)
        truth = brute_force_solve(inst).value
        for limit in (1e-9, 1e-3):
            rep = solve(inst, BncConfig(formulation="SF", time_limit=limit))
            assert rep.upper_bound >= truth - 1e-9
            if not math.isnan(rep.objective):
                assert rep.objective <= truth + 1e-9
        rep = solve(inst, BncConfig(formulation="SF", time_limit=60.0))
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(truth, abs=1e-9)


def test_event_log_json_lines(golden):
    buf = io.StringIO()
    solve(golden, BncConfig(formulation="GSF"), events=buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert lines[-1]["event"] == "done"
    assert any(e["event"] == "node" for e in lines)
    assert lines[-1]["objective"] == pytest.approx(4 / 3, abs=1e-9)


def test_report_csv_row_shape(golden):
    rep = solve(golden, BncConfig(formulation="GSF"))
    row = rep.csv_row("golden")
    fields = row.split(",")
    assert len(fields) == 9
    assert fields[0] == "golden" and fields[1] == "GSF" and fields[-1] == "optimal"
    assert float(fields[2]) == pytest.approx(4 / 3, abs=1e-6)


@pytest.mark.parametrize("form", ["SF", "GSF", "EF"])
def test_loose_violation_threshold_still_yields_exact_optima(form):
    """A sloppy violation threshold still yields exact optima: it governs
    only fractional points and pool scans, while at an integral point the
    exact pass cuts on the certification slack, so the node objective
    closes on the exact incumbent value."""
    rng = np.random.default_rng(41)
    for _ in range(8):
        inst = random_instance(rng, m=4, n=6, p=2, r=2)
        want = brute_force_solve(inst).value
        rep = solve(inst, BncConfig(formulation=form, eps_viol=0.05))
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("form, seed, index", [("SF", 33, 4), ("GSF", 108, 5), ("EF", 33, 4)])
def test_loose_threshold_cannot_certify_above_the_exact_value(form, seed, index):
    """On these instances an exact pass that cut an integral point only
    when eta exceeded its value by more than eps_viol = 0.5 would certify a
    node above its exact value and lose the optimum in that node's
    subtree; certification on the integral-point slack finds it."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        inst = random_instance(rng, m=4, n=6, p=2, r=2)
    want = brute_force_solve(inst).value
    rep = solve(inst, BncConfig(formulation=form, eps_viol=0.5))
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(want, abs=1e-9)
    assert follower_best_response(inst, rep.best_x, mode="enumerate")[1] == pytest.approx(want, abs=1e-9)


def test_residual_drift_on_a_warm_chain_is_refactored():
    """qi m=n=60, p=10, r=3, seed 2: one GSF cut-loop LP comes back from a
    long warm-start chain with a row residual of about 1.6e-7, above the
    1e-7 gate; a refactor from the same basis clears it and the solve
    proves the optimum EF proves."""
    inst = generate_instance(GeneratorParams("qi", m=60, n=60, p=10, r=3, seed=2))
    gsf = solve(inst, BncConfig(formulation="GSF"))
    ef = solve(inst, BncConfig(formulation="EF"))
    assert gsf.status == ef.status == "optimal"
    assert gsf.objective == pytest.approx(ef.objective, abs=1e-9)


def test_gap_tolerance_terminates_early():
    rng = np.random.default_rng(37)
    inst = random_instance(rng, m=5, n=8, p=3, r=2)
    loose = solve(inst, BncConfig(formulation="GSF", gap_tol=0.5))
    tight = solve(inst, BncConfig(formulation="GSF"))
    assert loose.status == "optimal"
    assert loose.objective <= tight.objective + 1e-9
    assert tight.objective == pytest.approx(brute_force_solve(inst).value, abs=1e-9)


def _row_records(model):
    return [(r.tag, r.sense, r.rhs, list(r.coef.items())) for r in model.rows]


def test_bulk_ef_model_matches_per_row_reference(golden):
    """build_model's bulk EF linking rows equal the rows appended one dict
    at a time: same order, tags, columns and values."""
    rng = np.random.default_rng(83)
    for inst in (golden, random_instance(rng, m=4, n=5), random_instance(rng, m=1, n=7)):
        model = build_model(inst, "EF")
        ref = LpModel(model.objective, model.lower, model.upper, model.names)
        m, n = inst.m, inst.n
        ref.add_row({1 + j: 1.0 for j in range(n)}, "=", float(inst.p), "card")
        for i in range(m):
            for j in range(n):
                ref.add_row({1 + n + i * n + j: 1.0, 1 + j: -1.0}, "<=", 0.0, f"open{i}_{j}")
        for i in range(m):
            ref.add_row({1 + n + i * n + j: 1.0 for j in range(n)}, "<=", 1.0, f"one{i}")
        assert model.nrows == 1 + m * n + m
        assert _row_records(model) == _row_records(ref)
        assert model.to_lp_text() == ref.to_lp_text()


def test_cut_loop_and_sf_separation_share_one_integrality_tolerance():
    """The loop's points and SF separation read the one tolerance: a point
    1e-7 from integral gets the exact pass, so certifying it does not rest
    on the incumbent re-check; a point 1e-5 from integral gets none."""
    rng = np.random.default_rng(37)
    inst = random_instance(rng, m=4, n=6, p=2, r=2)
    xint = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    for offset, integral in ((1e-7, True), (1e-5, False)):
        search = _Search(inst, BncConfig(formulation="SF"))
        x = np.abs(xint - offset)
        pt = search.point(SimpleNamespace(x=np.concatenate(([inst.total_demand], x))))
        assert pt.integral is integral
        cuts = search.separate(pt)
        if integral:
            assert len(cuts) == 1 and len(search.pool) == 1
            y_star, value = follower_best_response(inst, xint)
            assert tuple(next(iter(search.pool))) == tuple(y_star) and search.pool.last_solve[2] == value
        else:
            assert cuts == [] and search.pool.last_solve is None


def test_reused_best_response_equals_follower_best_response(monkeypatch):
    """The certified-node best response reuses the search's last exact
    separation solve only when its r-median costs are bit-identical, and
    then returns exactly what follower_best_response returns."""
    rng = np.random.default_rng(41)
    calls = []
    original = bnc.follower_best_response
    monkeypatch.setattr(bnc, "follower_best_response", lambda *a, **k: calls.append(1) or original(*a, **k))
    reused = 0
    for _ in range(30):
        inst = random_instance(rng, m=int(rng.integers(2, 7)), n=int(rng.integers(3, 8)))
        for form in ("SF", "GSF"):
            search = _Search(inst, BncConfig(formulation=form))
            xint = random_choice(rng, inst.n, inst.p)
            search.separate(RelaxPoint(eta=inst.total_demand, x=xint.astype(float)))
            for x in (xint, random_choice(rng, inst.n, inst.p)):
                calls.clear()
                y, val = search.best_response(x)
                y_ref, val_ref = original(inst, x, mode="rmedian")
                assert np.array_equal(y, y_ref) and val == val_ref
                reused += not calls
    assert reused >= 30  # every SF search reuses at its own point
