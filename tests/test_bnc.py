import io
import itertools
import json
import math
import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest

from scflp import BncConfig, GeneratorParams, Instance, bnc, brute_force_solve, follower_best_response, full_lp_value, generate_instance, root_relaxation, solve
from scflp.bnc import _Search, add_cut_row, build_model
from scflp.cuts import ef_cut, greedy_assignment, gsf_separation_costs
from scflp.lp import LpModel, LpResult, lp_solve
from scflp.market import indicator, leader_share
from scflp.separation import RelaxPoint

from conftest import golden_instance, random_choice, random_instance
from lp_rows import lp_rows

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
    # the root bound is the exact value, and the gap is taken against true_opt
    for true_opt, gap in ((val, 0.0), (val / 2, 100.0)):
        bound, rg, status = root_relaxation(inst, BncConfig(formulation=form), true_opt=true_opt)
        assert bound == pytest.approx(val, rel=1e-14)
        assert rg == pytest.approx(gap, abs=1e-9)
        assert status == "optimal"


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
    bound, rg, _ = root_relaxation(golden, BncConfig(formulation="GSF"), true_opt=4 / 3)
    assert bound == pytest.approx(4 / 3, abs=1e-9)
    assert abs(rg) < 1e-7
    bound_ef, rg_ef, _ = root_relaxation(golden, BncConfig(formulation="EF"), true_opt=4 / 3)
    assert bound_ef == pytest.approx(4 / 3, abs=1e-9)
    assert abs(rg_ef) < 1e-7
    # classic root loop certifies nothing beyond its heuristics: bound stays
    # at or above the fully cut classic relaxation value 25/18
    bound_sf, rg_sf, _ = root_relaxation(golden, BncConfig(formulation="SF"), true_opt=4 / 3)
    assert bound_sf >= 25 / 18 - 1e-9
    assert rg_sf >= (25 / 18 - 4 / 3) / (4 / 3) * 100.0 - 1e-6


def test_root_relaxation_reports_a_clock_stop():
    """A root loop stopped by the clock returns the base LP's bound, which
    the status must tell apart from the finished root's."""
    inst = generate_instance(GeneratorParams("biesinger", m=12, n=12, p=3, r=2, seed=7))
    bound, rg, status = root_relaxation(inst, BncConfig(formulation="GSF", time_limit=1e-9), true_opt=42.711657)
    assert status == "limit"
    assert bound == pytest.approx(inst.total_demand, rel=1e-12)
    full, full_rg, full_status = root_relaxation(inst, BncConfig(formulation="GSF"), true_opt=42.711657)
    assert full_status == "optimal"
    assert full < bound - 1.0 and full_rg < rg


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


NODE_KEYS = {"event", "t", "processed", "outcome", "bound", "incumbent", "open", "cuts"}
DONE_KEYS = {"event", "t", "objective", "bound", "nodes", "cuts", "status"}


def _event_lines(inst, cfg):
    """The report and the parsed event lines of one solve; checks every
    line's key set and that t never falls."""
    buf = io.StringIO()
    rep = solve(inst, cfg, events=buf)
    *nodes, done = (json.loads(line) for line in buf.getvalue().splitlines())
    assert set(done) == DONE_KEYS and done["event"] == "done"
    for e in nodes:
        assert set(e) == NODE_KEYS and e["event"] == "node"
        assert e["outcome"] in ("certified", "branch", "dominated", "timeout")
    times = [e["t"] for e in (*nodes, done)]
    assert 0.0 <= times[0] and all(a <= b for a, b in zip(times, times[1:]))
    return rep, nodes, done


@pytest.mark.parametrize("form", ["SF", "GSF", "EF"])
def test_event_log_schema(form, monkeypatch):
    """One "node" line per processed node, then one "done" line, each with
    a fixed key set; t, the seconds since solve began, never falls.  The
    p == n short-circuit and a solve stopped by the clock write the same
    lines."""
    inst = generate_instance(GeneratorParams("biesinger", m=12, n=12, p=3, r=2, seed=7))
    rep, nodes, done = _event_lines(inst, BncConfig(formulation=form))
    assert len(nodes) == rep.nodes + 1 and done["status"] == "optimal"
    assert {e["outcome"] for e in nodes} == {"certified", "branch", "dominated"}

    every_site = random_instance(np.random.default_rng(29), m=3, n=3, p=3, r=2)
    _, nodes, done = _event_lines(every_site, BncConfig(formulation=form))
    assert nodes == [] and done["status"] == "optimal"

    calls = itertools.count()  # the clock runs out inside the root's cut loop
    monkeypatch.setattr(bnc._Search, "out_of_time", lambda self: next(calls) > 0)
    _, nodes, done = _event_lines(inst, BncConfig(formulation=form))
    assert [e["outcome"] for e in nodes] == ["timeout"] and done["status"] == "limit"


@pytest.mark.parametrize("form", ["SF", "GSF", "EF"])
def test_a_clock_stop_inside_a_cut_loop_keeps_valid_bounds(form, monkeypatch):
    """The clock runs out from its k-th check on, k = 2..59.  Every solve
    that stops inside a node's cut loop ends on "limit" after nodes + 1
    node lines, with an upper bound not below that node's bound and the
    optimum, and an objective (if any) not above the optimum; some of these
    stops land past the root."""
    inst = generate_instance(GeneratorParams("biesinger", m=12, n=12, p=3, r=2, seed=7))
    opt = brute_force_solve(inst).value
    past_root = 0
    for k in range(2, 60):
        calls = itertools.count(1)
        monkeypatch.setattr(bnc._Search, "out_of_time", lambda self, k=k: next(calls) >= k)
        rep, nodes, done = _event_lines(inst, BncConfig(formulation=form))
        if nodes[-1]["outcome"] != "timeout":
            continue
        assert rep.status == done["status"] == "limit" and len(nodes) == rep.nodes + 1
        assert rep.upper_bound >= nodes[-1]["bound"] and rep.upper_bound >= opt - 1e-9
        assert math.isnan(rep.objective) or rep.objective <= opt + 1e-9
        past_root += nodes[-1]["processed"] > 1
    assert past_root > 0


def test_model_building_counts_against_the_time_limit(monkeypatch):
    """The solve's one clock starts before the model is built: a build that
    outlasts the limit ends the solve with status "limit" before the root
    LP, with no incumbent and the root's cap W as upper bound."""
    inst = generate_instance(GeneratorParams("biesinger", m=12, n=12, p=3, r=2, seed=7))
    original = bnc.build_model

    def slow_build(*args):
        time.sleep(0.2)
        return original(*args)

    monkeypatch.setattr(bnc, "build_model", slow_build)
    buf = io.StringIO()
    rep = solve(inst, BncConfig(formulation="GSF", time_limit=0.1), events=buf)
    assert rep.status == "limit" and rep.nodes == 0 and rep.cuts == 0
    assert math.isnan(rep.objective) and rep.best_x is None
    assert rep.upper_bound == inst.total_demand and rep.total_time_s >= 0.2
    assert [json.loads(line)["event"] for line in buf.getvalue().splitlines()] == ["done"]


@pytest.mark.parametrize("form", ["SF", "GSF", "EF"])
def test_cut_loop_ends_on_a_round_of_installed_cuts(form):
    """A round whose cuts are all installed already adds no row and ends the
    loop.  That registry skip is what stops cut_loop when the violation
    threshold is below the LP's feasibility tolerance (full_lp_value's GSF
    loop runs at 1e-10): the LP point may then violate an installed cut by
    a hair, and separation returns it again."""
    inst = generate_instance(GeneratorParams("biesinger", m=12, n=12, p=3, r=2, seed=7))
    search = _Search(inst, BncConfig(formulation=form))
    search.pool.add(follower_best_response(inst, indicator(inst.n, range(inst.p)))[0])  # SF's root pass scans the pool only
    rows = search.model.nrows
    separate, first, rounds = search.separate, [], itertools.count(1)

    def repeat(pt):
        assert next(rounds) <= 2, "the loop went on after a round of installed cuts"
        if not first:
            first.extend(separate(pt))
        return list(first)

    search.separate = repeat
    outcome, _, _ = search.cut_loop(-math.inf)
    assert first and outcome in ("branch", "certified")
    assert search.cuts == len(first) and search.model.nrows == rows + len(first)


def test_config_refuses_an_unknown_formulation():
    with pytest.raises(ValueError, match="unknown formulation 'XX'"):
        BncConfig(formulation="XX")


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
    """A loose solve reports an incumbent within the tolerance and a valid
    upper bound whose gap stays within it, with status "limit" unless that
    bound proves the incumbent.  Nodes set aside by the tolerance alone stay
    open with their bounds; a bound that left with them would give, on the
    second case, upper_bound 56.7731 and gap_pct 0 against the optimum 57.5561."""
    small = random_instance(np.random.default_rng(37), m=5, n=8, p=3, r=2)
    cases = [
        (small, "GSF", 0.5, "optimal"),
        # set aside after cut_loop returns dominated; the incumbent 56.7731 is not proved
        (generate_instance(GeneratorParams("biesinger", m=20, n=20, p=3, r=2, seed=0)), "SF", 0.02, "limit"),
        # set aside when popped from the open-node heap, where the search stops
        (generate_instance(GeneratorParams("biesinger", m=12, n=12, p=2, r=2, seed=1)), "SF", 0.1, "limit"),
    ]
    for inst, form, gap_tol, status in cases:
        loose = solve(inst, BncConfig(formulation=form, gap_tol=gap_tol))
        tight = solve(inst, BncConfig(formulation=form))
        assert loose.status == status  # "optimal" only when the bound meets the incumbent
        assert (1.0 - gap_tol) * tight.objective - 1e-9 <= loose.objective <= tight.objective + 1e-9
        assert loose.upper_bound >= tight.objective - 1e-9
        assert loose.gap_pct <= 100.0 * gap_tol + 1e-6
        assert loose.gap_pct == pytest.approx((loose.upper_bound - loose.objective) / loose.upper_bound * 100.0, abs=1e-9)
        if inst is small:
            assert tight.objective == pytest.approx(brute_force_solve(inst).value, abs=1e-9)


def _row_records(model):
    return [(r.sense, r.rhs, list(r.coef.items())) for r in lp_rows(model)]


def test_ef_model_starts_optimal_at_its_greedy_allocation():
    """The first solve of an EF model makes no simplex iteration: it returns
    eta = W, the start's open set x0 (the p sites with the most first-choice
    demand) and x0's greedy allocation, on instances with tied
    attractiveness and with p = n."""
    rng = np.random.default_rng(89)
    for t in range(60):
        m, n = (int(k) for k in rng.integers(1, 9, size=2))
        inst = random_instance(rng, m=m, n=n, p=n if t % 5 == 0 else None)
        if t % 2:  # ties in v, and so in the first choices
            inst = Instance(m=m, n=n, w=inst.w, v=rng.integers(1, 3, size=(m, n)).astype(float), p=inst.p, r=inst.r)
        first = np.bincount(inst.sigma[:, 0], weights=inst.w, minlength=n)
        order = sorted(range(n), key=lambda j: (-first[j], -(inst.w @ inst.v[:, j]), j))
        x0 = indicator(n, order[: inst.p])
        model = build_model(inst, "EF")
        res = lp_solve(model)
        assert res.status == "optimal"
        assert model._highs.getInfoValue("simplex_iteration_count")[1] == 0
        assert res.x[0] == inst.total_demand
        np.testing.assert_array_equal(res.x[1 : 1 + n], x0)
        np.testing.assert_array_equal(res.x[1 + n :].reshape(m, n), greedy_assignment(inst, x0))


def test_config_refuses_a_non_finite_or_negative_violation_threshold():
    """A nan threshold used to turn fractional separation off without a
    word (SF on biesinger m=n=12, p=3, r=2, seed 5 took 142 nodes, not 10)."""
    for eps in (math.nan, math.inf, -1e-9, -math.inf):
        with pytest.raises(ValueError, match="violation threshold"):
            BncConfig(eps_viol=eps)
    assert BncConfig(eps_viol=0.0).eps_viol == 0.0


def test_bulk_ef_model_matches_per_row_reference(golden):
    """build_model's bulk EF linking rows equal the rows appended one dict
    at a time: same order, columns and values."""
    rng = np.random.default_rng(83)
    for inst in (golden, random_instance(rng, m=4, n=5), random_instance(rng, m=1, n=7)):
        model = build_model(inst, "EF")
        ref = LpModel(model.objective, model.lower, model.upper)
        m, n = inst.m, inst.n
        ref.add_row({1 + j: 1.0 for j in range(n)}, "=", float(inst.p))
        for i in range(m):
            for j in range(n):
                ref.add_row({1 + n + i * n + j: 1.0, 1 + j: -1.0}, "<=", 0.0)
        for i in range(m):
            ref.add_row({1 + n + i * n + j: 1.0 for j in range(n)}, "<=", 1.0)
        assert model.nrows == 1 + m * n + m
        assert _row_records(model) == _row_records(ref)


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
    then returns exactly what follower_best_response returns.  Every
    formulation's separation at an integral point (EF's with the greedy
    allocation) has the best response's costs, so each search reuses there."""
    rng = np.random.default_rng(41)
    calls = []
    original = bnc.follower_best_response
    monkeypatch.setattr(bnc, "follower_best_response", lambda *a, **k: calls.append(1) or original(*a, **k))
    for _ in range(30):
        inst = random_instance(rng, m=int(rng.integers(2, 7)), n=int(rng.integers(3, 8)))
        for form in ("SF", "GSF", "EF"):
            search = _Search(inst, BncConfig(formulation=form))
            xint = random_choice(rng, inst.n, inst.p)
            z = greedy_assignment(inst, xint) if form == "EF" else None
            search.separate(RelaxPoint(eta=inst.total_demand, x=xint.astype(float), z=z))
            for at_own_point, x in ((True, xint), (False, random_choice(rng, inst.n, inst.p))):
                calls.clear()
                y, val = search.best_response(x)
                y_ref, val_ref = original(inst, x, mode="rmedian")
                assert np.array_equal(y, y_ref) and val == val_ref
                assert not calls or not at_own_point


@pytest.mark.parametrize("bad_call", [9, 10, 13])
def test_a_spurious_infeasible_lp_verdict_raises(monkeypatch, bad_call):
    """Every node's LP is feasible, so an "infeasible" verdict is numerical
    trouble, not a pruned node.  On biesinger m=n=12, p=3, r=2, seed 3 with
    SF, treating the verdict of one of these LP calls as a prune would
    report status "optimal" with objective 32.770026, below the optimum
    32.799722; the cut loop raises instead."""
    inst = generate_instance(GeneratorParams("biesinger", m=12, n=12, p=3, r=2, seed=3))
    calls = itertools.count(1)
    original = bnc.lp_solve

    def flaky(model):
        if next(calls) == bad_call:
            return LpResult("infeasible", math.nan, None, math.inf, "Infeasible")
        return original(model)

    monkeypatch.setattr(bnc, "lp_solve", flaky)
    with pytest.raises(RuntimeError, match="LP failure: infeasible"):
        solve(inst, BncConfig(formulation="SF"))


def test_stabilized_gsf_root_is_the_relaxation_value():
    """The in-out loop ends where the plain one did: at the GSF relaxation
    value, which EF shares, on the golden, 30 random desk instances and
    ten m=n=12 ones (where a loop that stopped when the center pass found
    nothing would end above the relaxation value)."""
    rng = np.random.default_rng(71)
    generated = [generate_instance(GeneratorParams(style, m=12, n=12, p=3, r=2, seed=seed)) for style in ("biesinger", "qi") for seed in range(5)]
    for inst in [golden_instance()] + [random_instance(rng) for _ in range(30)] + generated:
        gsf, _, status = root_relaxation(inst, BncConfig(formulation="GSF"), true_opt=1.0)
        ef, _, _ = root_relaxation(inst, BncConfig(formulation="EF"), true_opt=1.0)
        assert status == "optimal"
        assert gsf == pytest.approx(full_lp_value(inst, "GSF"), rel=1e-9)
        assert gsf == pytest.approx(full_lp_value(inst, "EF"), rel=1e-9)  # the explicit EF LP, no cut loop
        assert gsf == pytest.approx(ef, rel=1e-9)


def test_the_plain_pass_backs_up_a_stabilized_pass_that_finds_nothing(monkeypatch):
    """With every stabilized pass's cuts dropped (as if none were violated
    at the LP point), each fractional round falls back to the plain pass
    at the LP point, and the loop ends at the same bound and status."""
    inst = generate_instance(GeneratorParams("biesinger", m=12, n=12, p=3, r=2, seed=7))
    cfg = BncConfig(formulation="GSF")
    root, _, root_status = root_relaxation(inst, cfg, true_opt=1.0)
    want = solve(inst, cfg)
    original, calls = bnc.separate_gsf, {"at": 0, "plain": 0}

    def nothing_at_the_center(pt, pool, eps, at=None):
        calls["plain" if at is None else "at"] += 1
        cuts = original(pt, pool, eps, at=at)  # the pass still runs: its pool and last_solve effects stay
        return cuts if at is None else []

    monkeypatch.setattr(bnc, "separate_gsf", nothing_at_the_center)
    bound, _, status = root_relaxation(inst, cfg, true_opt=1.0)
    assert calls["at"] > 0 and calls["plain"] >= calls["at"]
    assert status == root_status == "optimal"
    assert bound == pytest.approx(root, rel=1e-9)
    got = solve(inst, cfg)
    assert (got.status, got.objective, got.best_x.tolist()) == (want.status, want.objective, want.best_x.tolist())


@pytest.mark.parametrize("form", ["SF", "GSF", "EF"])
def test_two_identical_solves_give_identical_reports(form):
    inst = generate_instance(GeneratorParams("biesinger", m=20, n=20, p=3, r=3, seed=5))
    a, b = (solve(inst, BncConfig(formulation=form)) for _ in range(2))
    for field in dataclasses.fields(a):
        if field.name not in ("sep_time_s", "total_time_s"):
            assert repr(getattr(a, field.name)) == repr(getattr(b, field.name)), field.name


def test_a_stabilized_pass_makes_the_best_response_miss_not_misfire(monkeypatch):
    """A stabilized pass records its r-median at the center's costs on the
    pool; the incumbent's best response must then solve afresh."""
    rng = np.random.default_rng(73)
    calls = []
    original = bnc.follower_best_response
    monkeypatch.setattr(bnc, "follower_best_response", lambda *a, **k: calls.append(1) or original(*a, **k))
    for _ in range(20):
        inst = random_instance(rng, m=int(rng.integers(2, 7)), n=int(rng.integers(3, 8)), p=2)
        search = _Search(inst, BncConfig(formulation="GSF"))
        x = np.full(inst.n, 2.0 / inst.n)
        x[0] += 0.5 / inst.n
        x[1] -= 0.5 / inst.n  # fractional, and off the starting center
        assert search.separate(RelaxPoint(eta=inst.total_demand, x=x))
        assert np.array_equal(search.pool.last_solve[0].cost, gsf_separation_costs(inst, search.center).cost)
        xint = random_choice(rng, inst.n, inst.p)
        calls.clear()
        _, val = search.best_response(xint)
        assert calls == [1]
        assert val == pytest.approx(follower_best_response(inst, xint, mode="enumerate")[1], rel=1e-12, abs=1e-12)


def test_every_certified_gsf_incumbent_is_its_exact_best_response(monkeypatch):
    rng = np.random.default_rng(74)
    seen = []
    original = _Search.best_response

    def recorded(self, xint):
        y, val = original(self, xint)
        seen.append((self.inst, xint.copy(), val))
        return y, val

    monkeypatch.setattr(_Search, "best_response", recorded)
    for _ in range(30):
        solve(random_instance(rng), BncConfig(formulation="GSF"))
    assert len(seen) >= 30
    for inst, xint, val in seen:
        assert val == pytest.approx(follower_best_response(inst, xint, mode="enumerate")[1], rel=1e-12, abs=1e-12)
