import itertools

import numpy as np
import pytest

from scflp import Instance, compute_cy
from scflp.cuts import ef_cut, greedy_assignment, gsf_separation_costs, improved_cut
from scflp.lp import lp_solve
from scflp.market import open_sites
from scflp.rmedian import CapExceededError
from scflp.verify import (
    _anchor_rows,
    _customer_terms,
    _hull_model,
    _supports,
    verify_aggregation,
    verify_hull,
    verify_prop61,
)

from conftest import random_choice, random_instance
from explicit_lps import anchor_polytope, assignment_polytope
from lp_rows import lp_rows

Y_ALL = np.array([1, 1, 1], dtype=np.int8)


def _support(model, alpha, beta):
    """Support in direction (alpha, beta) of a standalone description whose
    columns start with eta and x: one LP, solved from its previous basis."""
    model.objective = np.zeros(model.ncols)
    model.objective[0] = alpha
    model.objective[1 : 1 + beta.size] = beta
    res = lp_solve(model)
    assert res.status == "optimal"
    return res.objective


def test_support_in_pure_eta_direction_is_full_market(golden):
    # without the cardinality row the best corner opens everything: 3/2
    anchor = anchor_polytope(golden, _anchor_rows(golden, Y_ALL, compute_cy(golden, Y_ALL)))
    assign = assignment_polytope(golden, Y_ALL)
    assert _support(anchor, 1.0, np.zeros(3)) == pytest.approx(3 / 2, abs=1e-9)
    assert _support(assign, 1.0, np.zeros(3)) == pytest.approx(3 / 2, abs=1e-9)


def test_support_with_x_forced_to_zero(golden):
    anchor = anchor_polytope(golden, _anchor_rows(golden, Y_ALL, compute_cy(golden, Y_ALL)))
    anchor.upper[1:] = 0.0
    assert _support(anchor, 1.0, np.zeros(3)) == pytest.approx(0.0, abs=1e-9)


def test_hull_check_golden(golden):
    rep = verify_hull(golden, Y_ALL, trials=60, seed=1)
    assert rep.max_discrepancy < 1e-7
    assert rep.trials == 60
    assert rep.y == (1, 1, 1)


def test_hull_check_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(6):
        inst = random_instance(rng, m=3, n=4)
        y = random_choice(rng, 4, inst.r)
        rep = verify_hull(inst, y, trials=40, seed=int(rng.integers(0, 1000)))
        assert rep.max_discrepancy < 1e-7


# On this instance the sum of per-customer concave envelopes rises strictly
# above the joint integer hull at x = (0, 0, .5, .5, 0, .5): customers 0 and 3
# need incompatible convex decompositions of the same fractional point.
HULL_GAP_V = np.array(
    [
        [0.7213070914556701, 1.5880878554812996, 2.7046498541073816, 0.6505194468808244, 0.41767257923429746, 2.929315587123603],
        [2.046889847873184, 2.5218598491256463, 1.1263369560947072, 2.493584467056867, 2.773042999603292, 1.1146272478625376],
        [0.9624773266605504, 2.484014049790685, 0.6931243514372851, 2.58257462760744, 0.5637414167165602, 2.679462407085593],
        [1.2462100288031943, 2.0315109689495348, 2.750780958202609, 2.162374616463254, 0.7544541105748107, 0.34341814582382757],
    ]
)
HULL_GAP_W = np.array([8.0, 1.0, 8.0, 7.0])
HULL_GAP_Y = np.array([1, 1, 0, 1, 1, 1], dtype=np.int8)


def test_hull_checker_detects_envelope_aggregation_gap():
    """The checker must report instances where the two (mutually equal) LP
    descriptions exceed the integer hull; this pinned instance has a gap
    above 3e-2."""
    inst = Instance(m=4, n=6, w=HULL_GAP_W, v=HULL_GAP_V, p=3, r=5)
    rep = verify_hull(inst, HULL_GAP_Y, trials=200, seed=60_011)
    assert rep.max_discrepancy > 1e-3


def test_lp_descriptions_agree_even_where_hull_gap_exists():
    inst = Instance(m=4, n=6, w=HULL_GAP_W, v=HULL_GAP_V, p=3, r=5)
    anchor = anchor_polytope(inst, _anchor_rows(inst, HULL_GAP_Y, compute_cy(inst, HULL_GAP_Y)))
    assign = assignment_polytope(inst, HULL_GAP_Y)
    rng = np.random.default_rng(0)
    for _ in range(40):
        d = rng.normal(size=7)
        d /= np.linalg.norm(d)
        while d[0] <= 0.1:
            d = rng.normal(size=7)
            d /= np.linalg.norm(d)
        s1 = _support(anchor, float(d[0]), d[1:])
        s2 = _support(assign, float(d[0]), d[1:])
        assert abs(s1 - s2) < 1e-7


def _directions(rng, size, count):
    """count unit directions with weight above 0.1 on eta, drawn as
    verify_hull draws them."""
    out = []
    while len(out) < count:
        d = rng.normal(size=size)
        d /= np.linalg.norm(d)
        if d[0] > 0.1:
            out.append((float(d[0]), d[1:]))
    return out


def test_each_block_support_equals_its_standalone_lp(golden):
    """On the golden, the pinned and random desk-size instances, direction
    after direction on one block model, the per-customer anchor block gives
    the support of the explicit LP over all (n+1)^m anchor rows, and the
    assignment block the support of the assignment polytope."""
    rng = np.random.default_rng(113)
    cases = [(golden, Y_ALL), (Instance(m=4, n=6, w=HULL_GAP_W, v=HULL_GAP_V, p=3, r=5), HULL_GAP_Y)]
    for _ in range(8):
        inst = random_instance(rng, m=int(rng.integers(1, 5)), n=int(rng.integers(1, 9)))
        cases.append((inst, random_choice(rng, inst.n, inst.r)))
    for inst, y in cases:
        cy = compute_cy(inst, y)
        model = _hull_model(inst, y, _customer_terms(inst, y, cy))
        anchor, assign = anchor_polytope(inst, _anchor_rows(inst, y, cy)), assignment_polytope(inst, y)
        for alpha, beta in _directions(rng, 1 + inst.n, 60):
            s_anchor, s_assign = _supports(model, 1 + inst.n + inst.m * inst.n, alpha, beta)
            assert abs(s_anchor - _support(anchor, alpha, beta)) <= 1e-9
            assert abs(s_assign - _support(assign, alpha, beta)) <= 1e-9


def test_hull_model_holds_the_per_customer_anchor_system():
    """After the assignment block's rows, the block model holds
    eta - sum_i theta_i <= 0 and then, customer by customer and anchor by
    anchor, theta_i - xcoef.x <= constant with the one-customer
    improved_cut's terms: m (n+1) + 1 anchor rows on the anchor block's
    [eta, x, theta] columns, theta free."""
    rng = np.random.default_rng(89)
    cases = [(Instance(m=4, n=6, w=HULL_GAP_W, v=HULL_GAP_V, p=3, r=5), HULL_GAP_Y)]
    for _ in range(4):
        inst = random_instance(rng, m=int(rng.integers(1, 5)), n=int(rng.integers(1, 7)))
        cases.append((inst, random_choice(rng, inst.n, inst.r)))
    for inst, y in cases:
        m, n = inst.m, inst.n
        cy = compute_cy(inst, y)
        model = _hull_model(inst, y, _customer_terms(inst, y, cy))
        a0 = 1 + n + m * n
        theta = a0 + 1 + n
        assert model.ncols == theta + m
        assert np.all(model.lower[[0, a0]] == -np.inf) and np.all(model.upper[[0, a0]] == np.inf)
        assert np.all(model.lower[theta:] == -np.inf) and np.all(model.upper[theta:] == np.inf)
        free = np.r_[0, a0, theta : theta + m]
        assert np.all(np.delete(model.lower, free) == 0.0) and np.all(np.delete(model.upper, free) == 1.0)

        expected = [("<=", 0.0, [(a0, 1.0)] + [(theta + i, -1.0) for i in range(m)])]
        for i in range(m):
            alone = Instance(m=1, n=n, w=inst.w[i : i + 1], v=inst.v[i : i + 1], p=inst.p, r=inst.r)
            for ell in range(n + 1):
                cut = improved_cut(alone, y, np.array([ell]), cy[i : i + 1])
                coef = [(a0 + 1 + j, -c) for j, c in enumerate(cut.xcoef) if c != 0.0] + [(theta + i, 1.0)]
                expected.append(("<=", cut.constant, coef))
        assign = lp_rows(assignment_polytope(inst, y))
        got = [(r.sense, r.rhs, list(r.coef.items())) for r in lp_rows(model)]
        assert got[: len(assign)] == [(r.sense, r.rhs, list(r.coef.items())) for r in assign]
        assert got[len(assign) :] == expected
        assert len(expected) == m * (n + 1) + 1


def test_hull_check_refuses_fewer_than_one_trial(golden):
    """A check that probes no direction proves nothing: trials below 1 is
    refused, not reported as a discrepancy of 0."""
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            verify_hull(golden, Y_ALL, trials=trials)


def test_prop61_golden_traces(golden):
    assert verify_prop61(golden, np.array([1.0, 1.0, 0.0]), Y_ALL) < 1e-12
    assert verify_prop61(golden, np.zeros(3), Y_ALL) < 1e-12


def test_prop61_random_triples():
    rng = np.random.default_rng(3)
    for _ in range(20):
        inst = random_instance(rng, m=3, n=4)
        x = rng.uniform(0.0, 1.0, size=4)
        y = random_choice(rng, 4, inst.r)
        assert verify_prop61(inst, x, y) < 1e-10


def test_aggregation_golden(golden):
    rep = verify_aggregation(golden, trials=3, seed=0)
    assert rep.shared_value == pytest.approx(4 / 3, abs=1e-9)
    assert abs(rep.shared_value - rep.disaggregated_value) < 1e-7
    assert rep.max_greedy_gap < 1e-7
    assert rep.max_dual_gap < 1e-9


def test_aggregation_single_customer():
    inst = Instance(m=1, n=3, w=np.array([2.0]), v=np.array([[1.0, 2.0, 3.0]]), p=1, r=1)
    rep = verify_aggregation(inst, trials=4, seed=1)
    assert abs(rep.shared_value - rep.disaggregated_value) < 1e-7
    assert rep.max_greedy_gap < 1e-7


def test_aggregation_refuses_beyond_its_caps():
    """More than 200 follower choices, or m*n above 400, is refused before
    any LP is built."""
    rng = np.random.default_rng(8)
    for m, n, r in ((2, 10, 5), (41, 10, 1)):  # C(10, 5) = 252 with m*n = 20; C(10, 1) = 10 with m*n = 410
        with pytest.raises(CapExceededError, match="aggregation check"):
            verify_aggregation(random_instance(rng, m=m, n=n, p=1, r=r))


def test_aggregation_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(8):
        inst = random_instance(rng, m=3, n=4, p=2, r=2)
        rep = verify_aggregation(inst, trials=2, seed=int(rng.integers(0, 100)))
        assert abs(rep.shared_value - rep.disaggregated_value) < 1e-7
        assert rep.max_greedy_gap < 1e-7
        assert rep.max_dual_gap < 1e-9


def test_greedy_assignment_structure(golden):
    z = greedy_assignment(golden, np.array([1.0, 1.0, 0.0]))
    # every customer parks its whole unit mass on its best open site
    np.testing.assert_allclose(z.sum(axis=1), 1.0)
    assert z[0, 1] == 1.0 and z[1, 0] == 1.0 and z[2, 0] == 1.0
    z_frac = greedy_assignment(golden, np.array([0.25, 0.5, 0.25]))
    assert np.all(z_frac.sum(axis=1) <= 1.0 + 1e-12)
    assert np.all(z_frac <= np.array([0.25, 0.5, 0.25]) + 1e-12)


def test_verify_polytopes_match_per_row_reference():
    """The bulk-built hull-check models hold the rows the per-row builders
    appended, in the same order and with the same coefficients."""
    rng = np.random.default_rng(89)
    for _ in range(5):
        inst = random_instance(rng, m=int(rng.integers(2, 4)), n=int(rng.integers(2, 5)))
        y = random_choice(rng, inst.n, inst.r)
        cy = compute_cy(inst, y)
        anchor = anchor_polytope(inst, _anchor_rows(inst, y, cy))
        expected = []
        for ell in itertools.product(range(inst.n + 1), repeat=inst.m):
            cut = improved_cut(inst, y, np.array(ell), cy)
            coef = {0: 1.0}
            coef.update({1 + j: -c for j, c in enumerate(cut.xcoef) if c != 0.0})
            expected.append(("<=", cut.constant, list(coef.items())))
        assert [(r.sense, r.rhs, list(r.coef.items())) for r in lp_rows(anchor)] == expected

        m, n = inst.m, inst.n
        assign = assignment_polytope(inst, y)
        expected = [("<=", 0.0, [(1 + n + i * n + j, 1.0), (1 + j, -1.0)]) for i in range(m) for j in range(n)]
        expected += [("<=", 1.0, [(1 + n + i * n + j, 1.0) for j in range(n)]) for i in range(m)]
        zcoef = ef_cut(inst, y).zcoef
        cells = [(1 + n + i * n + j, -zcoef[i, j]) for i in range(m) for j in range(n) if zcoef[i, j] != 0.0]
        expected.append(("<=", 0.0, [(0, 1.0)] + cells))
        assert [(r.sense, r.rhs, list(r.coef.items())) for r in lp_rows(assign)] == expected


def test_anchor_polytope_matches_per_row_cuts_on_hull_gap_instance():
    """All 7^4 = 2401 rows of the pinned instance's anchor polytope equal
    the per-row improved_cut rows, in order, bit for bit."""
    inst = Instance(m=4, n=6, w=HULL_GAP_W, v=HULL_GAP_V, p=3, r=5)
    cy = compute_cy(inst, HULL_GAP_Y)
    rows = lp_rows(anchor_polytope(inst, _anchor_rows(inst, HULL_GAP_Y, cy)))
    anchors = list(itertools.product(range(7), repeat=4))
    assert len(rows) == len(anchors) == 2401
    for row, ell in zip(rows, anchors):
        cut = improved_cut(inst, HULL_GAP_Y, np.array(ell), cy)
        coef = [(0, 1.0)] + [(1 + j, -c) for j, c in enumerate(cut.xcoef) if c != 0.0]
        assert (row.sense, row.rhs, list(row.coef.items())) == ("<=", cut.constant, coef)


def test_prop61_equals_literal_minimum_over_anchor_vectors():
    rng = np.random.default_rng(41)
    cases = [(Instance(m=4, n=6, w=HULL_GAP_W, v=HULL_GAP_V, p=3, r=5), HULL_GAP_Y)]
    for _ in range(12):
        inst = random_instance(rng, m=int(rng.integers(1, 5)), n=int(rng.integers(1, 5)))
        cases.append((inst, random_choice(rng, inst.n, inst.r)))
    for inst, y in cases:
        x = rng.uniform(0.0, 1.0, size=inst.n)
        cy = compute_cy(inst, y)
        literal = min(
            improved_cut(inst, y, np.array(ell), cy).rhs_at(x)
            for ell in itertools.product(range(inst.n + 1), repeat=inst.m)
        )
        reduced = float(inst.w @ gsf_separation_costs(inst, x).cost[:, open_sites(y)].min(axis=1))
        assert abs(verify_prop61(inst, x, y) - abs(literal - reduced)) <= 1e-12


def test_anchor_checks_refuse_more_than_200k_anchor_vectors():
    rng = np.random.default_rng(43)
    inst = random_instance(rng, m=7, n=6)  # 7^7 = 823543 anchor vectors
    y = random_choice(rng, inst.n, inst.r)
    with pytest.raises(CapExceededError):
        _anchor_rows(inst, y, compute_cy(inst, y))
    with pytest.raises(CapExceededError):
        verify_prop61(inst, np.full(inst.n, 0.5), y)
    # the hull check builds m (n+1) + 1 anchor rows, not (n+1)^m, so it runs
    rep = verify_hull(inst, y, trials=20, seed=5)
    assert rep.trials == 20
    model = _hull_model(inst, y, _customer_terms(inst, y, compute_cy(inst, y)))
    for alpha, beta in _directions(np.random.default_rng(5), 1 + inst.n, 20):
        s_anchor, s_assign = _supports(model, 1 + inst.n + inst.m * inst.n, alpha, beta)
        assert abs(s_anchor - s_assign) <= 1e-7
