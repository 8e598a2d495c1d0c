import itertools

import numpy as np
import pytest

from scflp import BncConfig, GeneratorParams, Instance, compute_cy, follower_best_response, generate_instance, leader_share, solve
from scflp import separation
from scflp.cuts import ef_cut, greedy_assignment, gsf_separation_costs, improved_cut, submodular_cut, tight_ell
from scflp.market import indicator
from scflp.rmedian import rmedian_solve
from scflp.tolerances import EPS_VIOL, at_most
from scflp.separation import FollowerPool, RelaxPoint, is_integral, separate_ef, separate_gsf, separate_sf

from conftest import random_choice, random_instance


def test_pool_deduplicates_and_orders_newest_first(golden):
    pool = FollowerPool(golden)
    pool.add([1, 0, 1])
    pool.add([0, 1, 1])
    assert len(pool) == 2
    pool.add([1, 0, 1])
    assert len(pool) == 2
    members = [tuple(y) for y in pool]
    assert members == [(0, 1, 1), (1, 0, 1)]


def test_sf_exact_separation_golden(golden):
    pool = FollowerPool(golden)
    pt = RelaxPoint(eta=1.6, x=np.array([1.0, 1.0, 0.0]))
    cuts = separate_sf(pt, pool)
    assert len(cuts) == 1
    assert len(pool) == 1
    assert [tuple(y) for y in pool] == [(1, 1, 1)]
    # the deepest prefix cut of the support (0, 1), tight at the exact value 4/3
    y = np.ones(3, dtype=np.int8)
    values = [submodular_cut(golden, y, range(k)).rhs_at(pt.x) for k in range(3)]
    assert _same_cut(cuts[0], submodular_cut(golden, y, range(int(np.argmin(values)))))
    assert cuts[0].rhs_at(pt.x) == pytest.approx(4 / 3, abs=1e-12)
    # second call at the same point hits the pool, not the exact solver
    again = separate_sf(pt, pool)
    assert len(again) == 1 and again[0].provenance == cuts[0].provenance


def test_sf_zero_eta_never_violated(golden):
    pool = FollowerPool(golden)
    pt = RelaxPoint(eta=0.0, x=np.array([1.0, 0.0, 1.0]))
    assert separate_sf(pt, pool) == []


# (seed, m, n, p, r) of small instances whose v takes three values, so
# customers see ties between sites
_TIED_SHAPES = ((7, 4, 6, 2, 2), (19, 5, 5, 3, 2), (31, 3, 6, 3, 3))


def _tied_instance(seed, m, n, p, r):
    rng = np.random.default_rng(seed)
    return Instance(m=m, n=n, w=rng.integers(1, 11, size=m).astype(float), v=rng.integers(1, 4, size=(m, n)).astype(float), p=p, r=r)


@pytest.mark.parametrize(
    "shape, combo",
    [
        pytest.param(shape, combo, id=f"s{shape[0]}-x{''.join(map(str, combo))}")
        for shape in _TIED_SHAPES
        for combo in itertools.combinations(range(shape[2]), shape[3])
    ],
)
def test_sf_feasible_point_certified(shape, combo):
    """SF certification is exact at every integral point: at eta equal to
    the exact best-response value the separation returns nothing, and just
    above it one cut whose value at the point is that value."""
    inst = _tied_instance(*shape)
    x = indicator(inst.n, combo)
    xf = np.asarray(x, dtype=float)
    _, val = follower_best_response(inst, x)
    assert separate_sf(RelaxPoint(eta=val, x=xf), FollowerPool(inst)) == []
    cuts = separate_sf(RelaxPoint(eta=val * (1 + 1e-6), x=xf), FollowerPool(inst))
    assert len(cuts) == 1
    assert cuts[0].rhs_at(xf) == pytest.approx(val, rel=1e-12, abs=1e-12)


def test_sf_fractional_takes_the_deepest_prefix_cut_and_pool_only(golden):
    pool = FollowerPool(golden)
    # fractional point, empty pool: the heuristic has nothing to offer
    pt = RelaxPoint(eta=2.0, x=np.array([0.5, 0.5, 0.5]))
    assert separate_sf(pt, pool) == []
    assert len(pool) == 0  # no exact call at fractional points
    pool.add([1, 1, 1])
    cuts = separate_sf(pt, pool)
    assert len(cuts) == 1 and len(pool) == 1
    # support (0, 1, 2) by descending x, ties by index; prefix values at x
    # 7/4, 4/3, 17/12 and 3/2 (the rounded point's): {0} is deepest, with
    # constant 7/6, and is violated by 2.0
    y = np.ones(3, dtype=np.int8)
    values = [submodular_cut(golden, y, range(k)).rhs_at(pt.x) for k in range(4)]
    assert values == pytest.approx([7 / 4, 4 / 3, 17 / 12, 3 / 2], abs=1e-12)
    best = int(np.argmin(values))
    assert _same_cut(cuts[0], submodular_cut(golden, y, range(best)))
    assert cuts[0].constant == pytest.approx(7 / 6, abs=1e-12)
    assert cuts[0].provenance[2] == (0,)


def test_sf_cuts_are_the_deepest_prefix_cuts_at_fractional_points(monkeypatch):
    """At a fractional point each pool member's SF cut is the classic cut,
    built once through ``separation.submodular_cut``, of the prefix of the
    LP support (descending x, ties by index) with the smallest value at x:
    brute force over every prefix gives the same minimum, at the smallest
    such prefix, and it is at most the rounded-support cut's value.  At an
    integral point the pool scan's cuts are chosen by the same rule; there
    many prefixes tie in exact arithmetic, so any prefix within rounding of
    the minimum is accepted, and the cut's value is the open set's."""
    rng = np.random.default_rng(53)
    built = []
    original = separation.submodular_cut
    monkeypatch.setattr(separation, "submodular_cut", lambda *a, **k: built.append(1) or original(*a, **k))

    def assert_deepest(inst, x, members, cuts, integral=False):
        cols = np.flatnonzero(x > 0)
        order = [int(j) for j in cols[np.argsort(-x[cols], kind="stable")]]
        rounded = np.flatnonzero(x >= 0.5)
        for y, cut in zip(members, cuts):
            values = [original(inst, y, order[:k]).rhs_at(x) for k in range(len(order) + 1)]
            low = min(values)
            tol = 1e-12 * max(1.0, abs(low))
            ties = [k for k, value in enumerate(values) if value <= low + tol]
            k = len(cut.provenance[2]) if integral else ties[0]
            assert k in ties
            assert cut.provenance[2] == tuple(sorted(order[:k]))
            assert _same_cut(cut, original(inst, y, order[:k]))
            assert cut.rhs_at(x) == pytest.approx(low, rel=1e-12, abs=1e-12)
            assert cut.rhs_at(x) <= original(inst, y, rounded).rhs_at(x) + tol
            if integral:
                assert cut.rhs_at(x) == pytest.approx(original(inst, y, rounded).rhs_at(x), rel=1e-12, abs=1e-12)

    for case in range(200):
        m, n = (int(k) for k in rng.integers(2, 13, size=2))
        inst = random_instance(rng, m=m, n=n, p=int(rng.integers(1, n + 1)), r=int(rng.integers(1, n + 1)))
        pool = FollowerPool(inst)
        for _ in range(3):
            pool.add(random_choice(rng, n, inst.r))
        members = list(pool)
        x = rng.uniform(0.0, 1.0, size=n)
        if case % 2:
            x = np.round(4 * x) / 4  # ties, zeros, ones and halves
        x[0] = 0.3  # fractional
        eta = float((n + 2) * inst.total_demand)  # above every cut's value
        built.clear()
        cuts = separate_sf(RelaxPoint(eta=eta, x=x), pool)
        assert len(built) == len(members) == len(cuts)
        assert_deepest(inst, x, members, cuts)
        xint = random_choice(rng, n, inst.p).astype(float)
        cuts = separate_sf(RelaxPoint(eta=eta, x=xint), pool)
        assert len(cuts) == len(members)
        assert_deepest(inst, xint, members, cuts, integral=True)


def test_gsf_cuts_off_classic_relaxation_optimum(golden):
    pool = FollowerPool(golden)
    pt = RelaxPoint(eta=25 / 18, x=np.array([2 / 3, 2 / 3, 2 / 3]))
    cuts = separate_gsf(pt, pool)
    assert len(cuts) == 1
    assert pt.eta > cuts[0].rhs_at(pt.x) + 1e-8
    # the exact reduction value is the anchor-cut optimum 4/3
    assert cuts[0].rhs_at(pt.x) == pytest.approx(4 / 3, abs=1e-9)


def test_gsf_certifies_anchor_relaxation_optimum(golden):
    pt = RelaxPoint(eta=4 / 3, x=np.array([1.0, 1.0, 0.0]))
    assert separate_gsf(pt, FollowerPool(golden)) == []


def test_gsf_zero_mass_point(golden):
    pool = FollowerPool(golden)
    pt = RelaxPoint(eta=0.1, x=np.zeros(3))
    cuts = separate_gsf(pt, pool)
    assert len(cuts) == 1
    assert cuts[0].constant == pytest.approx(0.0, abs=1e-12)


def test_gsf_pool_hit_skips_exact(golden):
    pool = FollowerPool(golden)
    pool.add([1, 1, 1])
    pt = RelaxPoint(eta=1.6, x=np.array([1.0, 1.0, 0.0]))
    cuts = separate_gsf(pt, pool)
    assert len(cuts) == 1
    assert len(pool) == 1  # nothing new was added


def test_ef_zero_assignment_violated(golden):
    pt = RelaxPoint(eta=0.5, x=np.array([1.0, 1.0, 0.0]), z=np.zeros((3, 3)))
    cuts = separate_ef(pt, FollowerPool(golden))
    assert len(cuts) == 1 and cuts[0].kind == "EF"


def test_ef_certifies_optimal_point(golden):
    x = np.array([1.0, 1.0, 0.0])
    z = greedy_assignment(golden, x)
    pt = RelaxPoint(eta=4 / 3, x=x, z=z)
    assert separate_ef(pt, FollowerPool(golden)) == []


def test_ef_exactness_against_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(25):
        inst = random_instance(rng, m=3, n=5, p=2, r=2)
        z = rng.uniform(0.0, 1.0, size=(3, 5))
        best = min(
            float(inst.w @ (compute_cy(inst, indicator(5, combo)) * z).sum(axis=1))
            for combo in itertools.combinations(range(5), 2)
        )
        # barely feasible: certified; clearly infeasible: cut returned
        assert separate_ef(RelaxPoint(eta=best - 1e-9, x=np.zeros(5), z=z), FollowerPool(inst)) == []
        assert len(separate_ef(RelaxPoint(eta=best + 1e-3, x=np.zeros(5), z=z), FollowerPool(inst))) == 1


def test_ef_separation_uses_the_pool(monkeypatch):
    """EF's exact argmin joins the pool and its solve is recorded, like SF's
    and GSF's; a later point that violates that member's cut is answered by
    the pool scan without an r-median solve."""
    rng = np.random.default_rng(47)
    inst = random_instance(rng, m=4, n=6, p=2, r=2)
    solves = []
    original = separation.rmedian_solve
    monkeypatch.setattr(separation, "rmedian_solve", lambda *a, **k: solves.append(1) or original(*a, **k))
    pool = FollowerPool(inst)
    x = np.full(6, 1 / 3)  # with z <= 1/6: a point of the EF relaxation
    cuts = separate_ef(RelaxPoint(eta=inst.total_demand, x=x, z=rng.uniform(0.0, 1 / 6, size=(4, 6))), pool)
    assert len(cuts) == 1 and len(solves) == 1 and len(pool) == 1
    y_star = next(iter(pool))
    assert tuple(pool.last_solve[1]) == tuple(np.flatnonzero(y_star))
    assert cuts[0].provenance == ef_cut(inst, y_star).provenance
    again = separate_ef(RelaxPoint(eta=inst.total_demand, x=x, z=rng.uniform(0.0, 1 / 6, size=(4, 6))), pool)
    assert len(solves) == 1 and len(pool) == 1
    assert len(again) == 1 and again[0].provenance == cuts[0].provenance


def test_exactness_at_integral_points_all_families():
    """Empty separation at an integral point implies eta is at most the
    minimum cut right-hand side over every follower choice (oracle:
    enumeration of the whole follower set)."""
    rng = np.random.default_rng(13)
    for _ in range(20):
        inst = random_instance(rng, m=3, n=6, p=2, r=2)
        x = random_choice(rng, 6, 2)
        xf = np.asarray(x, dtype=float)
        _, val = follower_best_response(inst, x)
        for eta, expect_cut in ((val - 1e-8, False), (val + 1e-3, True)):
            pt = RelaxPoint(eta=eta, x=xf)
            sf = separate_sf(pt, FollowerPool(inst))
            gsf = separate_gsf(pt, FollowerPool(inst))
            assert (len(sf) > 0) == expect_cut
            assert (len(gsf) > 0) == expect_cut
        truth = min(leader_share(inst, x, indicator(6, c)) for c in itertools.combinations(range(6), 2))
        assert truth == pytest.approx(val, rel=1e-12)


@pytest.mark.parametrize("form", ["SF", "GSF", "EF"])
def test_integral_point_cut_threshold_is_the_certification_slack(form):
    """At an integral point the exact pass cuts when eta exceeds the exact
    value by 1e-7 -- above the certification slack, below EPS_VIOL -- with
    a cut whose value at the point is the exact value; at eta equal to the
    exact value it returns nothing, certifying the point."""
    separate = {"SF": separate_sf, "GSF": separate_gsf, "EF": separate_ef}[form]
    rng = np.random.default_rng(43)
    for _ in range(10):
        inst = random_instance(rng, m=4, n=6, p=2, r=2)
        x = random_choice(rng, 6, 2)
        xf = np.asarray(x, dtype=float)
        z = greedy_assignment(inst, xf) if form == "EF" else None
        _, val = follower_best_response(inst, x)
        cuts = separate(RelaxPoint(eta=val + 1e-7, x=xf, z=z), FollowerPool(inst))
        assert len(cuts) == 1
        assert cuts[0].rhs_at(xf, z) == pytest.approx(val, rel=1e-12)
        assert separate(RelaxPoint(eta=val, x=xf, z=z), FollowerPool(inst)) == []


def test_pool_grows_one_member_per_exact_call():
    rng = np.random.default_rng(17)
    inst = random_instance(rng, m=3, n=6, p=2, r=2)
    pool = FollowerPool(inst)
    sizes = []
    for _ in range(8):
        x = random_choice(rng, 6, 2)
        separate_gsf(RelaxPoint(eta=inst.total_demand, x=np.asarray(x, dtype=float)), pool)
        sizes.append(len(pool))
    assert all(b - a in (0, 1) for a, b in zip([0] + sizes, sizes))
    members = [tuple(y) for y in pool]
    assert len(set(members)) == len(members)


def test_returned_cuts_are_sound():
    """No returned cut undercuts any achievable (best-response value, x)."""
    rng = np.random.default_rng(19)
    for _ in range(10):
        inst = random_instance(rng, m=3, n=5, p=2, r=2)
        pool = FollowerPool(inst)
        collected = []
        for _ in range(6):
            x = rng.uniform(0.0, 1.0, size=5)
            x = x * inst.p / x.sum()
            pt = RelaxPoint(eta=float(inst.total_demand), x=np.clip(x, 0.0, 1.0))
            collected += separate_gsf(pt, pool)
            collected += separate_sf(pt, pool)
        for combo in itertools.combinations(range(5), 2):
            x = indicator(5, combo)
            _, val = follower_best_response(inst, x, mode="enumerate")
            for cut in collected:
                assert cut.rhs_at(np.asarray(x, dtype=float)) >= val - 1e-9


def test_is_integral_tolerance():
    assert is_integral(np.array([1.0 - 1e-8, 1e-8, 1.0]))
    assert not is_integral(np.array([0.5, 1.0, 0.0]))


def _same_cut(a, b) -> bool:
    return a.kind == b.kind and a.constant == b.constant and np.array_equal(a.xcoef, b.xcoef) and a.provenance == b.provenance


def test_pool_memoized_cuts_equal_fresh_cuts():
    """The pool computes each member's capture matrix once, when it joins,
    and add hands that matrix back; the cuts built from them equal cuts
    built from scratch bit for bit."""
    rng = np.random.default_rng(29)
    inst = random_instance(rng, m=5, n=7, p=2, r=3)
    pool = FollowerPool(inst)
    for _ in range(6):
        pool.add(random_choice(rng, 7, 3))
    first = list(pool.scan())
    assert [tuple(y) for y, _ in first] == [tuple(y) for y in pool]
    for (y, cy), (_, again) in zip(first, pool.scan()):
        assert again is cy and pool.add(y) is cy
        assert np.array_equal(cy, compute_cy(inst, y))
    x = rng.uniform(0.0, 1.0, size=7)
    pt = RelaxPoint(eta=float(inst.total_demand), x=x)
    ell = tight_ell(inst, x)
    gsf = separate_gsf(pt, pool)
    assert gsf and all(_same_cut(c, improved_cut(inst, np.array(c.provenance[1], np.int8), ell)) for c in gsf)
    sf = separate_sf(pt, pool)
    assert sf and all(_same_cut(c, submodular_cut(inst, np.array(c.provenance[1], np.int8), c.provenance[2])) for c in sf)


def test_sf_separation_uses_the_point_integrality_tolerance():
    """A point 1e-7 from integral is integral under the one tolerance
    (INT_TOL = 1e-6): SF separation runs its exact pass at the rounded
    point.  A point 1e-5 from integral takes the fractional branch."""
    rng = np.random.default_rng(31)
    inst = random_instance(rng, m=4, n=6, p=2, r=2)
    xint = random_choice(rng, 6, 2).astype(float)
    near = np.where(xint == 0, 1e-7, 1.0 - 1e-7)
    pt = RelaxPoint(eta=float(inst.total_demand), x=near)
    assert pt.integral
    pool = FollowerPool(inst)
    cuts = separate_sf(pt, pool)
    assert len(cuts) == 1 and len(pool) == 1 and pool.last_solve is not None
    y_star, value = follower_best_response(inst, np.round(near))
    assert tuple(next(iter(pool))) == tuple(y_star) and pool.last_solve[2] == value
    far = np.where(xint == 0, 1e-5, 1.0 - 1e-5)
    pt = RelaxPoint(eta=pt.eta, x=far)
    assert not pt.integral
    pool = FollowerPool(inst)
    assert separate_sf(pt, pool) == [] and pool.last_solve is None


@pytest.mark.parametrize("form", ["SF", "GSF", "EF"])
def test_each_capture_matrix_is_computed_once_per_solve(form, monkeypatch):
    """Over a whole solve (criterion-7 instance p=r=3), separation and the
    cut builders compute one capture matrix per pool member, when it joins."""
    calls, pools = [], []
    original = separation.compute_cy
    monkeypatch.setattr(separation, "compute_cy", lambda *a: calls.append(1) or original(*a))
    monkeypatch.setattr("scflp.cuts.compute_cy", lambda *a: calls.append(1) or original(*a))

    class RecordedPool(FollowerPool):
        def __init__(self, *args):
            super().__init__(*args)
            pools.append(self)

    monkeypatch.setattr("scflp.bnc.FollowerPool", RecordedPool)
    inst = generate_instance(GeneratorParams("biesinger", m=40, n=40, p=3, r=3, seed=70_003))
    assert solve(inst, BncConfig(formulation=form)).status == "optimal"
    assert len(pools) == 1
    assert len(calls) == len(pools[0]) > 0


def test_separators_refuse_points_of_the_wrong_kind(golden):
    """Classic and anchor separation take points without allocations, and
    assignment separation needs them."""
    pool = FollowerPool(golden)
    x = np.full(3, 2 / 3)
    with_z = RelaxPoint(eta=2.0, x=x, z=greedy_assignment(golden, x))
    with pytest.raises(ValueError, match="classic separation takes points without allocations"):
        separate_sf(with_z, pool)
    with pytest.raises(ValueError, match="anchor separation takes points without allocations"):
        separate_gsf(with_z, pool)
    with pytest.raises(ValueError, match="assignment separation needs allocations"):
        separate_ef(RelaxPoint(eta=2.0, x=x), pool)


def _plain_gsf_reference(pt, pool):
    """The anchor-cut pass at pt.x written out: pool cuts at tight_ell(pt.x)
    violated at pt, else the exact argmin's cut by the keep rule."""
    inst = pool.inst
    ell = tight_ell(inst, pt.x)
    hits = [cut for cut in (improved_cut(inst, y, ell, cy) for y, cy in pool.scan()) if pt.eta > cut.rhs_at(pt.x) + EPS_VIOL]
    if hits:
        return hits
    sites, _, _ = rmedian_solve(gsf_separation_costs(inst, pt.x), start=pool.sites())
    y = indicator(inst.n, sites)
    cut = improved_cut(inst, y, ell, pool.add(y))
    if pt.integral:
        return [] if at_most(pt.eta, cut.rhs_at(pt.x)) else [cut]
    return [cut] if pt.eta > cut.rhs_at(pt.x) + EPS_VIOL else []


def _fractional_point(rng, inst):
    x = rng.uniform(0.05, 1.0, size=inst.n)
    x = np.clip(x * inst.p / x.sum(), 0.0, 1.0)
    return RelaxPoint(eta=float(rng.uniform(0.3, 1.0) * inst.total_demand), x=x)


def test_gsf_without_a_center_is_the_plain_pass_bit_for_bit():
    """at=None separates at pt.x exactly as the plain anchor-cut pass."""
    rng = np.random.default_rng(61)
    for _ in range(30):
        inst = random_instance(rng, m=int(rng.integers(2, 6)), n=int(rng.integers(3, 7)))
        pools = FollowerPool(inst), FollowerPool(inst)
        for y in (random_choice(rng, inst.n, inst.r) for _ in range(int(rng.integers(0, 3)))):
            for pool in pools:
                pool.add(y)
        for _ in range(4):
            pt = _fractional_point(rng, inst) if rng.random() < 0.7 else RelaxPoint(eta=inst.total_demand, x=random_choice(rng, inst.n, inst.p).astype(float))
            got, want = separate_gsf(pt, pools[0], at=None), _plain_gsf_reference(pt, pools[1])
            assert [c.provenance for c in got] == [c.provenance for c in want]
            for a, b in zip(got, want):
                assert a.constant == b.constant and np.array_equal(a.xcoef, b.xcoef)
            assert [tuple(y) for y in pools[0]] == [tuple(y) for y in pools[1]]


def test_gsf_at_a_far_center_returns_only_cuts_violated_at_the_point():
    """With the center far from pt.x, every cut is the anchor cut at the
    center's tight_ell and pt violates it by more than eps; the exact pass
    records the center's r-median costs on the pool."""
    rng = np.random.default_rng(62)
    returned = 0
    for _ in range(40):
        inst = random_instance(rng, m=int(rng.integers(2, 6)), n=int(rng.integers(3, 7)))
        pool = FollowerPool(inst)
        for _ in range(5):
            pt = _fractional_point(rng, inst)
            center = 1.0 - pt.x  # far from pt.x, the other end of the box
            pool.last_solve = None
            cuts = separate_gsf(pt, pool, at=center)
            ell = tuple(tight_ell(inst, center).tolist())
            for cut in cuts:
                assert cut.provenance[2] == ell
                assert pt.eta > cut.rhs_at(pt.x) + EPS_VIOL
            if pool.last_solve is not None:
                assert np.array_equal(pool.last_solve[0].cost, gsf_separation_costs(inst, center).cost)
            returned += len(cuts)
    assert returned > 0
