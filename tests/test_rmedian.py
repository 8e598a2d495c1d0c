import math

import numpy as np
import pytest

import scflp
from scflp import RMedianInstance, rmedian, rmedian_enumerate, rmedian_solve
from scflp.market import indicator, response_costs
from scflp.rmedian import CapExceededError, _combo_values, _greedy_swap, _lagrangian_bound, set_value


def test_hand_instance_tie_breaks_lexicographically():
    rm = RMedianInstance(cost=np.array([[1.0, 2, 3], [3, 2, 1]]), w=np.ones(2), r=1)
    sites, value = rmedian_enumerate(rm)
    assert sites.tolist() == [0]  # columns cost 4, 4, 4; first one wins
    assert value == 4.0
    sites_b, value_b, status = rmedian_solve(rm)
    assert status == "optimal"
    assert value_b == 4.0


def test_r_equals_n_takes_row_minima():
    rng = np.random.default_rng(1)
    cost = rng.uniform(0.0, 5.0, size=(6, 4))
    w = rng.uniform(0.5, 3.0, size=6)
    rm = RMedianInstance(cost=cost, w=w, r=4)
    sites, value = rmedian_enumerate(rm)
    assert sites.tolist() == [0, 1, 2, 3]
    assert value == pytest.approx(float(w @ cost.min(axis=1)), rel=1e-14)
    _, value_b, _ = rmedian_solve(rm)
    assert value_b == value


def test_zero_cost_column_gives_zero_optimum():
    cost = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 1.0]])
    rm = RMedianInstance(cost=cost, w=np.ones(2), r=1)
    _, value = rmedian_enumerate(rm)
    assert value == 0.0
    _, value_b, _ = rmedian_solve(rm)
    assert value_b == 0.0


def test_enumeration_cap():
    rm = RMedianInstance(cost=np.ones((2, 30)), w=np.ones(2), r=15)
    with pytest.raises(CapExceededError, match=r"C\(30, 15\) = 155117520 exceeds cap"):
        rmedian_enumerate(rm)


def test_solver_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(17)
    for k in range(200):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(2, 13))
        r = int(rng.integers(1, n + 1))
        cost = rng.uniform(0.0, 4.0, size=(m, n))
        if k % 7 == 0:
            cost = np.round(cost, 1)  # encourage ties
        w = rng.integers(1, 10, size=m).astype(float)
        rm = RMedianInstance(cost=cost, w=w, r=r)
        sites_e, val_e = rmedian_enumerate(rm)
        sites_b, val_b, status = rmedian_solve(rm)
        assert status == "optimal"
        assert val_b == val_e, f"instance {k}: {val_b} != {val_e}"
        assert set_value(rm, sites_b) == val_b


def test_solver_forces_branching_path(monkeypatch):
    """Small enumeration chunks force the Lagrangian bound and branching
    logic to run; values must still match full enumeration exactly."""
    rng = np.random.default_rng(29)
    monkeypatch.setattr(rmedian, "_ENUM_CHUNK", 2)
    monkeypatch.setattr(rmedian, "_SUBGRAD_ITERS", 12)
    for _ in range(60):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(4, 11))
        r = int(rng.integers(2, n))
        rm = RMedianInstance(cost=rng.uniform(0.0, 4.0, size=(m, n)), w=np.ones(m), r=r)
        _, val_e = rmedian_enumerate(rm)
        _, val_b, status = rmedian_solve(rm)
        assert status == "optimal"
        assert val_b == val_e


def test_monotone_in_r():
    rng = np.random.default_rng(5)
    cost = rng.uniform(0.0, 4.0, size=(5, 9))
    w = rng.uniform(0.5, 2.0, size=5)
    values = []
    for r in range(1, 10):
        _, val, _ = rmedian_solve(RMedianInstance(cost=cost, w=w, r=r))
        values.append(val)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_lagrangian_bound_is_valid():
    """Node bounds never exceed the true optimum of the subproblem they
    relax (oracle: enumeration)."""
    from scflp.rmedian import _lagrangian_bound

    rng = np.random.default_rng(47)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        cost = rng.uniform(0.0, 4.0, size=(m, n))
        w = rng.uniform(0.5, 3.0, size=m)
        rm = RMedianInstance(cost=cost, w=w, r=r)
        _, opt = rmedian_enumerate(rm)
        t = w[:, None] * cost
        bound = _lagrangian_bound(t, 0, r, ub=opt, iters=30, u=t.min(axis=1))
        assert bound <= opt + 1e-9 * (1 + abs(opt))


def test_greedy_incumbent_never_below_optimum():
    """The reported value always comes from an actual site set."""
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        rm = RMedianInstance(cost=rng.uniform(0, 3, size=(3, n)), w=np.ones(3), r=r)
        sites, val, _ = rmedian_solve(rm)
        assert len(sites) == r
        assert set_value(rm, sites) == val
        _, val_e = rmedian_enumerate(rm)
        assert val >= val_e - 1e-15


@pytest.mark.parametrize("m", [1, 5, 37, 300])
def test_evaluator_is_batch_invariant(m):
    """A set's value is the same bits alone, inside blocks of any size, and
    split into forced sites (a row-minimum base) plus the rest."""
    rng = np.random.default_rng(m)
    n, q = 40, 3
    rm = RMedianInstance(cost=rng.uniform(0.0, 4.0, size=(m, n)), w=rng.uniform(0.5, 3.0, size=m), r=q)
    for _ in range(5):
        target = np.sort(rng.choice(n, size=q, replace=False))
        alone = set_value(rm, target)
        for k in (2, 7, 256, 4096):
            block = np.array([np.sort(rng.choice(n, size=q, replace=False)) for _ in range(k)])
            pos = int(rng.integers(k))
            block[pos] = target
            assert _combo_values(rm, block)[pos] == alone
            base = rm.cost[:, target[:1]].min(axis=1)
            block[pos, 1:] = target[1:]
            assert _combo_values(rm, block[:, 1:], base)[pos] == alone


def test_lagrangian_bound_valid_from_perturbed_warm_start():
    """Warm-started ascent (as children inherit their parent's multipliers)
    still never bounds above the enumerated optimum."""
    rng = np.random.default_rng(53)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        cost = rng.uniform(0.0, 4.0, size=(m, n))
        w = rng.uniform(0.5, 3.0, size=m)
        _, opt = rmedian_enumerate(RMedianInstance(cost=cost, w=w, r=r))
        t = w[:, None] * cost
        u = t.min(axis=1) + rng.normal(0.0, 2.0, size=m)
        start = u.copy()
        bound = _lagrangian_bound(t, 0, r, ub=opt, iters=30, u=u)
        assert bound <= opt + 1e-9 * (1 + abs(opt))
        # the multipliers handed back reproduce a bound at least as good as the start's
        assert _lagrangian_bound(t, 0, r, ub=opt, iters=1, u=u.copy()) >= _lagrangian_bound(t, 0, r, ub=opt, iters=1, u=start) - 1e-12


def test_all_zero_costs_return_first_sites():
    """Every set ties at zero; the lexicographically smallest one wins."""
    rm = RMedianInstance(cost=np.zeros((20, 100)), w=np.ones(20), r=3)
    sites, value, status = rmedian_solve(rm)
    assert status == "optimal"
    assert sites.tolist() == [0, 1, 2]
    assert value == 0.0


def test_r5_best_response_at_n100_is_proved():
    """Biesinger m=n=100, p=r=5, seed 1; the leader opens the 5 sites with
    the highest total weighted attractiveness."""
    inst = scflp.generate_instance(scflp.GeneratorParams("biesinger", m=100, n=100, p=5, r=5, seed=1))
    leader = np.argsort(-(inst.w @ inst.v), kind="stable")[:5]
    rm = response_costs(inst, indicator(inst.n, leader))
    sites, value, status = rmedian_solve(rm, time_limit=10)
    assert status == "optimal"
    assert value == pytest.approx(221.485925, abs=1e-6)
    assert set_value(rm, sites) == value


def _greedy_swap_per_candidate(rm):
    """Reference: greedy construction and first-improvement swaps scoring
    one candidate at a time."""
    chosen = []
    for _ in range(rm.r):
        vals = {k: set_value(rm, chosen + [k]) for k in range(rm.n) if k not in chosen}
        chosen.append(min(vals, key=lambda k: (vals[k], k)))
    chosen.sort()
    best = set_value(rm, chosen)
    improved, rounds = True, 0
    while improved and rounds < 4 * rm.n:
        improved, rounds = False, rounds + 1
        for a in list(chosen):
            rest = [k for k in chosen if k != a]
            for b in range(rm.n):
                if b not in chosen and set_value(rm, rest + [b]) < best - 1e-15:
                    chosen, best, improved = sorted(rest + [b]), set_value(rm, rest + [b]), True
                    break
            if improved:
                break
    return tuple(chosen), best


def test_greedy_swap_matches_per_candidate_loop():
    rng = np.random.default_rng(61)
    for k in range(150):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(2, 16))
        cost = rng.uniform(0.0, 4.0, size=(m, n))
        if k % 4 == 0:
            cost = np.round(cost)  # ties
        rm = RMedianInstance(cost=cost, w=rng.uniform(0.5, 3.0, size=m), r=int(rng.integers(1, n + 1)))
        assert _greedy_swap(rm) == _greedy_swap_per_candidate(rm)


def test_instance_rejects_bad_costs_and_weights():
    good = np.array([[0.0, 1.0], [2.0, 0.5]])
    RMedianInstance(good, np.ones(2), 1)
    for bad in (-1e-300, np.nan, np.inf):
        cost = good.copy()
        cost[1, 0] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            RMedianInstance(cost, np.ones(2), 1)
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="weights must be positive"):
            RMedianInstance(good, np.array([1.0, bad]), 1)
    with pytest.raises(ValueError, match=r"cost must be an \(m, n\) matrix"):
        RMedianInstance(good.ravel(), np.ones(4), 1)
    with pytest.raises(ValueError, match="w length must match the cost row count"):
        RMedianInstance(good, np.ones(3), 1)
    for r in (0, 3):
        with pytest.raises(ValueError, match=rf"r={r} out of range \[1, 2\]"):
            RMedianInstance(good, np.ones(2), r)


def test_time_limit_returns_an_incumbent_of_r_sites():
    """A limit that has already passed still yields r sites and their
    value: a root that is one scan (C(8, 2) = 28 sets) finishes and is
    optimal; a larger root (C(40, 3) = 9880 sets) stops at the greedy
    incumbent."""
    rng = np.random.default_rng(67)
    one_scan = RMedianInstance(cost=rng.uniform(0.0, 4.0, size=(6, 8)), w=rng.uniform(0.5, 3.0, size=6), r=2)
    greedy_size = RMedianInstance(cost=rng.uniform(0.0, 4.0, size=(30, 40)), w=rng.uniform(0.5, 3.0, size=30), r=3)
    assert math.comb(8, 2) <= rmedian._ENUM_CHUNK < math.comb(40, 3)
    for rm, expected in ((one_scan, "optimal"), (greedy_size, "limit")):
        sites, value, status = rmedian_solve(rm, time_limit=0.0)
        assert status == expected
        assert len(sites) == rm.r and value == set_value(rm, sites)
    assert value == _greedy_swap(greedy_size)[1]
    assert rmedian_solve(one_scan, time_limit=0.0)[1] == rmedian_enumerate(one_scan)[1]


@pytest.mark.parametrize("chunk", [2, 16, 4096])
def test_fixing_and_start_sets_match_enumeration(monkeypatch, chunk):
    """Reduced-cost fixing and start candidates leave the solver bit-equal
    to enumeration, sites included, on instances full of ties: integer
    costs, duplicated columns, zero columns and random start sets."""
    rng = np.random.default_rng(71 + chunk)
    monkeypatch.setattr(rmedian, "_ENUM_CHUNK", chunk)
    for k in range(100):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(2, 13))
        r = int(rng.integers(1, n + 1))
        cost = rng.uniform(0.0, 4.0, size=(m, n))
        if k % 3 == 0:
            cost = np.round(cost)
        if k % 5 == 0:
            cost[:, rng.integers(0, n, size=n // 2)] = cost[:, rng.integers(0, n, size=n // 2)]
        if k % 11 == 0:
            cost[:, rng.integers(0, n)] = 0.0
        w = rng.integers(1, 5, size=m).astype(float) if k % 2 else rng.uniform(0.5, 3.0, size=m)
        rm = RMedianInstance(cost=cost, w=w, r=r)
        start = [rng.choice(n, size=r, replace=False) for _ in range(int(rng.integers(0, 4)))]
        sites_e, val_e = rmedian_enumerate(rm)
        sites_b, val_b, status = rmedian_solve(rm, start=start)
        assert status == "optimal"
        assert (sites_b.tolist(), val_b) == (sites_e.tolist(), val_e), f"instance {k}"


def test_identical_columns_keep_every_tied_column(monkeypatch):
    """Every set ties when all columns are equal, and the root Lagrangian
    bound meets the incumbent exactly: fixing must drop nothing, and the
    first r sites win."""
    monkeypatch.setattr(rmedian, "_ENUM_CHUNK", 2)
    col = np.array([1.0, 2.0, 0.5, 3.0])
    rm = RMedianInstance(cost=np.tile(col[:, None], (1, 8)), w=np.array([1.0, 2.0, 1.0, 1.0]), r=3)
    sites, value, status = rmedian_solve(rm, start=[(5, 6, 7)])
    assert status == "optimal"
    assert sites.tolist() == [0, 1, 2]
    assert value == set_value(rm, (0, 1, 2))


def _greedy_tie_instance():
    """Greedy+swap stops at (0, 2) with value 0.9; (0, 1) and (2, 3) tie
    with it, one sorting before and one after.  Column 3 copies column 0."""
    cost = np.array([[0.0, 2.0, 0.9, 0.0], [2.0, 0.9, 0.9, 2.0]])
    return RMedianInstance(cost=cost, w=np.ones(2), r=2)


def test_start_candidate_ties_go_to_the_smaller_set():
    rm = _greedy_tie_instance()
    assert _greedy_swap(rm) == ((0, 2), 0.9)
    assert rmedian._start_incumbent(rm, []) == ((0, 2), 0.9)
    assert rmedian._start_incumbent(rm, [(3, 2)]) == ((0, 2), 0.9)  # sorts after: greedy stays
    assert rmedian._start_incumbent(rm, [(1, 0)]) == ((0, 1), 0.9)  # sorts before: replaces
    assert rmedian._start_incumbent(rm, [(3, 2), (1, 0), (1, 2)]) == ((0, 1), 0.9)
    with pytest.raises(ValueError, match="distinct sites"):
        rmedian._start_incumbent(rm, [(1, 1)])
    with pytest.raises(ValueError, match="distinct sites"):
        rmedian._start_incumbent(rm, [(0, 4)])


def test_lower_start_candidate_replaces_greedy():
    """A start set below greedy's value becomes the incumbent."""
    rng = np.random.default_rng(79)
    replaced = 0
    for _ in range(40):
        rm = RMedianInstance(cost=rng.uniform(0.0, 4.0, size=(12, 14)), w=rng.uniform(0.5, 3.0, size=12), r=3)
        sites_e, val_e = rmedian_enumerate(rm)
        greedy = _greedy_swap(rm)
        want = (tuple(sites_e.tolist()), val_e) if val_e < greedy[1] else greedy
        assert rmedian._start_incumbent(rm, [sites_e[::-1]]) == want
        replaced += want != greedy
    assert replaced > 0


@pytest.mark.parametrize("chunk", [2, 4096])
def test_greedy_ties_solve_to_the_smallest_set(monkeypatch, chunk):
    monkeypatch.setattr(rmedian, "_ENUM_CHUNK", chunk)
    rm = _greedy_tie_instance()
    for start in ([], [(3, 2)], [(1, 0)]):
        sites, value, status = rmedian_solve(rm, start=start)
        assert (sites.tolist(), value, status) == ([0, 1], 0.9, "optimal")


def test_zero_incumbent_at_the_first_sites_prunes_the_root(monkeypatch):
    """An incumbent (0, ..., r-1) at value 0 cannot be beaten or out-sorted:
    the zero floor prunes the root, so no bound is computed and no node is
    scanned."""

    def refuse(*args, **kwargs):
        raise AssertionError("the zero floor should have pruned the root")

    monkeypatch.setattr(rmedian, "_lagrangian_bound", refuse)
    monkeypatch.setattr(rmedian, "_scan", refuse)
    rm = RMedianInstance(cost=np.zeros((20, 100)), w=np.ones(20), r=3)
    sites, value, status = rmedian_solve(rm)
    assert (sites.tolist(), value, status) == ([0, 1, 2], 0.0, "optimal")


def test_positive_incumbent_at_the_first_sites_prunes_nothing(monkeypatch):
    """The zero floor holds only at value 0: a worse incumbent (0, 1) sorts
    before every other set, yet the optimum (2, 3) must still be found."""
    rng = np.random.default_rng(7)
    cost = rng.uniform(1.0, 2.0, size=(4, 100))
    cost[:2, 2] = 0.5
    cost[2:, 3] = 0.5
    rm = RMedianInstance(cost=cost, w=np.ones(4), r=2)
    first = float(_combo_values(rm, np.array([[0, 1]]))[0])
    monkeypatch.setattr(rmedian, "_greedy_swap", lambda rm: ((0, 1), first))
    sites, value, status = rmedian_solve(rm)
    assert (sites.tolist(), value, status) == ([2, 3], 2.0, "optimal")
    assert value == rmedian_enumerate(rm)[1]


def test_zero_optimum_elsewhere_goes_to_the_smallest_zero_set():
    """Greedy reaches a zero set, (1, 2), that is not the first r sites;
    the lexicographically smallest zero set, (0, 2), must still win."""
    cost = np.ones((3, 100))
    cost[0, [0, 1]] = 0.0
    cost[1, [2, 3]] = 0.0
    cost[2, [1, 2]] = 0.0
    rm = RMedianInstance(cost=cost, w=np.array([1.0, 1.0, 10.0]), r=2)
    assert _greedy_swap(rm) == ((1, 2), 0.0)
    for start in ([], [(3, 1)], [(2, 1)]):
        sites, value, status = rmedian_solve(rm, start=start)
        assert (sites.tolist(), value, status) == ([0, 2], 0.0, "optimal")
