import itertools

import numpy as np
import pytest

from scflp import GeneratorParams, Instance, compute_cy, follower_best_response, generate_instance, leader_share
from scflp.market import indicator, response_costs, share_of_set
from scflp.verify import verify_hull

from conftest import random_choice, random_instance


def test_cy_golden_row(golden):
    c = compute_cy(golden, [1, 1, 1])
    np.testing.assert_allclose(c[0], [1 / 3, 1 / 2, 1 / 3], atol=1e-15)
    np.testing.assert_allclose(c[1], [1 / 2, 1 / 3, 1 / 3], atol=1e-15)
    np.testing.assert_allclose(c[2], [1 / 3, 1 / 3, 1 / 2], atol=1e-15)


def test_cy_symmetric_single_customer():
    inst = Instance(m=1, n=2, w=np.array([1.0]), v=np.array([[2.0, 2.0]]), p=1, r=1)
    c = compute_cy(inst, [1, 0])
    np.testing.assert_allclose(c[0], [0.5, 0.5])


def test_cy_rejects_empty_follower(golden):
    with pytest.raises(ValueError):
        compute_cy(golden, [0, 0, 0])


def test_cy_row_order_matches_v_order():
    rng = np.random.default_rng(42)
    inst = random_instance(rng, m=6, n=6)
    for _ in range(50):
        y = random_choice(rng, 6, int(rng.integers(1, 7)))
        c = compute_cy(inst, y)
        for i in range(inst.m):
            assert np.array_equal(np.argsort(c[i], kind="stable"), np.argsort(inst.v[i], kind="stable"))


def test_leader_share_golden(golden):
    assert leader_share(golden, [1, 1, 0], [1, 1, 1]) == pytest.approx(4 / 3, abs=1e-12)


def test_leader_share_symmetric_half():
    inst = Instance(m=1, n=2, w=np.array([1.0]), v=np.array([[3.0, 3.0]]), p=1, r=1)
    assert leader_share(inst, [1, 0], [0, 1]) == pytest.approx(0.5, abs=1e-15)


def test_empty_leader_set_shares_nothing(golden):
    assert leader_share(golden, [0, 0, 0], [1, 1, 1]) == 0.0


def test_set_function_monotone_and_submodular():
    """Marginal gains of the leader-share set function are nonnegative and
    diminish with the base set, for random nested pairs."""
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 10_000:
        inst = random_instance(rng, m=3, n=5)
        y = random_choice(rng, 5, int(rng.integers(1, 6)))
        c = compute_cy(inst, y)
        small = set(int(j) for j in rng.choice(5, size=rng.integers(0, 4), replace=False))
        extra = set(int(j) for j in rng.choice(5, size=rng.integers(0, 2), replace=False))
        big = small | extra
        outside = [j for j in range(5) if j not in big]
        if not outside:
            continue
        j = int(rng.choice(outside))
        gain_small = share_of_set(c, inst.w, small | {j}) - share_of_set(c, inst.w, small)
        gain_big = share_of_set(c, inst.w, big | {j}) - share_of_set(c, inst.w, big)
        assert gain_big >= -1e-12
        assert gain_small >= gain_big - 1e-12
        checked += 1


def test_share_nondecreasing_in_open_set():
    rng = np.random.default_rng(13)
    for _ in range(200):
        inst = random_instance(rng, m=4, n=6)
        y = random_choice(rng, 6, int(rng.integers(1, 7)))
        c = compute_cy(inst, y)
        S = set(int(j) for j in rng.choice(6, size=rng.integers(1, 5), replace=False))
        j = int(rng.integers(0, 6))
        assert share_of_set(c, inst.w, S | {j}) >= share_of_set(c, inst.w, S) - 1e-12


def test_best_response_golden(golden):
    y, val = follower_best_response(golden, [1, 1, 0])
    assert y.tolist() == [1, 1, 1]
    assert val == pytest.approx(4 / 3, abs=1e-12)


def test_best_response_r_equals_n_opens_everything():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, m=4, n=5, p=2, r=5)
    y, _ = follower_best_response(inst, random_choice(rng, 5, 2))
    assert y.tolist() == [1, 1, 1, 1, 1]


def test_best_response_modes_agree():
    rng = np.random.default_rng(23)
    inst = random_instance(rng, m=4, n=7, p=2, r=2)
    for _ in range(100):
        x = random_choice(rng, 7, 2)
        y_e, v_e = follower_best_response(inst, x, mode="enumerate")
        y_b, v_b = follower_best_response(inst, x, mode="rmedian")
        assert v_b == v_e
        # the reduction value is the true resulting leader share
        assert leader_share(inst, x, y_b) == pytest.approx(v_b, rel=1e-12)


def test_best_response_argmin_invariant_under_weight_scaling():
    """Scaling demands by a constant rescales all response values equally;
    power-of-two factors keep float comparisons exact."""
    rng = np.random.default_rng(31)
    for scale in (0.25, 2.0, 8.0):
        for _ in range(20):
            inst = random_instance(rng, m=4, n=6, p=2, r=2)
            scaled = Instance(m=inst.m, n=inst.n, w=inst.w * scale, v=inst.v, p=inst.p, r=inst.r)
            x = random_choice(rng, 6, 2)
            y_a, v_a = follower_best_response(inst, x, mode="enumerate")
            y_b, v_b = follower_best_response(scaled, x, mode="enumerate")
            assert y_a.tolist() == y_b.tolist()
            assert v_b == pytest.approx(scale * v_a, rel=1e-14)


def test_best_response_enumeration_cap():
    from scflp.rmedian import CapExceededError

    rng = np.random.default_rng(53)
    inst = random_instance(rng, m=3, n=30, p=2, r=15)
    with pytest.raises(CapExceededError, match=r"C\(30, 15\) = 155117520 exceeds cap"):
        follower_best_response(inst, random_choice(rng, 30, 2), mode="enumerate")


def test_response_costs_match_share_identity():
    rng = np.random.default_rng(37)
    inst = random_instance(rng, m=3, n=5, p=2, r=2)
    x = random_choice(rng, 5, 2)
    rm = response_costs(inst, x)
    for combo in itertools.combinations(range(5), 2):
        y = indicator(5, combo)
        reduced = float(inst.w @ rm.cost[:, list(combo)].min(axis=1))
        assert reduced == pytest.approx(leader_share(inst, x, y), rel=1e-12)


def test_best_response_refuses_an_unknown_mode_and_an_empty_leader(golden):
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        follower_best_response(golden, [1, 1, 0], mode="bogus")
    with pytest.raises(ValueError, match="leader choice must open at least one site"):
        response_costs(golden, [0, 0, 0])


def test_choice_vectors_of_the_wrong_length_are_refused():
    """A leader or follower vector shorter or longer than n is refused by
    name, never read as a choice over fewer sites or left to an IndexError."""
    inst = generate_instance(GeneratorParams("biesinger", m=4, n=5, p=2, r=2, seed=1))
    y = indicator(5, [0, 1])
    for bad in ([1], [1, 1], [0, 1], [1, 0, 0, 1], [1, 0, 0, 0, 0, 1], np.ones((1, 5))):
        calls = [
            lambda: compute_cy(inst, bad),
            lambda: leader_share(inst, bad, y),
            lambda: leader_share(inst, y, bad),
            lambda: response_costs(inst, bad),
            lambda: follower_best_response(inst, bad),
            lambda: follower_best_response(inst, bad, mode="enumerate"),
            lambda: verify_hull(inst, bad, trials=3),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"expected a vector of length n = 5"):
                call()
