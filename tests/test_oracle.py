import numpy as np
import pytest

from scflp import Instance, brute_force_solve, full_lp_value
from scflp.rmedian import CapExceededError
from scflp.verify import enumerate_gsf_value

from conftest import random_instance


def test_brute_force_golden(golden):
    rep = brute_force_solve(golden)
    assert rep.value == pytest.approx(4 / 3, abs=1e-12)
    tie_class = {tuple(x) for x in rep.optimal_x}
    assert tie_class == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}


def test_everyone_opens_everything_halves_the_market():
    rng = np.random.default_rng(3)
    for _ in range(10):
        inst = random_instance(rng, m=4, n=4, p=4, r=4)
        rep = brute_force_solve(inst)
        assert rep.value == pytest.approx(inst.total_demand / 2, rel=1e-12)


def test_single_customer_closed_form():
    # with one customer both players chase the same top site, splitting w
    rng = np.random.default_rng(5)
    for _ in range(20):
        inst = random_instance(rng, m=1, n=5)
        rep = brute_force_solve(inst)
        assert rep.value == pytest.approx(inst.w[0] / 2, rel=1e-12)


def test_value_invariant_under_site_permutation():
    rng = np.random.default_rng(7)
    for _ in range(10):
        inst = random_instance(rng, m=3, n=5, p=2, r=2)
        perm = rng.permutation(5)
        permuted = Instance(m=3, n=5, w=inst.w, v=inst.v[:, perm], p=2, r=2)
        assert brute_force_solve(permuted).value == pytest.approx(brute_force_solve(inst).value, rel=1e-12)


def test_pair_cap_enforced():
    inst = random_instance(np.random.default_rng(2), m=2, n=30, p=15, r=15)
    with pytest.raises(CapExceededError, match="pair evaluations exceed cap"):
        brute_force_solve(inst)


def test_full_lp_goldens(golden):
    assert full_lp_value(golden, "SF") == pytest.approx(25 / 18, abs=1e-9)
    assert full_lp_value(golden, "GSF") == pytest.approx(4 / 3, abs=1e-9)
    assert full_lp_value(golden, "EF") == pytest.approx(4 / 3, abs=1e-9)


def test_row_generation_matches_explicit_anchor_enumeration(golden):
    assert enumerate_gsf_value(golden) == pytest.approx(full_lp_value(golden, "GSF"), abs=1e-9)
    rng = np.random.default_rng(11)
    for _ in range(5):
        inst = random_instance(rng, m=3, n=4, p=2, r=2)
        assert enumerate_gsf_value(inst) == pytest.approx(full_lp_value(inst, "GSF"), abs=1e-8)


def test_relaxation_ordering_on_random_instances():
    """Anchor and assignment relaxations coincide and never exceed the
    classic relaxation."""
    rng = np.random.default_rng(13)
    for _ in range(15):
        inst = random_instance(rng, m=3, n=5)
        sf = full_lp_value(inst, "SF")
        gsf = full_lp_value(inst, "GSF")
        ef = full_lp_value(inst, "EF")
        assert gsf == pytest.approx(ef, abs=1e-6)
        assert gsf <= sf + 1e-9


def test_full_lp_caps():
    """Each cap refuses an instance too large for it before any work."""
    rng = np.random.default_rng(4)
    with pytest.raises(CapExceededError, match="SF needs 1048576 rows"):
        full_lp_value(random_instance(rng, m=2, n=16, p=2, r=1), "SF")
    with pytest.raises(CapExceededError, match=r"\|Y\| = 184756"):
        full_lp_value(random_instance(rng, m=2, n=20, p=2, r=10), "GSF")
    with pytest.raises(CapExceededError, match=r"\(n\+1\)\^m = 1000000"):
        enumerate_gsf_value(random_instance(rng, m=6, n=9, p=2, r=2))


def test_gsf_value_refuses_a_loop_stopped_by_the_clock(monkeypatch):
    """A cut loop stopped by the time limit has not reached the relaxation
    value: full_lp_value raises instead of returning its objective."""
    from scflp import bnc

    rng = np.random.default_rng(13)
    inst = [random_instance(rng, m=3, n=5) for _ in range(3)][-1]
    assert full_lp_value(inst, "GSF") == pytest.approx(9.5, abs=1e-9)
    monkeypatch.setattr(bnc._Search, "out_of_time", lambda self: True)
    with pytest.raises(RuntimeError, match="timeout"):
        full_lp_value(inst, "GSF")


def test_full_lp_refuses_an_unknown_formulation(golden):
    with pytest.raises(ValueError, match="unknown formulation 'XX'"):
        full_lp_value(golden, "XX")
