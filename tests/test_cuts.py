import itertools
import tracemalloc

import numpy as np
import pytest

from scflp import GeneratorParams, Instance, compute_cy, generate_instance, leader_share
from scflp.cuts import (
    _BLOCK_BYTES,
    _key,
    _prefix_lengths,
    deepest_prefix,
    ef_cut,
    ef_separation_costs,
    greedy_assignment,
    gsf_separation_costs,
    improved_cut,
    submodular_cut,
    tight_ell,
)
from scflp.market import indicator, response_costs, share_of_set
from scflp.rmedian import set_value

from conftest import golden_instance, random_choice, random_instance

Y_ALL = [1, 1, 1]

# classic cuts of the golden instance under y = (1,1,1): S -> (constant, coefs)
GOLDEN_SF = {
    (0, 1, 2): (3 / 2, (0, 0, 0)),
    (0,): (7 / 6, (0, 1 / 6, 1 / 6)),
    (1,): (7 / 6, (1 / 6, 0, 1 / 6)),
    (2,): (7 / 6, (1 / 6, 1 / 6, 0)),
    (0, 1): (4 / 3, (0, 0, 1 / 6)),
    (0, 2): (4 / 3, (0, 1 / 6, 0)),
    (1, 2): (4 / 3, (1 / 6, 0, 0)),
    (): (0.0, (7 / 6, 7 / 6, 7 / 6)),
}

# twelve anchor cuts that on their own pin the golden instance's anchor
# relaxation at 4/3 (a hand-picked subset of the 64 possible)
GOLDEN_GSF = [
    (5 / 6, (1 / 2, 1 / 2, 1 / 3)),
    (5 / 6, (1 / 2, 1 / 3, 1 / 2)),
    (5 / 6, (1 / 3, 1 / 2, 1 / 2)),
    (1.0, (1 / 2, 1 / 3, 1 / 3)),
    (1.0, (1 / 3, 1 / 2, 1 / 3)),
    (1.0, (1 / 3, 1 / 3, 1 / 2)),
    (1 / 2, (5 / 6, 5 / 6, 2 / 3)),
    (1 / 2, (5 / 6, 2 / 3, 5 / 6)),
    (1 / 2, (2 / 3, 5 / 6, 5 / 6)),
    (1.0, (1 / 6, 1 / 6, 1 / 6)),
    (2 / 3, (1 / 2, 1 / 2, 1 / 2)),
    (1 / 3, (5 / 6, 5 / 6, 5 / 6)),
]


def test_submodular_cut_goldens(golden):
    for S, (const, coefs) in GOLDEN_SF.items():
        cut = submodular_cut(golden, Y_ALL, S)
        assert cut.constant == pytest.approx(const, abs=1e-12)
        np.testing.assert_allclose(cut.xcoef, coefs, atol=1e-12)


def test_hand_picked_anchor_cuts_are_generated(golden):
    generated = []
    for ell in itertools.product(range(4), repeat=3):
        cut = improved_cut(golden, Y_ALL, np.array(ell))
        generated.append((cut.constant, tuple(cut.xcoef)))
    for const, coefs in GOLDEN_GSF:
        hit = any(
            abs(const - gc) < 1e-12 and all(abs(a - b) < 1e-12 for a, b in zip(coefs, gcoef))
            for gc, gcoef in generated
        )
        assert hit, f"no anchor vector produces cut ({const}, {coefs})"


def test_all_virtual_anchor_matches_empty_set_cut(golden):
    sf = submodular_cut(golden, Y_ALL, ())
    gsf = improved_cut(golden, Y_ALL, np.array([3, 3, 3]))
    assert gsf.constant == pytest.approx(sf.constant, abs=1e-15)
    np.testing.assert_allclose(gsf.xcoef, sf.xcoef, atol=1e-15)
    np.testing.assert_allclose(gsf.xcoef, [7 / 6, 7 / 6, 7 / 6], atol=1e-12)


def test_best_anchor_per_customer_kills_coefficients(golden):
    c = compute_cy(golden, Y_ALL)
    ell = np.argmax(c, axis=1)
    cut = improved_cut(golden, Y_ALL, ell)
    assert cut.constant == pytest.approx(float(golden.w @ c.max(axis=1)), abs=1e-12)
    np.testing.assert_allclose(cut.xcoef, 0.0, atol=1e-15)


def test_tight_ell_golden_traces(golden):
    np.testing.assert_array_equal(tight_ell(golden, [1.0, 1.0, 0.0]), [0, 1, 0])
    np.testing.assert_array_equal(tight_ell(golden, [0.0, 0.0, 0.0]), [3, 3, 3])
    ell = tight_ell(golden, [2 / 3, 2 / 3, 2 / 3])
    np.testing.assert_array_equal(ell, [0, 1, 0])  # second-largest v per row
    cut = improved_cut(golden, Y_ALL, tight_ell(golden, [1.0, 1.0, 0.0]))
    assert cut.constant == pytest.approx(1.0, abs=1e-12)


def _tight_ell_per_row(inst, xstar):
    """Reference: the per-customer loop tight_ell replaced."""
    sigma = inst.sigma
    xs = np.clip(np.asarray(xstar, dtype=float), 0.0, 1.0)
    ell = np.empty(inst.m, dtype=int)
    for i in range(inst.m):
        row = xs[sigma[i]]
        k = 1 if row[0] >= 1.0 - 1e-9 else int(np.count_nonzero(np.cumsum(row) < 1.0 - 1e-9))
        ell[i] = sigma[i][k] if k < inst.n else inst.n
    return ell


def test_tight_ell_matches_per_row_loop():
    rng = np.random.default_rng(59)
    for k in range(200):
        inst = random_instance(rng, m=int(rng.integers(1, 9)), n=int(rng.integers(2, 9)))
        x = rng.uniform(0.0, 1.0, size=inst.n) * rng.choice([0.1, 0.5, 1.0])  # some rows never reach 1
        if k % 3 == 0:
            x[inst.sigma[0, 0]] = 1.0 - 1e-9  # first site of row 0 counts as open
        if k % 5 == 0:
            x = np.round(x, 1)
        np.testing.assert_array_equal(tight_ell(inst, x), _tight_ell_per_row(inst, x))


def test_gsf_costs_golden(golden):
    rm = gsf_separation_costs(golden, [1.0, 1.0, 0.0])
    np.testing.assert_allclose(rm.cost[0], [2 / 3, 1 / 2, 2 / 3], atol=1e-12)
    np.testing.assert_allclose(rm.cost[1], [1 / 2, 2 / 3, 2 / 3], atol=1e-12)
    np.testing.assert_allclose(rm.cost[2], [1 / 2, 1 / 2, 1 / 3], atol=1e-12)
    assert set_value(rm, [0, 1, 2]) == pytest.approx(4 / 3, abs=1e-12)


def test_gsf_costs_zero_mass(golden):
    rm = gsf_separation_costs(golden, np.zeros(3))
    np.testing.assert_allclose(rm.cost, 0.0, atol=1e-15)


def test_gsf_costs_match_anchor_minimum():
    """Weighted per-row minima of the reduction costs equal the smallest
    anchor-cut right-hand side, for every follower choice (oracle: brute
    force over all anchor vectors)."""
    rng = np.random.default_rng(19)
    for _ in range(30):
        inst = random_instance(rng, m=3, n=4)
        xstar = rng.uniform(0.0, 1.0, size=4)
        rm = gsf_separation_costs(inst, xstar)
        for combo in itertools.combinations(range(4), inst.r):
            y = indicator(4, combo)
            cy = compute_cy(inst, y)
            best = min(
                improved_cut(inst, y, np.array(ell), cy).rhs_at(xstar)
                for ell in itertools.product(range(5), repeat=3)
            )
            reduced = float(inst.w @ rm.cost[:, list(combo)].min(axis=1))
            assert reduced == pytest.approx(best, abs=1e-10)


def _gsf_costs_per_customer(inst, xstar):
    """Reference: the per-customer loop gsf_separation_costs replaced."""
    sigma = inst.sigma
    xs = np.clip(np.asarray(xstar, dtype=float), 0.0, 1.0)
    lengths = _prefix_lengths(xs[sigma])
    b = np.empty((inst.m, inst.n))
    for i in range(inst.m):
        order, k, vi = sigma[i], lengths[i], inst.v[i]
        prefix = order[:k]
        vpre = vi[prefix]
        rest = max(1.0 - float(xs[prefix].sum()), 0.0)
        vnext = vi[order[k]] if k < inst.n else 0.0
        b[i] = rest * vnext / (vnext + vi) + (xs[prefix] * vpre) @ (1.0 / (vpre[:, None] + vi[None, :]))
    return b


def _ef_costs_per_customer(inst, zstar):
    """Reference: the per-customer loop ef_separation_costs replaced."""
    z = np.clip(np.asarray(zstar, dtype=float), 0.0, 1.0)
    d = np.empty((inst.m, inst.n))
    for i in range(inst.m):
        vi = inst.v[i]
        d[i] = (z[i] * vi) @ (1.0 / (vi[:, None] + vi[None, :]))
    return d


def test_blocked_separation_costs_match_per_customer_loop():
    """The blocked kernels sum in another order than the loop, so they agree
    to 1e-12 relative, at sizes on both sides of a block boundary."""
    step = _BLOCK_BYTES // (8 * 100 * 100)  # customers per block when q = n = 100
    sizes = [(1, 1), (3, 5), (8, 8), (step, 100), (step + 1, 100), (2 * step + 1, 100), (100, 100)]
    rng = np.random.default_rng(83)
    for m, n in sizes:
        inst = random_instance(rng, m=m, n=n, p=1, r=1)
        sigma = inst.sigma
        points = [
            rng.uniform(0.0, 1.0, size=n) * min(1.0, 4.0 / n),  # fractional
            np.zeros(n),  # zero masses: no prefix has weight
            np.full(n, 0.5 / n),  # every prefix spans the whole row
            (rng.uniform(size=n) < 0.3).astype(float),  # integral
        ]
        unit_first = rng.uniform(0.0, 0.2, size=n)
        unit_first[sigma[0, 0]] = 1.0  # customer 0's first site is fully open
        points.append(unit_first)
        for x in points:
            np.testing.assert_allclose(gsf_separation_costs(inst, x).cost, _gsf_costs_per_customer(inst, x), rtol=1e-12, atol=0)
        z = rng.uniform(0.0, 1.0, size=(m, n)) / n
        z[:, rng.uniform(size=n) < 0.5] = 0.0  # zero columns
        for zz in (z, np.zeros((m, n)), np.full((m, n), 1.0 / n)):
            np.testing.assert_allclose(ef_separation_costs(inst, zz).cost, _ef_costs_per_customer(inst, zz), rtol=1e-12, atol=0)


def test_deepest_prefix_across_customer_blocks_matches_brute_force():
    """The deepest prefix is the first prefix of the support, by descending
    mass, whose classic cut has the smallest value at the point (brute
    force through submodular_cut), at sizes on both sides of a block
    boundary, with the last customer, in the last block, weighing most;
    at m = n = 100 with a full support its temporaries stay under 2 MB."""
    step = _BLOCK_BYTES // (8 * 101 * 100)  # customers per block when q = 100
    rng = np.random.default_rng(89)
    for m in (1, step, step + 1, 2 * step + 1, 100):
        w = rng.integers(1, 11, size=m).astype(float)
        w[-1] = 1000.0
        inst = Instance(m=m, n=100, w=w, v=rng.uniform(0.1, 3.0, size=(m, 100)), p=1, r=3)
        y = random_choice(rng, 100, 3)
        cy = compute_cy(inst, y)
        x = rng.uniform(0.0, 1.0, size=100) * 0.05
        order = np.argsort(-x, kind="stable")
        values = [submodular_cut(inst, y, order[:k], cy).rhs_at(x) for k in range(101)]
        low = min(values)
        k = next(k for k, value in enumerate(values) if value <= low + 1e-12 * max(1.0, abs(low)))
        assert np.array_equal(deepest_prefix(inst, cy, order, x[order]), order[:k])
    tracemalloc.start()
    try:
        deepest_prefix(inst, cy, order, x[order])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_all_cost_matrices_share_bits_at_integral_points():
    """At an integral leader choice the best-response costs, the GSF
    separation costs and the EF costs at the greedy allocation are one
    expression, equal bit for bit, so a separation solve can stand in for
    the best response (qi's integer coordinates give tied attractiveness)."""
    rng = np.random.default_rng(97)
    for k in range(400):
        m, n = (int(t) for t in rng.integers(1, 61, size=2))
        inst = generate_instance(GeneratorParams(("biesinger", "qi")[k % 2], m=m, n=n, p=1, r=1, seed=k))
        x = random_choice(rng, n, int(rng.integers(1, n + 1)))
        best = response_costs(inst, x).cost
        assert np.array_equal(gsf_separation_costs(inst, x).cost, best)
        assert np.array_equal(ef_separation_costs(inst, greedy_assignment(inst, x)).cost, best)


def test_separation_cost_kernels_peak_memory_at_n100():
    inst = generate_instance(GeneratorParams("biesinger", m=100, n=100, p=2, r=3, seed=1))
    x = np.full(100, 0.005)  # every prefix spans the whole row: the widest blocks
    z = np.full((100, 100), 0.01)
    for build in (lambda: gsf_separation_costs(inst, x), lambda: ef_separation_costs(inst, z)):
        build()
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024


def test_ef_cut_golden(golden):
    cut = ef_cut(golden, Y_ALL)
    assert cut.constant == 0.0
    np.testing.assert_allclose(cut.zcoef[0], [1 / 3, 1 / 2, 1 / 3], atol=1e-12)


def test_ef_cut_scales_with_weight():
    inst = golden_instance()
    from scflp import Instance

    one = Instance(m=1, n=2, w=np.array([3.0]), v=np.array([[1.0, 1.0]]), p=1, r=1)
    cut = ef_cut(one, [1, 0])
    np.testing.assert_allclose(cut.zcoef, [[1.5, 1.5]], atol=1e-15)


def test_ef_cut_with_greedy_assignment_recovers_share():
    rng = np.random.default_rng(23)
    for _ in range(100):
        inst = random_instance(rng, m=3, n=4)
        x = random_choice(rng, 4, inst.p)
        y = random_choice(rng, 4, inst.r)
        z = greedy_assignment(inst, x)
        cut = ef_cut(inst, y)
        assert cut.rhs_at(z=z) == pytest.approx(leader_share(inst, x, y), rel=1e-12)


def test_ef_costs_zero_assignment(golden):
    rm = ef_separation_costs(golden, np.zeros((3, 3)))
    np.testing.assert_allclose(rm.cost, 0.0, atol=1e-15)


def test_ef_costs_single_row_assignment(golden):
    z = np.zeros((3, 3))
    z[0, 1] = 1.0
    rm = ef_separation_costs(golden, z)
    np.testing.assert_allclose(rm.cost[0], [2 / 3, 1 / 2, 2 / 3], atol=1e-12)


def test_ef_costs_identity():
    """Reduced costs reproduce the cut right-hand side for every y."""
    rng = np.random.default_rng(29)
    for _ in range(50):
        inst = random_instance(rng, m=3, n=5)
        z = rng.uniform(0.0, 1.0, size=(3, 5))
        rm = ef_separation_costs(inst, z)
        y = random_choice(rng, 5, inst.r)
        cy = compute_cy(inst, y)
        direct = float(inst.w @ (cy * z).sum(axis=1))
        ys = np.flatnonzero(y)
        reduced = float(inst.w @ rm.cost[:, ys].min(axis=1))
        assert reduced == pytest.approx(direct, rel=1e-12)


def test_family_inclusion():
    """Every classic cut equals the anchor cut whose anchors maximize the
    capture ratio inside S (virtual anchor for the empty set)."""
    rng = np.random.default_rng(31)
    for _ in range(60):
        inst = random_instance(rng, m=4, n=5)
        y = random_choice(rng, 5, int(rng.integers(1, 6)))
        size = int(rng.integers(0, 6))
        S = sorted(int(j) for j in rng.choice(5, size=size, replace=False))
        cy = compute_cy(inst, y)
        if S:
            ell = np.asarray(S)[np.argmax(cy[:, S], axis=1)]
        else:
            ell = np.full(inst.m, 5)
        sf = submodular_cut(inst, y, S, cy)
        gsf = improved_cut(inst, y, ell, cy)
        assert sf.constant == pytest.approx(gsf.constant, abs=1e-13)
        np.testing.assert_allclose(sf.xcoef, gsf.xcoef, atol=1e-13)


def test_cut_validity_exhaustive():
    """No cut of any family ever lies below an achievable leader value at an
    integral leader choice (exhaustive over X on small instances)."""
    rng = np.random.default_rng(37)
    for _ in range(10):
        inst = random_instance(rng, m=3, n=5, p=2, r=2)
        xs = list(itertools.combinations(range(5), 2))
        for _ in range(5):
            y = random_choice(rng, 5, 2)
            cy = compute_cy(inst, y)
            cuts = [submodular_cut(inst, y, S) for S in itertools.combinations(range(5), int(rng.integers(0, 4)))]
            cuts += [improved_cut(inst, y, rng.integers(0, 6, size=3))]
            for combo in xs:
                x = indicator(5, combo)
                share = share_of_set(cy, inst.w, combo)
                for cut in cuts:
                    assert cut.rhs_at(np.asarray(x, dtype=float)) >= share - 1e-10


def test_tight_anchor_cut_is_tight_at_integral_points():
    rng = np.random.default_rng(41)
    for _ in range(100):
        inst = random_instance(rng, m=4, n=6)
        x = random_choice(rng, 6, inst.p)
        y = random_choice(rng, 6, inst.r)
        ell = tight_ell(inst, np.asarray(x, dtype=float))
        cut = improved_cut(inst, y, ell)
        assert cut.rhs_at(np.asarray(x, dtype=float)) == pytest.approx(leader_share(inst, x, y), rel=1e-12)


def test_sigma_breaks_ties_by_index():
    inst = golden_instance()
    sig = inst.sigma
    np.testing.assert_array_equal(sig[0], [1, 0, 2])
    np.testing.assert_array_equal(sig[1], [0, 1, 2])
    np.testing.assert_array_equal(sig[2], [2, 0, 1])
    assert inst.sigma is sig
    with pytest.raises(ValueError, match="read-only"):
        sig[0, 0] = 0


def test_cut_coefficients_nonnegative_and_finite():
    rng = np.random.default_rng(43)
    for _ in range(50):
        inst = random_instance(rng)
        y = random_choice(rng, inst.n, inst.r)
        x = rng.uniform(0, 1, size=inst.n)
        sf = submodular_cut(inst, y, [0])
        gsf = improved_cut(inst, y, tight_ell(inst, x))
        ef = ef_cut(inst, y)
        for arr in (sf.xcoef, gsf.xcoef, ef.zcoef):
            assert np.all(np.isfinite(arr)) and np.all(arr >= 0.0)
        assert sf.constant >= 0 and gsf.constant >= 0


def test_provenance_keys_match_generator_version():
    """The array-built keys equal the element-by-element tuples in value
    and element type, whatever the input dtype."""
    bits = [1, 0, 1, 1, 0]
    for arr in (
        np.array(bits, dtype=np.int8),
        np.array(bits, dtype=np.int64),
        np.array(bits, dtype=float),
        np.array(bits, dtype=bool),
        np.array([[1, 0], [0, 1]], dtype=np.int8),
        bits,
    ):
        key = _key(arr)
        reference = tuple(int(b) for b in np.asarray(arr).ravel())
        assert key == reference
        assert [type(b) for b in key] == [int] * len(reference)
    inst = random_instance(np.random.default_rng(5), m=4, n=3)
    for ell in (np.array([0, 3, 2, 1], dtype=np.int8), [3, 3, 0, 1], np.array([2.0, 0.0, 1.0, 3.0])):
        prov = improved_cut(inst, np.array([1, 0, 1], dtype=np.int8), ell).provenance
        assert prov == ("GSF", (1, 0, 1), tuple(int(l) for l in np.asarray(ell, dtype=int)))
        assert all(type(l) is int for l in prov[2])


def test_improved_cut_is_in_order_sum_of_one_customer_cuts():
    """Constant and coefficients equal the one-customer cuts added in
    customer order, bit for bit (verify builds its anchor rows on this).
    From m = 8 on, a 1-D numpy sum or a BLAS product adds in another order."""
    rng = np.random.default_rng(97)
    for m in range(1, 13):
        for _ in range(25):
            n = int(rng.integers(1, 9))
            w = rng.uniform(0.1, 100.0, size=m)
            v = rng.uniform(0.1, 3.0, size=(m, n))
            inst = Instance(m=m, n=n, w=w, v=v, p=1, r=int(rng.integers(1, n + 1)))
            y = random_choice(rng, n, inst.r)
            ell = rng.integers(0, n + 1, size=m)
            cut = improved_cut(inst, y, ell)
            constant, xcoef = 0.0, np.zeros(n)
            for i in range(m):
                alone = Instance(m=1, n=n, w=w[i : i + 1], v=v[i : i + 1], p=1, r=inst.r)
                part = improved_cut(alone, y, ell[i : i + 1])
                constant, xcoef = constant + part.constant, xcoef + part.xcoef
            assert cut.constant == constant
            assert np.array_equal(cut.xcoef, xcoef)
