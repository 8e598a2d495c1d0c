import numpy as np
import pytest

from scflp import GeneratorParams, Instance, InstanceError, generate_instance, load_instance, save_instance

from conftest import GOLDEN_TEXT


def test_load_golden_file():
    inst = load_instance(GOLDEN_TEXT)
    assert (inst.m, inst.n, inst.p, inst.r) == (3, 3, 2, 3)
    assert inst.w.tolist() == [1.0, 1.0, 1.0]
    assert inst.v[0][1] == 2.0
    assert inst.v.tolist() == [[1, 2, 1], [2, 1, 1], [1, 1, 2]]


def test_load_singleton():
    inst = load_instance("scflp 1\n1 1 1 1\n1\n1\n")
    assert inst.m == inst.n == inst.p == inst.r == 1
    assert inst.v[0][0] == 1.0


def test_load_comments_and_exponents():
    text = "# comment\nscflp 1\n2 2 1 1  # inline\n1e0 2.5\n0.5 1.25e-1\n3 4\n"
    inst = load_instance(text)
    assert inst.w.tolist() == [1.0, 2.5]
    assert inst.v[0].tolist() == [0.5, 0.125]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("scflp 2\n1 1 1 1\n1\n1\n", "header"),
        ("bogus\n1 1 1 1\n1\n1\n", "header"),
        ("scflp 1\n1 1\n1\n1\n", "size line"),
        ("scflp 1\n2 2 3 1\n1 1\n1 1\n1 1\n", "p=3 out of range"),
        ("scflp 1\n2 2 1 3\n1 1\n1 1\n1 1\n", "r=3 out of range"),
        ("scflp 1\n1 2 1 1\n1\n1 0\n", "non-positive attractiveness"),
        ("scflp 1\n1 2 1 1\n0\n1 1\n", "non-positive weight"),
        ("scflp 1\n1 2 1 1\n1\n1 nope\n", "bad attractiveness"),
        ("scflp 1\n2 2 1 1\n1 1\n1 1\n", "missing attractiveness row"),
        ("scflp 1\n1 1 1 1\n1\n1\n9\n", "trailing data"),
        ("", "empty instance file"),
        ("# only a comment\n", "empty instance file"),
        ("scflp 1\n", "missing size line"),
        ("scflp 1\n1 1 1 1\n", "missing weight line"),
        ("scflp 1\n1 x 1 1\n1\n1\n", "line 2: bad size field"),
        ("scflp 1\n1 1 1 1\nw\n1\n", "line 3: bad weight"),
    ],
)
def test_load_errors(text, fragment):
    with pytest.raises(InstanceError) as err:
        load_instance(text)
    assert fragment in str(err.value)


def test_error_reports_line_number():
    with pytest.raises(InstanceError, match="line 4"):
        load_instance("scflp 1\n1 2 1 1\n1\n1 -3\n")


def test_roundtrip_12_digits():
    rng = np.random.default_rng(5)
    inst = generate_instance(GeneratorParams("biesinger", m=6, n=4, p=2, r=2, seed=11))
    again = load_instance(save_instance(inst))
    np.testing.assert_allclose(again.w, inst.w, rtol=1e-11, atol=0)
    np.testing.assert_allclose(again.v, inst.v, rtol=1e-11, atol=0)
    # a second round trip is exact: 12 significant digits are reproduced
    assert save_instance(again) == save_instance(load_instance(save_instance(again)))


def test_generator_deterministic():
    params = GeneratorParams("biesinger", m=5, n=5, p=2, r=2, seed=7)
    a, b = generate_instance(params), generate_instance(params)
    assert save_instance(a) == save_instance(b)


def test_biesinger_shared_locations_have_unit_self_attractiveness():
    inst = generate_instance(GeneratorParams("biesinger", m=5, n=5, p=2, r=2, seed=3))
    assert np.allclose(np.diag(inst.v), 1.0)


def test_qi_attractiveness_in_unit_interval():
    for seed in range(20):
        inst = generate_instance(GeneratorParams("qi", m=8, n=7, p=2, r=2, seed=seed))
        assert np.all(inst.v > 0.0) and np.all(inst.v <= 1.0)
        # v recovers the distance; v = 1 exactly at distance 0
        d = -10.0 * np.log(inst.v)
        assert np.array_equal(inst.v == 1.0, d == 0.0)


def test_generated_instances_satisfy_invariants():
    for seed in range(1000):
        style = "biesinger" if seed % 2 == 0 else "qi"
        m, n = 2 + seed % 4, 2 + (seed // 2) % 4
        inst = generate_instance(GeneratorParams(style, m=m, n=n, p=1 + seed % n, r=1 + (seed // 3) % n, seed=seed))
        assert np.all(inst.v > 0) and np.all(inst.w > 0)
        assert 1 <= inst.p <= inst.n and 1 <= inst.r <= inst.n


def test_invalid_construction_rejected():
    with pytest.raises(InstanceError):
        Instance(m=1, n=1, w=np.array([1.0]), v=np.array([[0.0]]), p=1, r=1)
    w, v = np.array([1.0, 2.0]), np.ones((2, 3))
    for fields, message in (
        (dict(m=0, n=3, w=np.ones(0), v=np.ones((0, 3))), "m and n must be at least 1"),
        (dict(m=2, n=3, w=np.ones(3), v=v), r"w has shape \(3,\), expected \(2,\)"),
        (dict(m=2, n=3, w=w, v=np.ones((3, 2))), r"v has shape \(3, 2\), expected \(2, 3\)"),
        (dict(m=2, n=3, w=np.array([1.0, -2.0]), v=v), "non-positive demand weight"),
    ):
        with pytest.raises(InstanceError, match=message):
            Instance(p=1, r=1, **fields)
    with pytest.raises(InstanceError):
        Instance(m=1, n=2, w=np.array([1.0]), v=np.array([[1.0, 1.0]]), p=0, r=1)
    with pytest.raises(InstanceError):
        GeneratorParams("hexagonal", m=2, n=2, p=1, r=1)


def _save_with_numpy_scalars(inst) -> str:
    """Reference: the text formatted from numpy scalars, one row at a time."""
    out = ["scflp 1", f"{inst.m} {inst.n} {inst.p} {inst.r}", " ".join(f"{x:.12g}" for x in inst.w)]
    out += [" ".join(f"{x:.12g}" for x in inst.v[i]) for i in range(inst.m)]
    return "\n".join(out) + "\n"


def test_save_text_equals_numpy_scalar_formatting():
    rng = np.random.default_rng(43)
    special = np.array([1e-300, 1e300, 0.1, 1 / 3, 2.0**-1074, 1.7976931348623157e308, 123456789012.5, 5e-324 * 3])
    for k in range(40):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        w = rng.integers(1, 11, size=m).astype(float)
        v = rng.uniform(0.01, 3.0, size=(m, n)) * 10.0 ** rng.integers(-300, 300, size=(m, n))
        if k % 2:
            v.flat[rng.integers(0, m * n, size=min(m * n, 4))] = rng.choice(special, size=min(m * n, 4))
            w[0] = special[k % special.size]
        inst = Instance(m=m, n=n, w=w, v=v, p=1, r=1)
        text = save_instance(inst)
        assert text == _save_with_numpy_scalars(inst)
        assert load_instance(text).v.tolist() == np.array([[float(f"{x:.12g}") for x in row] for row in v]).tolist()


@pytest.mark.parametrize("sizes", ["1 0 1 1", "1 -2 1 1", "0 2 1 1"])
def test_nonpositive_sizes_raise_instance_error(sizes):
    with pytest.raises(InstanceError):
        load_instance(f"scflp 1\n{sizes}\n1\n1 1\n")


def test_instance_keeps_private_frozen_copies():
    """Constructing an instance leaves the caller's arrays writable, and
    writing to them does not reach the instance's frozen copies."""
    w = np.array([1.0, 2.0])
    v = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    inst = Instance(m=2, n=3, w=w, v=v, p=1, r=1)
    w[0] = 5.0
    v[1, 2] = 7.0
    assert inst.w.tolist() == [1.0, 2.0]
    assert inst.v.tolist() == [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]
    for arr in (inst.w, inst.v):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 9.0


def test_instances_compare_by_identity():
    """Equality and hash are by identity: comparing the array fields of two
    instances by value has no single truth value."""
    a = generate_instance(GeneratorParams("biesinger", m=4, n=4, p=2, r=2, seed=3))
    b = generate_instance(GeneratorParams("biesinger", m=4, n=4, p=2, r=2, seed=3))
    assert (a == b) is False
    assert (a == a) is True
    assert len({a, b}) == 2
