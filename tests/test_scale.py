"""Scale rungs: biesinger and qi m=n=400 solved with GSF, m=n=200 with EF,
whose separation r-medians start from the pool's members, biesinger
m=n=400 p=r=5 with EF, whose LP starts from the greedy-allocation basis,
and biesinger and qi m=n=1000 p=10 r=5 with GSF, whose root loop separates
at the in-out center.

Deselected by default (see pyproject.toml); run them with

    PYTHONPATH=src python -m pytest -m scale tests/test_scale.py
"""

import pytest

from scflp import BncConfig, GeneratorParams, generate_instance, solve


# (style, p, r) -> optimum
RUNGS = {
    ("biesinger", 5, 5): 1148.5,
    ("qi", 5, 5): 1148.5,
    ("biesinger", 10, 5): 1336.3878996748524,
    ("qi", 10, 5): 1368.4028146933993,
}

# m=n=1000, p=10, r=5: style -> optimum
GSF_1000_RUNGS = {
    "biesinger": 3111.559139,
    "qi": 3134.242064,
}

# m=n=200, p=10, r=5: style -> optimum (GSF proves the same values)
EF_RUNGS = {
    "biesinger": 665.2602266891104,
    "qi": 660.8872113060747,
}


@pytest.mark.scale
@pytest.mark.parametrize("style, p, r", RUNGS, ids=[f"{s}-p{p}r{r}" for s, p, r in RUNGS])
def test_gsf_at_m_n_400_is_optimal(style, p, r):
    inst = generate_instance(GeneratorParams(style, m=400, n=400, p=p, r=r, seed=1))
    rep = solve(inst, BncConfig(formulation="GSF", time_limit=60))
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(RUNGS[style, p, r], abs=1e-6)


@pytest.mark.scale
@pytest.mark.parametrize("style", GSF_1000_RUNGS)
def test_gsf_at_m_n_1000_is_optimal(style):
    inst = generate_instance(GeneratorParams(style, m=1000, n=1000, p=10, r=5, seed=1))
    rep = solve(inst, BncConfig(formulation="GSF", time_limit=120))
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(GSF_1000_RUNGS[style], abs=1e-6)


@pytest.mark.scale
@pytest.mark.parametrize("style", EF_RUNGS)
def test_ef_at_m_n_200_is_optimal(style):
    inst = generate_instance(GeneratorParams(style, m=200, n=200, p=10, r=5, seed=1))
    rep = solve(inst, BncConfig(formulation="EF", time_limit=60))
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(EF_RUNGS[style], abs=1e-6)


@pytest.mark.scale
def test_ef_at_m_n_400_is_optimal():
    """160,000 allocation columns and linking rows; GSF proves the same optimum."""
    inst = generate_instance(GeneratorParams("biesinger", m=400, n=400, p=5, r=5, seed=1))
    rep = solve(inst, BncConfig(formulation="EF", time_limit=60))
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(RUNGS["biesinger", 5, 5], abs=1e-6)
