"""Scale rungs: biesinger and qi m=n=400 solved with GSF.

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


@pytest.mark.scale
@pytest.mark.parametrize("style, p, r", RUNGS, ids=[f"{s}-p{p}r{r}" for s, p, r in RUNGS])
def test_gsf_at_m_n_400_is_optimal(style, p, r):
    inst = generate_instance(GeneratorParams(style, m=400, n=400, p=p, r=r, seed=1))
    rep = solve(inst, BncConfig(formulation="GSF", time_limit=60))
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(RUNGS[style, p, r], abs=1e-6)
