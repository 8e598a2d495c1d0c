"""The traced benchmark (perfbench/tracing.py) wraps scflp's layer
boundaries by replacing module bindings such as ``scflp.bnc.tight_ell``.
Installing its tracer here makes a change that drops or renames one of
those bindings fail the test suite, not only a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(name):
    module_name, attr = name.rsplit(".", 1)
    return getattr(importlib.import_module(module_name), attr, None)


def test_tracer_installs_every_binding_and_restores_them():
    tracing = _load_tracing()
    names = [binding for binding, *_ in tracing.HOOKS]
    before = {name: _binding(name) for name in names}
    tracer = tracing.Tracer()
    tracer.install()  # raises TraceError naming a missing binding
    try:
        assert all(_binding(name) is not before[name] for name in names)
    finally:
        tracer.uninstall()
    assert all(_binding(name) is before[name] for name in names)
