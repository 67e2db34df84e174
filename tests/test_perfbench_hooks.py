"""The layer tracer in perfbench/ wraps pnclab functions by module attribute.

A hooked name that an import clean-up unbinds only shows up minutes into a
traced benchmark run; these checks catch it in milliseconds.  They read
perfbench/tracer.py and change nothing there.
"""
import importlib.util
import os
import sys

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_hook_resolves(tracer):
    missing = [
        f"{mod}.{attr}" for mod, attr, _ in tracer.HOOKS if not callable(getattr(tracer.MODULES[mod], attr, None))
    ]
    assert not missing, f"hooked names no longer bound: {missing}"


def test_install_restores_every_attribute(tracer):
    targets = [(tracer.MODULES[mod], attr) for mod, attr, _ in tracer.HOOKS]
    before = [getattr(m, a) for m, a in targets]
    with tracer.Tracer().installed():
        assert all(getattr(m, a) is not f for (m, a), f in zip(targets, before))
    assert [getattr(m, a) for m, a in targets] == before
