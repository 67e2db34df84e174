"""The layer tracer in perfbench/ wraps pnclab functions by module attribute.

A hooked name that an import clean-up unbinds, or a call that code routes
around, only shows up minutes into a traced benchmark run; these checks
catch it in seconds.  They read perfbench/tracer.py and
perfbench/workloads.py and change nothing there.
"""
import dataclasses
import importlib.util
import json
import os
import sys

import pytest

from pnclab import fade_states, search
from pnclab.sim import run_experiment

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def tracer():
    yield from _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    yield from _load("workloads")


@pytest.fixture(scope="module")
def bench():
    yield from _load("run")


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


def _small_regulated_artifacts(cfgs, tmp_path):
    """A 24-state qam16 catalog, store and table in ``tmp_path``, built the
    way the workload's off-line half builds the full ones; the configs then
    read them."""
    cat = fade_states.build_catalog("qam16", n_trials=10**4, rng_seed=0, n_principal=24)
    store = search.build_store(cat, t=4, k_per_state=5, n_aps=2)
    table = search.build_selection_table(store, cat, 2)
    paths = {name: str(tmp_path / name) for name in ("catalog_path", "store_path", "table_path")}
    fade_states.save_catalog(cat, paths["catalog_path"])
    search.save_store(store, paths["store_path"])
    search.save_table(table, paths["table_path"])
    return tuple(dataclasses.replace(cfg, **paths) for cfg in cfgs)


@pytest.mark.parametrize("name", ["qam4-live", "qam16-regulated", "baselines"])
def test_expected_hooks_fire(tracer, workloads, name, tmp_path):
    """Every hook a workload expects fires in a traced run of its configs at
    a few frames per point, run as perfbench runs them: the off-line build
    traced, then each config once untraced and once traced in the same
    process.  A cache that outlives a run would serve the traced run from
    the untraced one and silence a hook here, as it would in perfbench."""
    wl = workloads.WORKLOADS[name]
    tr = tracer.Tracer()
    cfgs = wl.configs
    if wl.build is not None:
        with tr.installed():
            cfgs = _small_regulated_artifacts(wl.configs, tmp_path)
    cfgs = [dataclasses.replace(cfg, frames_per_point=3) for cfg in cfgs]
    for cfg in cfgs:
        list(run_experiment(cfg))
    with tr.installed():
        for cfg in cfgs:
            list(run_experiment(cfg))
    silent = sorted(n for n in wl.expected_hooks if tr.calls(n, tracer.FRAME) + tr.calls(n, tracer.SETUP) == 0)
    assert not silent, f"expected hooks recorded no calls: {silent}"


def test_baselines_run_no_detect_ncv(tracer, workloads):
    """comp_nonideal_llrs calls the likelihood kernel itself, so a traced
    ``baselines`` run attributes its detection to link.comp_nonideal_llrs
    and records no link.detect_ncv call."""
    tr = tracer.Tracer()
    with tr.installed():
        for cfg in workloads.WORKLOADS["baselines"].configs:
            list(run_experiment(dataclasses.replace(cfg, frames_per_point=3)))
    calls = {n: tr.calls(n, tracer.FRAME) + tr.calls(n, tracer.SETUP) for n in ("link.detect_ncv", "link.comp_nonideal_llrs")}
    assert calls["link.detect_ncv"] == 0
    assert calls["link.comp_nonideal_llrs"] > 0


def _traced_run(name, tracer, workloads, bench, tmp_path, monkeypatch):
    """perfbench's own ``traced()`` on workload ``name`` at its own frame
    counts, as ``run.py --trace 1`` runs it: the seed-1234 gate matches its
    recorded CSV digests, every expected hook fires, the hooks' self times
    cover the frame loop within 1%, the frame loop hook counts every frame,
    and the traced sweep writes the plain sweep's CSV bytes.  Returns the
    layer metrics."""
    wl = workloads.WORKLOADS[name]
    with open(os.path.join(PERFBENCH, "digests.json"), encoding="ascii") as f:
        recorded = json.load(f)
    entry = recorded["workloads"][wl.name]
    assert recorded["seed"] == workloads.DIGEST_SEED and entry["sweep_frames"] == list(wl.sweep_frames)
    runner = bench.Runner(entry["points"])
    monkeypatch.setitem(sys.modules, "tracer", tracer)     # run.traced imports the tracer by this name
    monkeypatch.chdir(tmp_path)                             # and writes its trace file under the working directory
    metrics = bench.traced(wl, 1, runner, workloads.DIGEST_SEED)
    assert runner.attempted > 0 and runner.failed == 0
    return metrics


def test_traced_qam4_live_run_passes_its_checks(tracer, workloads, bench, tmp_path, monkeypatch):
    """A traced qam4-live run passes perfbench's checks (about two seconds),
    so a kernel change that routes around a hook fails here, not only in the
    bench's own traced run."""
    metrics = _traced_run("qam4-live", tracer, workloads, bench, tmp_path, monkeypatch)
    assert metrics["link.detect_ncv.self_ms_per_frame"]["value"] > 0


def test_traced_baselines_run_passes_its_checks(tracer, workloads, bench, tmp_path, monkeypatch):
    """A traced baselines run passes perfbench's checks (about a second): its
    seed-1234 gate holds comp_ideal and comp_nonideal on qam4 and qam16 to
    their recorded CSV digests, so a change to the centred grid that moves a
    quantized L-value fails here."""
    metrics = _traced_run("baselines", tracer, workloads, bench, tmp_path, monkeypatch)
    assert metrics["link.comp_nonideal_llrs.self_ms_per_frame"]["value"] > 0
    assert metrics["link.comp_ideal.self_ms_per_frame"]["value"] > 0


def test_traced_qam16_regulated_run_passes_its_checks(tracer, workloads, bench, tmp_path, monkeypatch):
    """A traced qam16-regulated run passes perfbench's checks (a few
    seconds): it builds, saves and loads the paper-scale catalog, store and
    table, so store loading, table loading and the rank verdicts run at
    full scale under the seed-1234 rbmas gate."""
    metrics = _traced_run("qam16-regulated", tracer, workloads, bench, tmp_path, monkeypatch)
    assert metrics["search.table_lookup.self_ms_per_frame"]["value"] > 0
    assert metrics["gf2.rank_rows.calls_setup"]["value"] > 0
