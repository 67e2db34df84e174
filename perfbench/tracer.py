"""Span tracing of pnclab's layers by wrapping module attributes.

pnclab modules call each other through names bound in their own module
globals (``from .gf2 import rank_rows`` binds ``pnclab.search.rank_rows``),
so replacing that attribute for the duration of a ``with Tracer.installed()``
block intercepts every call that resolves through it, without editing the
package.  Each hook records a span: name, start, end and the span that
caused it.  Calls made inside the frame loop (``pnclab.sim._run_point``) are
attributed to the frame phase and carry the ``(point, frame)`` identifier of
the frame that caused them; all other calls belong to the setup phase.

Frame-phase spans stay in memory until ``write`` dumps them.  Setup runs
millions of tiny calls (``rank_rows`` during certification), so the setup
phase is kept as per-hook aggregates only.  ``layer_metrics`` turns the
aggregates into the per-layer metrics named in BENCHMARK.json.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import pnclab.fade_states
import pnclab.link
import pnclab.mapping
import pnclab.search
import pnclab.sim

MODULES = {
    "fade_states": pnclab.fade_states,
    "link": pnclab.link,
    "mapping": pnclab.mapping,
    "search": pnclab.search,
    "sim": pnclab.sim,
}

# (module whose global is replaced, attribute, span name).  One span name
# may sit behind several attributes when more than one module calls the
# function through its own import.
HOOKS = (
    ("fade_states", "enumerate_sfs", "fade_states.enumerate_sfs"),
    ("fade_states", "rank_principal_sfs", "fade_states.rank_principal_sfs"),
    ("fade_states", "save_catalog", "fade_states.save_catalog"),
    ("sim", "load_catalog", "fade_states.load_catalog"),
    ("search", "nearest_sfs", "fade_states.nearest_sfs"),
    ("search", "mine_candidates", "search.mine_candidates"),
    ("search", "assemble_store", "search.assemble_store"),
    ("search", "certify_store", "search.certify_store"),
    ("search", "build_selection_table", "search.build_selection_table"),
    ("search", "save_store", "search.save_store"),
    ("search", "save_table", "search.save_table"),
    ("sim", "load_store", "search.load_store"),
    ("sim", "load_table", "search.load_table"),
    ("sim", "select_mappings", "search.select_mappings"),
    ("search", "select_mappings", "search.select_mappings"),
    ("sim", "table_lookup", "search.table_lookup"),
    ("mapping", "difference_profiles", "mapping.difference_profiles"),
    ("search", "difference_profiles", "mapping.difference_profiles"),
    ("search", "mapping_d_min", "mapping.mapping_d_min"),
    ("search", "superimpose", "mapping.superimpose"),
    ("link", "superimpose", "mapping.superimpose"),
    ("fade_states", "superimpose", "mapping.superimpose"),
    ("search", "rank_rows", "gf2.rank_rows"),
    ("link", "inverse_f2", "gf2.inverse_f2"),
    ("search", "make_constellation", "modulation.make_constellation"),
    ("sim", "make_constellation", "modulation.make_constellation"),
    ("fade_states", "make_constellation", "modulation.make_constellation"),
    ("link", "draw_channel", "link.draw_channel"),
    ("link", "transmit", "link.transmit"),
    ("link", "transmit_pilots", "link.transmit_pilots"),
    ("link", "estimate_channel", "link.estimate_channel"),
    ("link", "detect_ncv", "link.detect_ncv"),
    ("link", "recover_batch", "link.recover_batch"),
    ("link", "comp_ideal", "link.comp_ideal"),
    ("link", "comp_nonideal_llrs", "link.comp_nonideal_llrs"),
    ("link", "quantize_llr", "link.quantize_llr"),
    ("link", "dequantize_llr", "link.dequantize_llr"),
    ("link", "comp_combine", "link.comp_combine"),
    ("sim", "_prepare", "sim.prepare"),
)
FRAME_LOOP = "sim.frame_loop"          # pnclab.sim._run_point
PERCENTILE_HOOKS = ("search.select_mappings", "link.detect_ncv")

SETUP, FRAME = 0, 1


@dataclass
class HookStats:
    calls: list = field(default_factory=lambda: [0, 0])        # per phase
    total_s: list = field(default_factory=lambda: [0.0, 0.0])
    self_s: list = field(default_factory=lambda: [0.0, 0.0])
    parents: Counter = field(default_factory=Counter)          # frame phase
    raised: Counter = field(default_factory=Counter)


class Tracer:
    """Collects spans and per-hook aggregates over one or more windows."""

    def __init__(self) -> None:
        self.stats: dict[str, HookStats] = {}
        self.spans: list[tuple] = []     # (id, parent id, name, frame id, t0, t1)
        self.durations: dict[str, list[float]] = {n: [] for n in PERCENTILE_HOOKS}
        self.frames = 0
        self.infeasible_tuples = 0
        self.fallback_markers = 0
        self._stack: list[list] = []     # [span id, name, child seconds]
        self._next_id = 0
        self._phase = SETUP
        self._frame_id: tuple[int, int] | None = None
        self._installed = False

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, observe=None):
        stats = self.stats.setdefault(name, HookStats())
        durations = self.durations.get(name)
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            entry = [self._next_id, name, 0.0]
            stack.append(entry)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                stats.raised[type(exc).__name__] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                phase = self._phase
                stats.calls[phase] += 1
                stats.total_s[phase] += dur
                stats.self_s[phase] += dur - entry[2]
                if parent is not None:
                    parent[2] += dur
                if phase == FRAME:
                    stats.parents[parent[1] if parent else None] += 1
                    spans.append((entry[0], parent[0] if parent else None, name, self._frame_id, t0, t1))
                    if durations is not None:
                        durations.append(dur)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_store(self, store) -> None:
        self.infeasible_tuples = len(store.infeasible)

    def _observe_table(self, table) -> None:
        self.fallback_markers = sum(1 for v in table.entries.values() if v is None)

    def _replacements(self) -> list[tuple[object, str, object]]:
        observers = {
            "search.certify_store": self._observe_store,
            "search.load_store": self._observe_store,
            "search.build_selection_table": self._observe_table,
            "search.load_table": self._observe_table,
        }
        out = []
        for mod_name, attr, name in HOOKS:
            mod = MODULES[mod_name]
            out.append((mod, attr, self._wrap(getattr(mod, attr), name, observers.get(name))))

        sim = pnclab.sim
        frame_loop = self._wrap(sim._run_point, FRAME_LOOP)
        frame_rng = sim._frame_rng

        def run_point(ctx, point, ebn0_db, frame_range):
            self._phase = FRAME
            self.frames += len(frame_range)
            try:
                return frame_loop(ctx, point, ebn0_db, frame_range)
            finally:
                self._phase = SETUP
                self._frame_id = None

        def frame_marker(cfg, point, frame):
            self._frame_id = (point, frame)
            return frame_rng(cfg, point, frame)

        out.append((sim, "_run_point", run_point))
        out.append((sim, "_frame_rng", frame_marker))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Replace every hooked attribute; restore the originals on exit."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        replacements = self._replacements()
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
        self._installed = True
        try:
            for mod, attr, wrapper in replacements:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in originals:
                setattr(mod, attr, original)
            self._installed = False
            self._stack.clear()
            self._phase = SETUP

    # -- readout -----------------------------------------------------------

    def calls(self, name: str, phase: int = FRAME) -> int:
        s = self.stats.get(name)
        return s.calls[phase] if s else 0

    def total_s(self, name: str, phase: int = SETUP) -> float:
        s = self.stats.get(name)
        return s.total_s[phase] if s else 0.0

    def self_s(self, name: str, phase: int = FRAME) -> float:
        s = self.stats.get(name)
        return s.self_s[phase] if s else 0.0

    def table(self) -> dict[str, dict]:
        return {
            name: {
                "setup_calls": s.calls[SETUP],
                "setup_total_s": s.total_s[SETUP],
                "setup_self_s": s.self_s[SETUP],
                "frame_calls": s.calls[FRAME],
                "frame_total_s": s.total_s[FRAME],
                "frame_self_s": s.self_s[FRAME],
                "frame_parents": {str(k): v for k, v in s.parents.items()},
                "raised": dict(s.raised),
            }
            for name, s in sorted(self.stats.items())
        }

    def write(self, path: str, extra: dict) -> None:
        """Dump the aggregates and every frame-phase span as JSON."""
        payload = dict(extra)
        payload["frames"] = self.frames
        payload["hooks"] = self.table()
        payload["span_fields"] = ["id", "parent", "name", "frame", "t0", "t1"]
        payload["spans"] = self.spans
        with open(path, "w", encoding="ascii") as f:
            json.dump(payload, f)


# -- metrics ----------------------------------------------------------------

def per_frame_ms(seconds: float, frames: int) -> float:
    return 1000.0 * seconds / frames


def _percentile_us(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    return float(np.percentile(np.asarray(durations), q)) * 1e6


def layer_metrics(tracer, frames: int, overhead: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced sweep."""
    def per_frame(name: str) -> float:
        return tracer.calls(name) / frames

    def self_ms(*names: str) -> float:
        return per_frame_ms(sum(tracer.self_s(n) for n in names), frames)

    def setup_total(*names: str) -> float:
        return sum(tracer.total_s(n, SETUP) for n in names)

    lookups = tracer.calls("search.table_lookup")
    fallbacks = tracer.stats["search.select_mappings"].parents.get("search.table_lookup", 0)
    raw = {
        "fade_states.enumerate_sfs.s": (setup_total("fade_states.enumerate_sfs"), "s"),
        "fade_states.rank_principal_sfs.s": (setup_total("fade_states.rank_principal_sfs"), "s"),
        "fade_states.load_catalog.s": (setup_total("fade_states.load_catalog"), "s"),
        "fade_states.nearest_sfs.calls_per_frame": (per_frame("fade_states.nearest_sfs"), "1/frame"),
        "fade_states.nearest_sfs.self_ms_per_frame": (self_ms("fade_states.nearest_sfs"), "ms/frame"),
        "search.mine_candidates.s": (setup_total("search.mine_candidates"), "s"),
        "search.assemble_store.s": (setup_total("search.assemble_store"), "s"),
        "search.certify_store.s": (setup_total("search.certify_store"), "s"),
        "search.build_selection_table.s": (setup_total("search.build_selection_table"), "s"),
        "search.save.s": (setup_total("search.save_store", "search.save_table"), "s"),
        "search.load_store.s": (setup_total("search.load_store"), "s"),
        "search.load_table.s": (setup_total("search.load_table"), "s"),
        "search.infeasible_tuples": (tracer.infeasible_tuples, "count"),
        "search.table.fallback_markers": (tracer.fallback_markers, "count"),
        "search.select_mappings.calls_per_frame": (per_frame("search.select_mappings"), "1/frame"),
        "search.select_mappings.self_ms_per_frame": (self_ms("search.select_mappings"), "ms/frame"),
        "search.select_mappings.call_us_p50": (_percentile_us(tracer.durations["search.select_mappings"], 50), "us"),
        "search.select_mappings.call_us_p99": (_percentile_us(tracer.durations["search.select_mappings"], 99), "us"),
        "search.table_lookup.calls_per_frame": (per_frame("search.table_lookup"), "1/frame"),
        "search.table_lookup.self_ms_per_frame": (self_ms("search.table_lookup"), "ms/frame"),
        "search.table_lookup.hit_ratio": ((lookups - fallbacks) / lookups if lookups else 0.0, "ratio"),
        "search.selection_infeasible": (
            tracer.stats["search.select_mappings"].raised.get("SelectionInfeasibleError", 0), "count"),
        "mapping.difference_profiles.calls_per_frame": (per_frame("mapping.difference_profiles"), "1/frame"),
        "mapping.difference_profiles.self_ms_per_frame": (self_ms("mapping.difference_profiles"), "ms/frame"),
        "mapping.mapping_d_min.calls_per_frame": (per_frame("mapping.mapping_d_min"), "1/frame"),
        "mapping.mapping_d_min.self_ms_per_frame": (self_ms("mapping.mapping_d_min"), "ms/frame"),
        "mapping.superimpose.calls_per_frame": (per_frame("mapping.superimpose"), "1/frame"),
        "gf2.rank_rows.calls_per_frame": (per_frame("gf2.rank_rows"), "1/frame"),
        "gf2.rank_rows.self_ms_per_frame": (self_ms("gf2.rank_rows"), "ms/frame"),
        "gf2.rank_rows.calls_setup": (tracer.calls("gf2.rank_rows", SETUP), "count"),
        "gf2.inverse_f2.calls_per_frame": (per_frame("gf2.inverse_f2"), "1/frame"),
        "modulation.make_constellation.calls_per_frame": (per_frame("modulation.make_constellation"), "1/frame"),
        "link.front_end.self_ms_per_frame": (
            self_ms("link.draw_channel", "link.transmit", "link.transmit_pilots", "link.estimate_channel"),
            "ms/frame"),
        "link.detect_ncv.self_ms_per_frame": (self_ms("link.detect_ncv"), "ms/frame"),
        "link.detect_ncv.call_us_p99": (_percentile_us(tracer.durations["link.detect_ncv"], 99), "us"),
        "link.recover_batch.self_ms_per_frame": (self_ms("link.recover_batch"), "ms/frame"),
        "link.comp_ideal.self_ms_per_frame": (self_ms("link.comp_ideal"), "ms/frame"),
        "link.comp_nonideal_llrs.self_ms_per_frame": (self_ms("link.comp_nonideal_llrs"), "ms/frame"),
        "link.quantize.self_ms_per_frame": (
            self_ms("link.quantize_llr", "link.dequantize_llr", "link.comp_combine"), "ms/frame"),
        "sim.glue_ms_per_frame": (self_ms("sim.frame_loop"), "ms/frame"),
        "sim.trace_overhead_frac": (overhead, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in raw.items()}


def frame_breakdown(tracer, frames: int, frame_ms: float) -> dict:
    """Self and inclusive ms per frame of every hook that fired in the frame
    loop, and per layer the self share of frame time with the frames/s
    ceiling it implies: a layer that cost nothing would save its share."""
    hooks = {}
    layers: dict[str, float] = {}
    for name in tracer.stats:
        if not tracer.calls(name):
            continue
        self_ms = per_frame_ms(tracer.self_s(name), frames)
        incl_ms = per_frame_ms(tracer.total_s(name, FRAME), frames)
        hooks[name] = {
            "calls_per_frame": tracer.calls(name) / frames,
            "self_ms": self_ms,
            "incl_ms": incl_ms,
            "incl_share": incl_ms / frame_ms,
        }
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_ms
    return {
        "hooks": dict(sorted(hooks.items(), key=lambda kv: -kv[1]["incl_ms"])),
        "layers": {
            name: {"self_ms": ms, "share": ms / frame_ms, "ceiling_x": 1.0 / max(1e-12, 1.0 - ms / frame_ms)}
            for name, ms in sorted(layers.items(), key=lambda kv: -kv[1])
        },
    }
