#!/usr/bin/env python3
"""pnclab benchmark: frames/s and set-up time per workload, or a layer trace.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload qam4-live --seed 1 --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs a fixed frame set once plain and once with every layer
hook installed, and reports the per-layer metrics.  ``--record-digests``
rewrites the recorded CSV digests of one workload (only after a change that
is meant to alter results).  The last line of standard output is the
result object; the line before it records the environment.  See
``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join("perfbench", "digests.json")
SEED_STRIDE = 1000      # sweep k of a run uses ExperimentConfig.seed = seed * 1000 + k


def _load_pnclab():
    """Import pnclab from this checkout's sources, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "pnclab", "__init__.py")):
        sys.exit(f"error: pnclab sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import pnclab

    if os.path.dirname(os.path.dirname(os.path.abspath(pnclab.__file__))) != SRC:
        sys.exit(f"error: imported pnclab from {pnclab.__file__}, expected {SRC}")
    return pnclab


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas_threads() -> int | None:
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(workers_env: str | None) -> dict:
    import numpy as np

    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "openblas_threads": _openblas_threads(),
        "pnclab_workers": 1,
        "pnclab_workers_env_removed": workers_env,
        "git_commit": _git_commit(),
    }


@dataclass
class SweepResult:
    frames: int = 0
    loop_s: float = 0.0          # sum of MetricsRecord.runtime_s
    setup_s: float = 0.0         # outside wall time minus loop_s
    csv: list = field(default_factory=list)   # emit_results text per config


class Runner:
    """Runs sweeps through run_experiment and checks every sweep point."""

    def __init__(self, digests: list | None) -> None:
        from pnclab import emit_results, run_experiment
        from pnclab.sim import backhaul_accounting

        self._run = run_experiment
        self._emit = emit_results
        self._backhaul = backhaul_accounting
        self.digests = digests
        self.attempted = 0
        self.failed = 0

    def csv_text(self, records) -> str:
        buf = io.StringIO()
        self._emit(records, buf)
        return buf.getvalue()

    def digest(self, rec) -> str:
        """sha256 of the CSV bytes emit_results writes for one sweep point."""
        return hashlib.sha256(self.csv_text([rec]).encode("ascii")).hexdigest()

    def _valid(self, cfg, point: int, rec) -> bool:
        pnc = cfg.scheme in ("bmas", "rbmas")
        mismap_ok = (0.0 <= rec.mismap_rate <= 1.0) if (pnc and cfg.pilot_len is not None) else math.isnan(rec.mismap_rate)
        return (
            rec.ebn0_db == cfg.ebn0_db[point]
            and rec.scheme == cfg.scheme
            and rec.frames == cfg.frames_per_point
            and rec.seed == cfg.seed
            and rec.config_hash == cfg.config_hash
            and 0.0 <= rec.outage <= 1.0
            and mismap_ok
            and rec.backhaul_bits == self._backhaul(cfg)
        )

    def sweep(self, cfgs, gate: bool = False) -> SweepResult:
        """One run_experiment call per config; ``gate`` also checks digests."""
        out = SweepResult()
        for i, cfg in enumerate(cfgs):
            points = len(cfg.ebn0_db)
            self.attempted += points
            records = []
            start = time.perf_counter()
            try:
                for rec in self._run(cfg):
                    records.append(rec)
            except Exception:
                traceback.print_exc()
            wall = time.perf_counter() - start
            loop = sum(r.runtime_s for r in records)
            out.loop_s += loop
            out.setup_s += wall - loop
            out.frames += sum(r.frames for r in records)
            out.csv.append(self.csv_text(records))
            bad = points - len(records)
            for p, rec in enumerate(records):
                ok = self._valid(cfg, p, rec)
                if gate:
                    ok = ok and self.digests is not None and self.digest(rec) == self.digests[i][p]
                bad += not ok
            if bad:
                print(f"sweep point check failed: {bad} of {points} points, config {cfg.config_hash}", file=sys.stderr)
            self.failed += bad
        return out


def _build(wl) -> float:
    if wl.build is None:
        return 0.0
    start = time.perf_counter()
    wl.build()
    return time.perf_counter() - start


def measure(wl, seed: int, seconds: int, runner: Runner, digest_seed: int) -> dict:
    """End-to-end metrics with nothing wrapped.

    Sweep 0 is the digest gate and the warm-up.  Its frame-loop time sizes
    the ``wl.sweeps`` seeded sweeps that follow, so that all sweeps together
    measure about ``seconds`` of frame loop.  Frames/s is the seeded sweeps'
    frames over their summed frame-loop seconds: one ratio over the whole
    timed loop, which evens out the host's second-to-second drift better than
    a median of per-sweep rates.  Set-up time is the median over all sweeps.
    """
    build_s = _build(wl)
    gate = runner.sweep(wl.sweep(digest_seed), gate=True)
    sweeps = [gate]
    per_sweep = max(0.0, seconds - gate.loop_s) / wl.sweeps
    scale = max(1.0, per_sweep / gate.loop_s) if gate.loop_s > 0 else 1.0
    for k in range(1, wl.sweeps + 1):
        sweeps.append(runner.sweep(wl.sweep(seed * SEED_STRIDE + k, scale)))
    frames = sum(r.frames for r in sweeps[1:])
    loop_s = sum(r.loop_s for r in sweeps[1:])
    rates = [r.frames / r.loop_s for r in sweeps if r.loop_s > 0]
    setups = [r.setup_s for r in sweeps]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = {
        "sweeps": len(sweeps),
        "scale": scale,
        "timed_frames": frames,
        "timed_loop_s": loop_s,
        "build_s": build_s,
        "setup_samples_s": setups,
        "sweep_frames_per_s": rates,
        "ops_failed_frac": runner.failed / runner.attempted,
    }
    print(json.dumps({"summary": summary}), file=sys.stderr)
    return {
        "frames_per_s": {"value": frames / loop_s if loop_s > 0 else 0.0, "unit": "frames/s"},
        "setup_s": {"value": build_s + statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
    }


def traced(wl, seed: int, runner: Runner, digest_seed: int) -> dict:
    """Per-layer metrics from a fixed frame set, run plain and then traced."""
    from tracer import FRAME, SETUP, Tracer, frame_breakdown, layer_metrics, per_frame_ms

    tracer = Tracer()
    if wl.build is not None:
        with tracer.installed():
            wl.build()
    runner.sweep(wl.sweep(digest_seed), gate=True)
    cfgs = wl.sweep(seed * SEED_STRIDE, scale=wl.trace_scale)
    plain = runner.sweep(cfgs)
    with tracer.installed():
        trace = runner.sweep(cfgs)

    if trace.csv != plain.csv:
        print("traced sweep wrote different CSV bytes than the plain one", file=sys.stderr)
        runner.failed += sum(len(c.ebn0_db) for c in cfgs)
    silent = sorted(n for n in wl.expected_hooks if tracer.calls(n, FRAME) + tracer.calls(n, SETUP) == 0)
    if silent:
        raise RuntimeError(f"expected hooks recorded no calls (code routed around them?): {silent}")
    if tracer.frames != trace.frames:
        raise RuntimeError(f"frame loop hook saw {tracer.frames} frames, records report {trace.frames}")

    overhead = 1.0 - (trace.frames / trace.loop_s) / (plain.frames / plain.loop_s)
    frame_ms = per_frame_ms(trace.loop_s, trace.frames)
    breakdown = frame_breakdown(tracer, trace.frames, frame_ms)
    accounted = sum(h["self_ms"] for h in breakdown["hooks"].values()) / frame_ms
    if abs(1.0 - accounted) > 0.01:
        raise RuntimeError(f"self times cover {accounted:.4f} of the frame-loop wall time")

    os.makedirs(os.path.join("perfbench", "_work"), exist_ok=True)
    path = os.path.join("perfbench", "_work", f"trace-{wl.name}-seed{seed}.json")
    tracer.write(path, {"workload": wl.name, "seed": seed, "loop_s": trace.loop_s})
    summary = {
        "trace_file": path,
        "frames": trace.frames,
        "frame_ms_plain": per_frame_ms(plain.loop_s, plain.frames),
        "frame_ms_traced": frame_ms,
        "accounted_frac": accounted,
        **breakdown,
        "ops_failed_frac": runner.failed / runner.attempted,
    }
    print(json.dumps({"summary": summary}, indent=1), file=sys.stderr)
    return layer_metrics(tracer, trace.frames, overhead)


def record_digests(wl, runner: Runner, digest_seed: int) -> None:
    """Rewrite the recorded sweep-0 digests of one workload."""
    from pnclab import run_experiment

    _build(wl)
    points = [[runner.digest(rec) for rec in run_experiment(cfg)] for cfg in wl.sweep(digest_seed)]
    data = {"seed": digest_seed, "workloads": {}}
    if os.path.isfile(DIGESTS):
        with open(DIGESTS, encoding="ascii") as f:
            data = json.load(f)
    data["workloads"][wl.name] = {"sweep_frames": list(wl.sweep_frames), "points": points}
    with open(DIGESTS, "w", encoding="ascii") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    os.chdir(ROOT)   # artifact paths in the configs are relative to the root
    workers_env = os.environ.pop("PNCLAB_WORKERS", None)
    _load_pnclab()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import DIGEST_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    print(json.dumps({"environment": environment(workers_env), "workload": wl.name, "seed": args.seed}))

    digests = None
    if os.path.isfile(DIGESTS):
        with open(DIGESTS, encoding="ascii") as f:
            recorded = json.load(f)
        entry = recorded["workloads"].get(wl.name)
        if recorded["seed"] == DIGEST_SEED and entry and entry["sweep_frames"] == list(wl.sweep_frames):
            digests = entry["points"]
    runner = Runner(digests)
    if args.record_digests:
        record_digests(wl, runner, DIGEST_SEED)
        return 0
    if digests is None:
        print(f"no recorded digests for {wl.name}; the gate sweep will fail", file=sys.stderr)

    if args.trace:
        metrics = traced(wl, args.seed, runner, DIGEST_SEED)
    else:
        metrics = measure(wl, args.seed, args.seconds, runner, DIGEST_SEED)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
