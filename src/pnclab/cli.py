"""Command-line front end: off-line search, table build, simulation, catalogs."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .fade_states import build_catalog, save_catalog
from .search import build_selection_table, build_store, certify_store, load_store, save_store, save_table
from .sim import ExperimentConfig, emit_results, run_experiment


def positive(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _require_square(parser: argparse.ArgumentParser, n: int, t: int, mu: int) -> None:
    """The stack rule construction applies: n APs of t rows must stack to a
    square mu x mu global matrix; anything else is a usage error."""
    if n * t != mu:
        parser.error(f"--n {n} APs of {t} rows stack to a {n * t}x{mu} global matrix; "
                     f"recovery needs it square (n * t == {mu})")


def _add_offline(sub: argparse._SubParsersAction) -> argparse.ArgumentParser:
    p = sub.add_parser("offline", help="run the off-line search and write a candidate store")
    p.add_argument("--mod", default="qam4", choices=["qam4", "qam16"])
    p.add_argument("--t", type=int, default=None, help="NCV length (default: bits per symbol)")
    p.add_argument("--K", type=positive, default=5, help="candidates kept per fade state")
    p.add_argument("--psfs", type=positive, default=None, help="keep only this many principal states")
    p.add_argument("--n", type=positive, default=2, help="APs to certify the store for")
    p.add_argument("--trials", type=positive, default=10**6, help="occurrence-ranking trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    return p


def _add_table(sub: argparse._SubParsersAction) -> argparse.ArgumentParser:
    p = sub.add_parser("table", help="build the regulated-selection lookup table from a store")
    p.add_argument("--store", required=True)
    p.add_argument("--n", type=positive, default=2)
    p.add_argument("--out", required=True)
    return p


def _add_simulate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("simulate", help="run a Monte Carlo sweep and write CSV")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config field (repeatable)")
    p.add_argument("--out", required=True)


def _add_sfs(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("sfs", help="fade-state catalog operations")
    p.add_argument("action", choices=["list"])
    p.add_argument("--mod", default="qam4", choices=["qam4", "qam16"])
    p.add_argument("--trials", type=positive, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="also write the catalog file here")


def _add_verify(sub: argparse._SubParsersAction) -> argparse.ArgumentParser:
    p = sub.add_parser("verify-store", help="re-check a store file's invariants")
    p.add_argument("--store", required=True)
    p.add_argument("--n", type=positive, default=2)
    return p


def _coerce(value: str):
    if value.lower() in ("none", "null"):
        return None
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def _apply_overrides(cfg: ExperimentConfig, pairs: list[str]) -> ExperimentConfig:
    updates = {}
    for pair in pairs:
        key, _, value = pair.partition("=")
        if not value:
            raise SystemExit(f"override must be KEY=VALUE, got {pair!r}")
        if key == "ebn0_db":
            updates[key] = tuple(float(x) for x in value.split(","))
        else:
            updates[key] = _coerce(value)
    return replace(cfg, **updates)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pnclab")
    sub = parser.add_subparsers(dest="command", required=True)
    offline = _add_offline(sub)
    table_parser = _add_table(sub)
    _add_simulate(sub)
    _add_sfs(sub)
    verify = _add_verify(sub)
    args = parser.parse_args(argv)

    if args.command == "offline":
        from .modulation import make_constellation

        m = make_constellation(args.mod).bits_per_symbol
        t = m if args.t is None else args.t
        if not m <= t <= 2 * m:
            offline.error(f"--t must be in [{m}, {2 * m}] for {args.mod}, not {t}")
        _require_square(offline, args.n, t, 2 * m)
        cat = build_catalog(args.mod, n_trials=args.trials, rng_seed=args.seed, n_principal=args.psfs)
        store = build_store(cat, t=t, k_per_state=args.K, n_aps=args.n)
        save_store(store, args.out)
        unresolved = sum(1 for lst in store.lists if not any(e.clash_consistent for e in lst))
        print(f"store written to {args.out}: {len(store.states)} states, "
              f"{unresolved} without a clash-consistent candidate, "
              f"{len(store.infeasible)} infeasible tuples")
        return 0

    if args.command == "table":
        store = load_store(args.store)
        _require_square(table_parser, args.n, store.t, store.mu)
        table = build_selection_table(store, n_aps=args.n)
        save_table(table, args.out)
        print(f"table written to {args.out}: {len(table)} entries, {table.markers} fallback markers")
        return 0

    if args.command == "simulate":
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                cfg = _apply_overrides(ExperimentConfig.from_json(f.read()), args.set)
        except (TypeError, ValueError) as exc:    # a refused config: one line, not a traceback
            raise SystemExit(f"pnclab simulate: {exc}")
        records = []
        for rec in run_experiment(cfg):
            records.append(rec)
            print(f"{rec.scheme} @ {rec.ebn0_db:g} dB: outage={rec.outage:.4g} "
                  f"mismap={rec.mismap_rate:.4g} backhaul={rec.backhaul_bits:g} "
                  f"({rec.runtime_s:.1f}s)")
        emit_results(records, args.out)
        print(f"results written to {args.out}")
        return 0

    if args.command == "sfs":
        cat = build_catalog(args.mod, n_trials=args.trials, rng_seed=args.seed)
        print(f"{args.mod}: {cat.n_raw_states} distinct ratio states "
              f"(+1 infinity entry), {len(cat.entries)} catalog entries")
        for i, e in enumerate(cat.entries):
            share = e.weight / (cat.rank_trials or 1)
            print(f"{i:4d}  {e.state.to_text():>28s}  weight={share:.4%}")
        if args.out:
            save_catalog(cat, args.out)
            print(f"catalog written to {args.out}")
        return 0

    if args.command == "verify-store":
        try:        # load re-checks rank invariants and the file's own certificate
            store = load_store(args.store)
            _require_square(verify, args.n, store.t, store.mu)
            checked = certify_store(store, args.n)
        except ValueError as exc:
            print(f"store FAILED verification: {exc}")
            return 1
        if checked.infeasible:
            print(f"store FAILED verification: {len(checked.infeasible)} infeasible tuples")
            return 1
        print(f"store OK: {len(checked.states)} states certified for n={args.n}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
