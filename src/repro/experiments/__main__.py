"""Unified experiment CLI: ``python -m repro.experiments``.

One entry point for the whole evaluation harness::

    python -m repro.experiments list
    python -m repro.experiments run figure3 --workers 4
    python -m repro.experiments run confidence_sweep --db sweep.sqlite --resume
    python -m repro.experiments run figure1 --backend netsim --param cycles=6
    python -m repro.experiments run figure3 --axis "liar_ratio=6.7%,50%"
    python -m repro.experiments run figure1 --backend netsim --axis profile=paper-static,rpgm
    python -m repro.experiments run campaign --axis total_nodes=8,16 --workers 4
    python -m repro.experiments report --db sweep.sqlite --experiment confidence_sweep
    python -m repro.experiments validate --seeds 25

``run`` executes any registered experiment through the shared engine
(:mod:`repro.experiments.engine`): parallel fan-out (``--workers``), durable
resume (``--db``/``--resume``), backend selection (``--backend
oracle|netsim``) and arbitrary axis/parameter overrides (``--axis
name=v1,v2``, ``--param name=value`` — including the scenario-profile axis
``profile``, see :mod:`repro.scenarios`).  ``report`` re-aggregates a
stored run without executing anything; ``validate`` fuzzes seeded
scenario profiles through the invariant checkers and the oracle↔netsim
differential harness (:mod:`repro.validation`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.experiments._cli import (
    emit_report,
    open_store,
    parse_axis,
    parse_param,
    require_store_file,
)
from repro.experiments.engine import (
    BACKENDS,
    cell_config,
    expand_experiment,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.experiments.report import format_table

_PROG = "python -m repro.experiments"


def build_run_parser() -> argparse.ArgumentParser:
    """Parser of the ``run`` subcommand."""
    parser = argparse.ArgumentParser(
        prog=f"{_PROG} run",
        description="Run a registered experiment through the shared engine.",
    )
    parser.add_argument("experiment", help="experiment name (see 'list')")
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="execution backend (default: the experiment's own)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes; 1 = serial (default: 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the experiment's base seed")
    parser.add_argument("--axis", type=parse_axis, action="append", default=[],
                        metavar="NAME=V1,V2",
                        help="override (or add) a swept axis; repeatable")
    parser.add_argument("--param", type=parse_param, action="append", default=[],
                        metavar="NAME=VALUE",
                        help="override a fixed parameter; repeatable")
    parser.add_argument("--db", type=str, default=None, metavar="FILE",
                        help="persist every completed cell to this SQLite results store")
    parser.add_argument("--resume", action="store_true",
                        help="skip cells already completed in --db; without it "
                             "stored cells are re-run")
    parser.add_argument("--max-new-runs", type=int, default=None, metavar="K",
                        help="execute at most K missing cells this invocation")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the report to this file")
    parser.add_argument("--profile", nargs="?", const="-", default=None,
                        metavar="FILE", dest="cprofile",
                        help="run under cProfile: dump pstats data to FILE, "
                             "or print the top functions by cumulative time "
                             "to stderr when FILE is omitted (place the flag "
                             "after the experiment name)")
    return parser


def build_report_parser() -> argparse.ArgumentParser:
    """Parser of the ``report`` subcommand."""
    parser = argparse.ArgumentParser(
        prog=f"{_PROG} report",
        description="Re-aggregate a stored run from its SQLite results store "
                    "without executing anything.  With --experiment the "
                    "experiment's own report is rendered (byte-identical to "
                    "the live run); without it every stored row is tabulated.",
    )
    parser.add_argument("--db", type=str, required=True, metavar="FILE",
                        help="SQLite results store written by a --db run")
    parser.add_argument("--experiment", type=str, default=None,
                        help="render this experiment's report from the store")
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="backend the stored run used (with --experiment)")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed the stored run used (with --experiment)")
    parser.add_argument("--axis", type=parse_axis, action="append", default=[],
                        metavar="NAME=V1,V2",
                        help="axis overrides the stored run used (with --experiment)")
    parser.add_argument("--param", type=parse_param, action="append", default=[],
                        metavar="NAME=VALUE",
                        help="parameter overrides the stored run used (with --experiment)")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the report to this file")
    return parser


def list_main(argv: Sequence[str]) -> int:
    """Entry point of the ``list`` subcommand."""
    argparse.ArgumentParser(
        prog=f"{_PROG} list",
        description="List the registered experiments and scenario profiles.",
    ).parse_args(argv)
    rows = []
    for definition in list_experiments():
        axes = ", ".join(
            f"{name}[{len(values)}]" for name, values in definition.axes.items()
        ) or "-"
        rows.append({
            "experiment": definition.name,
            "cells": len(definition.expand()),
            "backend": definition.default_backend,
            "axes": axes,
            "description": definition.description,
        })
    print(format_table(rows, title="Registered experiments"))

    from repro.scenarios import list_profiles

    profile_rows = [
        {
            "profile": profile.name,
            "kind": profile.kind,
            "differential": profile.differential,
            "description": profile.description,
        }
        for profile in list_profiles()
    ]
    print()
    print(format_table(
        profile_rows,
        title="Scenario profiles (sweep with --axis profile=..., "
              "fuzz with 'validate')",
    ))
    return 0


def run_main(argv: Sequence[str]) -> int:
    """Entry point of the ``run`` subcommand."""
    parser = build_run_parser()
    args = parser.parse_args(argv)
    if args.resume and not args.db:
        parser.error("--resume requires --db")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.max_new_runs is not None and args.max_new_runs < 0:
        parser.error("--max-new-runs must be non-negative")
    try:
        get_experiment(args.experiment)
    except KeyError as error:
        parser.error(str(error.args[0]))

    axes = dict(args.axis) or None
    params = dict(args.param) or None
    store = None
    if args.db:
        # Expanding validates every name, and building each cell's config
        # every config value, before the store file exists, so a misspelt or
        # out-of-range --param or --axis leaves no empty store behind.
        try:
            _, specs, _ = expand_experiment(
                args.experiment, backend=args.backend, base_seed=args.seed,
                axes=axes, params=params)
            for spec in specs:
                cell_config(spec)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        store = open_store(args.db)
        if store is None:
            return 1
    profiler = None
    if args.cprofile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        result = run_experiment(
            args.experiment,
            backend=args.backend,
            workers=args.workers,
            store=store,
            resume=args.resume,
            max_new_runs=args.max_new_runs,
            base_seed=args.seed,
            axes=axes,
            params=params,
        )
        if result.skipped_run_ids:
            print(f"[resume] skipped {len(result.skipped_run_ids)} stored cells, "
                  f"executed {len(result.executed_run_ids)}", file=sys.stderr)
        report = result.format_report()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The engine already cancelled queued cells and committed every
        # completed one (see execute_pending_cells), so the store is clean.
        if args.db:
            print(f"\ninterrupted: completed cells are committed to {args.db}; "
                  f"re-run with --resume to finish the run", file=sys.stderr)
        else:
            print("\ninterrupted: no --db store, completed cells were "
                  "discarded", file=sys.stderr)
        return 130
    finally:
        if profiler is not None:
            profiler.disable()
            _emit_profile(profiler, args.cprofile)
        if store is not None:
            store.close()
    return emit_report(report, args.output)


def _emit_profile(profiler, destination: str) -> None:
    """Write collected cProfile data: pstats dump or stderr summary."""
    import pstats

    if destination == "-":
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
    else:
        profiler.dump_stats(destination)
        print(f"[profile] pstats data written to {destination} "
              f"(inspect with python -m pstats)", file=sys.stderr)


def report_main(argv: Sequence[str]) -> int:
    """Entry point of the ``report`` subcommand."""
    parser = build_report_parser()
    args = parser.parse_args(argv)
    if not require_store_file(args.db):
        return 1
    store = open_store(args.db)
    if store is None:
        return 1
    with store:
        if store.count_rows() == 0:
            # An empty table would render and exit 0 — indistinguishable
            # from a successful report of a completed run.
            print(f"error: results store {args.db} holds no completed cells "
                  f"— nothing to report (was the experiment run with --db?)",
                  file=sys.stderr)
            return 1
        if args.experiment:
            try:
                get_experiment(args.experiment)
            except KeyError as error:
                parser.error(str(error.args[0]))
            # max_new_runs=0: expand + hash + stream from the store, never run.
            try:
                result = run_experiment(
                    args.experiment,
                    backend=args.backend,
                    store=store,
                    resume=True,
                    max_new_runs=0,
                    base_seed=args.seed,
                    axes=dict(args.axis) or None,
                    params=dict(args.param) or None,
                )
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            report = result.format_report()
            if not result.rows():
                print(f"error: results store {args.db} holds no completed "
                      f"cells of experiment {args.experiment!r} (check the "
                      f"--axis/--param/--seed flags match the stored run)",
                      file=sys.stderr)
                return 1
        else:
            rows = list(store.iter_rows())
            report = format_table(rows, title=f"Stored rows — {args.db}")
    return emit_report(report, args.output)


def build_validate_parser() -> argparse.ArgumentParser:
    """Parser of the ``validate`` subcommand."""
    parser = argparse.ArgumentParser(
        prog=f"{_PROG} validate",
        description="Fuzz seeded scenario profiles through the structural "
                    "invariant checkers and the oracle<->netsim differential "
                    "harness; fails (exit 1) on any violation, reporting a "
                    "minimized CLI reproducer per issue.",
    )
    parser.add_argument("--seeds", type=int, default=25, metavar="N",
                        help="number of fuzzed scenarios (default: 25)")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="corpus base seed (default: 0); a corpus is a "
                             "pure function of (base seed, index)")
    parser.add_argument("--profiles", type=str, default=None, metavar="A,B",
                        help="restrict fuzzing to these scenario profiles")
    parser.add_argument("--no-minimize", action="store_true",
                        help="report raw failing scenarios without shrinking them")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the report to this file")
    return parser


def validate_main(argv: Sequence[str]) -> int:
    """Entry point of the ``validate`` subcommand."""
    parser = build_validate_parser()
    args = parser.parse_args(argv)
    if args.seeds <= 0:
        parser.error("--seeds must be positive")
    from repro.scenarios import get_profile
    from repro.validation import validate_corpus

    profiles = None
    if args.profiles:
        profiles = [name.strip() for name in args.profiles.split(",") if name.strip()]
        # Usage errors (exit 2) end here: anything raised later comes from
        # the campaign itself and must surface as a failure, not bad usage.
        try:
            for name in profiles:
                get_profile(name)
        except KeyError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    report = validate_corpus(
        args.seeds,
        base_seed=args.base_seed,
        profiles=profiles,
        minimize=not args.no_minimize,
    )
    emit_report(report.format_report(), args.output)
    return 0 if report.ok else 1


def build_attack_search_parser() -> argparse.ArgumentParser:
    """Parser of the ``attack-search`` subcommand."""
    parser = argparse.ArgumentParser(
        prog=f"{_PROG} attack-search",
        description="Hunt the least-detectable attack configuration with a "
                    "(1+lambda) evolutionary search over fuzzed corpora "
                    "(repro.attacks.search); the winner is shrunk to a "
                    "minimal reproducer CLI line.",
    )
    parser.add_argument("--corpus", type=int, default=4, metavar="N",
                        help="static fuzzer samples seeding the search "
                             "(default: 4)")
    parser.add_argument("--generations", type=int, default=6, metavar="G",
                        help="search generations (default: 6)")
    parser.add_argument("--children", type=int, default=4, metavar="L",
                        help="mutated children per generation (default: 4)")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="search base seed (default: 0); the whole search "
                             "is a pure function of its arguments")
    parser.add_argument("--rounds", type=int, default=20, metavar="R",
                        help="evaluation rounds per configuration (default: 20)")
    parser.add_argument("--backend", choices=BACKENDS, default="oracle",
                        help="evaluation backend (default: oracle)")
    parser.add_argument("--profiles", type=str, default=None, metavar="A,B",
                        help="restrict the seeding corpus to these scenario "
                             "profiles")
    parser.add_argument("--no-minimize", action="store_true",
                        help="report the raw winner without shrinking it")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the report to this file")
    return parser


def attack_search_main(argv: Sequence[str]) -> int:
    """Entry point of the ``attack-search`` subcommand."""
    parser = build_attack_search_parser()
    args = parser.parse_args(argv)
    if args.corpus <= 0:
        parser.error("--corpus must be positive")
    if args.rounds <= 0:
        parser.error("--rounds must be positive")
    if args.generations < 0 or args.children < 0:
        parser.error("--generations and --children must be non-negative")
    from repro.attacks.search import search_attack_configs
    from repro.scenarios import get_profile

    profiles = None
    if args.profiles:
        profiles = [name.strip() for name in args.profiles.split(",") if name.strip()]
        try:
            for name in profiles:
                get_profile(name)
        except KeyError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    result = search_attack_configs(
        corpus_size=args.corpus,
        generations=args.generations,
        children=args.children,
        base_seed=args.base_seed,
        rounds=args.rounds,
        backend=args.backend,
        profiles=profiles,
        minimize=not args.no_minimize,
    )
    return emit_report(result.format_report(), args.output)


_USAGE = f"""usage: {_PROG} <command> ...

commands:
  list        list the registered experiments and scenario profiles
  run         run one experiment (parallel fan-out, resume, backend swap)
  report      re-aggregate a stored run (--db) without executing anything
  validate    fuzz scenario profiles through invariant + differential checks
  attack-search
              evolutionary search for the least-detectable attack config

run '{_PROG} <command> --help' for the command's options."""


def main(argv: Sequence[str]) -> int:
    """CLI entry point: ``argv`` is the command line after the program name;
    returns the process exit code."""
    argv = list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE)
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    if command == "list":
        return list_main(rest)
    if command == "run":
        return run_main(rest)
    if command == "report":
        return report_main(rest)
    if command == "validate":
        return validate_main(rest)
    if command == "attack-search":
        return attack_search_main(rest)
    print(f"error: unknown command {command!r}\n\n{_USAGE}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
