"""CLI of the distributed campaign fabric.

Reached as ``python -m repro.experiments fabric <command>``; the commands
mirror the lifecycle of a distributed campaign::

    fabric dispatch EXPERIMENT --queue Q [--axis ... --param ... --resume-from DB]
    fabric work     --queue Q --group NAME --shard-dir DIR [--lease-ttl S]
    fabric merge    --into DB SHARD [SHARD ...]
    fabric status   --queue Q

``dispatch`` runs once, anywhere; ``work`` runs on every machine (or in
every process group) sharing the queue's filesystem; ``merge`` runs
wherever the canonical store should live, and ``python -m repro.experiments
report --db`` renders the merged store.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.experiments._cli import open_store, parse_axis, parse_param, require_store_file
from repro.experiments.engine import get_experiment

_PROG = "python -m repro.experiments fabric"


def build_dispatch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"{_PROG} dispatch",
        description="Expand an experiment grid and enqueue its cells for "
                    "fabric workers (idempotent; re-dispatching adds only "
                    "missing cells).",
    )
    parser.add_argument("experiment", help="registered experiment name")
    parser.add_argument("--queue", required=True, metavar="FILE",
                        help="fabric queue database (created if missing)")
    parser.add_argument("--backend", default=None,
                        help="execution backend (default: the experiment's own)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the experiment's base seed")
    parser.add_argument("--axis", type=parse_axis, action="append", default=[],
                        metavar="NAME=V1,V2",
                        help="override (or add) a swept axis; repeatable")
    parser.add_argument("--param", type=parse_param, action="append", default=[],
                        metavar="NAME=VALUE",
                        help="override a fixed parameter; repeatable")
    parser.add_argument("--resume-from", default=None, metavar="FILE",
                        help="canonical store whose completed cells are "
                             "skipped (resume a previous distributed run)")
    return parser


def dispatch_main(argv: Sequence[str]) -> int:
    from repro.fabric.dispatcher import dispatch_experiment

    parser = build_dispatch_parser()
    args = parser.parse_args(argv)
    try:
        get_experiment(args.experiment)
    except KeyError as error:
        parser.error(str(error.args[0]))
    resume_store = None
    if args.resume_from:
        if not require_store_file(args.resume_from):
            return 1
        resume_store = open_store(args.resume_from)
        if resume_store is None:
            return 1
    try:
        report = dispatch_experiment(
            args.queue,
            args.experiment,
            backend=args.backend,
            base_seed=args.seed,
            axes=dict(args.axis) or None,
            params=dict(args.param) or None,
            resume_store=resume_store,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if resume_store is not None:
            resume_store.close()
    print(report.format_line())
    return 0


def build_work_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"{_PROG} work",
        description="Run one worker group against a fabric queue: claim "
                    "lease-held batches (stealing expired leases of dead "
                    "workers), execute them, and commit rows to this "
                    "group's own shard store.",
    )
    parser.add_argument("--queue", required=True, metavar="FILE",
                        help="fabric queue database written by 'dispatch'")
    parser.add_argument("--group", required=True,
                        help="worker-group name (also names the shard store)")
    parser.add_argument("--shard-dir", required=True, metavar="DIR",
                        help="directory the shard store is written into")
    parser.add_argument("--batch", type=int, default=4, metavar="N",
                        help="cells claimed per lease (default: 4)")
    parser.add_argument("--lease-ttl", type=float, default=30.0, metavar="SEC",
                        help="lease duration; must exceed the slowest cell's "
                             "runtime (default: 30)")
    parser.add_argument("--poll", type=float, default=0.2, metavar="SEC",
                        help="idle poll interval while other workers hold "
                             "live leases (default: 0.2)")
    parser.add_argument("--max-cells", type=int, default=None, metavar="N",
                        help="execute at most N cells, then release and exit")
    parser.add_argument("--no-wait", action="store_true",
                        help="exit when nothing is claimable instead of "
                             "waiting for other workers' leases")
    return parser


def work_main(argv: Sequence[str]) -> int:
    from repro.fabric.worker import run_worker

    parser = build_work_parser()
    args = parser.parse_args(argv)
    if args.batch <= 0:
        parser.error("--batch must be positive")
    if args.lease_ttl <= 0:
        parser.error("--lease-ttl must be positive")
    report = run_worker(
        args.queue,
        args.group,
        args.shard_dir,
        batch_size=args.batch,
        lease_ttl=args.lease_ttl,
        poll=args.poll,
        max_cells=args.max_cells,
        wait_for_work=not args.no_wait,
    )
    print(report.format_line())
    return 130 if report.interrupted else 0


def build_merge_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"{_PROG} merge",
        description="Stream-merge per-group shard stores into the canonical "
                    "results store, deduplicating by content hash and "
                    "refusing mismatched schema versions.",
    )
    parser.add_argument("shards", nargs="+", metavar="SHARD",
                        help="shard store files written by 'work'")
    parser.add_argument("--into", required=True, metavar="FILE",
                        help="canonical results store (created if missing)")
    return parser


def merge_main(argv: Sequence[str]) -> int:
    from repro.fabric.merge import merge_shards

    parser = build_merge_parser()
    args = parser.parse_args(argv)
    for shard in args.shards:
        if not require_store_file(shard):
            return 1
    try:
        report = merge_shards(args.shards, args.into)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(report.format_line())
    return 0


def status_main(argv: Sequence[str]) -> int:
    from repro.fabric.dispatcher import FabricQueue

    parser = argparse.ArgumentParser(
        prog=f"{_PROG} status",
        description="Per-state cell counts of a fabric queue.",
    )
    parser.add_argument("--queue", required=True, metavar="FILE",
                        help="fabric queue database")
    args = parser.parse_args(argv)
    if not require_store_file(args.queue):
        return 1
    with FabricQueue(args.queue) as queue:
        counts = queue.counts()
        contexts = [name for name, _ in queue.iter_contexts()]
    total = sum(counts.values())
    print(f"fabric: {args.queue}: {total} cells — "
          + ", ".join(f"{state}={counts[state]}" for state in sorted(counts))
          + (f"; experiments: {', '.join(contexts)}" if contexts else ""))
    return 0


_USAGE = f"""usage: {_PROG} <command> ...

commands:
  dispatch  expand an experiment grid into a work-stealing fabric queue
  work      run one worker group (lease, execute, shard-store, heartbeat)
  merge     fold shard stores into the canonical store (hash-deduplicated)
  status    per-state cell counts of a queue

run '{_PROG} <command> --help' for the command's options."""


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Fabric CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE)
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    handlers = {
        "dispatch": dispatch_main,
        "work": work_main,
        "merge": merge_main,
        "status": status_main,
    }
    handler = handlers.get(command)
    if handler is None:
        print(f"error: unknown fabric command {command!r}\n\n{_USAGE}",
              file=sys.stderr)
        return 2
    return handler(rest)


if __name__ == "__main__":
    sys.exit(main())
