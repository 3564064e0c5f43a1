"""Helpers of the experiment CLI (``python -m repro.experiments``).

They parse ``--axis``/``--param`` overrides, open results stores and emit
reports the same way for every subcommand that takes those flags.
"""

from __future__ import annotations

import argparse
import os
import sqlite3
import sys
from typing import Optional, Tuple

from repro.experiments.results import ResultsStore


def parse_value(raw: str) -> object:
    """Parse one CLI value: int, float, bool, None or bare string."""
    text = raw.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text


def parse_axis(raw: str) -> Tuple[str, Tuple[object, ...]]:
    """Parse one ``--axis name=v1,v2`` override."""
    name, sep, values = raw.partition("=")
    if not sep or not name.strip():
        raise argparse.ArgumentTypeError(
            f"axis override {raw!r} must look like name=v1,v2")
    parsed = tuple(parse_value(part) for part in values.split(",") if part.strip())
    if not parsed:
        raise argparse.ArgumentTypeError(f"axis override {raw!r} has no values")
    return name.strip(), parsed


def parse_param(raw: str) -> Tuple[str, object]:
    """Parse one ``--param name=value`` override."""
    name, sep, value = raw.partition("=")
    if not sep or not name.strip():
        raise argparse.ArgumentTypeError(
            f"parameter override {raw!r} must look like name=value")
    return name.strip(), parse_value(value)


def open_store(path: str) -> Optional[ResultsStore]:
    """Open a results store; prints the error and returns ``None`` on failure."""
    try:
        return ResultsStore(path)
    except (OSError, ValueError, sqlite3.Error) as error:
        print(f"error: cannot open results store {path}: {error}", file=sys.stderr)
        return None


def require_store_file(path: str) -> bool:
    """Whether ``path`` is an existing store file; prints the error otherwise.

    ``sqlite3.connect`` would silently *create* a fresh empty database on a
    mistyped path and report "(no data)" with exit 0; reporting only makes
    sense over a store that already exists.
    """
    if os.path.isfile(path):
        return True
    print(f"error: results store {path} does not exist", file=sys.stderr)
    return False


def emit_report(report: str, output: Optional[str]) -> int:
    """Print ``report`` and optionally write it to ``output``; exit code."""
    print(report)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(report + "\n")
        except OSError as error:
            print(f"error: cannot write report to {output}: {error}",
                  file=sys.stderr)
            return 1
    return 0
