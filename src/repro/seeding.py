"""Stable, process-independent seed derivation.

Python's built-in ``hash`` of a string is salted per interpreter process
(PYTHONHASHSEED), so any RNG seeded with ``seed + hash(node_id)`` draws a
*different* sequence on every run — a reproducibility bug that silently
decorrelates multi-process experiment campaigns from their single-process
reference runs.  These helpers derive per-entity seeds from a CRC32 digest
instead, which is stable across processes, platforms and Python versions.
"""

from __future__ import annotations

import zlib


def stable_digest(label: str) -> int:
    """Process-independent 32-bit digest of ``label``."""
    return zlib.crc32(label.encode("utf-8"))


def stable_seed(base_seed: int, label: str) -> int:
    """Derive a deterministic per-``label`` seed in ``[0, 2**31)`` from ``base_seed``.

    The combination is injective enough for experiment fan-out (distinct
    labels under the same base seed get distinct, reproducible seeds) and is
    byte-identical across interpreter processes, unlike ``hash``-based
    derivations.
    """
    return (base_seed * 1_000_003 + stable_digest(label)) % 2 ** 31
