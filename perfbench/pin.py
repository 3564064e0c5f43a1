"""Pin, or check, every workload's operation digests at the default seed.

    python3 perfbench/pin.py            # rewrite digests.json
    python3 perfbench/pin.py --check    # exit 1 if any digest differs

A change that only speeds the program up leaves every digest identical;
re-pin only when a change alters what the program computes, and say so.
Run ``--check`` under two ``PYTHONHASHSEED`` values to catch outputs that
depend on set iteration order.
"""

from __future__ import annotations

import argparse
import json
import sys

from worker import PINS, ROOT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with digests.json instead of writing it")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import DEFAULT_SEED, build_workloads

    pinned = {}
    for name, workload in build_workloads().items():
        digests = [workload.execute(workload.setup(value)).digest
                   for value in workload.inputs(DEFAULT_SEED)]
        pinned[name] = {"seed": DEFAULT_SEED, "digests": digests}
        print(f"{name}: {len(digests)} operations pinned", flush=True)
    if not args.check:
        PINS.write_text(json.dumps(pinned, indent=1) + "\n")
        return 0
    stored = json.loads(PINS.read_text())
    differing = [name for name in pinned if stored.get(name) != pinned[name]]
    for name in differing:
        print(f"{name}: digests differ from {PINS.name}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
