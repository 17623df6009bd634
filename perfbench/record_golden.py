"""Record golden.json, the SHA-256 of every output the benchmark compares,
at workload seeds 0 .. N-1, from the program in this checkout:

    python3 perfbench/record_golden.py --seeds 32

Record only from a program whose output is known good; the benchmark counts
any later difference as a failed operation.  Recording also runs the
statistical checks on every output and refuses to write if one fails.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args()
    mc, refs, _ = run.setup()
    refs.golden = {}
    tally = run.Tally()
    golden = {}
    for wseed in range(args.seeds):
        ctx = run.Context(mc, refs, wseed, tally)
        golden[str(wseed)] = {"long-window": run.long_round([ctx]),
                              "short-windows": run.short_batch([ctx])}
        print(f"seed {wseed}: {tally.attempted} operations, "
              f"{tally.failed} failed", file=sys.stderr)
    if tally.failed:
        return 1
    path = run.HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
