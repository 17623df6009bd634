"""Per-site throughput of each pipeline at 10^4, 10^5 and 10^6 sites, at
(q, k) = (3, 3), to check that long-window's 10^5-site windows stand for
10^6-site ones:

    python3 perfbench/window_sizes.py --rounds 8

Sizes and pipelines are interleaved within each round, so every size sees
the same phases of the machine.  Prints, per pipeline and size, sites per
second from the best and from the median call over the rounds, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import run

SIZES = (10**4, 10**5, 10**6)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args()
    mc = run.load_program()
    q, k = run.LONG_QK
    mc.sampler.tuned_parameters(q, k)
    for fn in mc.pipelines.values():
        fn(q, k, 1000, 1)
    times = {(name, n): [] for name in run.PIPELINES for n in SIZES}
    for _ in range(args.rounds):
        for n in SIZES:
            for name, fn in mc.pipelines.items():
                seed = run.call_seed(0, "window-sizes", name, n)
                t0 = time.perf_counter()
                fn(q, k, n, seed)
                times[(name, n)].append(time.perf_counter() - t0)
    result = {f"{name}/{n}": {"best_sites_per_s": round(n / min(ts)),
                              "median_sites_per_s": round(n / statistics.median(ts))}
              for (name, n), ts in times.items()}
    print(json.dumps({"rounds": args.rounds, "sites_per_s": result}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
