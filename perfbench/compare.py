"""Compare benchmark results of a parent and a change.

Collect both sides in pairs, alternating which side runs first, workload
seeds 1 .. PAIRS, every workload with tracing off and on, each run as long as
run_seconds in BENCHMARK.json:

    python3 perfbench/compare.py run --base PARENT --change CHANGE \\
        --pairs 10 --out results

PARENT and CHANGE are checkouts; each runs its own perfbench/run.py.  This
writes results/base.jsonl and results/change.jsonl, one run per line, and
results/environment.json, the machine they ran on.  Then print one row per
workload and metric:

    python3 perfbench/compare.py report results/base.jsonl results/change.jsonl

Each row gives both sides' median and quartiles, how many pairs the change
won, and a verdict:

* worse: the change failed more operations than the parent on the
  workload, whatever the metric; an end-to-end metric whose median is worse
  than the parent's by more than its bound in BENCHMARK.json; or a
  per-layer metric that lost at least 9 of 10 pairs by more than the
  parent's interquartile distance;
* improved: the change won at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile distance;
* unresolved: the parent's own spread is wider than the bound, and not every
  run of the change beat every run of the parent;
* unchanged: anything else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_spec() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: dict(m, trace=0) for m in spec["end_to_end"]}
    metrics.update({m["name"]: dict(m, trace=1, bound=None)
                    for m in spec["per_layer"]})
    return {"workloads": [w["name"] for w in spec["workloads"]],
            "seconds": spec["run_seconds"], "metrics": metrics}


def run_once(tree: Path, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    """The machine the runs were made on, with the interpreter and library
    versions the benchmark reports."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    import run
    return dict(run.versions(), cpu=cpu, caches=caches)


def cmd_run(args) -> int:
    spec = load_spec()
    sides = {"base": Path(args.base), "change": Path(args.change)}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "environment.json").write_text(
        json.dumps(environment(), indent=1, sort_keys=True) + "\n")
    for i in range(args.pairs):
        seed = 1 + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for trace in (0, 1):
            for workload in spec["workloads"]:
                for side in order:
                    result = run_once(sides[side], workload, seed,
                                      spec["seconds"], trace)
                    record = {"workload": workload, "seed": seed,
                              "trace": trace, "first": order[0],
                              "result": result}
                    with (out / f"{side}.jsonl").open("a") as fh:
                        fh.write(json.dumps(record) + "\n")
                    print(f"pair {i} {workload} trace={trace} {side}: "
                          f"correct={result['correct']}", file=sys.stderr)
    return 0


def verdict(base: list[float], change: list[float], better: str,
            bound: float | None, more_failures: bool) -> tuple[str, int]:
    """Verdict and number of pairs won by the change; pairs share an index."""
    sign = 1 if better == "higher" else -1
    n = len(base)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    if more_failures:
        return "worse", wins
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    med_b, med_c = statistics.median(base), statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4)
    iqr = q3 - q1
    gain = sign * (med_c - med_b)
    if wins >= 0.9 * n and gain > iqr:
        return "improved", wins
    if bound is None:
        if losses >= 0.9 * n and -gain > iqr:
            return "worse", wins
        return "unchanged", wins
    scale = abs(med_b) or 1.0
    if -gain / scale > bound:
        return "worse", wins
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if iqr / scale > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def load_results(path: str) -> dict:
    runs = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        runs[(record["workload"], record["trace"], record["seed"])] = record["result"]
    return runs


def quartiles(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def cmd_report(args) -> int:
    spec = load_spec()
    base, change = load_results(args.base), load_results(args.change)
    keys = sorted(set(base) & set(change))
    print(f"{'workload':14s} {'metric':32s} {'base median [q1, q3]':36s} "
          f"{'change median [q1, q3]':36s} {'wins':>7s} verdict")
    for workload in spec["workloads"]:
        for trace in (0, 1):
            pairs = [k for k in keys if k[0] == workload and k[1] == trace]
            if len(pairs) < 2:
                continue
            failed_b = sum(base[k]["failed"] for k in pairs)
            failed_c = sum(change[k]["failed"] for k in pairs)
            for name, meta in spec["metrics"].items():
                if meta["trace"] != trace:
                    continue
                b = [base[k]["metrics"][name]["value"] for k in pairs]
                c = [change[k]["metrics"][name]["value"] for k in pairs]
                word, wins = verdict(b, c, meta["better"], meta["bound"],
                                     failed_c > failed_b)
                print(f"{workload:14s} {name:32s} {quartiles(b):36s} "
                      f"{quartiles(c):36s} {wins:>3d}/{len(pairs):<3d} {word}")
            print(f"{workload:14s} {'failed operations':32s} {failed_b:<36d} "
                  f"{failed_c:<36d}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run parent and change in alternating pairs")
    p.add_argument("--base", required=True, help="checkout of the parent")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--out", required=True, help="directory for the results")
    p.add_argument("--pairs", type=int, default=10)
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("report", help="print one row per workload and metric")
    p.add_argument("base", help="base.jsonl")
    p.add_argument("change", help="change.jsonl")
    p.set_defaults(fn=cmd_report)
    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
