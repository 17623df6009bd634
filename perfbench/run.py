"""Benchmark of mallows-coloring: sampler throughput, short-window latency
and exact-check time, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload long-window --seed 1 --seconds 55 --trace 0

Workloads (see BENCHMARK.json for the reason behind each):

* long-window: at (q, k) = (3, 3) each pipeline draws one 10^5-site window
  per round; each window is then reduced by `verify`.
* short-windows: at (q, k) = (5, 1) each pipeline draws batches of 1000
  independent 32-site windows, one seed each.

Both also time `mallows-coloring verify exact --level quick` in process,
with every program cache cleared first, as a fresh process would have it:
verify_exact_s needs a value on every workload.  The run, one thread in
this process, alternates cold exact runs with the workload's rounds or
batches, until --seconds have passed.

On a shared 2-core virtual machine the speed of the same code swings by up
to 2x for seconds to minutes as other tenants come and go, longer than a
run: ten runs of the same code spread by 0.3-0.5 of their median, best-of
figures included.  So every call is made twice, back to back, in an order
that alternates from one round or batch to the next: by the program in
src/ and by control/mallows_coloring_control, a frozen copy of the program
as this benchmark was defined, which no later change touches.  Both see
the same phases of the machine.  Each window's latency is the median of its
repeats, and percentiles and throughput are taken over those per-window
latencies, for each side.  Each timed metric is the program's figure times
the control's reference figure (control.json) over the control's figure in
the same run; verify_exact_s uses the median ratio within pairs of cold
runs.  A metric thus reads as the program's figure on a machine as fast as
the one the reference figures came from, and the notes printed with it
give both figures as timed.

Long windows have 10^5 sites, not 10^6, so that a run repeats each one
often enough.  window_sizes.py measures per-site throughput at both sizes,
interleaved; baseline.json records how closely they agree.  A cost that
grows only beyond 10^5 sites would not show here.

--trace 0 prints the end-to-end metrics.  Set-up time, of the program
alone and not scaled, is the median of several set-ups, each in a fresh
interpreter, since imports cannot be repeated in one process.  Peak bytes per site come from a separate pass
under tracemalloc after the timed part, never from timed calls.

--trace 1 prints the per-layer metrics, of the program alone: until --seconds have passed, the
workload's operations run untraced and then, straight after, inside a traced
unit (set-up references, the same operations, a cold exact run); each
metric is the median over units, and the tracing overhead the median ratio
of each traced to its untraced run.  Spans go to
.bench_out/trace-<workload>-<seed>.jsonl.

Every operation's output, the control's too, is checked: a pipeline call must return a proper
window of the requested length, statistical verdicts must pass, exact checks
must pass, and at the seeds listed in golden.json the SHA-256 of every
output must match the one recorded from the unchanged program.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("long-window", "short-windows")
PIPELINES = ("painting", "lehmer", "ffiid")

LONG_QK = (3, 3)
LONG_SITES = 100_000
MEMORY_SITES = 20_000
SHORT_QK = (5, 1)
SHORT_SITES = 32
SHORT_BATCH = 1000
MEMORY_WINDOWS = 100
MAX_LEN = 3
# Strides for the pooled short-window checks: four length-3 windows per
# 32-site window, 8 sites apart (more than k + 3), and one pair per window.
SHORT_CYLINDER_STRIDE = 8
SHORT_PAIR_STRIDE = SHORT_SITES
# A run makes a dozen distinct verdicts (repeats reuse the same seeds), and
# judging a change takes some 70 runs, so a 1e-6 level keeps a false alarm
# on correct code below 1 in 1000.
CHI2_THRESHOLD = 1e-6
SETUP_REPEATS = 3
# The control: a frozen copy of the program as this benchmark was defined,
# timed side by side with the program (see end_to_end).
CONTROL_PACKAGE = "mallows_coloring_control"


# ---------------------------------------------------------------------------
# Set-up


def load_program(parent: Path = ROOT / "src",
                 name: str = "mallows_coloring") -> SimpleNamespace:
    """Import the package `name` from `parent` in this checkout, nowhere
    else: the program from src/, or the control copy."""
    pkg = parent / name
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no {name} sources under {parent}")
    sys.path.insert(0, str(parent))
    package = importlib.import_module(name)
    if Path(package.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: {name} imported from "
                         f"{package.__file__}, not from {pkg}")
    building, cli, dist, perm, sampler, tpoly, verify = (
        importlib.import_module(f"{name}.{module}")
        for module in ("building", "cli", "dist", "perm", "sampler", "tpoly",
                       "verify"))
    return SimpleNamespace(building=building, cli=cli, dist=dist, perm=perm,
                           sampler=sampler, tpoly=tpoly, verify=verify,
                           pipelines={"painting": sampler.painting_sample,
                                      "lehmer": sampler.lehmer_pipeline_sample,
                                      "ffiid": sampler.ffiid_sample})


def make_refs(mc) -> SimpleNamespace:
    """Tuned parameters, exact reference masses and golden references."""
    masses = {}
    for q, k in (LONG_QK, SHORT_QK):
        mc.sampler.tuned_parameters(q, k)
        root = mc.tpoly.solve_tuning(q, k)
        masses[(q, k)] = {m: mc.building.cylinder_masses(q, m, root)
                          for m in range(1, MAX_LEN + 1)}
    golden = json.loads((HERE / "golden.json").read_text())
    return SimpleNamespace(masses=masses, golden=golden)


def setup():
    t0 = time.perf_counter()
    mc = load_program()
    refs = make_refs(mc)
    return mc, refs, time.perf_counter() - t0


def clear_program_caches(mc) -> None:
    """Empty every memo a fresh process would start without."""
    mc.building.clear_caches()
    for module in (mc.building, mc.tpoly, mc.sampler, mc.perm, mc.dist):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def setup_seconds(first: float) -> list[float]:
    """This process's set-up time and that of fresh interpreters."""
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run([sys.executable, str(Path(__file__)),
                               "--setup-probe"], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# Bookkeeping


def call_seed(wseed: int, *tags) -> int:
    """Seed of one pipeline call, derived from the workload seed."""
    digest = hashlib.sha256(repr((wseed,) + tags).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def array_bytes(arr, dtype: str) -> bytes:
    import numpy as np
    return b"none" if arr is None else np.asarray(arr).astype(dtype).tobytes()


OUTPUT_FIELDS = ("colors", "radii", "endpoint_mask")


def output_bytes(sample) -> tuple[bytes, bytes, bytes]:
    """The output arrays in fixed dtypes, so hashes compare values only."""
    return (array_bytes(sample.colors, "uint8"),
            array_bytes(sample.radii, "int64"),
            array_bytes(sample.endpoint_mask, "uint8"))


class Tally:
    """Operations attempted and failed, and the timings of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.calls = {p: 0 for p in PIPELINES}
        # Latencies of each distinct window: pipeline -> (length, seed) -> [s]
        self.times = {p: {} for p in PIPELINES}
        self.exact = []
        self.peak = {}

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


class Context:
    """Everything an operation needs: program, references, tally, tracer."""

    def __init__(self, mc, refs, wseed: int, tally: Tally, tracer=None):
        self.mc = mc
        self.refs = refs
        self.wseed = wseed
        self.tally = tally
        self.tracer = tracer
        self.golden = refs.golden.get(str(wseed))

    def run(self, name: str, fn, *args):
        """Call fn, inside a span when tracing."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def pipeline(self, name: str, q: int, k: int, length: int, seed: int):
        """One timed pipeline call; None when it raised."""
        mc = self.mc
        fn = mc.pipelines[name]
        if self.tracer is not None:
            self.tracer.new_op()
            if name == "ffiid":
                fn = mc.sampler.ffiid_detail
        t0 = time.perf_counter()
        try:
            out = self.run(f"sampler.{name}", fn, q, k, length, seed)
        except Exception:
            traceback.print_exc()
            self.tally.op(False, f"{name}({q}, {k}, {length}, {seed}) raised")
            return None
        dt = time.perf_counter() - t0
        sample, extras = out if isinstance(out, tuple) else (out, None)
        self.tally.calls[name] += 1
        self.tally.times[name].setdefault((length, seed), []).append(dt)
        ok = (len(sample) == length and sample.start == 0
              and sample.params.q == q and sample.params.k == k)
        self.tally.op(ok, f"{name}({q}, {k}, {length}, {seed}) window shape")
        if self.tracer is not None:
            self.work_counts(sample, extras)
        return sample

    def work_counts(self, sample, extras) -> None:
        """Bubble and lookback work, read from a traced call's output."""
        import numpy as np
        counts = self.tracer.counts
        anchors = np.flatnonzero(sample.endpoint_mask)
        gaps = np.diff(anchors) - 1
        counts["sites"] += len(sample)
        counts["bubble_sites"] += len(sample) - len(anchors)
        counts["max_bubble"] = max(counts["max_bubble"],
                                   int(gaps.max(initial=0)))
        if extras is not None:
            counts["hops_max"] = max(counts["hops_max"],
                                     int(extras["hops"].max(initial=0)))

    def verdicts(self, sample, q: int, k: int, what: str,
                 cylinder_stride=None, pair_stride=None) -> None:
        """Cylinder chi-square for lengths 1..3 against exact masses and the
        independence verdict at gap k + 1."""
        verify = self.mc.verify
        tables = self.run("verify.cylinders", verify.estimate_cylinders,
                          sample, MAX_LEN, cylinder_stride)
        for m, table in tables.items():
            report = self.run("verify.chi2", verify.chi_square_against_exact,
                              table, self.refs.masses[(q, k)][m], None,
                              CHI2_THRESHOLD, f"chi-square length {m}")
            self.tally.op(report.passed, f"{what}: {report.name} "
                          f"p={report.p_value:.3g} n={report.sample_size}")
        report = self.run("verify.pairs", verify.independence_defect,
                          sample, k + 1, False, pair_stride)
        self.tally.op(report.passed, f"{what}: {report.name} "
                      f"{report.sigma_distance:.3g} sigma n={report.sample_size}")

    def exact_quick(self) -> None:
        """One cold `verify exact --level quick` through the CLI entry point."""
        mc = self.mc
        clear_program_caches(mc)
        OUT.mkdir(exist_ok=True)
        out = OUT / "verify-exact-quick.json"
        out.unlink(missing_ok=True)
        argv = ["verify", "exact", "--level", "quick", "--out", str(out)]
        if self.tracer is not None:
            self.tracer.new_op()
        # Keep what the benchmark holds out of the collector's way, so that
        # collections cost what they would in a fresh process.
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        try:
            code = self.run("cli.main", mc.cli.main, argv)
        except Exception:
            traceback.print_exc()
            self.tally.op(False, "verify exact --level quick raised")
            return
        self.tally.exact.append(time.perf_counter() - t0)
        if not out.is_file():
            self.tally.op(False, f"verify exact exit code {code}, no report")
            return
        results = json.loads(out.read_text())["results"]
        self.tally.op(code == 0 and results["all_pass"],
                      f"verify exact --level quick exit code {code}")
        for check in results["checks"]:
            self.tally.op(check["pass"], f"exact check {check['name']}")


# ---------------------------------------------------------------------------
# Operations


def long_round(ctxs: list[Context]) -> dict:
    """One long window per pipeline at (3, 3), drawn by each context in
    turn, each reduced by verify.  Returns the SHA-256 of each output array
    of the first context."""
    q, k = LONG_QK
    results = [{} for _ in ctxs]
    for name in PIPELINES:
        seed = call_seed(ctxs[0].wseed, "long-window", name)
        for ctx, hashes in zip(ctxs, results):
            sample = ctx.pipeline(name, q, k, LONG_SITES, seed)
            if sample is None:
                continue
            hashes[name] = {field: hashlib.sha256(data).hexdigest()
                            for field, data in zip(OUTPUT_FIELDS,
                                                   output_bytes(sample))}
            if ctx.golden is not None:
                ctx.tally.op(hashes[name] == ctx.golden["long-window"][name],
                             f"long-window {name}: output differs from golden")
            ctx.verdicts(sample, q, k, f"long-window {name}")
    return results[0]


def short_batch(ctxs: list[Context]) -> str:
    """1000 independent 32-site windows per pipeline at (5, 1), each drawn
    by every context in turn; outputs pooled per context and pipeline for
    the statistical checks.  Returns one SHA-256 over all outputs of the
    first context in call order."""
    import numpy as np
    q, k = SHORT_QK
    digests = [hashlib.sha256() for _ in ctxs]
    pooled = [{name: [] for name in PIPELINES} for _ in ctxs]
    for i in range(SHORT_BATCH):
        for name in PIPELINES:
            seed = call_seed(ctxs[0].wseed, "short-windows", name, i)
            for ctx, digest, pool in zip(ctxs, digests, pooled):
                sample = ctx.pipeline(name, q, k, SHORT_SITES, seed)
                if sample is None:
                    continue
                for part in output_bytes(sample):
                    digest.update(part)
                pool[name].append(sample.colors)
    for ctx, digest, pool in zip(ctxs, digests, pooled):
        if ctx.golden is not None:
            ctx.tally.op(digest.hexdigest() == ctx.golden["short-windows"],
                         "short-windows: outputs differ from golden")
        for name, windows in pool.items():
            if not windows:
                continue
            # Windows are independent and each is k-dependent, so strided
            # sub-windows that never cross a window boundary are independent.
            view = SimpleNamespace(colors=np.concatenate(windows),
                                   params=SimpleNamespace(q=q, k=k))
            ctx.verdicts(view, q, k, f"short-windows {name}",
                         SHORT_CYLINDER_STRIDE, SHORT_PAIR_STRIDE)
    return digests[0].hexdigest()


OPERATIONS = {"long-window": long_round, "short-windows": short_batch}
# Share of a run's time given to cold exact-quick runs: three or four pairs
# of them in a 55-s run.  Windows need fewer repeats: their pairs are
# milliseconds apart, a pair of exact runs some ten seconds.
EXACT_SHARE = 0.8


def memory_pass(ctx: Context, workload: str) -> dict:
    """Peak traced bytes per returned site of each pipeline, untimed."""
    mc = ctx.mc
    for q, k in (LONG_QK, SHORT_QK):
        mc.sampler.tuned_parameters(q, k)
    peaks = {}
    for name in PIPELINES:
        fn = mc.pipelines[name]
        if workload == "long-window":
            jobs = [(LONG_QK, MEMORY_SITES, call_seed(ctx.wseed, "memory", name))]
        else:
            jobs = [(SHORT_QK, SHORT_SITES,
                     call_seed(ctx.wseed, "short-windows", name, i))
                    for i in range(MEMORY_WINDOWS)]
        per_site = []
        for (q, k), length, seed in jobs:
            tracemalloc.start()
            try:
                fn(q, k, length, seed)
                per_site.append(tracemalloc.get_traced_memory()[1] / length)
            finally:
                tracemalloc.stop()
        peaks[name] = statistics.median(per_site)
    return peaks


# ---------------------------------------------------------------------------
# Metrics


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def timed_figures(tally: Tally) -> dict:
    """Throughput and latency percentiles of one side, as timed:
    name -> (value, unit, note)."""
    figures = {}
    for name in PIPELINES:
        times = tally.times[name]
        lat = [statistics.median(dts) for dts in times.values()]
        n = len(lat)
        note = (f"{n} windows, median of {tally.calls[name] / n:.3g} calls "
                "each")
        figures[f"sites_per_s.{name}"] = (
            sum(length for length, _ in times) / sum(lat), "sites/s", note)
        figures[f"window_p50_us.{name}"] = (percentile(lat, 50) * 1e6, "us",
                                            note)
        figures[f"window_p99_us.{name}"] = (
            percentile(lat, 99) * 1e6, "us",
            f"{note}, {n - math.ceil(0.99 * n)} beyond p99")
    return figures


def end_to_end(workload: str, tally: Tally, control: Tally,
               setup_times: list[float]) -> dict:
    """Each timed figure of the program, scaled by the control's reference
    figure over the control's figure from the same run."""
    reference = json.loads((HERE / "control.json").read_text())
    reference = reference["figures"][workload]
    controls = timed_figures(control)
    metrics = {"setup_s": (statistics.median(setup_times), "s",
                           f"median of {len(setup_times)} set-ups")}
    for name, (value, unit, note) in timed_figures(tally).items():
        seen = controls[name][0]
        metrics[name] = (value * reference[name] / seen, unit,
                         f"{note}; as timed {value:.6g}, control {seen:.6g}")
    # Cold exact runs come in back-to-back pairs, one of each side, seconds
    # long: the median ratio within pairs follows drift during the run.
    ratio = statistics.median(p / c for p, c in zip(tally.exact, control.exact))
    metrics["verify_exact_s"] = (
        ratio * reference["verify_exact_s"], "s",
        f"median over {len(tally.exact)} pairs of cold runs; as timed "
        f"{statistics.median(tally.exact):.6g}, control "
        f"{statistics.median(control.exact):.6g}")
    for name in PIPELINES:
        metrics[f"peak_bytes_per_site.{name}"] = (tally.peak[name], "B/site",
                                                  "tracemalloc pass")
    metrics["ops_ok_share"] = (1 - tally.failed / tally.attempted, "share",
                               f"{tally.attempted} operations")
    return metrics


def layer_values(tr) -> dict:
    """Per-layer metrics of one traced unit."""
    scalar = [f"streams.{f}" for f in ("u01", "mix", "u01_from_word")]
    sites = tr.counts["sites"]
    metrics = {
        "streams.scalar_calls_per_site": (
            sum(tr.calls(f) for f in scalar) / sites, "calls/site",
            "u01, mix and u01_from_word calls per returned site"),
        "streams.scalar_s": (sum(tr.seconds(f) for f in scalar), "s", ""),
        "streams.array_words_per_site": (
            tr.work("streams.u01_array") / sites, "words/site",
            "words hashed by u01_array per returned site"),
        "streams.array_s": (tr.seconds("streams.u01_array"), "s", ""),
        "perm.decrement_calls": (tr.calls("perm.decrement"), "count", ""),
        "perm.decrement_work": (tr.work("perm.decrement"), "count",
                                "sum of block length squared"),
        "perm.decrement_s": (tr.seconds("perm.decrement"), "s", ""),
    }
    for name in PIPELINES:
        metrics[f"sampler.self_s.{name}"] = (
            tr.self_seconds(f"sampler.{name}"), "s",
            "pipeline calls minus traced children")
    metrics.update({
        "sampler.validate_s": (tr.seconds("sampler.validate"), "s",
                               "ColoringSample.__post_init__"),
        "sampler.bubble_sites_per_site": (
            tr.counts["bubble_sites"] / sites, "share",
            "returned sites that are not anchors"),
        "sampler.max_bubble": (tr.counts["max_bubble"], "sites",
                               "longest run of non-anchor sites"),
        "sampler.lookback_hops_max": (tr.counts["hops_max"], "hops",
                                      "ffiid_detail hops, window maximum"),
        "verify.cylinders_s": (tr.seconds("verify.cylinders"), "s", ""),
        "verify.pairs_s": (tr.seconds("verify.pairs"), "s", ""),
        "verify.chi2_s": (tr.seconds("verify.chi2"), "s", ""),
        "tpoly.solve_calls": (tr.calls("tpoly.solve_tuning"), "count", ""),
        "tpoly.solve_s": (tr.seconds("tpoly.solve_tuning"), "s", ""),
        "tpoly.remainder_calls": (tr.calls("tpoly.poly_remainder"), "count", ""),
        "tpoly.remainder_s": (tr.seconds("tpoly.poly_remainder"), "s", ""),
        "tpoly.enclosure_calls": (tr.calls("tpoly.interval_enclosure"),
                                  "count", ""),
        "building.memo_entries": (tr.counts["memo_entries"], "count",
                                  "after the unit"),
        "building.number_calls": (tr.calls("building.number"), "count", ""),
        "building.brute_calls": (tr.calls("building.brute"), "count", ""),
        "building.brute_s": (tr.seconds("building.brute"), "s", ""),
        "building.defect_s": (tr.seconds("building.defect"), "s", ""),
        "building.certify_s": (tr.seconds("building.certify"), "s",
                               "defect_vanishes and equals_fraction"),
        "dist.dominance_s": (tr.seconds("dist.dominance_check"), "s", ""),
        "perm.color_count_s": (tr.seconds("perm.color_count"), "s", ""),
        "cli.self_s": (tr.self_seconds("cli."), "s",
                       "cli.main and check bodies outside traced layers"),
    })
    return metrics


# ---------------------------------------------------------------------------
# Runs


def versions() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_timed(workload: str, wseed: int, seconds: float) -> tuple[Tally, dict]:
    mc, refs, first_setup = setup()
    control = load_program(HERE / "control", CONTROL_PACKAGE)
    tally, control_tally = Tally(), Tally()
    ctxs = [Context(mc, refs, wseed, tally),
            Context(control, make_refs(control), wseed, control_tally)]
    # Warm-up: let lazy set-up inside the pipelines finish before timing.
    for ctx in ctxs:
        for name in PIPELINES:
            ctx.mc.pipelines[name](*SHORT_QK, SHORT_SITES,
                                   call_seed(wseed, "warm-up"))
    op = OPERATIONS[workload]
    # Exact runs and the workload's operations alternate through the run, so
    # that each figure draws on every part of it; program and control take
    # turns going first.  A pair of exact runs that would end past --seconds
    # is not started.
    t0 = time.perf_counter()
    exact_s, pair_s, pairs, ops = 0.0, 0.0, 0, 0
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and ops:
            break
        if (exact_s <= EXACT_SHARE * elapsed
                and (not pairs or elapsed + pair_s <= seconds)):
            t1 = time.perf_counter()
            for ctx in ctxs if pairs % 2 == 0 else ctxs[::-1]:
                ctx.exact_quick()
            pair_s = time.perf_counter() - t1
            exact_s += pair_s
            pairs += 1
        else:
            op(ctxs if ops % 2 == 0 else ctxs[::-1])
            ops += 1
    tally.peak = memory_pass(ctxs[0], workload)
    tally.attempted += control_tally.attempted
    tally.failed += control_tally.failed
    return tally, end_to_end(workload, tally, control_tally,
                             setup_seconds(first_setup))


def run_traced(workload: str, wseed: int, seconds: float) -> tuple[Tally, dict]:
    from tracer import Tracer
    mc, refs, _ = setup()
    tally = Tally()
    op, companion = OPERATIONS[workload], Context.exact_quick
    tracer = Tracer()
    units, ratios = [], []
    start = time.perf_counter()
    while True:
        # The same operations untraced and then traced, back to back, so
        # that both times come from the same period of the machine.
        clear_program_caches(mc)
        make_refs(mc)
        t0 = time.perf_counter()
        op([Context(mc, refs, wseed, tally)])
        untraced = time.perf_counter() - t0
        tracer.reset()
        tracer.install(mc)
        ctx = Context(mc, refs, wseed, tally, tracer)
        clear_program_caches(mc)
        tracer.call("setup.refs", make_refs, mc)
        t0 = time.perf_counter()
        op([ctx])
        ratios.append((time.perf_counter() - t0) / untraced)
        companion(ctx)
        tracer.uninstall()
        tracer.counts["memo_entries"] = (len(mc.building._memo)
                                         + len(mc.building._memo_alt))
        units.append(layer_values(tracer))
        if time.perf_counter() - start >= seconds:
            break
    tracer.write(OUT / f"trace-{workload}-{wseed}.jsonl")
    metrics = {"trace.overhead_share": (
        statistics.median(ratios) - 1, "share",
        f"median over {len(ratios)} pairs of traced over untraced time of "
        "the same operations, run back to back, minus 1")}
    for name, (_, unit, note) in units[0].items():
        metrics[name] = (statistics.median(u[name][0] for u in units), unit,
                         f"median of {len(units)} traced units; {note}")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(setup()[2])
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    run = run_traced if args.trace else run_timed
    tally, metrics = run(args.workload, args.seed, args.seconds)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} " + json.dumps(versions(), sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit:10s} {note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
