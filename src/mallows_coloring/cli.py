"""Command-line front end.

Commands map one-to-one onto the verification families: `solve-tuning`
(root isolation), `exact` (cylinder probabilities), `sample` (the three
pipelines), `verify exact` (the exact identities of `certify`),
`verify stat` (sampler law checks), and `radius` (coding-radius tails).
JSON output follows the envelope {command, params, seed, results, version}
validated by schemas/result-v1.json; identical configuration including the
seed yields byte-identical output.  Exit codes: 0 pass, 1 verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import decimal
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import building, certify, sampler, tpoly, verify
from .words import Word

VERSION = "1"

_PIPELINES = {
    "painting": sampler.painting_sample,
    "lehmer": sampler.lehmer_pipeline_sample,
    "ffiid": sampler.ffiid_sample,
}


def decimal_str(value: Fraction, digits: int = 12) -> str:
    """Round a rational to `digits` significant decimal digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        d = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
        return str(d)


def _enclosed_decimal(prob: building.CylinderProb, digits: int = 12) -> str:
    """The value of prob at its tuned t to the significant digits, at most
    `digits` and at least one, on which its whole enclosure over the
    isolating interval of t agrees."""
    lo, hi = prob.at.lo, prob.at.hi
    nlo, nhi = tpoly.interval_enclosure(prob.numerator, lo, hi)
    dlo, dhi = tpoly.interval_enclosure(prob.denominator, lo, hi)
    ends = [n / d for n in (nlo, nhi) for d in (dlo, dhi)]
    fixed = next((d for d in range(digits, 1, -1)
                  if decimal_str(min(ends), d) == decimal_str(max(ends), d)), 1)
    return decimal_str(prob.midpoint_value(), fixed)


def _poly_strings(p: tpoly.RatPoly) -> list[str]:
    return [str(c) for c in p.coeffs]


def _envelope(command: str, params: dict, seed: int | None, results: dict) -> dict:
    return {"command": command, "params": params, "seed": seed,
            "results": results, "version": VERSION}


def _open_out(out: str | None):
    """The file `out` opened for writing, or standard output, as a context."""
    return open(out, "w") if out else contextlib.nullcontext(sys.stdout)


def _emit_json(payload: dict, out: str | None) -> None:
    """Write json.dumps(payload, indent=2, sort_keys=True) and a newline,
    each numpy array in the payload's dicts as its list of ints.

    With an indent, json runs its pure-Python encoder, one step per list
    element.  So every array (the per-site columns of `sample`, never
    empty) is set aside behind a stand-in string, numbered in the order
    json writes the stand-ins, and written here one element per line at
    its indent, _CSV_ROWS elements at a time; json writes the rest.
    Stand-ins start with NUL, which no command-line value can hold.
    """
    arrays: list[np.ndarray] = []

    def set_aside(value):
        if isinstance(value, dict):
            return {key: set_aside(v) for key, v in sorted(value.items())}
        if isinstance(value, np.ndarray):
            arrays.append(value)
            return f"\0{len(arrays) - 1}"
        return value

    tail = json.dumps(set_aside(payload), indent=2, sort_keys=True)
    with _open_out(out) as fh:
        for i, values in enumerate(arrays):
            head, tail = tail.split(json.dumps(f"\0{i}"))
            line = head[head.rfind("\n") + 1:]
            indent = "\n" + " " * (len(line) - len(line.lstrip(" ")))
            sep = "," + indent + "  "
            fh.write(head + "[")
            for lo in range(0, len(values), _CSV_ROWS):
                chunk = values[lo:lo + _CSV_ROWS].astype(np.int64).tolist()
                fh.write((sep if lo else sep[1:]) + sep.join(map(str, chunk)))
            fh.write(indent + "]")
        fh.write(tail + "\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _precision(text: str) -> str:
    try:
        if Fraction(text) > 0:
            return text
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"not a positive number: {text!r}")


def _require_sampleable(parser: argparse.ArgumentParser, q: int, k: int) -> None:
    tpoly.check_admissible(q, k)
    try:
        sampler.check_q(q)
    except ValueError as err:
        parser.error(f"argument --q: {err}")


# ---------------------------------------------------------------------------
# solve-tuning


def _cmd_solve_tuning(args, parser) -> int:
    root = tpoly.solve_tuning(args.q, args.k, Fraction(args.precision))
    results = {
        "polynomial": _poly_strings(root.poly),
        "interval": {"lo": str(root.lo), "hi": str(root.hi)},
        "midpoint": decimal_str(root.midpoint),
        "midpoint_fraction": str(root.midpoint),
        "float": root.to_float(),
    }
    _emit_json(_envelope("solve-tuning",
                         {"q": args.q, "k": args.k, "precision": args.precision},
                         None, results), args.out)
    return 0


# ---------------------------------------------------------------------------
# exact


def _constant_ratio(num: tpoly.RatPoly, den: tpoly.RatPoly,
                    p: tpoly.RatPoly) -> Fraction | None:
    """c with num == c * den modulo p, when such a constant exists."""
    nr = tpoly.poly_remainder(num, p)
    dr = tpoly.poly_remainder(den, p)
    if nr.is_zero():
        return Fraction(0)
    if dr.is_zero() or nr.degree != dr.degree:
        return None
    c = Fraction(nr.coeffs[-1]) / dr.coeffs[-1]
    return c if (nr - dr * c).is_zero() else None


def _cmd_exact(args, parser) -> int:
    root = tpoly.solve_tuning(args.q, args.k, Fraction(args.precision))
    try:
        word = Word.from_string(args.word, args.q)
    except ValueError as err:
        parser.error(str(err))
    prob = building.cylinder_prob(word, root)
    exact = _constant_ratio(prob.numerator, prob.denominator, root.poly)
    results = {
        "word": list(word.chars),
        "numerator": _poly_strings(prob.numerator),
        "denominator": _poly_strings(prob.denominator),
        "decimal": _enclosed_decimal(prob),
        "exact_fraction": str(exact) if exact is not None else None,
    }
    _emit_json(_envelope("exact", {"q": args.q, "k": args.k, "word": args.word},
                         None, results), args.out)
    return 0


# ---------------------------------------------------------------------------
# sample


#: CSV rows, or elements of a JSON array, that `sample` formats and writes
#: at a time.
_CSV_ROWS = 1 << 14


def _write_csv(start: int, columns: list, out: str | None) -> None:
    """Write the (name, per-site array) columns as CSV rows after an index
    column from `start`, _CSV_ROWS rows at a time."""
    header = ["index"] + [name for name, _ in columns]
    row = ",".join(["{}"] * len(header)) + "\n"
    n = len(columns[0][1])
    with _open_out(out) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _CSV_ROWS):
            hi = min(lo + _CSV_ROWS, n)
            values = (a[lo:hi].astype(np.int64).tolist() for _, a in columns)
            fh.write("".join(map(row.format, range(start + lo, start + hi),
                                 *values)))


def _cmd_sample(args, parser) -> int:
    _require_sampleable(parser, args.q, args.k)
    sample = _PIPELINES[args.method](args.q, args.k, args.length, args.seed)
    # (CSV column, JSON key, values) of each per-site array the sample has
    arrays = [(col, key, a) for col, key, a in (
        ("color", "colors", sample.colors), ("radius", "radii", sample.radii),
        ("endpoint", "endpoints", sample.endpoint_mask)) if a is not None]
    if args.format == "csv":
        _write_csv(sample.start, [(col, a) for col, _, a in arrays], args.out)
        return 0
    results = {"start": sample.start, "t": sample.params.t, "s": sample.params.s}
    results.update((key, a) for _, key, a in arrays)
    params = {"q": args.q, "k": args.k, "length": args.length,
              "method": args.method}
    _emit_json(_envelope("sample", params, args.seed, results), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify exact


# perfbench/tracer.py replaces this binding to time each check, so
# _cmd_verify_exact looks it up at call time.
_exact_checks = certify.exact_checks


def _cmd_verify_exact(args, parser) -> int:
    checks = []
    all_pass = True
    for name, fn in _exact_checks(args.level):
        ok = bool(fn())
        checks.append({"name": name, "pass": ok})
        all_pass = all_pass and ok
    results = {"checks": checks, "all_pass": all_pass}
    _emit_json(_envelope("verify-exact", {"level": args.level}, None, results),
               args.out)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# verify stat


#: Windows per `verify stat` chunk; the last chunk takes the remainder.
_STAT_CHUNK = 1 << 18


def _stat_chunk(q: int, k: int, max_len: int, method: str, windows: int,
                seed: int) -> dict:
    stride = verify.independent_stride(max_len, k)
    # exactly `windows` windows of length max_len fit; one window still
    # leaves room for the gap-(k + 1) pair
    length = max((windows - 1) * stride + max_len, k + 2)
    sample = _PIPELINES[method](q, k, length, seed)
    return {"tables": verify.estimate_cylinders(sample, max_len),
            "pairs": {gap: verify.pair_counts(sample, gap)
                      for gap in (k, k + 1)}}


def _merge_chunks(a: dict, b: dict) -> dict:
    return {"tables": {m: t.merge(b["tables"][m])
                       for m, t in a["tables"].items()},
            "pairs": {gap: (joint + b["pairs"][gap][0], n + b["pairs"][gap][1])
                      for gap, (joint, n) in a["pairs"].items()}}


def _cmd_verify_stat(args, parser) -> int:
    """Chunk c of --windows draws from seed + 7919*c, so the report depends
    on the request alone; more than one chunk runs on a process pool of at
    most os.cpu_count() workers."""
    _require_sampleable(parser, args.q, args.k)
    q, k = args.q, args.k
    methods = list(_PIPELINES) if args.method == "all" else [args.method]
    root = tpoly.solve_tuning(q, k)
    exact = {m: building.cylinder_masses(q, m, root)
             for m in range(1, args.maxlen + 1)}
    full, rest = divmod(args.windows, _STAT_CHUNK)
    windows = [_STAT_CHUNK] * full + [rest] * (rest > 0)
    seeds = [args.seed + 7919 * c for c in range(len(windows))]
    jobs = [(method, w, s) for method in methods for w, s in zip(windows, seeds)]
    chunk = functools.partial(_stat_chunk, q, k, args.maxlen)
    if len(windows) > 1:
        workers = min(len(windows), os.cpu_count() or 1)
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            counts = list(pool.map(chunk, *zip(*jobs)))
    else:
        counts = [chunk(*job) for job in jobs]
    reports = []
    for i, method in enumerate(methods):
        merged = functools.reduce(
            _merge_chunks, counts[i * len(windows):(i + 1) * len(windows)])
        for m in exact:
            reports.append(verify.chi_square_against_exact(
                merged["tables"][m], exact[m],
                name=f"{method} length-{m} vs exact"))
        for gap, expect in ((k + 1, False), (k, True)):
            joint, n = merged["pairs"][gap]
            reports.append(
                verify.independence_report(joint, n, gap, expect, method))
    all_pass = all(r.passed for r in reports)
    results = {"reports": [r.to_dict() for r in reports], "all_pass": all_pass}
    params = {"q": q, "k": k, "method": args.method, "windows": args.windows,
              "maxlen": args.maxlen}
    _emit_json(_envelope("verify-stat", params, args.seed, results), args.out)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# radius


def _cmd_radius(args, parser) -> int:
    _require_sampleable(parser, args.q, args.k)
    sample, extras = sampler.ffiid_detail(args.q, args.k, args.length, args.seed)
    radii = sample.radii
    rad_counts = {int(v): int(c) for v, c in
                  zip(*np.unique(radii, return_counts=True))}
    hop_counts = {int(v): int(c) for v, c in
                  zip(*np.unique(extras["hops"], return_counts=True))}
    results: dict = {
        "radius_histogram": {str(k_): v for k_, v in sorted(rad_counts.items())},
        "lookback_histogram": {str(k_): v for k_, v in sorted(hop_counts.items())},
        "expected_lookback_slope": math.log(2 / args.q),
    }
    try:
        fit = verify.tail_fit(rad_counts, lo=5, hi=30, min_count=10)
        results["radius_tail"] = {"slope": fit.slope, "r2": fit.r2}
    except verify.InsufficientDataError:
        results["radius_tail"] = None
    try:
        fit = verify.tail_fit(hop_counts, lo=1, hi=30, min_count=10)
        results["lookback_tail"] = {"slope": fit.slope, "r2": fit.r2}
    except verify.InsufficientDataError:
        results["lookback_tail"] = None
    params = {"q": args.q, "k": args.k, "length": args.length}
    _emit_json(_envelope("radius", params, args.seed, results), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mallows-coloring",
        description="k-dependent q-colorings of the integers: exact "
                    "identities, tuned roots, and cross-validated samplers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--q", type=int, required=True, help="number of colors")
        p.add_argument("--k", type=int, required=True, help="dependence range")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("solve-tuning", help="isolate the tuned parameter")
    common(p)
    p.add_argument("--precision", type=_precision, default="1e-30")
    p.set_defaults(fn=_cmd_solve_tuning)

    p = sub.add_parser("exact", help="exact cylinder probability of a word")
    common(p)
    p.add_argument("--word", required=True, help="digits over 1..q, e.g. 121")
    p.add_argument("--precision", type=_precision, default="1e-30")
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("sample", help="sample a window of the coloring")
    common(p, seed=True)
    p.add_argument("--length", type=_positive_int, required=True)
    p.add_argument("--method", choices=sorted(_PIPELINES), default="painting")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("verify", help="verification suites")
    vsub = p.add_subparsers(dest="verify_command", required=True)

    pe = vsub.add_parser("exact", help="deterministic polynomial identities")
    pe.add_argument("--level", choices=certify.LEVELS, default="quick")
    pe.add_argument("--out", default=None)
    pe.set_defaults(fn=_cmd_verify_exact)

    ps = vsub.add_parser("stat", help="sampler law checks")
    common(ps, seed=True)
    ps.add_argument("--method", choices=["all"] + sorted(_PIPELINES),
                    default="all")
    ps.add_argument("--windows", type=_positive_int, default=200_000,
                    help="windows per method, drawn in chunks of 2^18; "
                         "chunk c draws from seed + 7919*c")
    ps.add_argument("--maxlen", type=int, choices=range(1, 5), default=3)
    ps.set_defaults(fn=_cmd_verify_stat)

    p = sub.add_parser("radius", help="coding-radius diagnostics (ffiid)")
    common(p, seed=True)
    p.add_argument("--length", type=_positive_int, default=100_000)
    p.set_defaults(fn=_cmd_radius)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, parser)
    except tpoly.NoSolutionError as err:
        parser.error(str(err))
    except (ValueError, RuntimeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except OSError as err:
        if args.out is None or err.filename != args.out:
            raise
        sys.stderr.write(f"error: argument --out: cannot write {args.out}: "
                         f"{err.strerror}\n")
        return 2
    except MemoryError as err:
        sys.stderr.write(f"error: not enough memory for this request: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
