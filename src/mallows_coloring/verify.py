"""Statistical harness: cylinder counting, goodness-of-fit, independence
defects, and exponential-tail fitting.

Window counts are taken on a strided grid.  With stride at least
(window length) + k + 1, distinct windows of a k-dependent process are
exactly independent, so Pearson chi-square applies without autocorrelation
corrections; the harness leans on the very property it is testing.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Mapping

import numpy as np

from .sampler import ColoringSample


class InsufficientDataError(ValueError):
    """Raised when a tail fit has fewer than the required usable bins."""


@dataclasses.dataclass
class CylinderTable:
    """Counts of length-`length` windows, keyed by their color tuple."""

    length: int
    counts: dict[tuple[int, ...], int]
    total: int

    def merge(self, other: "CylinderTable") -> "CylinderTable":
        if other.length != self.length:
            raise ValueError("cannot merge tables of different lengths")
        counts = dict(self.counts)
        for w, c in other.counts.items():
            counts[w] = counts.get(w, 0) + c
        return CylinderTable(self.length, counts, self.total + other.total)


def independent_stride(span: int, k: int) -> int:
    """Grid stride span + k + 1: under k-dependence, what a grid point reads
    at offsets 0..span is independent of what every other point reads."""
    return span + k + 1


def _grid_counts(colors: np.ndarray, q: int, offsets, start: int, stop: int,
                 stride: int) -> tuple[np.ndarray, int]:
    """Counts of the color tuples read at i + offsets from colors in 1..q,
    over the grid points i in range(start, stop, stride), as an array of
    shape (q,) * len(offsets) indexed by the colors minus one; and the
    number of points."""
    points = np.arange(start, stop, stride)
    base = np.asarray(colors, dtype=np.int64) - 1
    shape = (q,) * len(offsets)
    codes = np.ravel_multi_index([base[points + off] for off in offsets], shape)
    return np.bincount(codes, minlength=q ** len(offsets)).reshape(shape), len(points)


def count_windows(colors: np.ndarray, q: int, length: int, stride: int,
                  offset: int = 0) -> CylinderTable:
    """Strided window counts over a color array with values in 1..q."""
    n = len(colors)
    if length < 1 or n < length + offset:
        return CylinderTable(length, {}, 0)
    grid, total = _grid_counts(colors, q, range(length), offset,
                               n - length + 1, stride)
    seen = grid.nonzero()  # words in lexicographic order
    words = map(tuple, (np.array(seen).T + 1).tolist())
    return CylinderTable(length, dict(zip(words, grid[seen].tolist())), total)


def estimate_cylinders(sample: ColoringSample, max_len: int,
                       stride: int | None = None) -> dict[int, CylinderTable]:
    """Window tables for every length up to max_len.

    The default stride, independent_stride(max_len, k), makes windows of
    every counted length pairwise independent under k-dependence.
    """
    if max_len > 4:
        raise ValueError("cylinder estimation capped at length 4")
    q = sample.params.q
    if stride is None:
        stride = independent_stride(max_len, sample.params.k)
    return {m: count_windows(sample.colors, q, m, stride)
            for m in range(1, max_len + 1)}


@dataclasses.dataclass
class TestReport:
    """One verdict: statistic plus either a p-value or a sigma distance."""

    name: str
    statistic: float
    passed: bool
    threshold: float
    sample_size: int
    p_value: float | None = None
    sigma_distance: float | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _chi2_sf(stat: float, dof: int) -> float:
    """Chi-square survival function, nan for fewer than one degree of
    freedom; scipy is imported here so that start-up does not load it."""
    if dof < 1:
        return math.nan
    from scipy.special import chdtrc
    return float(chdtrc(dof, stat))


def chi_square_against_exact(table: CylinderTable,
                             exact: Mapping[tuple[int, ...], Fraction | float],
                             n_eff: int | None = None,
                             threshold: float = 1e-3,
                             name: str = "chi-square") -> TestReport:
    """Pearson goodness-of-fit of strided window counts against exact masses.

    `exact` must sum to 1 over the supported words; observing any word of
    exact mass zero fails outright.
    """
    if table.total == 0:
        raise ValueError("empty table")
    total_mass = float(sum(exact.values()))
    if abs(total_mass - 1.0) > 1e-9:
        raise ValueError(f"exact masses sum to {total_mass}, not 1")
    n = int(n_eff) if n_eff is not None else table.total
    stray = sum(c for w, c in table.counts.items() if w not in exact)
    if stray:
        return TestReport(name, math.inf, False, threshold, n, p_value=0.0)
    stat = 0.0
    for w, p in exact.items():
        expected = n * float(p)
        observed = table.counts.get(w, 0)
        stat += (observed - expected) ** 2 / expected
    dof = len(exact) - 1
    p_value = _chi2_sf(stat, dof)
    return TestReport(name, stat, p_value > threshold, threshold, n,
                      p_value=p_value)


def two_sample_chi_square(a: CylinderTable, b: CylinderTable,
                          threshold: float = 1e-3,
                          name: str = "two-sample") -> TestReport:
    """Pearson homogeneity test between two independent window tables."""
    words = sorted(set(a.counts) | set(b.counts))
    na, nb = a.total, b.total
    stat = 0.0
    for w in words:
        oa, ob = a.counts.get(w, 0), b.counts.get(w, 0)
        pooled = (oa + ob) / (na + nb)
        ea, eb = na * pooled, nb * pooled
        stat += (oa - ea) ** 2 / ea + (ob - eb) ** 2 / eb
    dof = len(words) - 1
    p_value = _chi2_sf(stat, dof)
    return TestReport(name, stat, p_value > threshold, threshold, na + nb,
                      p_value=p_value)


def pair_counts(sample: ColoringSample, gap: int,
                stride: int | None = None) -> tuple[np.ndarray, int]:
    """Joint counts of (color at i, color at i+gap) on a strided grid,
    independent_stride(gap, k) by default; entry [a - 1, b - 1] counts the
    pairs (a, b)."""
    if gap < 1:
        raise ValueError("gap must be at least 1")
    q = sample.params.q
    if stride is None:
        stride = independent_stride(gap, sample.params.k)
    n = len(sample.colors)
    if n < gap + 1:
        raise ValueError("window too short for the requested gap")
    return _grid_counts(sample.colors, q, (0, gap), 0, n - gap, stride)


def independence_defect(sample: ColoringSample, gap: int,
                        expect_dependent: bool | None = None,
                        stride: int | None = None) -> TestReport:
    """independence_report on a sample; dependence is required by default
    exactly when gap <= k."""
    if expect_dependent is None:
        expect_dependent = gap <= sample.params.k
    joint, n = pair_counts(sample, gap, stride)
    return independence_report(joint, n, gap, expect_dependent)


def independence_report(joint: np.ndarray, n: int, gap: int,
                        expect_dependent: bool,
                        label: str = "independence") -> TestReport:
    """Total-variation distance between a joint law of two sites at
    distance `gap`, given as n pair counts, and the product of its
    marginals, in units of a 4-sigma multinomial envelope.

    Sites at distance greater than k are independent, so the defect must
    sit inside the envelope; at distance at most k the process is strictly
    dependent and the defect must break out (required-fail mode, selected
    by expect_dependent=True).
    """
    pj = joint / n
    pa = pj.sum(axis=1)
    pb = pj.sum(axis=0)
    prod = np.outer(pa, pb)
    tv = 0.5 * np.abs(pj - prod).sum()
    cell_sigma = np.sqrt(np.maximum(prod * (1 - prod), 1e-300) / n)
    envelope = 4 * 0.5 * cell_sigma.sum()
    sigma_distance = 4 * tv / envelope if envelope else math.inf
    within = tv <= envelope
    passed = (not within) if expect_dependent else within
    mode = "dependent" if expect_dependent else "independent"
    return TestReport(f"{label} gap={gap} expect-{mode}", float(tv),
                      bool(passed), float(envelope), n,
                      sigma_distance=float(sigma_distance))


@dataclasses.dataclass
class TailFit:
    slope: float
    r2: float
    bins: list[int]


def tail_fit(counts: Mapping[int, int], lo: int | None = None,
             hi: int | None = None, min_count: int = 1) -> TailFit:
    """Least-squares fit of log P(X >= n) against n.

    Uses integer bins in [lo, hi] where at least `min_count` observations
    sit at or above n; requires at least 5 such bins.
    """
    if not counts:
        raise InsufficientDataError("no observations")
    values = sorted(counts)
    total = sum(counts.values())
    if lo is None:
        lo = values[0]
    if hi is None:
        hi = values[-1]
    vals = np.array(values)
    cnts = np.array([counts[v] for v in values], dtype=np.int64)
    ns, logs = [], []
    for n in range(lo, hi + 1):
        tail = int(cnts[np.searchsorted(vals, n):].sum())
        if tail >= max(min_count, 1):
            ns.append(n)
            logs.append(math.log(tail / total))
    if len(ns) < 5:
        raise InsufficientDataError(f"only {len(ns)} usable tail bins")
    x = np.asarray(ns, dtype=float)
    y = np.asarray(logs, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return TailFit(float(slope), r2, ns)


def synthetic_table(exact: Mapping[tuple[int, ...], Fraction | float], n: int,
                    rng: np.random.Generator) -> CylinderTable:
    """Multinomial draw from an exact law; null-calibration input."""
    words = sorted(exact)
    probs = np.array([float(exact[w]) for w in words])
    draws = rng.multinomial(n, probs / probs.sum())
    length = len(words[0]) if words else 0
    return CylinderTable(length, {w: int(c) for w, c in zip(words, draws) if c},
                         n)
