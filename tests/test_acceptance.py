"""Acceptance suite: one test per criterion, at the stated tolerances.

Pipeline runs are shared through session fixtures; seeds are pinned, so the
whole suite is deterministic.  Each criterion prints one PASS line when it
completes (visible with pytest -s or in captured output on failure).
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from mallows_coloring import certify, dist
from mallows_coloring.building import cylinder_masses
from mallows_coloring.certify import PAIRS
from mallows_coloring.perm import (Perm, all_perms, founders, insertion_code,
                                   is_proper_building, lehmer_code)
from mallows_coloring.sampler import painting_sample, tuned_parameters
from mallows_coloring.tpoly import solve_tuning
from mallows_coloring.verify import (chi_square_against_exact,
                                     estimate_cylinders, independence_defect,
                                     tail_fit)
from mallows_coloring.words import Word
from oracles import origin_entry_law


def announce(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS - {message}", flush=True)


# ---------------------------------------------------------------------------
# criteria


def full(check):
    """Run a library check at the full level of `verify exact`."""
    verdict = check("full")
    assert verdict, verdict.failure
    return verdict


def test_criterion_1_building_oracle_equivalence():
    start = time.monotonic()
    verdict = full(certify.oracle_equivalence)
    elapsed = time.monotonic() - start
    assert verdict.cases >= 10_000
    assert elapsed < 60
    announce(1, f"building number equals brute-force oracle on "
                f"{verdict.cases} words (lengths <= 6, q in 3..5) in "
                f"{elapsed:.1f}s")


def test_criterion_2_exact_consistency():
    verdict = full(certify.consistency_recurrence)
    assert verdict.cases == sum(q**n for q in (3, 4, 5) for n in range(6))
    announce(2, "one-character extension identity holds exactly for all words "
                "of length <= 5, q in 3..5")


def test_criterion_3_exact_reversibility():
    verdict = full(certify.reversibility)
    assert verdict.cases == sum(5**n for n in range(7))
    announce(3, f"building numbers reversal-invariant on all {verdict.cases} "
                f"words of length <= 6")


def test_criterion_4_exact_k_dependence():
    verdict = full(certify.k_dependence)
    # the worked (5,1) defect, then each pair with |x| + |y| = s <= 4
    pairs = sum((s + 1) * q**s for _, q in PAIRS for s in range(5))
    assert verdict.cases == 1 + pairs
    announce(4, "k-dependence defect vanishes exactly at the tuned root "
                f"for all {pairs} word pairs |x|+|y| <= 4, pairs {PAIRS}")


def test_criterion_5_tuning_roots():
    full(certify.tuning_roots)
    announce(5, "tuned roots: t(5,1) = t(4,2) = (3-sqrt5)/2 and t(3,3) = "
                "0.5806918..., root of t + 1/t = (1+sqrt13)/2, to 1e-30; "
                "factor identity holds exactly")


def test_criterion_6_exact_cylinder_values():
    assert full(certify.cylinder_values).cases == 3
    announce(6, "exact cylinder values for (k,q)=(1,5): pair 1/20, "
                "aba 1/100, abc 1/75")


def test_criterion_7_coloring_count_formula():
    # the 9-site example, S_5 at q = 3, 4, 5, and 200 drawn permutations
    assert full(certify.coloring_counts).cases == 1 + 120 * 3 + 200
    announce(7, "closed-form coloring count matches exhaustive count on S_5, "
                "200 random permutations (n <= 8) and the 9-site example "
                "= 103680")


def test_criterion_8_sampler_law(pipeline_runs):
    runs, _ = pipeline_runs
    for k, q in PAIRS:
        root = solve_tuning(q, k)
        exact = {m: cylinder_masses(q, m, root) for m in (1, 2, 3)}
        for method in ("painting", "lehmer", "ffiid"):
            sample = runs[(method, k, q)]
            tables = estimate_cylinders(sample, 3)
            for m in (1, 2, 3):
                rep = chi_square_against_exact(tables[m], exact[m])
                assert rep.sample_size >= 1_000_000
                assert rep.passed, (method, k, q, m, rep)
    # aggregate mass of the two length-3 pattern classes for (1, 5)
    for method in ("painting", "lehmer", "ffiid"):
        t3 = estimate_cylinders(runs[(method, 1, 5)], 3)[3]
        aba = sum(c for w, c in t3.counts.items() if w[0] == w[2]) / t3.total
        sigma = math.sqrt(0.2 * 0.8 / t3.total)
        assert abs(aba - 0.2) < 4 * sigma, (method, aba)
        assert abs((1 - aba) - 0.8) < 4 * sigma
    announce(8, "all three pipelines match exact cylinder probabilities "
                "(lengths 1-3, 1e6 independent windows, chi-square p > 1e-3) "
                "for (k,q) in {(1,5),(2,4),(3,3)}; aba/abc masses 0.2/0.8")


def test_criterion_9_strict_k_dependence(pipeline_runs):
    runs, _ = pipeline_runs
    for k, q in PAIRS:
        sample = runs[("lehmer", k, q)]
        rep = independence_defect(sample, gap=k + 1)
        assert rep.passed, (k, q, rep)
    for k, q in ((1, 5), (2, 4)):
        rep = independence_defect(runs[("lehmer", k, q)], gap=k)
        assert rep.passed and rep.sigma_distance > 4, (k, q, rep)
    # (3,3) at gap 3 has exact total-variation defect 0.0065, so the
    # breakout needs a longer run to clear the 4-sigma envelope.
    long_run = painting_sample(3, 3, 21_000_000, seed=4004)
    rep = independence_defect(long_run, gap=3)
    assert rep.passed and rep.sigma_distance > 4, rep
    rep = independence_defect(long_run, gap=4)
    assert rep.passed and rep.sigma_distance <= 4, rep
    announce(9, "pairs at distance k+1 pass the independence envelope; "
                "pairs at distance k break out of it, for all three (k,q)")


def test_criterion_10_exponential_tails(pipeline_runs):
    runs, details = pipeline_runs
    # lookback hops through the zero set: exact tail (2/q)^n for q=5
    extras = details[("ffiid", 1, 5)]
    hops = Counter(int(h) for h in extras["hops"])
    fit = tail_fit(hops, lo=1, hi=30, min_count=10)
    expected = math.log(2 / 5)
    assert abs(fit.slope - expected) < 0.1 * abs(expected), fit
    # coding radius: negative log-tail slope with high linearity
    radii = runs[("ffiid", 1, 5)].radii
    rfit = tail_fit(Counter(int(r) for r in radii), lo=5, hi=30, min_count=10)
    assert rfit.slope < 0 and rfit.r2 > 0.95, rfit
    # bubble lengths (gaps between code zeros): geometric tail
    entries = details[("lehmer", 1, 5)]
    zeros = np.flatnonzero(np.asarray(entries) == 0)
    gaps = Counter(int(g) for g in np.diff(zeros))
    gfit = tail_fit(gaps, lo=2, hi=25, min_count=10)
    assert gfit.slope < 0 and gfit.r2 > 0.95, gfit
    announce(10, f"lookback slope {fit.slope:.4f} = log(2/5) +- 10%; "
                 f"radius tail slope {rfit.slope:.3f} (r2={rfit.r2:.3f}); "
                 f"bubble tail slope {gfit.slope:.3f} (r2={gfit.r2:.3f})")


def test_criterion_11_distribution_lemmas():
    # conditional code entries on [0, 5], exact enumeration
    t, u = Fraction(2, 5), Fraction(4, 3)
    for i in (2, 3, 4):
        cond: dict[tuple, Fraction] = {}
        total = Fraction(0)
        for sigma in all_perms(0, 6):
            if sigma.inverse(0) >= i:
                continue
            weight = u ** len(founders(sigma)) * t ** sigma.inv_count()
            key = tuple(lehmer_code(sigma).entries[i:])
            cond[key] = cond.get(key, Fraction(0)) + weight
            total += weight
        for key, weight in cond.items():
            expect = Fraction(1)
            for off, e in enumerate(key):
                spec = dist.GeomSpec(dist.GeomVariant.ZERO_WEIGHTED, t, u,
                                     trunc=5 - (i + off))
                expect *= dist.pmf(spec, e)
            assert weight / total == expect
    # stochastic dominance of truncated geometrics, n0 = 1.222: the n0
    # and checked-range cases, then n = 2..50
    assert full(certify.geometric_domination).cases == 2 + 49
    # limiting law of the code entry at the origin, interval [-20, 20], at
    # a rational within 1e-7 of the tuned t(5,1): exact, the law dominates
    # the limit's pmf at every j <= 20, so its total-variation distance to
    # the limit is the limit's mass above 20, (1 - p0) t^20
    q, n = 5, 20
    tv, uv = Fraction(2584, 6765), Fraction(q - 1, q - 2)
    assert abs(tv - Fraction(tuned_parameters(q, 1)[0])) < 1e-7
    law = origin_entry_law(n, tv, uv)
    limit = dist.GeomSpec(dist.GeomVariant.ZERO_WEIGHTED_INFINITE, tv, uv)
    tail = 1 - dist.cdf(limit, n)
    assert sum(law) == 1
    assert tail == (1 - dist.pmf(limit, 0)) * tv ** n
    gaps = sum(abs(p - dist.pmf(limit, j)) for j, p in enumerate(law))
    assert (gaps + tail) / 2 == tail
    announce(11, "conditional code-entry law exact on [0,5]; CDF dominance "
                 "verified for n in [2,50]; origin code entry on [-20,20] at "
                 "t=2584/6765 lies at exact total variation "
                 f"(1-p0)t^20 = {float(tail):.3g} from the limiting "
                 "zero-weighted geometric law")


def test_criterion_12_swap_lemmas():
    # insertion-code transformation under arrival-time swaps, all of S_5
    for sigma in all_perms(1, 5):
        code = insertion_code(sigma).entries
        for k in range(1, 5):
            swapped = insertion_code(sigma.swap_times(k)).entries
            lk, lk1 = code[k - 1], code[k]
            expect = list(code)
            expect[k - 1] = lk1 - (1 if lk1 > lk else 0)
            expect[k] = lk + (1 if lk1 <= lk else 0)
            assert list(swapped) == expect
            delta = code[k] - code[k - 1]
            delta_swapped = swapped[k] - swapped[k - 1]
            assert delta_swapped == 1 - delta
    # buildability count equality within swap classes, interval [1, 4]
    perms = list(all_perms(1, 4))
    words = [Word(1, chars, 3) for chars
             in itertools.product((1, 2, 3), repeat=4)]
    built = {s.image: {w.chars for w in words if is_proper_building(s, w)}
             for s in perms}
    for k in (1, 2, 3):
        classes: dict[tuple, list[Perm]] = {}
        for sigma in perms:
            code = insertion_code(sigma).entries
            rest = tuple(e for i, e in enumerate(code, start=1)
                         if i not in (k, k + 1))
            delta = code[k] - code[k - 1]
            classes.setdefault((rest, delta), []).append(sigma)
        for members in classes.values():
            for w in words:
                direct = sum(1 for s in members if w.chars in built[s.image])
                swapped = sum(1 for s in members
                              if w.chars in built[s.swap_times(k).image])
                assert direct == swapped
    announce(12, "insertion-code swap transformation exact on S_5; "
                 "buildability counts invariant under arrival swaps on [1,4]")
