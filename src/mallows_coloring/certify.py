"""The exact checks behind `verify exact` and the acceptance criteria.

Each check decides one family of identities exactly, case by case, at a
level, "quick" or "full", and returns a `Verdict`.  The full level covers
larger ranges; acceptance criteria 1-7 and 11 run it.

Consistency, reversibility and k-dependence are decided once per colour
pattern class and the verdict is reported for every word of the class.
This is exact, not a sample: B_t reads only a word's colour pattern (the
building-oracle-equivalence check tests this on every word against an
oracle that reads the word itself), and renaming colours by a bijection of
1..q maps the appended letter, the reversed word and the q^k middle words
one-to-one onto those of the renamed word, so each identity holds for a
word iff it holds for its pattern.  For k-dependence the class of (x, y)
is (|x|, pattern of x + y), so x and y are renamed together.  The memos are
local to one check call.

Layer functions are called through their modules (`building.building_number`,
not a name imported from `building`), so a wrapper installed on a module
attribute sees every call a check makes.
"""

from __future__ import annotations

import dataclasses
import decimal
import functools
from fractions import Fraction
from typing import Callable

import numpy as np

from . import building, dist, perm, streams, tpoly
from .words import Word, color_pattern, word_tuples

#: (k, q) pairs of the k-dependence and closed-form checks.
PAIRS = ((1, 5), (2, 4), (3, 3))
LEVELS = ("quick", "full")


@dataclasses.dataclass(frozen=True)
class Verdict:
    """Whether every case of a check passed, how many cases ran (a failing
    check stops at its first failure), and that failing case."""

    passed: bool
    cases: int
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.passed


#: (name, check) of every exact check, in report order
CHECKS: list[tuple[str, Callable[[str], Verdict]]] = []


def _check(name: str):
    """Register a generator of (ok, case) pairs as the check `name`.  The
    check runs the cases up to the first failure, which it names by the
    case's str, and returns a Verdict."""
    def register(cases):
        @functools.wraps(cases)
        def check(level: str) -> Verdict:
            if level not in LEVELS:
                raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
            count = 0
            for ok, case in cases(level):
                count += 1
                if not ok:
                    return Verdict(False, count, f"{name} fails at {case}")
            return Verdict(True, count)
        CHECKS.append((name, check))
        return check
    return register


@_check("building-oracle-equivalence")
def oracle_equivalence(level):
    """B_t by recurrence equals the oracle, which reads each word rather
    than its pattern, on all words; cases are (q, word)."""
    for q in (3, 4, 5):
        for n in range((6 if level == "full" else 4) + 1):
            brutes = building.building_numbers_brute(q, n)
            for chars, brute in zip(word_tuples(q, n), brutes, strict=True):
                w = Word(1, chars, q)
                yield building.building_number(w) == brute, (q, chars)


@_check("consistency-recurrence")
def consistency_recurrence(level):
    """The sum of B_t over a word's one-character extensions is B_t times
    consistency_factor, decided once per colour pattern; cases are
    (q, word)."""
    for q in (3, 4, 5):
        for n in range((5 if level == "full" else 4) + 1):
            factor = building.consistency_factor(q, n)
            decided: dict[tuple[int, ...], bool] = {}
            for chars in word_tuples(q, n):
                pat = color_pattern(chars)
                if pat not in decided:
                    w = Word(1, pat, q)
                    total = tpoly.ZERO
                    for a in range(1, q + 1):
                        total = total + building.building_number(w.append(a))
                    decided[pat] = total == factor * building.building_number(w)
                yield decided[pat], (q, chars)


@_check("reversibility")
def reversibility(level):
    """B_t is reversal-invariant, decided once per colour pattern; the full
    level's words over 1..5 include those over 1..4."""
    q, longest = (5, 6) if level == "full" else (4, 4)
    decided: dict[tuple[int, ...], bool] = {}
    for n in range(longest + 1):
        for chars in word_tuples(q, n):
            pat = color_pattern(chars)
            if pat not in decided:
                w = Word(1, pat, q)
                decided[pat] = (building.building_number(w)
                                == building.building_number(w.reverse()))
            yield decided[pat], chars


@_check("tuning-roots")
def tuning_roots(level):
    """t(5,1) = t(4,2) = (3 - sqrt 5)/2, and t + 1/t = (1 + sqrt 13)/2 at
    t(3,3), to 2e-30 against 50-digit references; (1 + t) p(5,1) = p(4,2)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        golden = (3 - decimal.Decimal(5).sqrt()) / 2
        s = (1 + decimal.Decimal(13).sqrt()) / 2
        refs = {(5, 1): golden, (4, 2): golden,
                (3, 3): (s - (s * s - 4).sqrt()) / 2}
    tol = Fraction(2, 10**30)
    roots = {qk: tpoly.solve_tuning(*qk).midpoint for qk in refs}
    for qk, ref in refs.items():
        off = roots[qk] - Fraction(ref)
        yield abs(off) < tol, (qk, "off its reference by", float(off))
    off = roots[5, 1] - roots[4, 2]
    yield abs(off) < tol, ("t(5,1) - t(4,2)", float(off))
    yield (tpoly.tuning_poly(4, 2) == tpoly.t_int(2) * tpoly.tuning_poly(5, 1),
           "(1 + t) p(5,1) = p(4,2)")


@_check("exact-cylinder-values")
def cylinder_values(level):
    """At t(5,1), P(12) = 1/20, P(121) = 1/100 and P(123) = 1/75 exactly."""
    root = tpoly.solve_tuning(5, 1)
    for text, value in (("12", Fraction(1, 20)), ("121", Fraction(1, 100)),
                        ("123", Fraction(1, 75))):
        prob = building.cylinder_prob(Word.from_string(text, 5), root)
        yield prob.equals_fraction(value), (text, value)


@_check("k-dependence-defect")
def k_dependence(level):
    """The k-dependence defect vanishes at t(q, k), decided once per split
    colour pattern, and at the full level the worked (5,1) defect is
    2 [3]_t p(5,1); cases are (k, q, x, y)."""
    longest = 4 if level == "full" else 2
    if level == "full":
        worked = building.k_dependence_defect(
            Word.from_string("1", 5), Word.from_string("2", 5), 5, 1)
        yield (worked == 2 * tpoly.t_int(3) * tpoly.tuning_poly(5, 1),
               ("worked (5,1) defect", worked))
    for k, q in PAIRS:
        root = tpoly.solve_tuning(q, k)
        decided: dict[tuple[int, tuple[int, ...]], bool] = {}
        for m in range(longest + 1):
            for n in range(longest + 1 - m):
                for xc in word_tuples(q, m):
                    for yc in word_tuples(q, n):
                        pat = color_pattern(xc + yc)
                        if (m, pat) not in decided:
                            defect = building.k_dependence_defect(
                                Word(1, pat[:m], q), Word(1, pat[m:], q), q, k)
                            decided[m, pat] = building.defect_vanishes(defect, root)
                        yield decided[m, pat], (k, q, xc, yc)


@_check("normalizer-closed-form")
def normalizer_closed_form(level):
    """[k+1]_t^n Z(t, q, n) = [n]!_t q^n binom(k+n, k)_t at t(q, k)."""
    for k, q in PAIRS:
        root = tpoly.solve_tuning(q, k)
        for n in range(5):
            defect = building.z_closed_form_defect(q, k, n)
            yield building.defect_vanishes(defect, root), (k, q, n)


@_check("coloring-count-formula")
def coloring_counts(level):
    """The closed-form coloring count is 103680 on the 9-site example and
    the exhaustive count elsewhere; cases are (q, one-line image)."""
    wire = perm.Perm.from_one_line((6, 8, 7, 1, 9, 2, 4, 3, 5))
    count = perm.color_count(perm.constraint_graph(wire), 5)
    yield count == 103680, ("9-site example", count)
    cases = []  # (one-line image, constraint graph, q)
    for sigma in perm.all_perms(1, 5):
        g = perm.constraint_graph(sigma)
        cases += [(sigma.image, g, q) for q in (3, 4, 5)]
    if level == "full":
        # case i: w = mix(424242, i) sets n = 1..8 and q = 3, 4 or 5, and
        # the permutation sorts the keys mix(w, j) of j = 0..n-1
        for i in range(200):
            w = streams.mix(424242, i)
            n, q = w % 8 + 1, (w >> 32) % 3 + 3
            keys = streams.mix_keys(w, np.arange(n))
            sigma = perm.Perm.from_one_line(keys.argsort() + 1)
            cases.append((sigma.image, perm.constraint_graph(sigma), q))
    brute = perm.color_counts_brute((g, q) for _, g, q in cases)
    for (image, g, q), count in zip(cases, brute, strict=True):
        yield perm.color_count(g, q) == count, (q, image)


@_check("converse-tuning-scan")
def converse_tuning_scan(level):
    """Of the orders k' <= 6, none is tuned at q = 5, t = 1/2 and only k at
    t(q, k); cases are (q, t, orders found)."""
    found = building.converse_scan(5, Fraction(1, 2), 6)
    yield found == [], (5, "1/2", found)
    for q, k in ((5, 1), (4, 2)):
        found = building.converse_scan(q, tpoly.solve_tuning(q, k), 6)
        yield found == [k], (q, f"t({q},{k})", found)


@_check("truncated-geometric-domination")
def geometric_domination(level):
    """Truncated-geometric dominance at (s, t, u) = (0.5, 0.3, 4/3) for n
    from ceil(n0) = 2 to 50, where n0 = 1.222."""
    report = dist.dominance_check(0.5, 0.3, 4 / 3, 50)
    yield abs(report.n0 - 1.222) < 1e-3, ("n0", report.n0)
    yield list(report.checked) == list(range(2, 51)), list(report.checked)
    for n, ok in report.checked.items():
        yield ok, ("n", n)


def exact_checks(level: str):
    """Yield (name, check) pairs in report order; calling a check runs it
    at `level` and returns its Verdict."""
    for name, check in CHECKS:
        yield name, functools.partial(check, level)
