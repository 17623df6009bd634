"""Building numbers, normalizing constants, and exact cylinder probabilities.

The building number of a word x of length n is the inversion-generating
polynomial over the permutations that build x properly:

    B_t(x) = sum over sigma in S_n of 1[sigma builds x] * t^inv(sigma).

It vanishes iff x is non-proper, satisfies B_t(empty) = 1, and obeys the
deletion recurrence

    B_t(x) = 1[x proper] * sum_{i=1}^{n} t^(n-i) B_t(x with slot i removed),

which is how it is computed here (with memoization on the color pattern,
since B_t depends on a word only through its equality pattern).  Cylinder
probabilities of the stationary coloring are B_t(x) / Z(t, q, n) where

    Z(t, q, n) = prod_{j=1}^{n} (q [j]_t - [2]_t [j-1]_t)

sums B_t over all q^n words of length n.  When (q, k, t) satisfies the
tuning equation, k-dependence is an exact polynomial statement: the defect
returned by k_dependence_defect vanishes at the tuned root, which
defect_vanishes decides exactly.

All values are immutable and the pattern memo is only ever extended with
identical entries, so concurrent callers are safe (a race costs at most a
recomputation).
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
from fractions import Fraction

import numpy as np

from . import perm as perm_mod
from .tpoly import (ONE, RatPoly, T, ZERO, AlgebraicT, check_admissible,
                    interval_enclosure, poly_remainder, t_binomial,
                    t_factorial, t_int, tuning_poly)
from .words import Word, color_pattern, is_proper, word_columns, word_tuples

#: Longest word accepted by the brute-force building-number oracle.
BRUTE_WORD_CAP = 7
#: Most words the batched oracle lays out at once; its arrays grow as q^n.
BRUTE_BATCH_WORDS = 5**7

_memo: dict[tuple[int, ...], RatPoly] = {}
_memo_alt: dict[tuple[int, ...], RatPoly] = {}


def clear_caches() -> None:
    _memo.clear()
    _memo_alt.clear()
    _perms_with_inversions.cache_clear()


def building_number(x: Word) -> RatPoly:
    """Exact building number of x, via the deletion recurrence.

    Zero polynomial iff x is non-proper; 1 for the empty word.
    """
    return _building_pattern(x.pattern())


def _building_pattern(pat: tuple[int, ...]) -> RatPoly:
    cached = _memo.get(pat)
    if cached is not None:
        return cached
    n = len(pat)
    if n == 0:
        result = ONE
    elif not is_proper(pat):
        result = ZERO
    else:
        coeffs = [0] * (n * (n - 1) // 2 + 1)
        for i in range(n):
            shorter = pat[:i] + pat[i + 1:]
            sub = _building_pattern(color_pattern(shorter))
            shift = n - 1 - i
            for d, c in enumerate(sub.coeffs):
                if d + shift >= len(coeffs):
                    coeffs.extend([0] * (d + shift + 1 - len(coeffs)))
                coeffs[d + shift] += c
        result = RatPoly(tuple(coeffs))
    _memo[pat] = result
    return result


def building_number_alt(x: Word) -> RatPoly:
    """Independent evaluation through the signed variant of the recurrence:

        B(x) = sum_i t^(n-i) B(x_i^) - [2]_t sum_{j>=2} 1[x_{j-1}=x_j] t^(n-j) B(x_j^)

    where y^ denotes deletion.  No properness test is consulted; the
    correction terms do the cancelling.  Kept separate from building_number
    as a cross-check.
    """
    return _building_alt(x.pattern())


def _building_alt(pat: tuple[int, ...]) -> RatPoly:
    cached = _memo_alt.get(pat)
    if cached is not None:
        return cached
    n = len(pat)
    if n == 0:
        result = ONE
    else:
        total = ZERO
        for i in range(n):
            sub = _building_alt(color_pattern(pat[:i] + pat[i + 1:]))
            total = total + T ** (n - 1 - i) * sub
        for j in range(1, n):
            if pat[j - 1] == pat[j]:
                sub = _building_alt(color_pattern(pat[:j] + pat[j + 1:]))
                total = total - t_int(2) * T ** (n - 1 - j) * sub
        result = total
    _memo_alt[pat] = result
    return result


def building_number_brute(x: Word) -> RatPoly:
    """Definition-level oracle: enumerate all permutations of the index
    interval, test the proper-building condition, and sum t^inversions."""
    n = len(x)
    if n > BRUTE_WORD_CAP:
        raise ValueError(f"word length {n} above brute-force cap {BRUTE_WORD_CAP}")
    coeffs = [0] * (n * (n - 1) // 2 + 1)
    for sigma, inversions in _perms_with_inversions(x.start, n):
        if perm_mod.is_proper_building(sigma, x):
            coeffs[inversions] += 1
    return RatPoly(tuple(coeffs))


def building_numbers_brute(q: int, n: int) -> list[RatPoly]:
    """The definition-level oracle on all q^n words of length n at once;
    entry r is B_t of the r-th tuple of word_tuples(q, n).

    The words are the columns of an int8 array.  Per permutation, one
    bisect walk over the positions in arrival order pairs each arriving
    position with its nearest arrived neighbours; the permutation builds
    exactly the words that differ on every such pair, and adds its
    t^inversions to each of them.
    """
    if n > BRUTE_WORD_CAP:
        raise ValueError(f"word length {n} above brute-force cap {BRUTE_WORD_CAP}")
    columns = word_columns(q, n, BRUTE_BATCH_WORDS)
    coeffs = np.zeros((n * (n - 1) // 2 + 1, q**n), dtype=np.int64)
    for sigma, inversions in _perms_with_inversions(1, n):
        arrived: list[int] = []
        pairs: list[int] = []
        for pos in sigma.inverse.image:  # positions in arrival order
            at = bisect.bisect_left(arrived, pos)
            for nb in arrived[max(at - 1, 0):at + 1]:
                pairs += (pos - 1, nb - 1)
            arrived.insert(at, pos)
        i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        coeffs[inversions] += (columns[i] != columns[j]).all(axis=0)
    # few distinct values, many words: build each polynomial once
    rows, index = np.unique(coeffs.T, axis=0, return_inverse=True)
    polys = [RatPoly(tuple(row)) for row in rows.tolist()]
    return [polys[r] for r in index.reshape(-1).tolist()]


@functools.lru_cache(maxsize=None)
def _perms_with_inversions(start: int, n: int) -> tuple[tuple[perm_mod.Perm, int], ...]:
    """Every permutation of [start, start+n-1] with its inversion count;
    the callers bound n."""
    return tuple((sigma, sigma.inv_count())
                 for sigma in perm_mod.all_perms(start, n))


def normalizer(q: int, n: int) -> RatPoly:
    """Z(t, q, n) = prod_{j=1}^{n} (q [j]_t - [2]_t [j-1]_t), the product of
    consistency_factor(q, j) for j < n; equals the sum of building numbers
    over all q^n words of length n."""
    if q < 3:
        raise ValueError("normalizer needs q >= 3")
    if n < 0:
        raise ValueError("normalizer needs n >= 0")
    out = ONE
    for j in range(n):
        out = out * consistency_factor(q, j)
    return out


def consistency_factor(q: int, n: int) -> RatPoly:
    """The one-step extension factor: summing B over one appended character
    multiplies the building number by q [n+1]_t - [2]_t [n]_t."""
    return q * t_int(n + 1) - t_int(2) * t_int(n)


@dataclasses.dataclass(frozen=True)
class CylinderProb:
    """Exact cylinder probability as a ratio of polynomials in t.

    numerator / denominator evaluated at the tuned parameter (when `at` is
    set) or at any explicit rational t.
    """

    numerator: RatPoly
    denominator: RatPoly
    at: AlgebraicT | None = None

    def __post_init__(self):
        if self.denominator.is_zero():
            raise ValueError("zero denominator")
        if self.at is not None:
            dlo, dhi = interval_enclosure(self.denominator, self.at.lo, self.at.hi)
            if dlo <= 0 <= dhi:
                raise ValueError("denominator not certified nonzero on the interval")

    def value_at(self, t: Fraction) -> Fraction:
        return self.numerator.evaluate(t) / self.denominator.evaluate(t)

    def midpoint_value(self) -> Fraction:
        if self.at is None:
            raise ValueError("no tuned parameter attached")
        return self.value_at(self.at.midpoint)

    def to_float(self) -> float:
        return float(self.midpoint_value())

    def equals_fraction(self, value: Fraction) -> bool:
        """Decide exactly whether numerator/denominator == value at the
        tuned parameter: numerator * value.den - denominator * value.num
        must vanish there (see defect_vanishes)."""
        if self.at is None:
            raise ValueError("no tuned parameter attached")
        value = Fraction(value)
        diff = self.numerator * value.denominator - self.denominator * value.numerator
        return defect_vanishes(diff, self.at)


def cylinder_prob(x: Word, tq: AlgebraicT | Fraction) -> CylinderProb:
    """P(window pattern = x) = B_t(x) / Z(t, q, n) for the stationary coloring."""
    if isinstance(tq, AlgebraicT):
        if x.alphabet != tq.q:
            raise ValueError(f"alphabet {x.alphabet} does not match q={tq.q}")
        return CylinderProb(building_number(x), normalizer(tq.q, len(x)), tq)
    Fraction(tq)  # reject non-rational input early
    return CylinderProb(building_number(x), normalizer(x.alphabet, len(x)), None)


def cylinder_masses(q: int, length: int, tq: AlgebraicT | Fraction) -> dict[tuple[int, ...], Fraction]:
    """Exact mass of every proper word of the given length, keyed by chars.

    Masses sum to 1 at any parameter value, tuned or not.
    """
    t = tq.midpoint if isinstance(tq, AlgebraicT) else Fraction(tq)
    z = normalizer(q, length).evaluate(t)
    out: dict[tuple[int, ...], Fraction] = {}
    for chars in word_tuples(q, length):
        if is_proper(chars):
            out[chars] = building_number(Word(1, chars, q)).evaluate(t) / z
    return out


def star_sum(x: Word, y: Word, q: int, k: int) -> RatPoly:
    """Sum of building numbers of x a y over all q^k middle words a."""
    total = ZERO
    for mid in word_tuples(q, k):
        joined = Word(1, x.chars + mid + y.chars, q)
        total = total + building_number(joined)
    return total


def k_dependence_defect(x: Word, y: Word, q: int, k: int) -> RatPoly:
    """Polynomial whose vanishing at the tuned parameter expresses
    k-dependence of the coloring:

        E(t) = [k+1]_t^k * B_t(x *^k y)
             - [k]!_t * q^k * binom(m+n+2k, m+k)_t * B_t(x) * B_t(y),

    with m = |x| and n = |y|.  Callers decide its vanishing with
    defect_vanishes.
    """
    m, n = len(x), len(y)
    lhs = t_int(k + 1) ** k * star_sum(x, y, q, k)
    rhs = (t_factorial(k) * q**k * t_binomial(m + n + 2 * k, m + k)
           * building_number(x) * building_number(y))
    return lhs - rhs


def defect_vanishes(defect: RatPoly, tq: AlgebraicT) -> bool:
    """Decide exactly whether a polynomial vanishes at the tuned parameter.

    With p = tq.poly, g = gcd(p, defect mod p) has as its roots exactly the
    roots of p at which the defect vanishes, so the defect vanishes at the
    root t* isolated by [tq.lo, tq.hi] iff g changes sign on that interval.
    This needs every root of p to be simple and t* to be the only one in
    the interval, which the code does not show: the coefficients of
    p = q t [k]_t - [2]_t [k+1]_t are -1, q-2, ..., q-2, -1, with two sign
    changes, so p has at most two positive roots (Descartes' rule, which
    counts multiplicity); p(0) < 0 < p(1) and p -> -infinity place one in
    (0, 1) and one in (1, infinity), both simple.
    """
    g = tq.poly.gcd(poly_remainder(defect, tq.poly))
    return g.sign_at(tq.lo) * g.sign_at(tq.hi) < 0


def z_closed_form_defect(q: int, k: int, n: int) -> RatPoly:
    """Defect of the tuned closed form of the normalizing constant:

        [k+1]_t^n * Z(t, q, n) - [n]!_t * q^n * binom(k+n, k)_t,

    which callers assert vanishes at the tuned parameter with
    defect_vanishes.
    """
    check_admissible(q, k)
    return (t_int(k + 1) ** n * normalizer(q, n)
            - t_factorial(n) * q**n * t_binomial(k + n, k))


def converse_scan(q: int, t: Fraction | AlgebraicT, k_max: int) -> list[int]:
    """Dependence orders k' <= k_max whose tuning factor

        q t^k' [k']_t - t^(k'-1) [2]_t [k'+1]_t

    vanishes at t, decided exactly: by evaluation at a rational t, by
    defect_vanishes at an isolated algebraic t.  At a tuned parameter the
    result is exactly {k}; at most one order can appear for any (q, t).
    """
    if isinstance(t, AlgebraicT):
        return [kk for kk in range(1, k_max + 1)
                if defect_vanishes(tuning_poly(q, kk), t)]
    t = Fraction(t)
    if not 0 < t < 1:
        raise ValueError("scan needs 0 < t < 1")
    # The t^(k'-1) prefactor never vanishes on (0, 1).
    return [kk for kk in range(1, k_max + 1)
            if tuning_poly(q, kk).sign_at(t) == 0]
