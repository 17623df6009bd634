"""Truncated and weighted geometric distributions.

Five variants parameterized by (t, u, trunc), where trunc is the truncation
index i:

    TRUNCATED                P(j) = t^j / (1 + t + ... + t^i)
    ZERO_WEIGHTED            P(j) = u^[j=0] t^j / (u + t + ... + t^i)
    MAX_WEIGHTED             P(j) = u^[j=i] t^j / (1 + t + ... + u t^i)
    END_WEIGHTED             P(j) = u^[j in {0,i}] t^j / (u + t + ... + u t^i)
    ZERO_WEIGHTED_INFINITE   P(j) = u^[j=0] t^j / (u + t/(1-t)),  j >= 0

Mass functions and distribution functions are exact rationals; they back
the identity checks and the dominance certificate.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math
from fractions import Fraction


class GeomVariant(enum.Enum):
    TRUNCATED = "truncated"
    ZERO_WEIGHTED = "zero_weighted"
    MAX_WEIGHTED = "max_weighted"
    END_WEIGHTED = "end_weighted"
    ZERO_WEIGHTED_INFINITE = "zero_weighted_infinite"


_FINITE = (GeomVariant.TRUNCATED, GeomVariant.ZERO_WEIGHTED,
           GeomVariant.MAX_WEIGHTED, GeomVariant.END_WEIGHTED)


@dataclasses.dataclass(frozen=True)
class GeomSpec:
    """Parameter bundle for one geometric variant.

    t and u are Fractions, or floats read as the rationals they are; trunc
    is ignored by the infinite variant, which requires t < 1 to normalize.
    """

    variant: GeomVariant
    t: Fraction | float
    u: Fraction | float = 1
    trunc: int = 0

    def __post_init__(self):
        if not 0 <= self.t:
            raise ValueError("t must be nonnegative")
        if self.t >= 1 and self.variant is GeomVariant.ZERO_WEIGHTED_INFINITE:
            raise ValueError("infinite variant needs t < 1")
        if self.t > 1:
            raise ValueError("t must lie in [0, 1] for the finite variants, "
                             "in [0, 1) for the infinite one")
        if not self.u > 0:
            raise ValueError("u must be positive")
        if self.trunc < 0:
            raise ValueError("trunc must be nonnegative")

    def _weighted_at(self) -> tuple[int, ...]:
        """The indices whose mass carries the factor u."""
        if self.variant is GeomVariant.TRUNCATED:
            return ()
        if self.variant is GeomVariant.MAX_WEIGHTED:
            return (self.trunc,)
        if self.variant is GeomVariant.END_WEIGHTED:
            return (0, self.trunc)
        return (0,)

    def _weight(self, j: int) -> Fraction:
        return Fraction(self.u) if j in self._weighted_at() else Fraction(1)


def weights(spec: GeomSpec) -> list[Fraction]:
    """Unnormalized exact masses over the finite support."""
    if spec.variant not in _FINITE:
        raise ValueError("finite support required")
    t = Fraction(spec.t)
    out, power = [], Fraction(1)
    for j in range(spec.trunc + 1):
        out.append(spec._weight(j) * power)
        power *= t
    return out


def pmf(spec: GeomSpec, j: int) -> Fraction:
    """Exact probability mass at j."""
    if j < 0:
        raise ValueError("support is nonnegative")
    t = Fraction(spec.t)
    if spec.variant in _FINITE:
        if j > spec.trunc:
            raise ValueError(f"j={j} above truncation {spec.trunc}")
        ws = weights(spec)
        return ws[j] / sum(ws)
    denom = Fraction(spec.u) + t / (1 - t) if t else Fraction(spec.u)
    return spec._weight(j) * t**j / denom


def cdf(spec: GeomSpec, j: int) -> Fraction:
    """Exact P(X <= j)."""
    if j < 0:
        return Fraction(0)
    t = Fraction(spec.t)
    if spec.variant in _FINITE:
        j = min(j, spec.trunc)
        ws = weights(spec)
        return sum(ws[: j + 1], Fraction(0)) / sum(ws)
    u = Fraction(spec.u)
    denom = u + (t / (1 - t) if t else 0)
    # u + t + ... + t^j over the full mass
    partial = u + (t * (1 - t**j) / (1 - t) if t else 0)
    return partial / denom


@dataclasses.dataclass(frozen=True)
class DominanceReport:
    """Outcome of the truncated-geometric stochastic dominance check."""

    n0: float
    checked: dict[int, bool]
    holds_from: int | None

    @property
    def all_pass(self) -> bool:
        return all(self.checked.values())


def dominance_check(s: float, t: float, u: float, n_max: int) -> DominanceReport:
    """Verify that the n-truncated s-geometric stochastically dominates the
    u-end-weighted n-truncated t-geometric for every n from ceil(n0) to
    n_max, where n0 = log_{s/t}(u (1-t)/(1-s)).

    Comparisons are exact: float inputs are treated as the rationals they
    are.  Also reports the smallest n from which dominance holds through
    n_max.
    """
    if not 0 < t < s < 1:
        raise ValueError("needs 0 < t < s < 1")
    if u < 1:
        raise ValueError("needs u >= 1")
    n0 = math.log(u * (1 - t) / (1 - s)) / math.log(s / t)
    st, tt, ut = Fraction(s), Fraction(t), Fraction(u)
    # Integer weights scaled once for all n: s^j sd^n_max for the upper law
    # and t^j td^n_max ud for the lower one, whose two ends take un in place
    # of ud (the factor u).  A positive scale common to a law's weights
    # leaves its cdf alone.
    sn, sd, tn, td = st.numerator, st.denominator, tt.numerator, tt.denominator
    un, ud = ut.numerator, ut.denominator
    t_pows = [tn**j * td**(n_max - j) for j in range(n_max + 1)]
    up_cum = list(itertools.accumulate(
        sn**j * sd**(n_max - j) for j in range(n_max + 1)))
    low_cum = list(itertools.accumulate(
        [t_pows[0] * un] + [w * ud for w in t_pows[1:]]))

    def dominates(n: int) -> bool:
        """cdf(upper, r) <= cdf(lower, r) for every r < n (at r = n both
        are 1), compared as prefix sums cross-multiplied by the totals."""
        total_up = up_cum[n]
        total_low = low_cum[n - 1] + t_pows[n] * un
        return all(up_cum[r] * total_low <= low_cum[r] * total_up
                   for r in range(n))

    verdicts = {n: dominates(n) for n in range(1, n_max + 1)}
    checked = {n: verdicts[n] for n in range(max(1, math.ceil(n0)), n_max + 1)}
    holds_from = None
    for n in range(n_max, 0, -1):
        if not verdicts[n]:
            break
        holds_from = n
    return DominanceReport(n0=n0, checked=checked, holds_from=holds_from)
