"""Exact polynomial arithmetic over the rationals in the formal variable t.

This module supplies the algebraic backbone for everything else: polynomials
with arbitrary-precision rational coefficients, held as `int` where they are
integral (building numbers, normalizers, t-analogues, defects and tuning
polynomials all are) and as `Fraction` otherwise, the classical t-analogues

    [n]_t = 1 + t + ... + t^(n-1),    [n]!_t = prod_{m=1}^{n} [m]_t,
    binom(n, k)_t = [n]!_t / ([k]!_t [n-k]!_t),

and the tuning polynomial

    p(t) = q * t * [k]_t - [2]_t * [k+1]_t,

whose unique root in (0, 1) (which exists exactly when q*k > 2*(k+1)) is the
parameter value that makes the q-coloring built downstream exactly
k-dependent.  Roots are certified by sign-change bisection; no floating
point enters this module.  Where only the sign of p(x) is read, at x = a/b
with b > 0, it is taken from the integer

    sum_i D c_i a^i b^(d-i),

where d is the degree and D the common denominator of the coefficients:
the value times the positive number D b^d.  The bisection keeps its
bracket as integer numerators over one denominator, which doubles at each
halving, and builds its rational endpoints once, at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from fractions import Fraction


class NoSolutionError(ValueError):
    """Raised when the tuning equation has no root in (0, 1)."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _as_coefficient(x) -> int | Fraction:
    """x as an int when it is integral, else as a Fraction."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclasses.dataclass(frozen=True)
class RatPoly:
    """Polynomial in t with rational coefficients, stored dense by degree.

    Integral coefficients are held as `int`, the others as `Fraction`, so
    arithmetic on integer polynomials never builds a Fraction.  Canonical
    form: no trailing zero coefficient; the zero polynomial has an empty
    coefficient tuple.  Instances are immutable and safe to share.
    """

    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self):
        cs = tuple(map(_as_coefficient, self.coeffs))
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other) -> RatPoly:
        other = _coerce(other)
        return RatPoly(tuple(a + b for a, b in itertools.zip_longest(
            self.coeffs, other.coeffs, fillvalue=0)))

    __radd__ = __add__

    def __sub__(self, other) -> RatPoly:
        other = _coerce(other)
        return RatPoly(tuple(a - b for a, b in itertools.zip_longest(
            self.coeffs, other.coeffs, fillvalue=0)))

    def __neg__(self) -> RatPoly:
        return RatPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> RatPoly:
        if isinstance(other, (int, Fraction)):
            return RatPoly(tuple(c * other for c in self.coeffs))
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RatPoly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> RatPoly:
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, divisor: RatPoly) -> tuple[RatPoly, RatPoly]:
        divisor = _coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = divisor.degree
        lead = divisor.coeffs[-1]
        quot = [0] * max(len(rem) - dn, 0)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            # A unit lead (every tuning polynomial leads with -1) keeps
            # integer operands integral.
            f = c * lead if lead in (1, -1) else Fraction(c) / lead
            quot[i - dn] = f
            for j, d in enumerate(divisor.coeffs):
                rem[i - dn + j] -= f * d
        return RatPoly(tuple(quot)), RatPoly(tuple(rem[:dn] if dn > 0 else ()))

    def gcd(self, other: RatPoly) -> RatPoly:
        """Monic greatest common divisor by Euclid's algorithm; zero only
        when both operands are zero."""
        a, b = self, _coerce(other)
        while not b.is_zero():
            a, b = b, divmod(a, b)[1]
        return a * (Fraction(1) / a.coeffs[-1]) if a.coeffs else ZERO

    def evaluate(self, x: Fraction) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x) -> int:
        """Sign (-1, 0 or 1) of the value at a rational point, read from an
        integer sum without building a Fraction."""
        x = _as_fraction(x)
        return self._sign_at(x.numerator, x.denominator)

    def _sign_at(self, a: int, b: int) -> int:
        """Sign of the value at a/b, for integers a and b > 0."""
        cs = self.coeffs
        if any(type(c) is not int for c in cs):
            scale = math.lcm(*(c.denominator for c in cs))
            cs = [c.numerator * (scale // c.denominator) for c in cs]
        acc, bpow = 0, 1
        for c in reversed(cs):
            acc = acc * a + c * bpow
            bpow *= b
        return (acc > 0) - (acc < 0)


def _coerce(x) -> RatPoly:
    if isinstance(x, RatPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return RatPoly((x,))
    raise TypeError(f"cannot coerce {type(x).__name__} to RatPoly")


ZERO = RatPoly(())
ONE = RatPoly((1,))
T = RatPoly((0, 1))


def t_int(n: int) -> RatPoly:
    """The t-integer [n]_t = 1 + t + ... + t^(n-1); [0]_t is zero."""
    if n < 0:
        raise ValueError("t-integer needs n >= 0")
    return RatPoly((1,) * n)


@functools.lru_cache(maxsize=None)
def t_factorial(n: int) -> RatPoly:
    """The t-factorial [n]!_t; the empty product [0]!_t equals 1."""
    if n < 0:
        raise ValueError("t-factorial needs n >= 0")
    if n == 0:
        return ONE
    return t_factorial(n - 1) * t_int(n)


def t_binomial(n: int, k: int) -> RatPoly:
    """The t-binomial coefficient [n]!_t / ([k]!_t [n-k]!_t), an exact polynomial."""
    if k < 0 or k > n:
        raise ValueError(f"t-binomial needs 0 <= k <= n, got n={n} k={k}")
    quot, rem = divmod(t_factorial(n), t_factorial(k) * t_factorial(n - k))
    assert rem.is_zero(), "t-binomial division must be exact"
    return quot


def tuning_poly(q: int, k: int) -> RatPoly:
    """The tuning polynomial p(t) = q*t*[k]_t - [2]_t*[k+1]_t.

    Its value at t = 1 is q*k - 2*(k+1); a root in (0, 1) exists iff that
    quantity is positive.
    """
    if q < 1 or k < 1:
        raise ValueError("tuning polynomial needs q >= 1 and k >= 1")
    return q * T * t_int(k) - t_int(2) * t_int(k + 1)


def poly_remainder(a: RatPoly, p: RatPoly) -> RatPoly:
    """Remainder of a modulo p over the rationals; degree(result) < degree(p)."""
    if not isinstance(p, RatPoly) or p.is_zero():
        raise ZeroDivisionError("remainder modulo the zero polynomial")
    return divmod(a, p)[1]


def interval_enclosure(a: RatPoly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Exact enclosure of {a(t) : lo <= t <= hi} for 0 <= lo <= hi.

    Uses per-monomial interval arithmetic, so the result may overshoot the
    true range but always contains it.
    """
    if not 0 <= lo <= hi:
        raise ValueError("enclosure needs 0 <= lo <= hi")
    low = Fraction(0)
    high = Fraction(0)
    plo, phi = Fraction(1), Fraction(1)
    for i, c in enumerate(a.coeffs):
        if i > 0:
            plo *= lo
            phi *= hi
        if c >= 0:
            low += c * plo
            high += c * phi
        else:
            low += c * phi
            high += c * plo
    return low, high


@dataclasses.dataclass(frozen=True)
class AlgebraicT:
    """The tuned parameter t(q, k), represented exactly.

    Holds the tuning polynomial together with a rational interval (lo, hi)
    that isolates its unique root in (0, 1).  The polynomial changes sign
    across the interval and the width is at most `precision`.
    """

    q: int
    k: int
    poly: RatPoly
    lo: Fraction
    hi: Fraction
    precision: Fraction

    def __post_init__(self):
        if not (0 < self.lo < self.hi < 1):
            raise ValueError("isolating interval must lie strictly inside (0, 1)")
        if self.hi - self.lo > self.precision:
            raise ValueError("interval wider than the stated precision")
        if self.poly.sign_at(self.lo) * self.poly.sign_at(self.hi) != -1:
            raise ValueError("polynomial must change sign across the interval")

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def to_float(self) -> float:
        return float(self.midpoint)

    def refine(self, precision: Fraction) -> AlgebraicT:
        """Bisect further until the interval width is at most `precision`."""
        return _bisect(self.q, self.k, self.poly, self.lo, self.hi, precision)


def check_admissible(q: int, k: int) -> None:
    """Raise NoSolutionError unless q*k > 2*(k+1), the condition under which
    the tuning polynomial has a root in (0, 1)."""
    if q * k <= 2 * (k + 1):
        raise NoSolutionError(
            f"no parameter in (0,1) for q={q}, k={k}: requires qk>2(k+1)")


def solve_tuning(q: int, k: int, precision=Fraction(1, 10**30)) -> AlgebraicT:
    """Isolate the unique root of the tuning polynomial in (0, 1).

    Raises NoSolutionError unless q*k > 2*(k+1).  Bisection keeps exact
    rational endpoints, halving the bracket until its width is at most
    `precision`; the sign change is preserved at every step.  Roots are
    memoised per (q, k, precision), since AlgebraicT is frozen;
    solve_tuning.cache_clear empties the memo.
    """
    return _solve_tuning(q, k, precision)


# The memo sits on a private name so that a wrapper around the public one
# (a tracer, say) leaves it reachable for clearing.
@functools.lru_cache(maxsize=None)
def _solve_tuning(q: int, k: int, precision) -> AlgebraicT:
    check_admissible(q, k)
    p = tuning_poly(q, k)
    assert p.sign_at(0) < 0 < p.sign_at(1)
    return _bisect(q, k, p, Fraction(0), Fraction(1), precision)


solve_tuning.cache_clear = _solve_tuning.cache_clear


def _bisect(q: int, k: int, p: RatPoly, lo: Fraction, hi: Fraction,
            precision) -> AlgebraicT:
    """Halve [lo, hi], across which p changes sign, until it is at most
    `precision` wide and lies strictly inside (0, 1).

    After j halvings the bracket is [a/b, (a + w)/b] with b = den * 2^j and
    w = (hi - lo) * den, so every step is integer work: the midpoint is
    (2a + w)/(2b), and the width test cross-multiplies.  The endpoints are
    the same rationals a Fraction bisection reaches.
    """
    if isinstance(precision, str):
        precision = Fraction(precision)
    precision = _as_fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    w = hi.numerator * (den // hi.denominator) - a
    b = den
    pn, pd = precision.numerator, precision.denominator
    slo = p._sign_at(a, b)
    while w * pd > pn * b or a == 0 or a + w == b:
        a, b = 2 * a, 2 * b
        smid = p._sign_at(a + w, b)
        if smid == 0:
            # Impossible: the only rational candidates are +-1 (integer
            # coefficients, unit leading and constant terms).
            raise ArithmeticError("tuning root unexpectedly rational")
        if smid == slo:
            a += w
    return AlgebraicT(q, k, p, Fraction(a, b), Fraction(a + w, b), precision)
