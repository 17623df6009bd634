"""Exact laws that tests compare the library against."""

from fractions import Fraction

from mallows_coloring import dist


def origin_entry_law(n: int, t: Fraction, u: Fraction) -> list[Fraction]:
    """Exact law of the Lehmer-code entry at 0 of a bubble-biased Mallows
    permutation of [-n, n], as a list over 0..n.

    The permutation is drawn through its insertion code: entry `off` (the
    offset of an arrival time from the left end) is u-end-weighted
    off-truncated t-geometric, independently.  Walking the arrival times
    backwards, the position arriving at `off` has `e` of the positions not
    yet removed to its right.  With r of those right of the origin (n at
    first), e < r removes one of them and e == r the origin itself; the r
    positions right of it arrive earlier, so its Lehmer entry is r.  Every
    position left of the origin is removed by an e > r, which leaves r as
    it is.
    """
    alive = [Fraction(0)] * n + [Fraction(1)]  # by r, origin not yet reached
    law = [Fraction(0)] * (n + 1)
    for off in range(2 * n, -1, -1):
        ws = dist.weights(dist.GeomSpec(dist.GeomVariant.END_WEIGHTED, t, u,
                                        trunc=off))
        total = sum(ws)
        nxt = [Fraction(0)] * (n + 1)
        below = Fraction(0)  # w_0 + ... + w_{r-1}
        # off + 1 positions remain, the origin among them, so r <= off
        for r in range(min(n, off) + 1):
            p = alive[r] / total
            law[r] += p * ws[r]
            if r:
                nxt[r - 1] += p * below
            nxt[r] += p * (total - below - ws[r])
            below += ws[r]
        alive = nxt
    return law
