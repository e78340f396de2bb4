"""Classical counting problems done with plethysm and inner products.

Card deals: the number of ways to deal m*n cards of n distinct types, m
of each, into n unordered hands of m cards is

    f(m, n) = <h_n[h_m], h_m^n>.

Writing a deal as the n x n matrix whose (i, j) entry counts cards of
type j in hand i (entries 0..m, all row and column sums m), f(m, n) is
the number of orbits of S_n permuting rows, and the full cycle index of
that row permutation action is the inner product construction
<h_n[X.h_m[Y]], h_m^n[Y]>_Y; setting every p_i = 1 recovers the count.

Regular graphs: the number of k-regular multigraphs with loops on n
unlabelled vertices (a loop adds 2 to its vertex's valency) is

    <h_n[h_k], h_{nk/2}[h_2]>,

zero when n*k is odd, and the cycle index of the action on labelled
graphs replaces h_n by the outer alphabet the same way.  For k = 0 the
only graph is empty and the cycle index is h_n itself.
"""

from fractions import Fraction

from .errors import DegreeError
from .partitions import Record
from .plethysm import fundamental, plethysm
from .symfunc import generator, scalar


class DealSpec(Record):
    """m cards of each of n types, dealt into n hands of m."""
    __slots__ = ("m", "n")

    def _check(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("deal specs need m >= 1 and n >= 1")


class RegularGraphSpec(Record):
    """k-regular multigraphs with loops on n vertices."""
    __slots__ = ("n", "k")

    def _check(self):
        if self.n < 1 or self.k < 0:
            raise ValueError("graph specs need n >= 1 and k >= 0")


def card_deals(spec):
    """Number of deals, exact."""
    hm = generator("h", (spec.m,))
    hn = generator("h", (spec.n,))
    return scalar(plethysm(hn, hm), hm ** spec.n)


def deals_cycle_index(spec):
    """Cycle index (Frobenius character) of S_n permuting hands."""
    hm = generator("h", (spec.m,))
    return fundamental(hm, hm ** spec.n, spec.n)


def regular_graphs(spec):
    """Number of k-regular multigraphs with loops on n unlabelled vertices."""
    n, k = spec.n, spec.k
    if (n * k) % 2:
        return Fraction(0)
    if k == 0:
        return Fraction(1)
    edges = plethysm(generator("h", (n * k // 2,)), generator("h", (2,)))
    return scalar(plethysm(generator("h", (n,)), generator("h", (k,))), edges)


def regular_graphs_cycle_index(spec):
    """Cycle index of S_n acting on labelled k-regular multigraphs.

    Odd n*k admits no such graph and no meaningful degree, so it is an
    error rather than a zero.
    """
    n, k = spec.n, spec.k
    if (n * k) % 2:
        raise DegreeError("no %d-regular graphs on %d vertices: n*k is odd" % (k, n))
    if k == 0:
        return generator("h", (n,))
    edges = plethysm(generator("h", (n * k // 2,)), generator("h", (2,)))
    return fundamental(generator("h", (k,)), edges, n)
