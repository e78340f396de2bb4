"""Classical counting problems, each read off its cycle index.

Card deals: m*n cards of n distinct types, m of each, dealt into n
unordered hands of m cards.  Writing a deal as the n x n matrix whose
(i, j) entry counts cards of type j in hand i (entries 0..m, all row and
column sums m), the deals are the orbits of S_n permuting rows, and the
cycle index of that action is the inner product construction
<h_n[X.h_m[Y]], h_m^n[Y]>_Y.  Deals are refused above m*n = 40, the
plethysm cap, in both forms.

Regular graphs: k-regular multigraphs with loops on n vertices (a loop
adds 2 to its vertex's valency).  The cycle index of S_n on labelled
graphs is <h_n[X.h_k[Y]], h_{nk/2}[h_2][Y]>_Y; odd n*k admits no graph,
and for k = 0 the only graph is empty: the count is 1, read without
expanding h_n over p(n) partitions, and the cycle index is h_n.  Each
index is refused at the plethysm cap 40 before it is built: above
n*k = 40, and for k = 0 above n = 40.

Each count is its cycle index at p_i = 1 (Burnside).  The scalar
formulas <h_n[h_m], h_m^n> and <h_n[h_k], h_{nk/2}[h_2]> give the same
numbers by another route; selftest holds the counts against them.
"""

from fractions import Fraction

from .errors import DegreeError, _number
from .partitions import Record, _check_integer
from .plethysm import _check_degree, fundamental, plethysm
from .symfunc import generator, specialize_ones


class DealSpec(Record):
    """m cards of each of n types, dealt into n hands of m."""
    __slots__ = ("m", "n")

    def _check(self):
        _check_integer("a deal spec", "m", self.m)
        _check_integer("a deal spec", "n", self.n)
        if self.m < 1 or self.n < 1:
            raise ValueError("deal specs need m >= 1 and n >= 1")


class RegularGraphSpec(Record):
    """k-regular multigraphs with loops on n vertices."""
    __slots__ = ("n", "k")

    def _check(self):
        _check_integer("a graph spec", "n", self.n)
        _check_integer("a graph spec", "k", self.k)
        if self.n < 1 or self.k < 0:
            raise ValueError("graph specs need n >= 1 and k >= 0")


def card_deals(spec):
    """Number of deals, exact."""
    return specialize_ones(deals_cycle_index(spec))


def deals_cycle_index(spec):
    """Cycle index (Frobenius character) of S_n permuting hands."""
    _check_degree(spec.m * spec.n)
    m, n = spec.m, spec.n
    return fundamental(generator("h", (m,)), generator("h", (m,) * n), n)


def regular_graphs(spec):
    """Number of k-regular multigraphs with loops on n unlabelled vertices."""
    if (spec.n * spec.k) % 2:
        return Fraction(0)
    if spec.k == 0:
        return Fraction(1)
    return specialize_ones(regular_graphs_cycle_index(spec))


def regular_graphs_cycle_index(spec):
    """Cycle index of S_n acting on labelled k-regular multigraphs.

    Odd n*k admits no such graph and no meaningful degree, so it is an
    error rather than a zero.
    """
    n, k = spec.n, spec.k
    if (n * k) % 2:
        raise DegreeError("no %s-regular graphs on %s vertices: n*k is odd"
                          % (_number(k), _number(n)))
    if k == 0:
        _check_degree(n)
        return generator("h", (n,))
    edges = plethysm(generator("h", (n * k // 2,)), generator("h", (2,)))
    return fundamental(generator("h", (k,)), edges, n)
