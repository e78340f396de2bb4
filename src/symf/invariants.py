"""Invariant characters of classical groups on tensor powers.

For a group G acting on a space V, the invariants of G in the r-th
tensor power carry an action of S_r by place permutation, and the
Frobenius characters I_r of those S_r representations are symmetric
functions of degree r.  Four families are built in:

  SLnDefining(n)    SL(n) on its defining representation:
                    I_r = s_{(m^n)} when r = m*n, else 0.
  Sp2nDefining(n)   Sp(2n) on its defining representation:
                    I_{2q} = sum of s_lam over lam |- 2q with every
                    column of even length and at most 2n rows; odd
                    degrees vanish.
  SnPermutation(n)  the symmetric group S_n permuting n points: I_r at
                    a class mu of S_r averages over g in S_min(n, r) the
                    product of the fixed point counts fix(g^c) over the
                    parts c of mu (Burnside), and the I_r sum to the
                    plethysm (1 + h_1 + ... + h_n)[h_1 + h_2 + ...].
  GLnAdjoint(n)     GL(n) acting by conjugation on n x n matrices:
                    I_r = sum over lam |- r with at most n rows of the
                    Kronecker square s_lam * s_lam (Schur-Weyl duality).
                    In the stable range n >= r every lam counts and I_r
                    is the sum of all p_mu; GL(1) gives h_r.

Anything else enters as Custom(series), a GradedSeries of precomputed
characters.

The degree-r invariant character of a group acting through a polynomial
functor P (composite representation P(V)) is obtained from the family
for V by the inner product construction:

    I_r(P(V)) = <h_r[X.charP[Y]], I_{r*k}(V)[Y]>_Y,   k = deg P.

hilbert_dim specializes that to the dimension of the space of degree-r
invariant polynomial functions on P(V)*, and hom_series_char does the
same construction against an arbitrary graded series of characters.

For SL(n) and Sp(2n), I_d(V) is a sum of Schur functions s_lam with at
most n (SL) or 2n (Sp) rows, so hilbert_dim and inv_char_polyfunc read
each pairing off a polynomial in L variables, L the longest such lam,
in the finite alphabet of alphabet.py: <f, s_lam> from Jacobi-Trudi's
terms, F listed from its own terms inside the box of bounds
B_i = max lam_i + L - 1 - i, and h_r[F] as an Euler product.  The other
route runs the pairings in the p basis, where I_d(V) expands through
the character rows chi^lam, refused above the plethysm cap unless
I_d(V) is zero.  Each query takes the route with the smaller estimate
of its work, made from (family, F, r) alone, before anything is built
or listed: Newton's r(r+1)/2 products in the box, each bounded by the
monomials of F(x_1, ..., x_L) times those of the other factor, against
the chi^lam rows of the shapes over p(d) classes and the same products
over p-basis classes.  Both estimates count Newton's products, which
the alphabet forms only where F(x_1, ..., x_L) is not integral or has
large coefficients, and the p basis never: hilbert_dim there sums the
pairings of the memoized p_lam[F], lam |- r, over z_lam, since
h_r[F] = sum of p_lam[F] / z_lam and <p_lam, h_r> = 1.  _shape_facts
describes the shapes from n and d alone: how many (none, so I_d(V) is
zero, unless n | d for SL and d is even for Sp), the bounds B_i, and a
lister, called only by what pairs with them (inv_char for the p basis's
I_d(V), or the alphabet's Jacobi-Trudi weights).  _ring is the one
decision for both queries: it reads that description once, finds
I_d(V) zero or compares the two estimates, and refuses the query above
the alphabet's cap or the plethysm cap, before any work.  _check_target,
which symf inv calls before it builds, reads the same description, or
_ring and the answer's dimension, to refuse its output cap.  _route
returns the ring, F in it, and the pairing with I_d(V): Jacobi-Trudi's
weights, or the _Pairing that fundamental builds through
plethysm._p_pairing.  I_d(V)'s side is built once per (family, d) in a
process and kept in memos, as are the estimates: the alphabet, whose
weights and listed h_k are built on first use, and the p-basis pairing
of a built-in family.  At r = 0, h_0[F] = 1 and F is not read.  For the
permutation family, <f, I_d(V)> averages f at p_j = fix(g^j) over g in
S_min(n, d) (Molien): _ring and inv_char pair by that average in
_Classes.  Each query builds p_lam[F] by the same code in plethysm.py in
every ring, and h_r[F] by Newton's recurrence in _Classes; the tests
hold every route against fundamental(F, inv_char(family, r*k), r, mode),
and hilbert_dim against h_r[F], by Newton's recurrence or the Euler
product, paired with I_rk(V) on every route.
"""

import warnings
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, gcd, perm, prod
from operator import le

from .alphabet import _Alphabet
from .characters import CHAR_TABLE_CAP
from .errors import DegreeError, ResourceLimitError, _number
from .partitions import (Partition, Record, _check_integer, _memo,
                         partition_count, partitions_of)
from .plethysm import (_PBasis, _Pairing, _check_degree, _h_of, _p_values,
                       _pairings, _p_powers, _pleth_p)
from .symfunc import (SymFn, _PLETHYSM_DEGREE_CAP, _add_into,
                      _check_multiplicity, _over_z, _p_dict, _p_symfn,
                      _schur_p, _target_cap, scalar, to_basis, zero)


class _Family(Record):
    # a built-in family of groups G(n), named as its refusal names it
    __slots__ = ("n",)

    def _check(self):
        _check_integer(self._name, "n", self.n)
        if self.n < 1:
            raise ValueError("%s needs n >= 1" % self._name)


class SLnDefining(_Family):
    _name = "SL(n)"


class Sp2nDefining(_Family):
    _name = "Sp(2n)"


class SnPermutation(_Family):
    _name = "the permutation family"


class GLnAdjoint(_Family):
    _name = "GL(n)"


class Custom(Record):
    __slots__ = ("series",)


def inv_char(family, r):
    """Frobenius character of the invariants in the r-th tensor power.

    Always homogeneous of degree r; the zero function when there are no
    invariants in that degree.  An answer of more terms than p(40), a
    plethysm at the degree cap, is refused before it is built: for
    SL(n) and Sp(2n) from the count of its shapes, and for the
    permutation family and GL(n), nonzero at all p(r) classes of S_r,
    from r alone.
    """
    _check_integer("inv_char", "r", r)
    if r < 0:
        raise ValueError("r must be nonnegative")
    facts = _shape_facts(family, r)
    if facts is not None:
        _check_terms(facts[0])
        return SymFn("s", dict.fromkeys(facts[2](), 1))
    if isinstance(family, (SnPermutation, GLnAdjoint)):
        _check_multiplicity(r)  # before any partition is listed
        _check_terms(partition_count(r))
    if isinstance(family, SnPermutation):
        ring = _Classes(min(family.n, r))
        return _pairings(ring.x, r, ring.pair, ring)
    if isinstance(family, GLnAdjoint):
        # the Kronecker squares s_lam * s_lam, summed as the pointwise
        # squares of the chi^lam rows
        total = {}
        for lam in partitions_of(r):
            if lam.length <= family.n:
                _add_into(total, {mu: v * v for mu, v in
                                  _schur_p(lam).items()})
        return _p_symfn(total)
    if isinstance(family, Custom):
        return family.series.component(r)
    raise TypeError("unknown invariant family %r" % (family,))


def _check_terms(count):
    # an answer of count terms, at most, is refused before it is built
    # above the p(40) = 37,338 terms of a plethysm at the degree cap
    cap = partition_count(_PLETHYSM_DEGREE_CAP)
    if count > cap:
        raise ResourceLimitError("the answer has up to %s terms, beyond "
                                 "the cap %d" % (_number(count), cap))


class PolyFunctor:
    """A polynomial functor presented by its character.

    The character is a homogeneous symmetric function of degree >= 1;
    for a genuine functor it is a nonnegative integral combination of
    Schur functions (h_k for symmetric powers, e_k for exterior powers,
    s_lam for Schur functors, and char_of_functor output in general).
    Virtual characters are admitted with a warning, since the engine's
    formulas stay exact on them even though they no longer describe a
    representation.
    """

    def __init__(self, character):
        if not isinstance(character, SymFn):
            raise TypeError("PolyFunctor needs a SymFn character")
        if character.is_zero() or not character.is_homogeneous():
            raise DegreeError("functor character must be nonzero homogeneous")
        if character.degree() < 1:
            raise DegreeError("functor character must have degree >= 1")
        self.character = character
        if not _genuine(character) and character.degree() <= CHAR_TABLE_CAP:
            expanded = to_basis(character, "s")
            bad = any(c < 0 or c.denominator != 1 for c in expanded.terms.values())
            if bad:
                warnings.warn("functor character is not Schur positive "
                              "integral; treating it as virtual")

    @property
    def degree(self):
        return self.character.degree()

    def __repr__(self):
        return "PolyFunctor(%r)" % (self.character,)


def _genuine(F):
    # positive integral combinations of h, e or s are Schur positive and
    # integral already (Kostka numbers, Littlewood-Richardson)
    return F.basis in ("h", "e", "s") and all(
        c > 0 and c.denominator == 1 for c in F.terms.values())


def _at_one(F):
    # F(1) = <F, h_k>, for F in the h, e or s basis: h_mu(1) = 1, while
    # e_mu(1) and s_lam(1) are 1 only for mu = (1^k) and one row lam
    return sum(c for mu, c in F.terms.items()
               if F.basis == "h" or (mu[0] == 1 if F.basis == "e"
                                     else len(mu) == 1))


def _functor_character(P):
    if isinstance(P, PolyFunctor):
        return P.character
    if isinstance(P, SymFn):
        return PolyFunctor(P).character
    raise TypeError("expected a PolyFunctor or a SymFn character")


class _Classes:
    """Class functions of S_n keyed by cycle type, multiplied pointwise:
    f is read at the eigenvalues of g, so x = p_1 is fix(g), p_j[f] at g
    is f at g^j, and the pairing with I_d(V) averages over S_n."""

    unpack = staticmethod(lambda f: f)
    pair = staticmethod(_over_z)

    def __init__(self, n):
        self.one = dict.fromkeys(partitions_of(n), 1)
        self.x = {rho: rho.count(1) for rho in self.one}

    def mul(self, a, b, out=None):
        """a * b pointwise, added into out when it is given."""
        out = {} if out is None else out
        for rho, v in a.items():
            out[rho] = out.get(rho, 0) + v * b.get(rho, 0)
        return out

    def substitute(self, f, j):
        """f at g^j: each a-cycle of g splits into gcd(a, j) cycles."""
        return {rho: f.get(tuple(sorted(
            [a // c for a in rho for c in (gcd(a, j),) for _ in range(c)],
            reverse=True)), 0) for rho in self.one}

    def evaluate(self, fp):
        """f at x for f given by its class function values."""
        return _pleth_p(fp, self.x, self)


# The routing estimates count steps of the finite alphabet's multiply.
# Measured on the invariants_grid queries, a step of the p-basis
# multiply (Fraction values on packed partitions) takes about two, and
# setting an alphabet up (F evaluated in it, the Jacobi-Trudi weights)
# about 150, which keeps the smallest degrees on the p basis.
_P_STEP = 2
_ALPHABET_SETUP = 150

# Cap on the finite route's estimate, refused before any product runs:
# the p route is refused above the plethysm cap, and this route would
# otherwise run whatever its estimate.  Every documented command
# estimates below 1.6e6; SL(2) on h_1 at r = 734, the last degree
# below the cap, takes about 0.1 s.
_ALPHABET_CAP = 10 ** 8


def _shape_facts(family, d):
    # I_d(V) of SL(n) or Sp(2n) from n and d alone, as (count, bounds,
    # shapes): how many Schur indices it has, each with coefficient 1,
    # the alphabet's bounds B_i, and a function that lists them in
    # reverse lexicographic order; (0, (), list) where there are none.
    # None for the other families, built from class values in the p
    # basis.  I_d(V) is zero unless n | d for SL(n) and d is even for
    # Sp(2n).  SL's one shape (m^n), m = d/n, has L = n rows (none at
    # d = 0), so B_i = m + n - 1 - i.  Sp's shapes, with even columns,
    # write twice each row of the mu |- q = d/2 with at most n rows, of
    # which row j is at most q // (j + 1): L = 2 min(n, q) and B_i =
    # q // (i // 2 + 1) + L - 1 - i, and they are as many as the
    # partitions of q with parts at most min(n, q), counted one part at a
    # time, in O(q min(n, q)) steps however large n is
    if not isinstance(family, (SLnDefining, Sp2nDefining)):
        return None
    n, sl = family.n, isinstance(family, SLnDefining)
    if d % (n if sl else 2):
        return 0, (), list
    if sl:
        L = n if d else 0
        return (1, tuple(d // n + L - 1 - i for i in range(L)),
                lambda: [Partition([d // n] * L)])
    q, L = d // 2, 2 * min(n, d // 2)
    counts = [1] + [0] * q
    for part in range(1, min(n, q) + 1):
        for m in range(part, q + 1):
            counts[m] += counts[m - part]

    def shapes():
        halves = sorted((nu.conjugate() for nu in
                         partitions_of(q, max_part=n)), reverse=True)
        return [Partition([a for a in mu for _ in (0, 1)]) for mu in halves]
    return (counts[q], tuple(q // (i // 2 + 1) + L - 1 - i for i in range(L)),
            shapes)


@_memo
def _finite_cost(bounds, m, k, r):
    # Newton's products p_j[f] * h_(n-j)[f] for f = F(x_1, ..., x_L)
    # with m monomials (none when F needs more than L variables):
    # p_j[f] has at most m, and h_i[f] at most those of degree i*k in
    # the box, or the multisets of i monomials of f.  The box's
    # monomials by degree are the coefficients of
    # prod (1 + t + ... + t^B_i), read here at t = 2^s with s bits of
    # room for any of them, s a whole number of bytes, so that the
    # coefficient of degree i*k is a slice of the box's bytes.
    s = -(-prod(b + 1 for b in bounds).bit_length() // 8) * 8
    t = 1 << s
    box = prod((t ** (b + 1) - 1) // (t - 1) for b in bounds)
    raw, w = box.to_bytes(-(-box.bit_length() // 8), "little"), s // 8
    return _ALPHABET_SETUP + m * sum(
        (r - i) * min(int.from_bytes(raw[w * i * k:w * (i * k + 1)], "little"),
                      comb(max(m, 1) + i - 1, i)) for i in range(r))


@_memo
def _monomial_count(basis, terms, k, length):
    # an upper bound on the monomials of F(x_1, ..., x_L) for F of degree
    # k with the tuple of these terms: h and p terms reach every monomial
    # of degree k, and s_lam, e_mu and m_mu only the x^alpha whose sorted
    # alpha is dominated by lam, mu' and mu (Macdonald I.6.5 and I.7);
    # only the nu of at most L parts are listed, as the conjugates of the
    # partitions of k with parts at most L
    if basis in "hp":
        return comb(k + length - 1, k)
    tops = [list(accumulate(mu.conjugate() if basis == "e" else mu))
            for mu in terms]
    count = 0
    for nu in map(Partition.conjugate, partitions_of(k, max_part=length)):
        if any(all(map(le, accumulate(nu), top)) for top in tops):
            # the orderings of nu padded with zeros to L exponents
            count += perm(length, len(nu)) // prod(
                map(factorial, nu.multiplicities().values()))
    return count


@_memo
def _p_basis_cost(shapes, k, r, floor):
    # the rows chi^lam of the shapes, then Newton's products
    # p_j[F] * h_(n-j)[F] over at most p(k) and p((n-j)k) classes, which
    # the route no longer forms (it pairs the p(r) products p_lam[F]),
    # priced as before so that every route stays as it was, and
    # the pairing over the p(rk) classes; or, where one is found, the
    # first lower bound above the floor, so that p(rk), far out of reach
    # above the plethysm cap, is counted only where the comparison needs
    # it: p is increasing, so the rows over p(m) classes, m <= rk, bound
    # the estimate from below
    d = r * k
    for m in range(d + 1):
        bound = _P_STEP * (shapes + 1) * partition_count(m)
        if bound > floor:
            return bound
    newton = partition_count(k) * sum((r - i) * partition_count(i * k)
                                      for i in range(r))
    return _P_STEP * ((shapes + 1) * partition_count(d) + newton)


@_memo
def _alphabet(family, d):
    # the finite route's side of I_d(V), kept once per (family, d): the
    # alphabet of _shape_facts' bounds, whose Jacobi-Trudi weights and
    # listed h_k are built on first use and kept with it
    _, bounds, shapes = _shape_facts(family, d)
    return _Alphabet(shapes, bounds)


@_memo
def _inv_pairing(family, d):
    # the p basis's pairing with I_d(V), kept once per (family, d) of a
    # built-in family; Custom's series is read on every query
    return _Pairing(_p_dict(inv_char(family, d)))


def _ring(family, F, r):
    """The ring in which <h_r[F], I_{rk}(V)> is read, k = deg F, or None
    where I_{rk}(V) is zero, which is never refused.  One decision, from
    (family, F, r) alone, in this order:

    - the zero test: _shape_facts' count 0 for SL and Sp, the stored
      component for Custom; perm and GL(n) never vanish, since the
      dimension of perm's I_d is a restricted Bell number and GL(n)'s
      I_d holds h_d;
    - for SL and Sp, the finite alphabet's estimate, read from F's terms
      and _shape_facts' bounds, against the p basis's, counted only
      until it passes the finite one, so that p(rk) is counted only
      where the comparison needs it.  The alphabet is taken where it is
      no dearer, and refused there above _ALPHABET_CAP;
    - otherwise the plethysm cap, then _Classes for the permutation
      family and the p basis for the others.

    The alphabet is set up from the bounds and keeps _shape_facts'
    lister, called when its pairing is first read: no shape is listed
    here.  The estimates and the alphabet are kept, once per argument
    tuple, in memos."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    k = F.degree()
    d = r * k
    if (facts := _shape_facts(family, d)) is not None:
        count, bounds, shapes = facts
        if not count:
            return None
        # F's monomials count only in products, of which r = 0 has none
        m = r and _monomial_count(F.basis, tuple(F.terms), k, len(bounds))
        cost = _finite_cost(bounds, m, k, r)
        if cost <= _p_basis_cost(count, k, r, cost):
            if cost > _ALPHABET_CAP:
                raise ResourceLimitError(
                    "the finite-alphabet route is estimated at %s steps, "
                    "beyond the cap %d" % (_number(cost), _ALPHABET_CAP))
            return _alphabet(family, d)
    elif (not isinstance(family, (SnPermutation, GLnAdjoint))
          and inv_char(family, d).is_zero()):
        return None
    _check_degree(d)
    if isinstance(family, SnPermutation):
        return _Classes(min(family.n, d))
    return _PBasis()


def _route(family, P, r):
    """(ring, F in it, f -> <f, I_{rk}(V)>) for F = charP in the ring
    that _ring picks; None where I_{rk}(V) is zero.  F enters the finite
    alphabet from its own terms, and the others through its class
    function values; at r = 0, where h_0[F] = p_()[F] = 1, it is not
    read, and every ring uses its one."""
    F = _functor_character(P)
    ring = _ring(family, F, r)
    if ring is None:
        return None
    if not isinstance(ring, _PBasis):
        pair = ring.pair
    elif isinstance(family, Custom):
        pair = _Pairing(_p_dict(inv_char(family, r * F.degree())))
    else:
        pair = _inv_pairing(family, r * F.degree())
    if not r:
        return ring, ring.one, pair
    if isinstance(ring, _PBasis):
        return ring, _p_values(F, r), pair
    if isinstance(ring, _Alphabet):
        return ring, ring.polynomial(F), pair
    return ring, ring.evaluate(_p_dict(F)), pair


def _check_target(family, P, r, basis):
    """Refuse, before it is built, an answer of symf inv that the cap of
    the output basis would refuse: I_r(V) where P is None, else
    I_r(P(V)).  I_r(V) is built in the s basis for SL(n) and Sp(2n), and
    is zero where _shape_facts' count is; in the p basis for perm and
    GL(n), and is never zero.  I_r(P(V)) is built in the p basis.  For
    F = c h_1 its p_1^r coefficient is c^r dim I_r(V) / r!, so it is
    zero exactly where _ring finds no ring; _ring is called in every
    basis, so that its caps speak first.  A functor of higher degree may
    give zero: it is refused where the answer's dimension is nonzero,
    and built otherwise.  For GL(n), whose I_rk holds h_rk, a Schur
    positive F has dimension at least <F^r, h_rk> = F(1)^r, so it is
    refused from its terms where F(1) > 0."""
    built, vanishes = "p", False
    if P is not None:
        F = _functor_character(P)
        vanishes = F.degree() == 1 and _ring(family, F, r) is None
    elif (facts := _shape_facts(family, r)) is not None:
        built, vanishes = "s", not facts[0]
    if not vanishes and basis != built:
        try:
            _target_cap(basis, [r])
        except ResourceLimitError:
            if (P is None or F.degree() == 1
                    or (isinstance(family, GLnAdjoint) and _genuine(F)
                        and _at_one(F))
                    or _dimension(family, P, r)):
                raise


def _dimension(family, P, r):
    # <F^r, I_rk(V)>, the value of I_r(P(V)) at the identity, so a
    # nonzero one proves the answer nonzero, for any F, virtual or not:
    # p_(1^r)[F], one of the products the build forms, in the ring
    # _route picks, paired with I_rk(V); 0 where I_rk(V) is zero
    if (route := _route(family, P, r)) is None:
        return 0
    ring, f, pair = route
    return pair(next(_p_powers(f, [(1,) * r], ring))[1])


def inv_char_polyfunc(family, P, r):
    """Invariant character I_r(P(V)) via the inner product construction.

    A nonzero answer above degree 40, which may have more terms than
    p(40), a plethysm at the degree cap, is refused after the ring's own
    refusals and before it is built.
    """
    _check_integer("inv_char_polyfunc", "r", r)
    route = _route(family, P, r)
    if route is None:
        return zero()
    _check_terms(partition_count(r))
    ring, f, pair = route
    return _pairings(f, r, pair, ring)


def hilbert_dim(family, P, r):
    """Dimension of the degree-r invariant polynomials on P(V).

    This is <h_r[charP], I_{r*k}(V)>, the trivial-isotypic part of
    I_r(P(V)); returned as an exact rational, integral for genuine
    inputs.
    """
    _check_integer("hilbert_dim", "r", r)
    route = _route(family, P, r)
    if route is None:
        return Fraction(0)
    ring, f, pair = route
    if isinstance(ring, _Alphabet):
        return Fraction(pair(ring.h_of(f, r)))
    if isinstance(ring, _PBasis):
        # h_r[F] = sum over lam of p_lam[F] / z_lam, and <p_lam, h_r> = 1:
        # the coefficients of I_r(P(V)), from the memoized products
        return sum(_pairings(f, r, pair).terms.values(), Fraction(0))
    return Fraction(pair(_h_of(f, r, ring)))


def hom_series_char(J, P, r):
    """Degree-r character of a graded series pulled through a functor.

    J is a GradedSeries of Frobenius characters (J_d for the d-th tensor
    power); the result is the series member for P composed in, degree r:
    <h_r[X.charP[Y]], J_{r*k}[Y]>_Y.  Raises TruncationError when J is
    not known up to degree r*k.
    """
    return inv_char_polyfunc(Custom(J), P, r)


def hom_dim(functor_char, J):
    """Multiplicity <charP, J_d> for homogeneous charP of degree d.

    Counts the maps from the functor into the series member of matching
    degree, e.g. the multiplicity of a Schur functor when functor_char
    is s_lam.
    """
    F = _functor_character(functor_char)
    return scalar(F, J.component(F.degree()))
