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
  SnPermutation(n)  the symmetric group S_n on its n-point permutation
                    representation: the generating series of the I_r is
                    the plethysm (1 + h_1 + ... + h_n)[h_1 + h_2 + ...].
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
each pairing off a polynomial in L variables, L the longest such lam.
Jacobi-Trudi (Macdonald, Symmetric Functions and Hall Polynomials,
I.3.4) writes s_lam as the sum of sign(sigma) h_alpha,
alpha_i = lam_i - i + sigma(i) over lam padded to L rows, and h and m
are dual, so <f, s_lam> sums sign(sigma) [x^alpha] f(x_1, ..., x_L),
and plethysm becomes substitution, p_j[F](x) = F(x_1^j, ..., x_L^j).
Polynomials are truncated at B_i = max lam_i + L - 1 - i in variable i
(i from 0), the largest alpha_i of any term, and this route is taken
only when the box of prod(B_i + 1) monomials is no larger than the p(d)
terms of a degree-d function in the p basis.  Otherwise the pairings
run in the p basis, where I_d(V) expands through the character rows
chi^lam, refused above the plethysm cap unless I_d(V) is zero.  Both
routes build h_r[F] by Newton's recurrence and pair p_lam[F] by the
same code in plethysm.py, each in its own ring; the tests hold both
against fundamental(F, inv_char(family, r*k), r, mode) in either mode.
"""

import warnings
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import prod
from operator import add, le

from .characters import CHAR_TABLE_CAP
from .errors import DegreeError
from .partitions import Partition, Record, partition_count, partitions_of
from .plethysm import (_check_degree, _h_of, _pairings, _pleth_p, fundamental,
                       h_plus_series, h_sum_series, plethysm_series)
from .symfunc import (SymFn, _add_into, _p_dict, _p_symfn, _scalar_p,
                      _schur_p, scalar, to_basis)


class SLnDefining(Record):
    __slots__ = ("n",)

    def _check(self):
        if self.n < 1:
            raise ValueError("SL(n) needs n >= 1")


class Sp2nDefining(Record):
    __slots__ = ("n",)

    def _check(self):
        if self.n < 1:
            raise ValueError("Sp(2n) needs n >= 1")


class SnPermutation(Record):
    __slots__ = ("n",)

    def _check(self):
        if self.n < 1:
            raise ValueError("the permutation family needs n >= 1")


class GLnAdjoint(Record):
    __slots__ = ("n",)

    def _check(self):
        if self.n < 1:
            raise ValueError("GL(n) needs n >= 1")


class Custom(Record):
    __slots__ = ("series",)


def inv_char(family, r):
    """Frobenius character of the invariants in the r-th tensor power.

    Always homogeneous of degree r; the zero function when there are no
    invariants in that degree.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if isinstance(family, (SLnDefining, Sp2nDefining)):
        return SymFn("s", dict.fromkeys(_target_shapes(family, r), 1))
    if isinstance(family, SnPermutation):
        return _sn_component(family.n, r)
    if isinstance(family, GLnAdjoint):
        # the Kronecker squares s_lam * s_lam, summed as the pointwise
        # squares of the chi^lam rows
        total = {}
        for lam in partitions_of(r):
            if lam.length <= family.n:
                _add_into(total, {mu: v * v for mu, v in
                                  _schur_p(tuple(lam)).items()})
        return _p_symfn(total)
    if isinstance(family, Custom):
        return family.series.component(r)
    raise TypeError("unknown invariant family %r" % (family,))


def _target_shapes(family, d):
    # The Schur indices of I_d(V) for SL(n) or Sp(2n), each with
    # coefficient 1, in reverse lexicographic order; empty when there
    # are no invariants in degree d.
    if isinstance(family, SLnDefining):
        if d % family.n:
            return []
        return [Partition([d // family.n] * family.n if d else [])]
    if d % 2:
        return []
    # even columns and at most 2n rows: the rows of a partition of d/2
    # with at most n rows, each written twice
    halves = sorted((nu.conjugate()
                     for nu in partitions_of(d // 2, max_part=family.n)),
                    reverse=True)
    return [Partition([a for a in mu for _ in (0, 1)]) for mu in halves]


_SN_SERIES = {}


def _sn_component(n, r):
    # Degree-r piece of (1 + h_1 + ... + h_n)[h_1 + h_2 + ...], with the
    # series memoized per n and regrown when a higher degree is asked.
    cached = _SN_SERIES.get(n)
    if cached is None or cached.truncation_degree < r:
        cached = plethysm_series(h_sum_series(r, highest=n), h_plus_series(r), r)
        _SN_SERIES[n] = cached
    return cached.component(r)


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
        # positive integral combinations of h, e or s are Schur positive
        # and integral already (Kostka numbers, Littlewood-Richardson)
        genuine = character.basis in ("h", "e", "s") and all(
            c > 0 and c.denominator == 1 for c in character.terms.values())
        if not genuine and character.degree() <= CHAR_TABLE_CAP:
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


def _functor_character(P):
    if isinstance(P, PolyFunctor):
        return P.character
    if isinstance(P, SymFn):
        return PolyFunctor(P).character
    raise TypeError("expected a PolyFunctor or a SymFn character")


def _jacobi_trudi(lam):
    # s_lam = det(h_{lam_i - i + j}) = sum over sigma of sign(sigma) h_alpha,
    # alpha_i = lam_i - i + sigma(i): yields (sign, alpha) in permutation
    # order, skipping the sigma with a negative alpha_i (h_{-k} = 0).
    n = len(lam)
    for sigma in permutations(range(n)):
        alpha = tuple(lam[i] - i + sigma[i] for i in range(n))
        if min(alpha, default=0) >= 0:
            inversions = sum(a > b for i, a in enumerate(sigma)
                             for b in sigma[i + 1:])
            yield -1 if inversions % 2 else 1, alpha


class _Alphabet:
    """The ring of polynomials in L variables, L the length of the
    longest shape, in which pairings with the sum of s_lam are read.

    Polynomials are dicts from exponent tuples to int, or to Fraction
    when the functor's own polynomial needs it, truncated above
    B_i = max lam_i + L - 1 - i in variable i (i from 0), the largest
    Jacobi-Trudi exponent alpha_i the pairing reads.  Dropping the
    monomials above it is a quotient by a monomial ideal, so it commutes
    with products, with x -> x^j and with exact division.
    """

    unpack = staticmethod(lambda f: f)  # keys are exponent tuples already

    def __init__(self, shapes):
        length = max(len(lam) for lam in shapes)
        self.rows = [tuple(lam) + (0,) * (length - len(lam)) for lam in shapes]
        self.bounds = tuple(max(col) + length - 1 - i
                            for i, col in enumerate(zip(*self.rows)))
        self.one = {(0,) * length: 1}
        self.x = {(0,) * i + (1,) + (0,) * (length - 1 - i): 1
                  for i in range(length)}  # x_1 + ... + x_L, all kept

    @cached_property
    def weights(self):
        # <f, h_alpha> = [x^alpha] f, so Jacobi-Trudi gives <f, s_lam> as
        # the sum of sign [x^alpha] f over its terms.  Built on first use:
        # the routing rule reads only the bounds.
        weights = {}
        for lam in self.rows:
            for sign, alpha in _jacobi_trudi(lam):
                weights[alpha] = weights.get(alpha, 0) + sign
        return weights

    def mul(self, a, b, out=None):
        """a * b truncated, added into out when it is given."""
        out = {} if out is None else out
        bounds = self.bounds
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                if all(map(le, e, bounds)):
                    out[e] = out.get(e, 0) + ca * cb
        return out

    def substitute(self, f, j):
        """f(x_1^j, ..., x_L^j), truncated."""
        out = {}
        for e, c in f.items():
            e = tuple(j * a for a in e)
            if all(map(le, e, self.bounds)):
                out[e] = c
        return out

    def evaluate(self, fp):
        """f(x_1, ..., x_L) for f given by its class function values."""
        return _pleth_p(fp, self.x, self)

    def pair(self, f):
        """<f, sum of s_lam> for f homogeneous of the shapes' weight."""
        return sum(w * f.get(e, 0) for e, w in self.weights.items())


def _alphabet_for(family, d):
    """The finite alphabet for pairings with I_d(V), or None where the
    p-basis route stays: other families, degrees without invariants, and
    truncated polynomials with more monomials than the p(d) terms of a
    degree-d function in the p basis."""
    if not isinstance(family, (SLnDefining, Sp2nDefining)) or d < 0:
        return None
    shapes = _target_shapes(family, d)
    if not shapes:
        return None
    alphabet = _Alphabet(shapes)
    if prod(b + 1 for b in alphabet.bounds) > partition_count(d):
        return None
    return alphabet


def _p_route_invariants(family, d):
    # I_d(V), refused above the plethysm cap unless it is zero; perm and
    # GL(n) never vanish (a restricted Bell number; the GL sum holds
    # lam = (d), whose Kronecker square is h_d), so before it is built
    if isinstance(family, (SnPermutation, GLnAdjoint)):
        _check_degree(d)
    G = inv_char(family, d)
    if not G.is_zero():
        _check_degree(d)
    return G


def inv_char_polyfunc(family, P, r):
    """Invariant character I_r(P(V)) via the inner product construction."""
    F = _functor_character(P)
    alphabet = _alphabet_for(family, r * F.degree())
    if alphabet is not None:
        f = alphabet.evaluate(_p_dict(F))
        return _pairings(f, r, alphabet.pair, alphabet)
    return fundamental(F, _p_route_invariants(family, r * F.degree()), r)


def hilbert_dim(family, P, r):
    """Dimension of the degree-r invariant polynomials on P(V).

    This is <h_r[charP], I_{r*k}(V)>, the trivial-isotypic part of
    I_r(P(V)); returned as an exact rational, integral for genuine
    inputs.
    """
    F = _functor_character(P)
    alphabet = _alphabet_for(family, r * F.degree())
    if alphabet is not None:
        f = alphabet.evaluate(_p_dict(F))
        return Fraction(alphabet.pair(_h_of(f, r, alphabet)))
    G = _p_route_invariants(family, r * F.degree())
    if G.is_zero():
        return Fraction(0)
    return _scalar_p(_h_of(_p_dict(F), r), _p_dict(G))


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
