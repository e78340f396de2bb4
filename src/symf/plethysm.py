"""Plethysm, graded series, and the inner product construction
<H[X.F[Y]], G[Y]>_Y that everything downstream is built on.

Plethysm is computed entirely in the power sum basis.  The rules are:
p_n[g] substitutes p_k -> p_{nk} inside g and fixes constants, plethysm
is multiplicative (p_{mu union nu}[g] = p_mu[g] p_nu[g]) and linear in
the left argument.  That pins f[g] down for every f, and makes degrees
multiply on homogeneous inputs.

The inner product construction takes a homogeneous F of degree k >= 1
and a homogeneous G of degree r*k, and produces a symmetric function of
degree r in the outer alphabet.  It has two expansions,

    sum over lam |- r of  <p_lam[F], G> / z_lam * p_lam        (p mode)
    sum over lam |- r of  <s_lam[F], G>          * s_lam        (s mode)

whose agreement is the Cauchy identity; the package computes either on
demand and the test suite holds them against each other.  The products
p_mu[F], mu |- r, depend on neither G nor the mode: _products keeps them
once per (F, r), on packed keys, keyed by the integer class function
values D F for D the lcm of the denominators of F's values, so that h_2
and h_2 / 2 share one entry.  p mode, the default, pairs each p_lam[D F]
with G and divides by D^len(lam).  s mode builds every s_lam[F] in full
from the same products before any meets G: s_lam[F] is the sum over mu of
chi^lam(mu) / z_mu p_mu[F], held transposed as one packed int over lam
per key, to which each p_mu[F] adds its values times the packed column
chi^.(mu) (symfunc._packed_vector of characters._column).  G's weights
then sum those ints into one, decoded once.  s mode reads the columns of
S_r, so it is refused above characters.CHAR_TABLE_CAP, as the s target
is; p mode has no cap on r.

Each algorithm is written once, over a ring of dicts with `one`,
`mul(a, b, out=None)` (a*b, added into out if given), `substitute`
(f, j -> p_j[f]) and `unpack` (a result keyed as callers read it):
f[g] in _pleth_p, h_r[f] by Newton's recurrence in _h_of, the p_lam[f]
pairings in _pairings, which on _PBasis reads _products and
on any other ring multiplies them out by _p_powers' prefix stack, as
_pleth_p does.  The rings are _PBasis, on class function values
keyed by packed partitions that unpack to symfunc._key's Partitions;
invariants._Alphabet, on truncated polynomials keyed by packed exponent
vectors; and invariants._Classes, on class functions of S_n keyed by
cycle type.  Each ring's pairing reads the ring's own keys, so _h_of and
_pairings hand it their products as they are, and only _pleth_p, whose
result leaves the engine, unpacks.  The pairing with G in the p basis
is a _Pairing, made by _p_pairing: it keys G's weights g_mu n / z_mu,
n = (deg G)!, by packed keys once per call (_key_of keeps each
partition's key and class size n / z_mu), sums each f against them
over the smaller side, and divides by n once.  Both
modes of fundamental and the p-basis route of invariants._route call
_p_pairing, and it refuses an F whose products p_lam[F] would spill a
packed key.
"""

import math
from fractions import Fraction

from .characters import _column
from .errors import DegreeError, ResourceLimitError, TruncationError, _number
from .partitions import _check_integer, _memo, partitions_of, z_of
from .symfunc import (SymFn, generator, one, zero, _add_into,
                      _check_multiplicity, _cleared, _div, _multiplicity,
                      _mul_p, _key, _p_dict, _p_symfn, _pack, _packed_vector,
                      _PLETHYSM_DEGREE_CAP, _scaled, _target_cap, _unpacked,
                      _unpacked_vector, _width)


def _p_powers(g, partitions, ring):
    """(mu, p_mu[g]) in ring for each mu in partitions, a list in
    lexicographic order, either way round, so that partitions sharing a
    prefix are adjacent: each prefix is multiplied out once, and only
    the products along the current one are kept."""
    subs = {a: ring.substitute(g, a) for a in set().union(*partitions)}
    stack = [((), ring.one)]
    for mu in partitions:
        while stack[-1][0] != mu[:len(stack[-1][0])]:
            stack.pop()
        for a in mu[len(stack[-1][0]):]:
            prefix, poly = stack[-1]
            stack.append((prefix + (a,), ring.mul(poly, subs[a])))
        yield mu, stack[-1][1]


class _PBasis:
    """Class function values on packed keys (symfunc._mul_p), products
    truncated above cap if given."""

    one = {0: 1}
    unpack = staticmethod(_unpacked)

    def __init__(self, cap=None):
        self.cap = cap

    def mul(self, a, b, out=None):
        prod = _mul_p(a, b, self.cap)
        return prod if out is None else _add_into(out, prod)

    def substitute(self, f, j):
        # p_j[f], packed: every part times j, and z_(j mu) = j^len(mu) z_mu;
        # a term above the cap could only enter products above it
        cap = self.cap
        return {_pack(a * j for a in mu): c * j ** len(mu)
                for mu, c in f.items() if cap is None or j * sum(mu) <= cap}


def _pleth_p(fp, g, ring=_PBasis()):
    # f[g] = sum over mu of a_mu / z_mu p_mu[g] for f's class function
    # values a, on the common denominator d! of f's largest degree, from
    # the p_mu[g] of f's support, multiplied out here
    n, weights = _scaled(fp)
    out = {}
    for mu, prod in _p_powers(g, sorted(fp), ring):
        _add_into(out, prod, weights[mu])
    return ring.unpack({nu: _div(c, n) for nu, c in out.items()})


def _h_of(f, r, ring=_PBasis()):
    # h_r[f] by Newton's recurrence n h_n[f] = sum over j of p_j[f]
    # h_(n-j)[f] (Macdonald I.2.11), in r(r+1)/2 products, keyed as the
    # ring keys it
    subs = {j: ring.substitute(f, j) for j in range(1, r + 1)}
    hs = [ring.one]
    for n in range(1, r + 1):
        acc = {}
        for j in range(1, n + 1):
            ring.mul(subs[j], hs[n - j], acc)
        hs.append({e: _div(c, n) for e, c in acc.items() if c})
    return hs[r]


@_memo
def _products(items, r):
    # (lam, p_lam[f]) on packed keys for each lam |- r, f given by the
    # items of its integer class function values: one list per (f, r),
    # shared by both modes of fundamental and the p-basis route of
    # invariants, whose callers only read it.  Keyed on integers, since a
    # Fraction(1, 1) value equals and hashes like 1.
    return list(_p_powers(dict(items), partitions_of(r), _PBasis()))


def _cleared_products(f, r):
    # (D, p_lam[D f] for lam |- r), D the lcm of the denominators of f's
    # values: p_lam[D f] is D^len(lam) p_lam[f]
    D, ints = _cleared(f)
    return D, _products(tuple(ints.items()), r)


def _pairings(f, r, pair, ring=_PBasis()):
    # the p-basis SymFn with class function value pair(p_lam[f]) at lam |- r;
    # on the p basis, whose pair is a _Pairing, read from the memoized
    # p_lam[D f], each coefficient one Fraction over n D^len(lam) z_lam
    if isinstance(ring, _PBasis):
        D, products = _cleared_products(f, r)
        return SymFn("p", {lam: pair(prod, D ** len(lam) * z_of(lam))
                           for lam, prod in products})
    return _p_symfn({lam: pair(prod)
                     for lam, prod in _p_powers(f, partitions_of(r), ring)})


@_memo
def _key_of(mu):
    # mu's packed key and its class size |mu|!/z_mu, kept for the
    # partitions a pairing's weights meet; _pack itself is not memoized,
    # since _PBasis.substitute hands it generators.  z_mu is read from
    # the key, which the kernel has decoded already where g came from
    # its products.
    key = _pack(mu)
    weight, z, _ = _key(key)
    return key, math.factorial(weight) // z


class _Pairing:
    """f -> <f, g> for f on _PBasis's packed keys and g homogeneous of
    degree d, given by its class function values: g's weights
    w_mu = g_mu d!/z_mu, keyed by the packed key of mu once, summed
    against f over the smaller side and divided by n = d! once.  A class
    of g that repeats a part 128 times spills its key into that of a
    partition of smaller weight, which no f of degree d holds."""

    __slots__ = ("n", "weights")

    def __init__(self, gp):
        # d is the weight of any one class of g
        self.n = math.factorial(sum(next(iter(gp), ())))
        self.weights = {key: v * size for mu, v in gp.items()
                        for key, size in (_key_of(mu),)}

    def __call__(self, f, scale=1):
        """<f, g>, divided by scale as well where it is given."""
        a, b = f, self.weights
        if len(a) > len(b):
            a, b = b, a
        return Fraction(sum([c * b[k] for k, c in a.items() if k in b]),
                        self.n * scale)


def _p_pairing(F, G, r):
    """F's class function values and the _Pairing with G, for f of G's
    degree on packed keys; refused where p_lam[F], lam |- r, would spill
    a key field."""
    fp = _p_dict(F)
    # p_lam[F] for lam |- r multiplies at most r substitutions into F
    _check_multiplicity(r * _multiplicity(fp))
    return fp, _Pairing(_p_dict(G))


def _check_degree(d):
    if d > _PLETHYSM_DEGREE_CAP:
        raise ResourceLimitError("plethysm of degree %s is beyond the cap %d"
                                 % (_number(d), _PLETHYSM_DEGREE_CAP))


def plethysm(f, g):
    """The plethysm f[g], exact, as a p-basis SymFn.

    Both arguments are finite symmetric functions; constants inside g
    pass through the substitution untouched (p_n[c] = c), and f acts
    through its p expansion by linearity.  Refused before any expansion
    when deg f * deg g exceeds _PLETHYSM_DEGREE_CAP.
    """
    _check_degree(max(f.degrees(), default=0) * max(g.degrees(), default=0))
    return _p_symfn(_pleth_p(_p_dict(f), _p_dict(g)))


class GradedSeries:
    """A symmetric function series known one degree at a time, up to a
    stated truncation degree.

    Degrees beyond the truncation are undefined rather than zero:
    component() refuses to answer there instead of guessing.
    """

    def __init__(self, truncation_degree, components):
        if truncation_degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        self.truncation_degree = truncation_degree
        clean = {}
        for d, f in components.items():
            if not 0 <= d <= truncation_degree:
                raise ValueError("component degree %d outside [0, %d]"
                                 % (d, truncation_degree))
            if f.is_zero():
                continue
            if not f.is_homogeneous() or f.degree() != d:
                raise DegreeError("component at degree %s is not homogeneous "
                                  "of degree %s" % (_number(d), _number(d)))
            clean[d] = f
        self.components = clean

    def component(self, d):
        if d < 0:
            raise ValueError("negative degree")
        if d > self.truncation_degree:
            raise TruncationError(
                "series truncated at degree %s, component %s requested"
                % (_number(self.truncation_degree), _number(d)))
        return self.components.get(d, zero())

    def __repr__(self):
        return "GradedSeries(truncation_degree=%d, degrees=%s)" % (
            self.truncation_degree, sorted(self.components))


def h_sum_series(cap, highest=None):
    """1 + h_1 + h_2 + ... as a series truncated at cap.

    With `highest` set, the sum stops at h_highest: the series of the
    permutation representation of S_highest on multisets.
    """
    top = cap if highest is None else min(cap, highest)
    return GradedSeries(cap, {0: one(), **h_plus_series(top).components})


def h_plus_series(cap):
    """h_1 + h_2 + ... with no constant term, truncated at cap."""
    comps = {d: generator("h", (d,)) for d in range(1, cap + 1)}
    return GradedSeries(cap, comps)


def plethysm_series(F, G, cap):
    """Plethysm of graded series, truncated at degree cap.

    G must have zero constant term; otherwise infinitely many components
    of F would contribute to each output degree and the truncation would
    be a lie.  Given that, output degrees up to cap only involve input
    components up to cap, so the result is exact where it is defined.
    """
    if cap > min(F.truncation_degree, G.truncation_degree):
        raise TruncationError(
            "cap %s exceeds input truncation (%s, %s)"
            % tuple(map(_number, (cap, F.truncation_degree,
                                  G.truncation_degree))))
    if not G.component(0).is_zero():
        raise DegreeError("series plethysm needs G with zero constant term")
    ftot, gtot = {}, {}
    for d in range(cap + 1):
        ftot.update(_p_dict(F.component(d)))
        gtot.update(_p_dict(G.component(d)))
    # p_mu[g] multiplies len(mu) substitutions into g, truncated at cap
    _check_multiplicity(min(cap, max(map(len, ftot), default=0)
                            * _multiplicity(gtot)))
    split = {}
    for mu, c in _pleth_p(ftot, gtot, _PBasis(cap)).items():
        split.setdefault(sum(mu), {})[mu] = c
    return GradedSeries(cap, {d: _p_symfn(t) for d, t in split.items()})


def fundamental(F, G, r, mode="p"):
    """<h_r[X.F[Y]], G[Y]>_Y: a degree-r symmetric function in X.

    F must be homogeneous of degree k >= 1 and G homogeneous of degree
    r*k (the zero function is accepted for G and gives zero).  In p mode
    the coefficient of p_lam/z_lam is <p_lam[F], G>; in s mode the
    coefficient of s_lam is <s_lam[F], G>, computed through an honest
    plethysm of each Schur function, so the two modes cross-check each
    other rather than sharing their pairings.  Both modes read the
    products p_mu[F], mu |- r, from one memo, formed once per (F, r) in
    a process; s mode builds every s_lam[F] in full from them, summed
    over the columns chi^.(mu), before pairing them with G.  s mode is
    refused for r above characters.CHAR_TABLE_CAP, before any product.
    """
    _check_integer("fundamental", "r", r)
    if r < 0:
        raise ValueError("r must be nonnegative")
    if mode not in ("p", "s"):
        raise ValueError("mode must be 'p' or 's'")
    # every basis gives the degrees of the p expansion, read before it
    fdegs = F.degrees()
    if not fdegs:
        raise DegreeError("F must be nonzero and homogeneous of degree >= 1")
    if len(fdegs) != 1:
        raise DegreeError("F must be homogeneous, found degrees %s"
                          % _number(fdegs))
    k = fdegs[0]
    if k < 1:
        raise DegreeError("F must have degree >= 1")
    gdegs = G.degrees()
    if not gdegs:
        return zero(mode)
    if gdegs != [r * k]:
        raise DegreeError(
            "G must be homogeneous of degree r*deg(F) = %s, found degrees %s"
            % (_number(r * k), _number(gdegs)))
    if mode == "s":
        # s mode reads the columns of S_r, as the s target does
        _target_cap("s", [r])
    fp, pair = _p_pairing(F, G, r)
    if mode == "p":
        # <p_lam[F], G> is the value at lam; zeros drop out in SymFn
        return _pairings(fp, r, pair)
    # s_lam[F] = sum over mu of chi^lam(mu) / z_mu p_mu[F], on the common
    # denominator r! D^r, for D the lcm of the denominators of F's values:
    # D F has integer values, its product p_mu[D F] is D^len(mu) p_mu[F],
    # and class mu weighs D^(r - len(mu)).  Held transposed, one packed
    # int per key, to which each p_mu[F] adds its values times the packed
    # column chi^.(mu); G's weights are scaled to integers by the lcm E of
    # their denominators.
    shapes = partitions_of(r)
    n = math.factorial(r)
    D, products = _cleared_products(fp, r)
    E, weights = _cleared(pair.weights)
    products = [(mu, n // z_of(mu) * D ** (r - len(mu)), prod)
                for mu, prod in products]
    # entry lam of the total is the sum over mu of chi^lam(mu) x_mu, x_mu
    # at most c |w| |v| summed over the keys of p_mu[F]; by Cauchy-Schwarz
    # against the row chi^lam, whose squares over z_mu sum to 1, it is at
    # most the square root of the sum of z_mu x_mu^2
    top = max(map(abs, weights.values()), default=0)
    norm = sum([z_of(mu) * (c * sum(map(abs, prod.values()))) ** 2
                for mu, c, prod in products])
    k = _width(math.isqrt(norm * top * top))
    lists = {}
    for mu, c, prod in products:
        column = _packed_vector(_column, mu, k)
        for key, v in prod.items():
            lists[key] = lists.get(key, 0) + c * v * column
    # <s_lam[F], G> for every lam from one packed total over the keys G
    # weighs, decoded once
    total = sum([w * lists[key] for key, w in weights.items() if key in lists])
    values = _unpacked_vector(total, k, len(shapes))
    return SymFn("s", {lam: Fraction(v, n * D ** r * E * pair.n)
                       for lam, v in zip(shapes, values)})
