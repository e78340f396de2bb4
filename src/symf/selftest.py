"""Consistency checks: each one recomputes a slice of the library through
an independent oracle or a classical closed form and compares.

A check is a function of its bounds, and is defined here once.  The
acceptance tests c01-c11 in tests/test_acceptance.py call the checks at
their bounds; `symf selftest` calls them at smaller bounds scaled by
max_degree, so the default run of 8 takes about 0.16 s in a fresh
process (median of 11, Python 3.11.7 on 2 vCPUs).  Each oracle is
applied only where its own size cap admits the case.  Checks raise
through _check, never assert, so they still fire under `python -O`.
All iteration orders and random draws are fixed, so two runs print the
same bytes.
"""

import math
import random
import sys
from fractions import Fraction

from .enumeration import (DealSpec, RegularGraphSpec, card_deals,
                          deals_cycle_index, regular_graphs,
                          regular_graphs_cycle_index)
from .errors import DegreeError
from .invariants import (GLnAdjoint, PolyFunctor, SLnDefining, SnPermutation,
                         Sp2nDefining, hilbert_dim, inv_char,
                         inv_char_polyfunc)
from .oracles import (oracle_cayley_sylvester, oracle_deals,
                      oracle_deals_cycle_index, oracle_deals_matrix_count,
                      oracle_matchings, oracle_perm_inv_char,
                      oracle_perm_inv_char_polyfunc, oracle_plethysm_monomials,
                      oracle_plethysm_schur, oracle_regular_cycle_index,
                      oracle_regular_graphs, oracle_restricted_bell,
                      oracle_su2_inv_char, oracle_su2_poly_dim, oracle_syt,
                      oracle_weyl_inv_char)
from .partitions import partitions_of
from .plethysm import (fundamental, h_plus_series, h_sum_series, plethysm,
                       plethysm_series)
from .symfunc import (SymFn, dimension, e, h, kronecker, one, s, scalar,
                      specialize_ones, to_basis, zero)

_SEED = 20240811

# functor characters with their power sum expansions written out by
# hand, so the oracle shares no base change code with the library
_FUNCTORS = (
    ("h2", h(2), {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}),
    ("e2", e(2), {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}),
    ("h3", h(3), {(1, 1, 1): Fraction(1, 6), (2, 1): Fraction(1, 2),
                  (3,): Fraction(1, 3)}),
    ("s21", s(2, 1), {(1, 1, 1): Fraction(1, 3), (3,): Fraction(-1, 3)}),
)

# known terms of classical sequences, indexed from 0
_CATALAN = (1, 1, 2, 5, 14, 42, 132)
_DOUBLE_FACTORIALS = (1, 1, 3, 15, 105, 945)
_QUARTIC_INVARIANTS = (1, 0, 1, 1, 1, 1, 2)


class _Failure(Exception):
    pass


def _check(cond, what):
    if not cond:
        raise _Failure(what)


def check_plethysm_examples(max_ab):
    """h_a[h_b] and e_a[e_b] for a, b <= 4 with a*b <= max_ab (at most
    8, the oracle's cap) against the Schur expansion the monomial oracle
    solves for; h2[h2] and e2[e2] also in the monomial basis."""
    hh = plethysm(h(2), h(2))
    ee = plethysm(e(2), e(2))
    _check(hh == s(4) + s(2, 2), "h2[h2]")
    _check(ee == s(2, 1, 1), "e2[e2]")
    _check(scalar(hh, h(2) * h(2)) == 2, "<h2[h2], h2*h2>")
    for kind, value in (("hh", hh), ("ee", ee)):
        _check(to_basis(value, "m").terms
               == oracle_plethysm_monomials(kind, 2, 2),
               "%s plethysm a=2 b=2 in the monomial basis" % kind)
    for a in range(1, 5):
        for b in range(1, min(4, max_ab // a) + 1):
            for kind, gen in (("hh", h), ("ee", e)):
                _check(plethysm(gen(a), gen(b))
                       == oracle_plethysm_schur(kind, a, b),
                       "%s plethysm a=%d b=%d" % (kind, a, b))


def check_cauchy_modes(pairs, max_r, max_degree):
    """fundamental(F, G, r) in p mode against s mode (the Cauchy
    identity) on `pairs` seeded random pairs: F of degree k <= 3 and G of
    degree r*k with r <= max_r and r*k <= max_degree, each a sum of one
    or two Schur functions with coefficients 1..3."""
    rng = random.Random(_SEED)

    def pick(degree):
        f = zero("s")
        for _ in range(rng.randint(1, 2)):
            f = f + rng.randint(1, 3) * s(*rng.choice(partitions_of(degree)))
        return f

    for _ in range(pairs):
        k = rng.randint(1, 3)
        r = rng.randint(1, min(max_r, max_degree // k))
        F = pick(k)
        G = pick(r * k)
        _check(fundamental(F, G, r, "p") == fundamental(F, G, r, "s"),
               "mode disagreement at k=%d r=%d F=%s G=%s" % (k, r, F, G))


def check_fundamental_forms():
    """fundamental() on small hand-computed cases, its degree checks, and
    the specialization p_i = 1 against a scalar product."""
    want = SymFn("p", {(1, 1): Fraction(3, 2), (2,): Fraction(1, 2)})
    _check(fundamental(h(2), h(2) * h(2), 2) == want, "fundamental(h2, h2^2, 2)")
    _check(specialize_ones(fundamental(h(2), h(2) * h(2), 2))
           == scalar(plethysm(h(2), h(2)), h(2) * h(2)),
           "specialized form vs scalar product")
    _check(fundamental(h(2), s(2, 2), 2) == h(2), "fundamental(h2, s22, 2)")
    _check(fundamental(h(2), zero(), 2).is_zero(), "zero G")
    _check(fundamental(h(2), one(), 0) == one(), "r=0")
    try:
        fundamental(h(2), h(3), 1)
    except DegreeError:
        pass
    else:
        raise _Failure("degree mismatch not rejected")


def check_perm_family(max_n, max_r):
    """S_n on n points, n <= max_n, in degrees r <= max_r: the invariant
    character against the averaging oracle (its cap: n <= 5, r <= 8) and
    against the paper's series (1 + h_1 + ... + h_n)[h_1 + h_2 + ...]
    truncated at max_r, and its dimension against the Bell numbers
    restricted to n blocks."""
    for n in range(1, max_n + 1):
        series = plethysm_series(h_sum_series(max_r, highest=n),
                                 h_plus_series(max_r), max_r)
        for r in range(max_r + 1):
            got = inv_char(SnPermutation(n), r)
            _check(got == oracle_perm_inv_char(n, r),
                   "character n=%d r=%d" % (n, r))
            _check(got == series.component(r), "series n=%d r=%d" % (n, r))
            _check(dimension(got) == oracle_restricted_bell(r, n),
                   "dimension n=%d r=%d" % (n, r))


def check_perm_polyfunctor(max_degree):
    """The functors h2, e2, h3 and s21 over S_n for n <= 3, in degrees r
    with r*k <= max_degree (at most 8, the oracle's cap), against the
    averaging oracle fed the hand-written p expansions, which are first
    held against the library's own."""
    for name, F, raw in _FUNCTORS:
        _check(to_basis(F, "p").terms == raw, "p expansion of %s" % name)
        k = F.degree()
        for n in range(1, 4):
            for r in range(max_degree // k + 1):
                got = inv_char_polyfunc(SnPermutation(n), PolyFunctor(F), r)
                _check(got == oracle_perm_inv_char_polyfunc(n, raw, r),
                       "P=%s n=%d r=%d" % (name, n, r))


def _against_weyl(name, family, max_n, max_d):
    # inv_char of family(n), n <= max_n, in degrees d <= max_d against
    # Weyl integration, below the stable ranges too
    for n in range(1, max_n + 1):
        for d in range(max_d + 1):
            _check(inv_char(family(n), d) == oracle_weyl_inv_char(name, n, d),
                   "Weyl integration n=%d d=%d" % (n, d))


def check_sl2_catalan(max_m, max_r, weyl_n, weyl_d):
    """SL(2) on tensor powers for m <= max_m (at most 6): I_2m = s_(m,m),
    whose dimension is the m-th Catalan number, also by the hook length
    formula, and odd degrees vanish.  Then the invariants of the binary
    quartic in degrees r <= max_r (at most 6) against their known terms
    and the Cayley-Sylvester count.  The full characters of SL(n) for
    n <= weyl_n in degrees d <= weyl_d against Weyl integration."""
    for m in range(max_m + 1):
        ch = inv_char(SLnDefining(2), 2 * m)
        hooks = sum(c * oracle_syt(lam)
                    for lam, c in to_basis(ch, "s").terms.items())
        _check(dimension(ch) == hooks == _CATALAN[m], "Catalan at m=%d" % m)
        if m:
            _check(oracle_syt((m, m)) == _CATALAN[m],
                   "hook formula at m=%d" % m)
            _check(ch == s(m, m), "shape at m=%d" % m)
            _check(inv_char(SLnDefining(2), 2 * m - 1).is_zero(),
                   "odd degree at m=%d" % m)
    quartic = PolyFunctor(h(4))
    for r in range(max_r + 1):
        got = hilbert_dim(SLnDefining(2), quartic, r)
        _check(got == _QUARTIC_INVARIANTS[r], "quartic r=%d" % r)
        _check(got == oracle_cayley_sylvester(4, r), "quartic vs oracle r=%d" % r)
    _against_weyl("sl", SLnDefining, weyl_n, weyl_d)


def check_sp_matchings(max_q, weyl_n, weyl_d):
    """Sp(2n) on tensor powers for q <= max_q (at most 5): in the stable
    range n >= q, checked at n = q..q+2, the invariants of degree 2q
    have the dimension (2q-1)!! of the perfect matchings, and odd degrees
    vanish.  The full characters for n <= weyl_n in degrees d <= weyl_d
    against Weyl integration."""
    for q in range(max_q + 1):
        _check(oracle_matchings(q) == _DOUBLE_FACTORIALS[q],
               "double factorial q=%d" % q)
        for n in range(max(q, 1), q + 3):
            got = inv_char(Sp2nDefining(n), 2 * q)
            _check(dimension(got) == oracle_matchings(q),
                   "matchings q=%d n=%d" % (q, n))
            if q:
                _check(inv_char(Sp2nDefining(n), 2 * q - 1).is_zero(),
                       "odd degree q=%d n=%d" % (q, n))
    _against_weyl("sp", Sp2nDefining, weyl_n, weyl_d)


def check_gl_adjoint(max_r, weyl_n, weyl_d):
    """GL(n) on n x n matrices in degrees r <= max_r: the sum of the
    Kronecker squares s_lam * s_lam over lam |- r, and the stable
    character (any n >= r), are the sum of all p_mu, of dimension r!;
    GL(1) gives h_r.  The full characters for n <= weyl_n in degrees
    d <= weyl_d against Weyl integration."""
    for r in range(max_r + 1):
        want = SymFn("p", dict.fromkeys(partitions_of(r), 1))
        squares = zero("p")
        for lam in partitions_of(r):
            squares = squares + kronecker(s(*lam), s(*lam))
        _check(squares == want, "Kronecker squares r=%d" % r)
        stable = inv_char(GLnAdjoint(max(r, 1)), r)
        _check(stable == want, "stable character r=%d" % r)
        _check(dimension(stable) == math.factorial(r), "dimension r=%d" % r)
        _check(inv_char(GLnAdjoint(1), r) == (h(r) if r else one()),
               "GL(1) closed form r=%d" % r)
    _against_weyl("gl-adjoint", GLnAdjoint, weyl_n, weyl_d)


def check_hilbert_crosschecks(max_k, max_r, max_degree):
    """Binary forms of degree k <= max_k: the invariants of degree
    r <= max_r with k*r <= max_degree (at most 120, the Cayley-Sylvester
    oracle's cap), counted for SL(2) and for Sp(2), the same group
    reached through other shapes, against the Cayley-Sylvester count.
    Where k*r <= 24, Weyl integration on SU(2), the binary forms row of
    the torus oracle, checks the count and the equivariant character
    too."""
    for k in range(1, max_k + 1):
        form = PolyFunctor(h(k))
        for r in range(min(max_r, max_degree // k) + 1):
            dim = hilbert_dim(SLnDefining(2), form, r)
            _check(dim == oracle_cayley_sylvester(k, r),
                   "partition count k=%d r=%d" % (k, r))
            _check(hilbert_dim(Sp2nDefining(1), form, r) == dim,
                   "Sp(2) = SL(2) at k=%d r=%d" % (k, r))
            if k * r <= 24:
                _check(dim == oracle_su2_poly_dim(k, r),
                       "Weyl integration k=%d r=%d" % (k, r))
                got = inv_char_polyfunc(SLnDefining(2), form, r)
                _check(got == oracle_su2_inv_char(k, r),
                       "equivariant character k=%d r=%d" % (k, r))


def check_card_deals(max_n, max_cards):
    """Deals of m*n <= max_cards cards (at most 14, the enumeration
    oracle's cap) of n <= max_n types: the count, read off the cycle
    index, against direct enumeration and against the scalar formula
    <h_n[h_m], h_m^n>; where n <= 5 and m*n <= 12, the count and the
    cycle index against the orbits of deal matrices as well."""
    _check(card_deals(DealSpec(2, 2)) == 2, "count m=2 n=2 is 2")
    _check(card_deals(DealSpec(2, 3)) == 5, "count m=2 n=3 is 5")
    for n in range(1, max_n + 1):
        for m in range(1, max_cards // n + 1):
            spec = DealSpec(m, n)
            count = card_deals(spec)
            index = deals_cycle_index(spec)
            _check(count == oracle_deals(m, n), "count m=%d n=%d" % (m, n))
            _check(scalar(plethysm(h(n), h(m)), h(*[m] * n)) == count,
                   "scalar formula m=%d n=%d" % (m, n))
            if n <= 5 and m * n <= 12:
                _check(count == oracle_deals_matrix_count(m, n),
                       "matrix count m=%d n=%d" % (m, n))
                _check(index == oracle_deals_cycle_index(m, n),
                       "cycle index m=%d n=%d" % (m, n))


def check_regular_graphs(max_n, max_k, max_degree):
    """k-regular multigraphs on n vertices for n <= max_n (at most 5)
    and k <= max_k (at most 6), the orbit oracle's caps, with
    n*k <= max_degree: the count, read off the cycle index, against the
    oracle and, for even n*k, the cycle index against the oracle and,
    for k >= 1, the count against the scalar formula
    <h_n[h_k], h_{nk/2}[h_2]>."""
    _check(regular_graphs(RegularGraphSpec(3, 2)) == 3, "count n=3 k=2 is 3")
    for n in range(1, max_n + 1):
        for k in range(min(max_k, max_degree // n) + 1):
            spec = RegularGraphSpec(n, k)
            count = regular_graphs(spec)
            _check(count == oracle_regular_graphs(n, k),
                   "count n=%d k=%d" % (n, k))
            if (n * k) % 2 == 0:
                _check(regular_graphs_cycle_index(spec)
                       == oracle_regular_cycle_index(n, k),
                       "cycle index n=%d k=%d" % (n, k))
                if k:
                    edges = plethysm(h(n * k // 2), h(2))
                    _check(scalar(plethysm(h(n), h(k)), edges) == count,
                           "scalar formula n=%d k=%d" % (n, k))


# name, check, and the check's bounds at selftest degree d (4 <= d <= 12)
SUITES = (
    ("plethysm-examples", check_plethysm_examples, lambda d: (min(8, d),)),
    ("cauchy-modes", check_cauchy_modes, lambda d: (20, 4, d)),
    ("fundamental-forms", check_fundamental_forms, lambda d: ()),
    ("perm-family", check_perm_family, lambda d: (3, min(6, d))),
    ("perm-polyfunctor", check_perm_polyfunctor, lambda d: (min(6, d),)),
    ("sl2-catalan", check_sl2_catalan,
     lambda d: (min(4, d // 2), min(6, d), 2, min(6, d))),
    ("sp-matchings", check_sp_matchings,
     lambda d: (min(4, d // 2), 2, min(6, d))),
    ("gl-adjoint", check_gl_adjoint, lambda d: (min(6, d), 2, min(6, d))),
    ("hilbert-crosschecks", check_hilbert_crosschecks, lambda d: (3, 4, d)),
    ("card-deals", check_card_deals, lambda d: (4, min(10, d + 2))),
    ("regular-graphs", check_regular_graphs, lambda d: (4, 4, min(12, d + 4))),
)


def run_selftest(max_degree=8, stream=None):
    """Run every suite; print one line each; return True when all pass."""
    stream = sys.stdout if stream is None else stream
    d = max(4, min(int(max_degree), 12))
    ok = True
    for name, check, bounds in SUITES:
        try:
            check(*bounds(d))
        except _Failure as exc:
            ok = False
            print("FAIL %s: %s" % (name, exc), file=stream)
        except Exception as exc:
            ok = False
            print("FAIL %s: unexpected %r" % (name, exc), file=stream)
        else:
            print("ok %s" % name, file=stream)
    return ok
