"""Internal consistency suites, runnable from the command line.

Each suite recomputes a slice of the library through one of the
independent oracles and compares.  The bounds scale with max_degree so a
quick run stays quick; the default of 8 finishes in a few seconds.  All
iteration orders and random draws are fixed, so two runs print the same
bytes.
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
                      oracle_perm_inv_char_polyfunc, oracle_plethysm_schur,
                      oracle_regular_cycle_index, oracle_regular_graphs,
                      oracle_restricted_bell, oracle_su2_inv_char,
                      oracle_su2_poly_dim, oracle_syt)
from .partitions import partitions_of
from .plethysm import fundamental, plethysm
from .symfunc import (SymFn, dimension, e, h, one, p, s, scalar,
                      specialize_ones, zero)

_SEED = 20240811

# raw power sum expansions, written out by hand so the suites do not
# lean on the conversion code they are meant to check
_RAW_H2 = {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}
_RAW_E2 = {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
_RAW_H3 = {(1, 1, 1): Fraction(1, 6), (2, 1): Fraction(1, 2),
           (3,): Fraction(1, 3)}
_RAW_S21 = {(1, 1, 1): Fraction(1, 3), (3,): Fraction(-1, 3)}


class _Failure(Exception):
    pass


def _check(cond, what):
    if not cond:
        raise _Failure(what)


def _suite_plethysm_examples(d):
    _check(plethysm(h(2), h(2)) == s(4) + s(2, 2), "h2[h2]")
    _check(plethysm(e(2), e(2)) == s(2, 1, 1), "e2[e2]")
    _check(scalar(plethysm(h(2), h(2)), h(2) * h(2)) == 2, "<h2[h2], h2*h2>")
    for a in range(1, 5):
        for b in range(1, 5):
            if a * b > min(8, d):
                continue
            for kind in ("hh", "ee"):
                f = h(a) if kind == "hh" else e(a)
                g = h(b) if kind == "hh" else e(b)
                want = oracle_plethysm_schur(kind, a, b)
                _check(plethysm(f, g) == want,
                       "%s plethysm a=%d b=%d" % (kind, a, b))


def _suite_cauchy_modes(d):
    rng = random.Random(_SEED)
    bound = min(12, d)
    done = 0
    while done < 20:
        k = rng.randint(1, 3)
        r = rng.randint(1, 4)
        if r * k > bound:
            continue
        f = zero()
        for _ in range(rng.randint(1, 2)):
            lam = rng.choice(list(partitions_of(k)))
            f = f + rng.randint(1, 2) * s(*lam)
        g = zero()
        for _ in range(rng.randint(1, 2)):
            mu = rng.choice(list(partitions_of(r * k)))
            g = g + rng.randint(1, 2) * s(*mu)
        via_p = fundamental(f, g, r, mode="p")
        via_s = fundamental(f, g, r, mode="s")
        _check(via_p == via_s,
               "mode disagreement at k=%d r=%d F=%s G=%s" % (k, r, f, g))
        done += 1


def _suite_fundamental_forms(d):
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


def _suite_perm_family(d):
    for n in range(1, 4):
        for r in range(0, min(6, d) + 1):
            got = inv_char(SnPermutation(n), r)
            _check(got == oracle_perm_inv_char(n, r),
                   "character n=%d r=%d" % (n, r))
            _check(dimension(got) == oracle_restricted_bell(r, n),
                   "dimension n=%d r=%d" % (n, r))


def _suite_perm_polyfunctor(d):
    cases = [("h2", _RAW_H2), ("e2", _RAW_E2), ("h3", _RAW_H3),
             ("s21", _RAW_S21)]
    for name, raw in cases:
        func = PolyFunctor(SymFn("p", raw))
        k = func.degree
        for n in range(1, 4):
            for r in range(1, min(6, d) // k + 1):
                got = inv_char_polyfunc(SnPermutation(n), func, r)
                want = oracle_perm_inv_char_polyfunc(n, raw, r)
                _check(got == want, "P=%s n=%d r=%d" % (name, n, r))


def _suite_sl2_catalan(d):
    for m in range(0, min(4, d // 2) + 1):
        ch = inv_char(SLnDefining(2), 2 * m)
        want = oracle_syt((m, m)) if m else 1
        _check(dimension(ch) == want, "Catalan at m=%d" % m)
        if m:
            _check(ch == s(*(m, m)), "shape at m=%d" % m)
            _check(inv_char(SLnDefining(2), 2 * m - 1).is_zero(),
                   "odd degree at m=%d" % m)
    quartic = PolyFunctor(h(4))
    series = [1, 0, 1, 1, 1, 1, 2]
    for r in range(0, min(6, d) + 1):
        got = hilbert_dim(SLnDefining(2), quartic, r)
        _check(got == series[r], "quartic r=%d" % r)
        _check(got == oracle_cayley_sylvester(4, r), "quartic vs oracle r=%d" % r)


def _suite_sp_matchings(d):
    for q in range(0, min(4, d // 2) + 1):
        n = max(q, 1)
        got = inv_char(Sp2nDefining(n), 2 * q)
        _check(dimension(got) == oracle_matchings(q), "matchings q=%d" % q)
        if q:
            _check(inv_char(Sp2nDefining(n), 2 * q - 1).is_zero(),
                   "odd degree q=%d" % q)


def _suite_gl_adjoint(d):
    for r in range(0, min(6, d) + 1):
        stable = inv_char(GLnAdjoint(1), r)
        want = SymFn("p", {mu: Fraction(1) for mu in partitions_of(r)})
        _check(stable == want, "stable character r=%d" % r)
        _check(dimension(stable) == math.factorial(r), "dimension r=%d" % r)
        _check(inv_char(GLnAdjoint(r if r else 1, stable=False), r) == stable,
               "finite n >= r agrees at r=%d" % r)
        _check(inv_char(GLnAdjoint(1, stable=False), r) == h(r) if r else True,
               "GL(1) closed form r=%d" % r)


def _suite_hilbert_crosschecks(d):
    for k in range(1, 4):
        for r in range(1, 5):
            if k * r > min(12, d):
                continue
            func = PolyFunctor(h(k))
            dim = hilbert_dim(SLnDefining(2), func, r)
            _check(dim == oracle_su2_poly_dim(k, r),
                   "Weyl integration k=%d r=%d" % (k, r))
            _check(dim == oracle_cayley_sylvester(k, r),
                   "partition count k=%d r=%d" % (k, r))
            got = inv_char_polyfunc(SLnDefining(2), func, r)
            _check(got == oracle_su2_inv_char(k, r),
                   "equivariant character k=%d r=%d" % (k, r))


def _suite_card_deals(d):
    bound = min(10, d + 2)
    for n in range(1, 5):
        for m in range(1, bound + 1):
            if m * n > bound:
                continue
            spec = DealSpec(m, n)
            count = card_deals(spec)
            _check(count == oracle_deals(m, n), "count m=%d n=%d" % (m, n))
            _check(count == oracle_deals_matrix_count(m, n),
                   "matrix count m=%d n=%d" % (m, n))
            index = deals_cycle_index(spec)
            _check(specialize_ones(index) == count,
                   "index at ones m=%d n=%d" % (m, n))
            _check(index == oracle_deals_cycle_index(m, n),
                   "cycle index m=%d n=%d" % (m, n))


def _suite_regular_graphs(d):
    bound = min(12, d + 4)
    for n in range(1, 5):
        for k in range(0, 5):
            if n * k > bound:
                continue
            spec = RegularGraphSpec(n, k)
            count = regular_graphs(spec)
            _check(count == oracle_regular_graphs(n, k),
                   "count n=%d k=%d" % (n, k))
            if (n * k) % 2 == 0:
                index = regular_graphs_cycle_index(spec)
                _check(specialize_ones(index) == count,
                       "index at ones n=%d k=%d" % (n, k))
                _check(index == oracle_regular_cycle_index(n, k),
                       "cycle index n=%d k=%d" % (n, k))


SUITES = (
    ("plethysm-examples", _suite_plethysm_examples),
    ("cauchy-modes", _suite_cauchy_modes),
    ("fundamental-forms", _suite_fundamental_forms),
    ("perm-family", _suite_perm_family),
    ("perm-polyfunctor", _suite_perm_polyfunctor),
    ("sl2-catalan", _suite_sl2_catalan),
    ("sp-matchings", _suite_sp_matchings),
    ("gl-adjoint", _suite_gl_adjoint),
    ("hilbert-crosschecks", _suite_hilbert_crosschecks),
    ("card-deals", _suite_card_deals),
    ("regular-graphs", _suite_regular_graphs),
)


def run_selftest(max_degree=8, stream=None):
    """Run every suite; print one line each; return True when all pass."""
    stream = sys.stdout if stream is None else stream
    d = max(4, min(int(max_degree), 12))
    ok = True
    for name, suite in SUITES:
        try:
            suite(d)
        except _Failure as exc:
            ok = False
            print("FAIL %s: %s" % (name, exc), file=stream)
        except Exception as exc:
            ok = False
            print("FAIL %s: unexpected %r" % (name, exc), file=stream)
        else:
            print("ok %s" % name, file=stream)
    return ok
