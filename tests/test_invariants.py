import hashlib
import random
import sys
import warnings
from math import factorial
from operator import add, le

import pytest
from fractions import Fraction

from symf.characters import character_table
from symf.enumeration import DealSpec, RegularGraphSpec, regular_graphs
from symf.errors import DegreeError, ResourceLimitError, TruncationError
from symf.invariants import (Custom, GLnAdjoint, PolyFunctor, SLnDefining,
                             SnPermutation, Sp2nDefining, _Alphabet, _Classes,
                             _alphabet, _check_target, _dimension,
                             _inv_pairing, _ring, _shape_facts, hilbert_dim,
                             hom_dim, hom_series_char, inv_char,
                             inv_char_polyfunc)
from symf.oracles import (oracle_cayley_sylvester, oracle_matchings,
                          oracle_perm_inv_char, oracle_restricted_bell,
                          oracle_su2_inv_char, oracle_syt,
                          oracle_weyl_inv_char)
from symf.partitions import _reset_memo, partitions_of
from symf.plethysm import (GradedSeries, _PBasis, _Pairing, _h_of, _pairings,
                           fundamental, h_plus_series, h_sum_series, plethysm,
                           plethysm_series)
from symf.symfunc import (SymFn, _p_dict, dimension, e, h, kronecker, one, p,
                          s, scalar, specialize_ones, to_basis, zero)


def test_family_validation():
    for cls in (SLnDefining, Sp2nDefining, SnPermutation, GLnAdjoint):
        with pytest.raises(ValueError):
            cls(0)
        # a float, bool or Fraction n is refused, not read as an int
        for n in (2.5, 2.0, 1.5, True, Fraction(2)):
            with pytest.raises(TypeError, match="needs an integer n, got "):
                cls(n)
    with pytest.raises(ValueError, match="^SL\\(n\\) needs n >= 1$"):
        SLnDefining(-3)
    with pytest.raises(ValueError):
        inv_char(SLnDefining(2), -1)
    with pytest.raises(TypeError):
        inv_char("sl", 2)


@pytest.mark.parametrize("call", [
    lambda: regular_graphs(RegularGraphSpec(2.5, 0)),
    lambda: regular_graphs(RegularGraphSpec(2.5, 2)),
    lambda: RegularGraphSpec(4, 2.0),
    lambda: DealSpec(2.0, 3),
    lambda: DealSpec(2, True),
    lambda: inv_char(Sp2nDefining(1), 4.0),
    lambda: inv_char(SnPermutation(2), True),
    lambda: inv_char_polyfunc(SLnDefining(2), h(1), 2.0),
    lambda: hilbert_dim(SnPermutation(2), h(1), True),
    lambda: fundamental(h(1), h(2), 2.0),
    lambda: character_table(True),
], ids=["graph-n", "graph-n-even", "graph-k", "deal-m", "deal-n",
        "inv-float", "inv-bool", "polyfunc", "hilbert", "fundamental",
        "table"])
def test_counts_must_be_integers(call):
    # a float or bool count passed the range checks and was computed
    # with, or refused by whatever first needed an int, depending on
    # what the memos held (2.0 and 2 are one lru_cache key)
    with pytest.raises(TypeError, match="needs an integer [mnkr], got "):
        call()


def test_sl_family_is_a_single_rectangle():
    assert inv_char(SLnDefining(2), 4) == s(2, 2)
    assert inv_char(SLnDefining(2), 6) == s(3, 3)
    assert inv_char(SLnDefining(3), 3) == s(1, 1, 1)
    assert inv_char(SLnDefining(3), 6) == s(2, 2, 2)
    assert inv_char(SLnDefining(2), 3).is_zero()
    assert inv_char(SLnDefining(3), 4).is_zero()
    assert inv_char(SLnDefining(2), 0) == one()


def test_sl2_dimensions_are_catalan():
    # dim s_{m,m} counts standard tableaux of the 2 x m rectangle
    catalan = [1, 1, 2, 5, 14, 42, 132]
    for mrows in range(7):
        got = dimension(inv_char(SLnDefining(2), 2 * mrows))
        assert got == catalan[mrows]
        if mrows:
            assert got == oracle_syt((mrows, mrows))


def test_sp_family_even_column_shapes():
    assert inv_char(Sp2nDefining(1), 2) == s(1, 1)
    assert inv_char(Sp2nDefining(2), 4) == s(2, 2) + s(1, 1, 1, 1)
    # one symplectic pair only: shapes taller than 2 rows drop out
    assert inv_char(Sp2nDefining(1), 4) == s(2, 2)
    assert inv_char(Sp2nDefining(2), 3).is_zero()
    assert inv_char(Sp2nDefining(2), 0) == one()


def test_sp_stable_dimensions_are_matchings():
    for q in range(6):
        got = dimension(inv_char(Sp2nDefining(max(q, 1)), 2 * q))
        assert got == oracle_matchings(q)
    # below the stable range the count drops
    assert dimension(inv_char(Sp2nDefining(1), 4)) == 2


def test_perm_family_against_averaging():
    for n in range(1, 4):
        for r in range(6):
            got = inv_char(SnPermutation(n), r)
            assert got == oracle_perm_inv_char(n, r)
            assert dimension(got) == oracle_restricted_bell(r, n)
    assert to_basis(inv_char(SnPermutation(2), 2), "h") == 2 * h(2)


def test_perm_block_types_against_the_series():
    # the average over the classes of S_n against the degree-r piece of
    # the paper's series (1 + h_1 + ... + h_n)[h_1 + h_2 + ...], truncated
    # at r, a sum over the block types of set partitions
    for r in range(13):
        for n in [*range(1, 7), r + 3]:
            series = plethysm_series(h_sum_series(r, highest=n),
                                     h_plus_series(r), r)
            assert inv_char(SnPermutation(n), r) == series.component(r), (n, r)


def test_perm_memo_is_keyed_by_the_blocks_that_fit():
    # the average over S_n of a function of fix(g^c), c <= r, is the
    # same over S_r for every n >= r (no set partition of r points has
    # more than r blocks), so every such n averages over S_min(n, r)
    _reset_memo()
    small = inv_char(SnPermutation(8), 8)
    assert inv_char(SnPermutation(30), 8) == small


def test_perm_refused_before_any_partition_is_listed(monkeypatch):
    # the class (1^128) would spill a packed key field, and above degree
    # 40 the answer's p(r) terms pass the term cap
    def unreachable(*args):
        raise AssertionError("enumerated past the multiplicity cap")
    monkeypatch.setattr(sys.modules["symf.plethysm"], "_mul_p", unreachable)
    monkeypatch.setattr(sys.modules["symf.invariants"], "partitions_of",
                        unreachable)
    with pytest.raises(ResourceLimitError,
                       match="^a part repeated 128 times is beyond the cap "
                             "127$"):
        inv_char(SnPermutation(2), 128)
    with pytest.raises(ResourceLimitError,
                       match="^the answer has up to 44583 terms, beyond the "
                             "cap 37338$"):
        inv_char(SnPermutation(2), 41)


def test_perm_queries_run_no_p_basis_kernel(monkeypatch):
    # the permutation family multiplies class functions of S_n pointwise:
    # no p-basis product, Schur row or h product beyond the functor's own
    # expansion of degree 2
    def unreachable(*args):
        raise AssertionError("a p-basis kernel call ran")
    symfunc = sys.modules["symf.symfunc"]
    real = symfunc._prod_h_p

    def h_of_degree_2(mu):
        if sum(mu) > 2:
            unreachable()
        return real(mu)
    monkeypatch.setattr(sys.modules["symf.plethysm"], "_mul_p", unreachable)
    monkeypatch.setattr(symfunc, "_schur_p", unreachable)
    monkeypatch.setattr(symfunc, "_prod_h_p", h_of_degree_2)
    quadrics = PolyFunctor(h(2))
    assert hilbert_dim(SnPermutation(10), quadrics, 10) == 233016
    assert specialize_ones(
        inv_char_polyfunc(SnPermutation(10), quadrics, 10)) == 233016


def test_perm_negative_degree_is_refused():
    for query in (hilbert_dim, inv_char_polyfunc):
        with pytest.raises(ValueError, match="^r must be nonnegative$"):
            query(SnPermutation(2), h(2), -1)


def test_perm_series_regrows():
    # ask high first, then low, then higher than before
    a7 = inv_char(SnPermutation(3), 7)
    a2 = inv_char(SnPermutation(3), 2)
    a8 = inv_char(SnPermutation(3), 8)
    assert a7 == oracle_perm_inv_char(3, 7)
    assert a2 == oracle_perm_inv_char(3, 2)
    assert a8 == oracle_perm_inv_char(3, 8)


def test_perm_terms_do_not_depend_on_what_ran_before():
    # each degree from empty memos, then every degree again after a
    # higher one: the same terms in the same insertion order
    def terms(n, r):
        return list(inv_char(SnPermutation(n), r).terms.items())
    for n in range(2, 5):
        fresh = []
        for r in range(9):
            _reset_memo()
            fresh.append(terms(n, r))
        _reset_memo()
        terms(n, 12)
        assert [terms(n, r) for r in range(9)] == fresh, n


def test_gl_adjoint_stable_identity():
    for r in range(7):
        got = inv_char(GLnAdjoint(max(r, 1)), r)
        assert got == SymFn("p", {mu: Fraction(1) for mu in partitions_of(r)})
        fact = 1
        for i in range(2, r + 1):
            fact *= i
        assert dimension(got) == fact


def test_gl_adjoint_finite_n():
    # n is the group's own n, with no switch to turn the row bound off
    with pytest.raises(TypeError):
        GLnAdjoint(1, stable=True)
    # every n >= r gives the stable sum; GL(1) keeps only the trivial part
    for r in range(7):
        stable = SymFn("p", dict.fromkeys(partitions_of(r), 1))
        for n in range(max(r, 1), r + 3):
            assert inv_char(GLnAdjoint(n), r) == stable
        assert inv_char(GLnAdjoint(1), r) == (h(r) if r else one())
    # length filter at work: the sign shape drops at n=2, r=3
    finite = inv_char(GLnAdjoint(2), 3)
    assert finite == inv_char(GLnAdjoint(3), 3) - kronecker(s(1, 1, 1), s(1, 1, 1))
    assert dimension(finite) == 5


# (family name, class, n, top degree): each case below its stable range
WEYL_CASES = (("sp", Sp2nDefining, 2, 10), ("sp", Sp2nDefining, 3, 8),
              ("gl-adjoint", GLnAdjoint, 2, 8),
              ("gl-adjoint", GLnAdjoint, 3, 6),
              ("sl", SLnDefining, 3, 9), ("sl", SLnDefining, 4, 8))


@pytest.mark.parametrize("name, cls, n, top", WEYL_CASES,
                         ids=["%s-n%d" % (c[0], c[2]) for c in WEYL_CASES])
def test_full_characters_against_weyl_integration(name, cls, n, top):
    for d in range(top + 1):
        assert inv_char(cls(n), d) == oracle_weyl_inv_char(name, n, d), d


def test_custom_family_wraps_a_series():
    series = GradedSeries(3, {0: one(), 2: s(2)})
    fam = Custom(series)
    assert inv_char(fam, 2) == s(2)
    assert inv_char(fam, 1).is_zero()
    with pytest.raises(TruncationError):
        inv_char(fam, 4)


def test_polyfunctor_contract():
    func = PolyFunctor(h(4))
    assert func.degree == 4
    assert PolyFunctor(s(2, 1)).degree == 3
    with pytest.raises(TypeError):
        PolyFunctor("h4")
    with pytest.raises(DegreeError):
        PolyFunctor(zero())
    with pytest.raises(DegreeError):
        PolyFunctor(h(2) + h(3))
    with pytest.raises(DegreeError):
        PolyFunctor(one())


def test_polyfunctor_warns_on_virtual_characters(monkeypatch):
    # p2 = s_2 - s_{1,1}; h11 - h2 = s_{1,1} is genuine though not
    # positive in the h basis
    for virtual in (p(2), s(2) - s(1, 1), Fraction(1, 2) * h(2)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            PolyFunctor(virtual)
        assert any("virtual" in str(w.message) for w in caught), virtual
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for genuine in (h(3), s(2, 2), h(1, 1) - h(2), e(2, 1)):
            PolyFunctor(genuine)
    assert not caught
    # positive integral h, e and s combinations need no Schur expansion
    expanded = []

    def spy(f, basis):
        expanded.append(f)
        return to_basis(f, basis)
    monkeypatch.setattr("symf.invariants.to_basis", spy)
    for genuine in (h(6), e(3), s(2, 1) + 2 * s(3)):
        PolyFunctor(genuine)
    assert not expanded
    with pytest.warns(UserWarning, match="virtual"):
        PolyFunctor(p(2))
    assert len(expanded) == 1


def test_inv_char_polyfunc_specializations():
    # P = identity reproduces the family character one degree up
    for fam in (SLnDefining(2), SnPermutation(2)):
        for r in range(5):
            assert inv_char_polyfunc(fam, PolyFunctor(h(1)), r) == \
                inv_char(fam, r)
    # SL(2) on quadratics: the classical discriminant pattern
    quad = PolyFunctor(h(2))
    for r in range(5):
        got = inv_char_polyfunc(SLnDefining(2), quad, r)
        assert got == oracle_su2_inv_char(2, r)
    # the Schur mode of fundamental agrees
    assert fundamental(h(2), inv_char(SLnDefining(2), 6), 3, "s") == \
        inv_char_polyfunc(SLnDefining(2), quad, 3)
    # that mode is fundamental's alone
    with pytest.raises(TypeError):
        inv_char_polyfunc(SLnDefining(2), quad, 3, mode="s")
    with pytest.raises(TypeError):
        hom_series_char(h_sum_series(6), quad, 3, mode="s")


def test_hilbert_dim_values():
    quartic = PolyFunctor(h(4))
    assert [hilbert_dim(SLnDefining(2), quartic, r) for r in range(7)] == \
        [1, 0, 1, 1, 1, 1, 2]
    cubic = PolyFunctor(h(3))
    assert [hilbert_dim(SLnDefining(2), cubic, r) for r in range(9)] == \
        [1, 0, 0, 0, 1, 0, 0, 0, 1]
    for r in range(7):
        assert hilbert_dim(SLnDefining(2), quartic, r) == \
            oracle_cayley_sylvester(4, r)
    # functor characters are accepted bare as well, but not as text
    assert hilbert_dim(SLnDefining(2), h(4), 2) == 1
    with pytest.raises(TypeError, match="PolyFunctor or a SymFn"):
        hilbert_dim(SLnDefining(2), "h2", 1)


def test_hilbert_dim_zero_cases():
    assert hilbert_dim(SLnDefining(2), PolyFunctor(h(3)), 1) == 0
    assert hilbert_dim(SLnDefining(3), PolyFunctor(h(2)), 1) == 0
    assert hilbert_dim(SnPermutation(2), PolyFunctor(h(1)), 0) == 1
    # a series with nothing in degree 1 gives no ring at all
    odd_zero = Custom(GradedSeries(4, {0: one(), 2: s(2)}))
    assert hilbert_dim(odd_zero, h(1), 1) == 0
    assert inv_char_polyfunc(odd_zero, h(1), 1).is_zero()


def test_hom_series_reproduces_family_members():
    # pulling the identity functor through the series changes nothing
    n = 3
    series = GradedSeries(6, {d: inv_char(SnPermutation(n), d)
                              for d in range(7)})
    ident = PolyFunctor(h(1))
    for r in range(7):
        assert hom_series_char(series, ident, r) == series.component(r)
    with pytest.raises(TruncationError):
        hom_series_char(series, PolyFunctor(h(2)), 4)


def test_hom_dim_counts_multiplicities():
    series = GradedSeries(4, {d: inv_char(SnPermutation(2), d)
                              for d in range(5)})
    # multiplicity of the full symmetric functor h_2 inside degree 2
    assert hom_dim(h(2), series) == 2
    assert hom_dim(s(1, 1), series) == 0
    assert hom_dim(PolyFunctor(h(1)), series) == 1


def test_sp_shapes_are_the_even_column_filter():
    # generated as doubled partitions of r/2; the filter they replace
    for n in range(1, 5):
        for r in range(21):
            want = [lam for lam in partitions_of(r) if r % 2 == 0
                    and lam.length <= 2 * n and lam.has_even_columns()]
            assert list(inv_char(Sp2nDefining(n), r).terms) == want, (n, r)


# ---------------------------------------------------------------------
# the finite alphabet route against the p-basis route
# ---------------------------------------------------------------------

VIRTUAL = h(2) - e(2)                 # = p_2
NON_INTEGRAL = p(1, 1) * Fraction(1, 2)


def _p_route(family, F, r):
    """hilbert_dim and inv_char_polyfunc the way the p basis computes them."""
    G = inv_char(family, r * F.degree())
    hr = one() if r == 0 else h(r)
    return scalar(plethysm(hr, F), G), fundamental(F, G, r, "p")


def _same_terms(got, want):
    assert got.basis == want.basis == "p"
    assert list(got.terms.items()) == list(want.terms.items())


@pytest.fixture
def finite_calls(monkeypatch):
    """One entry per functor polynomial built in a finite alphabet, named
    by how: from F's own terms (polynomial) or from its class function
    values (evaluate).  Each public call that takes the finite route
    builds exactly one, from F's terms."""
    calls = []

    def spy(name):
        real = getattr(_Alphabet, name)

        def wrapped(self, F):
            calls.append(name)
            return real(self, F)
        monkeypatch.setattr(_Alphabet, name, wrapped)
    spy("polynomial")
    spy("evaluate")
    return calls


# (family, functor character, r, whether the finite alphabet is taken),
# with the two estimates, finite against p basis, beside some rows
ROUTED = [
    (SLnDefining(1), h(1), 5, False),        # 165 > 80
    (SLnDefining(1), h(1), 2, False),
    (SLnDefining(2), h(5), 2, True),         # 198 <= 294
    (SLnDefining(2), h(3), 3, False),        # odd degree: no invariants
    (SLnDefining(2), h(2), 4, False),        # 231 > 212
    (SLnDefining(2), h(4), 6, True),
    (SLnDefining(2), VIRTUAL, 6, True),
    (SLnDefining(2), NON_INTEGRAL, 6, True),
    (SLnDefining(2), s(2, 1), 4, True),
    (SLnDefining(3), h(3), 7, True),         # 7,360 <= 10,176
    (SLnDefining(3), e(2), 6, True),         # 525 <= 928
    (SLnDefining(3), h(2), 1, False),        # no invariants in degree 2
    (SLnDefining(3), h(2), 0, False),        # r = 0: the set-up dominates
    (SLnDefining(4), e(2), 4, False),
    (Sp2nDefining(1), e(2), 5, True),
    (Sp2nDefining(1), s(2, 1), 2, False),
    (Sp2nDefining(1), s(2, 1), 1, False),    # odd degree
    (Sp2nDefining(2), h(2), 4, False),       # 1,630 > 300
    (Sp2nDefining(3), s(2, 1), 2, False),
    (Sp2nDefining(3), VIRTUAL, 0, False),
    # the rows of ROADMAP item 3: e_4 is one monomial in four variables,
    # so the finite route is cheap at any degree; SL(6) has a box of
    # 20,160 monomials at degree 12, where p(12) = 77
    (SLnDefining(4), e(4), 8, True),         # 186 <= 135,726
    (SLnDefining(6), h(2), 6, False),        # 100,320 > 928
    (SLnDefining(3), h(3), 10, True),        # 25,900 <= 92,934
    (SLnDefining(4), h(2), 12, False),       # 114,130 > 30,800
    (SLnDefining(2), e(3), 4, True),         # e_3 is 0 in two variables
    # the permutation family reads its pairings in the class functions
    # of S_min(n, rk), never in an alphabet
    (SnPermutation(2), h(2), 4, False),
    (SnPermutation(3), VIRTUAL, 3, False),
    (SnPermutation(4), NON_INTEGRAL, 4, False),
    (SnPermutation(3), s(2, 1), 3, False),
    (SnPermutation(6), e(2), 3, False),
]


@pytest.mark.parametrize("family,F,r,finite", ROUTED)
def test_routes_agree(finite_calls, family, F, r, finite):
    want_dim, want_char = _p_route(family, F, r)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got_dim = hilbert_dim(family, F, r)
        assert finite_calls == (["polynomial"] if finite else [])
        got_char = inv_char_polyfunc(family, F, r)
    assert finite_calls == (["polynomial"] * 2 if finite else [])
    assert got_dim == want_dim and type(got_dim) is Fraction
    _same_terms(got_char, want_char)
    # the trivial-isotypic part of the character, p_i = 1
    assert got_dim == specialize_ones(got_char)


def test_s_mode_keeps_the_schur_route(finite_calls):
    got = fundamental(h(5), inv_char(SLnDefining(2), 10), 2, "s")
    assert finite_calls == []
    assert got == inv_char_polyfunc(SLnDefining(2), h(5), 2)


def _routed(family, F, r):
    return isinstance(_ring(family, F, r), _Alphabet)


def test_routing_rule_on_larger_groups():
    # the finite route where its estimate is no larger than the p basis's
    assert _routed(SLnDefining(4), e(4), 9)           # 195 <= 320,288
    assert _routed(SLnDefining(4), h(2), 20)          # 1,021,750 <= 1,104,232
    assert _routed(Sp2nDefining(2), h(2), 20)         # 1,579,690 <= 1,850,992
    assert not _routed(Sp2nDefining(2), h(2), 18)     # 970,200 > 810,242
    # degree 40 on Sp(6), inside the plethysm cap
    assert not _routed(Sp2nDefining(3), h(2), 20)    # 116,771,385 > 4,315,300
    # binary forms above the plethysm cap, which only this route answers
    assert _routed(SLnDefining(2), h(25), 10)
    # the invariants_grid benchmark's SL(3) and Sp(4) queries, where the
    # p basis measured 1.2-5x faster with its chi^lam rows memoized
    for family in (SLnDefining(3), Sp2nDefining(2)):
        for F in (h(1), h(2), h(3), h(4), e(2), s(2, 1)):
            for r in range(1, min(5, 12 // F.degree()) + 1):
                assert not _routed(family, F, r), (family, F, r)
    for family in (SnPermutation(2), GLnAdjoint(2), Custom(h_sum_series(4))):
        assert not _routed(family, h(2), 2)


def test_finite_route_is_capped_before_any_product(monkeypatch):
    # SL(2) on h_1 at r = 2000 takes the finite route at an estimated
    # 2.0e9 steps (the p basis's is 1.2e49): refused before it lists F,
    # multiplies, or forms h_r[F]
    def fail(*args):
        raise AssertionError("an alphabet step ran")
    for step in ("mul", "substitute", "polynomial", "evaluate", "h_of",
                 "pair"):
        monkeypatch.setattr(_Alphabet, step, fail)
    for query in (hilbert_dim, inv_char_polyfunc):
        with pytest.raises(ResourceLimitError,
                           match="estimated at 2005001150 steps, beyond "
                                 "the cap 100000000"):
            query(SLnDefining(2), h(1), 2000)
    # a zero answer comes before every cap, the term cap included
    assert inv_char_polyfunc(SLnDefining(2), h(1), 2001).is_zero()
    # r = 734 is the last degree with invariants below the cap
    assert _routed(SLnDefining(2), h(1), 734)
    with pytest.raises(ResourceLimitError):
        _routed(SLnDefining(2), h(1), 736)


def test_routing_expands_nothing(monkeypatch):
    # the estimates read the shapes' bounds and F's own terms only: no
    # Jacobi-Trudi term, chi^lam row or character value while routing
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapped(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, wrapped)
    invariants, symfunc = (sys.modules["symf.invariants"],
                           sys.modules["symf.symfunc"])
    _reset_memo()  # the kept alphabets' weights are built afresh
    spy(sys.modules["symf.alphabet"], "_jacobi_trudi")
    spy(invariants, "_schur_p")
    spy(symfunc, "_schur_p")
    spy(sys.modules["symf.characters"], "_chi")
    cases = [(SLnDefining(4), e(4), 8), (SLnDefining(6), h(2), 6),
             (Sp2nDefining(3), h(2), 20), (Sp2nDefining(2), s(2, 1), 4),
             (SLnDefining(3), s(3, 1), 6), (SLnDefining(2), VIRTUAL, 6),
             (SLnDefining(2), NON_INTEGRAL, 6), (SLnDefining(4), e(2), 4)]
    routes = [_routed(*case) for case in cases]
    assert calls == []
    assert routes == [True, False, False, False, True, True, True, False]
    # the spies are live: the pairing weights are Jacobi-Trudi's terms,
    # one for each of the 4! permutations
    assert len(_ring(SLnDefining(4), e(4), 8).weights) == 24
    assert calls == ["_jacobi_trudi"]


# (family, F, r) over SL(n <= 6), Sp(2n <= 10), GL(n <= 3) adjoint and
# perm n <= 3, five functors and r*k <= 60: the ring _ring picks, or its
# refusal, pinned by the digest of the routes taken at 9ca0dc7
ROUTE_FAMILIES = ([SLnDefining(n) for n in range(1, 7)]
                  + [Sp2nDefining(n) for n in range(1, 6)]
                  + [GLnAdjoint(n) for n in range(1, 4)]
                  + [SnPermutation(n) for n in range(1, 4)])
ROUTE_FUNCTORS = {"h1": h(1), "h2": h(2), "h3": h(3), "e2": e(2),
                  "s21": s(2, 1)}
ROUTES_SHA256 = \
    "72d1b8bd869886be2d524ef7f00d35be6d3967a3d6eb3b948792f3894dab0c8e"


def test_routes_match_the_pinned_digest():
    lines = []
    for family in ROUTE_FAMILIES:
        for name, F in ROUTE_FUNCTORS.items():
            for r in range(60 // F.degree() + 1):
                try:
                    outcome = type(_ring(family, F, r)).__name__
                except ResourceLimitError as exc:
                    outcome = str(exc)
                lines.append("%r %s %d %s" % (family, name, r, outcome))
    assert len(lines) == 2805
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ROUTES_SHA256


def test_shape_facts_match_the_listed_shapes():
    # the zero test, the count and the bounds that routing reads from n
    # and d, against the shapes themselves; at n = 10^12 the count runs
    # over parts up to d/2, not n
    grid = [(n, range(61)) for n in range(1, 9)] + [(10**12, range(7))]
    for n, degrees in grid:
        for family in (SLnDefining(n), Sp2nDefining(n)):
            for d in degrees:
                count, bounds, lister = _shape_facts(family, d)
                shapes = lister()
                want = _Alphabet(shapes).bounds if shapes else ()
                assert (count, bounds) == (len(shapes), want), (family, d)


def test_shapes_are_listed_only_by_the_pairing(monkeypatch):
    # routing reads the facts alone; the shapes of each (family, d) are
    # listed once in a process, by the first query that pairs with them,
    # for the p basis's pairing or the alphabet's Jacobi-Trudi weights,
    # both kept
    _reset_memo()
    calls = []

    def spy(family, d):
        count, bounds, shapes = _shape_facts(family, d)

        def lister():
            calls.append(d)
            return shapes()
        return count, bounds, lister
    monkeypatch.setattr("symf.invariants._shape_facts", spy)
    cases = [(SLnDefining(2), h(2), 4, _PBasis),
             (Sp2nDefining(2), s(2, 1), 2, _PBasis),
             (SLnDefining(3), e(2), 6, _Alphabet),
             (Sp2nDefining(1), e(2), 5, _Alphabet),
             (SLnDefining(2), h(3), 3, type(None)),
             (Sp2nDefining(1), s(2, 1), 1, type(None))]
    for family, F, r, ring in cases:
        d = r * F.degree()
        assert type(_ring(family, F, r)) is ring
        assert calls == []
        for query, lists in ((hilbert_dim, True), (inv_char_polyfunc, False)):
            query(family, F, r)
            assert calls == ([d] if lists and ring is not type(None)
                             else []), (family, F, r, query)
            calls.clear()
    # I_82(Sp(40)) has 41,869 shapes, more than the term cap: refused
    # from the count, before the lister runs
    with pytest.raises(ResourceLimitError,
                       match="^the answer has up to 41869 terms, beyond the "
                             "cap 37338$"):
        inv_char(Sp2nDefining(20), 82)
    assert calls == []
    # above the plethysm cap, where I_140(Sp(40)) has 3,034,232 shapes
    for query in (_ring, hilbert_dim):
        with pytest.raises(ResourceLimitError, match="degree 140"):
            query(Sp2nDefining(20), h(1), 140)
    assert calls == []


# ---------------------------------------------------------------------
# packed exponent keys against exponent tuples
# ---------------------------------------------------------------------

class _TupleRing:
    """The finite alphabet's multiply and x -> x^j on exponent tuples,
    one exponent at a time: the reference for the packed keys."""

    def __init__(self, bounds):
        self.bounds = bounds

    def mul(self, a, b, out=None):
        out = {} if out is None else out
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                if all(map(le, e, self.bounds)):
                    out[e] = out.get(e, 0) + ca * cb
        return out

    def substitute(self, f, j):
        out = {}
        for e, c in f.items():
            e = tuple(j * a for a in e)
            if all(map(le, e, self.bounds)):
                out[e] = c
        return out


def _packed_ring(bounds):
    # an alphabet's packing for any bounds, 0 included, which no set of
    # shapes gives
    ring = _Alphabet.__new__(_Alphabet)
    ring._fields(bounds)
    return ring


def _unpack(ring, f):
    fields = [(s, (1 << (2 * b + 1).bit_length()) - 1)
              for s, b in zip(ring.shifts, ring.bounds)]
    return {tuple(key >> s & mask for s, mask in fields): c
            for key, c in f.items()}


# bounds on either side of a change of field width, up to 8 bits
FIELD_EDGES = (0, 1, 2, 3, 4, 31, 32, 63, 64, 126, 127)


def _random_poly(rng, bounds):
    # exponents at 0, at the bound, one below it or anywhere in between
    def exponent(b):
        return rng.choice((0, b, max(b - 1, 0), rng.randint(0, b)))
    return {tuple(map(exponent, bounds)):
            rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 7)))
            for _ in range(rng.randint(1, 12))}


def test_packed_ring_matches_the_tuple_ring_at_the_field_edges():
    rng = random.Random(18)
    for _ in range(400):
        bounds = tuple(rng.choice(FIELD_EDGES)
                       for _ in range(rng.randint(1, 4)))
        ring, ref = _packed_ring(bounds), _TupleRing(bounds)
        a, b, c = (_random_poly(rng, bounds) for _ in range(3))

        def pack(f):
            return {ring.pack(e): v for e, v in f.items()}
        assert _unpack(ring, ring.mul(pack(a), pack(b))) == ref.mul(a, b)
        assert _unpack(ring, ring.mul(pack(a), pack(b), pack(c))) == \
            ref.mul(a, b, dict(c))
        # x_1 + ... + x_L, which the ring keeps whole although x_i is
        # outside the box where B_i = 0
        x = {tuple(int(i == j) for j in range(len(bounds))): 1
             for i in range(len(bounds))}
        for j in (1, 2, 3, 5, 32, 64, 127, 128):
            for f in (a, x):
                assert _unpack(ring, ring.substitute(pack(f), j)) == \
                    ref.substitute(f, j), (bounds, j)


def test_binary_forms_against_cayley_sylvester():
    # the oracle's whole range, k*r <= 120, r = 0 included: above the
    # plethysm cap only the finite alphabet answers, and it lists h_k
    # from its monomials, where it once expanded it over p(k) classes
    for k in range(1, 121):
        for r in range(120 // k + 1):
            assert hilbert_dim(SLnDefining(2), h(k), r) == \
                oracle_cayley_sylvester(k, r), (k, r)


@pytest.mark.parametrize("k,r", [(4, 15), (4, 16), (8, 15)])
def test_binary_forms_at_the_field_edges(finite_calls, k, r):
    # bounds (31, 30), (33, 32) and (61, 60): products reach 62 in a
    # full 6-bit field, then 66 and 122 in 7-bit ones
    assert _Alphabet(_shape_facts(SLnDefining(2), k * r)[2]()).bounds == \
        (k * r // 2 + 1, k * r // 2)
    assert hilbert_dim(SLnDefining(2), h(k), r) == \
        oracle_cayley_sylvester(k, r)
    assert finite_calls == ["polynomial"]


def test_finite_route_at_weight_36_on_sl4(finite_calls):
    # Lambda^4 of the defining space is the determinant, trivial for
    # SL(4): one invariant in each degree, on which S_r acts trivially.
    # The p-basis route would expand the chi^(9,9,9,9) row here.
    assert hilbert_dim(SLnDefining(4), e(4), 9) == 1
    assert inv_char_polyfunc(SLnDefining(4), e(4), 9) == h(9)
    assert finite_calls == ["polynomial"] * 2


@pytest.mark.parametrize("family", [SLnDefining(1), SLnDefining(2),
                                    SLnDefining(3), SLnDefining(4),
                                    Sp2nDefining(1), Sp2nDefining(2),
                                    Sp2nDefining(3)])
def test_finite_route_below_the_rule(family):
    # the alphabet built whatever the routing rule says, r = 0 and the
    # degrees where the rule keeps the p-basis route included
    functors = (h(1), h(2), h(3), e(2), s(2, 1), VIRTUAL, NON_INTEGRAL)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for F in functors:
            for r in range(9 // F.degree() + 1):
                shapes = _shape_facts(family, r * F.degree())[2]()
                if not shapes:
                    continue
                alphabet = _Alphabet(shapes)
                want_dim, want_char = _p_route(family, F, r)
                f = alphabet.evaluate(_p_dict(F))
                assert alphabet.pair(_h_of(f, r, alphabet)) == want_dim
                _same_terms(_pairings(f, r, alphabet.pair, alphabet),
                            want_char)


def test_kept_sides_of_the_pairing_equal_fresh_ones():
    # I_d(V)'s side is built once per (family, d) and kept: the alphabet
    # with its bounds, weights and listed h_k, and the p-basis pairing
    _reset_memo()
    for family, d in [(SLnDefining(2), 12), (SLnDefining(3), 12),
                      (Sp2nDefining(1), 10), (Sp2nDefining(2), 8)]:
        kept = _alphabet(family, d)
        assert _alphabet(family, d) is kept
        hilbert_dim(family, h(d // 2), 2)  # builds weights and h_(d/2)
        fresh = _Alphabet(_shape_facts(family, d)[2]())
        assert (kept.bounds, kept.shifts, kept.weights) == \
            (fresh.bounds, fresh.shifts, fresh.weights)
        assert kept.polynomial(h(d // 2)) == fresh.polynomial(h(d // 2)) == \
            fresh.evaluate(_p_dict(h(d // 2)))
    for family, d in [(SLnDefining(2), 8), (Sp2nDefining(2), 6),
                      (GLnAdjoint(2), 6), (GLnAdjoint(3), 0)]:
        kept = _inv_pairing(family, d)
        assert _inv_pairing(family, d) is kept
        fresh = _Pairing(_p_dict(inv_char(family, d)))
        assert (kept.n, kept.weights) == (fresh.n, fresh.weights)
    _reset_memo()


@pytest.mark.parametrize("family", [SLnDefining(2), Sp2nDefining(1),
                                    SnPermutation(2), GLnAdjoint(2),
                                    Custom(h_sum_series(4))], ids=repr)
def test_r_zero_reads_no_functor(monkeypatch, family):
    # h_0[F] = 1 and I_0 = 1, so every ring uses its one: F is neither
    # counted, expanded nor listed, whatever its degree
    def fail(*args):
        raise AssertionError("F was read")
    for owner, name in [(_Alphabet, "polynomial"), (_Alphabet, "evaluate"),
                        (_Classes, "evaluate")]:
        monkeypatch.setattr(owner, name, fail)
    for name in ("_p_values", "_monomial_count"):
        monkeypatch.setattr("symf.invariants." + name, fail)
    for F in (h(70), s(40, 30), e(2)):
        assert hilbert_dim(family, F, 0) == 1
        assert inv_char_polyfunc(family, F, 0) == one()


def test_gl_refuses_a_schur_positive_functor_from_its_terms(monkeypatch):
    # GL(n)'s I_rk holds h_rk, so a Schur positive F with F(1) > 0 has an
    # answer of dimension at least F(1)^r: refused at the target's cap
    # without building I_rk; e2(1) = 0 and a virtual F still read it
    dimensions = []

    def spy(family, P, r):
        dimensions.append(P)
        return 1
    monkeypatch.setattr("symf.invariants._dimension", spy)
    for F in (h(2), s(2), s(2) + s(1, 1), e(1, 1) * 3, h(2, 1)):
        with pytest.raises(ResourceLimitError, match="capped at degree 16"):
            _check_target(GLnAdjoint(9), F, 20, "h")
    assert dimensions == []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # h2 - e2 is virtual
        for F in (e(2), s(1, 1), h(2) - e(2)):
            with pytest.raises(ResourceLimitError, match="capped at degree"):
                _check_target(GLnAdjoint(9), F, 20, "h")
    # the other families read it for any F
    with pytest.raises(ResourceLimitError, match="capped at degree 16"):
        _check_target(SLnDefining(2), h(2), 20, "h")
    assert dimensions == [e(2), s(1, 1), h(2) - e(2), h(2)]


@pytest.mark.parametrize("family", [SLnDefining(2), SLnDefining(3),
                                    Sp2nDefining(1), SnPermutation(2),
                                    GLnAdjoint(2)], ids=repr)
def test_dimension_is_the_answer_at_the_identity(family):
    # symf inv refuses a functor of degree >= 2 at its output cap where
    # <F^r, I_rk(V)> is nonzero: it is r! times the p_(1^r) coefficient
    # of I_r(P(V)), zero or not, for genuine and virtual F
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # p2 is virtual
        for F in (h(2), e(2), p(2), s(2, 1)):
            for r in range(6):
                answer = to_basis(inv_char_polyfunc(family, F, r), "p")
                assert _dimension(family, F, r) == \
                    factorial(r) * answer.terms.get((1,) * r, 0), (F, r)


def test_polyfunc_is_refused_before_the_invariants_are_built(monkeypatch):
    # I_42 of the permutation family is never zero, so the degree alone
    # decides, as it does for hilbert_dim; building it ran past a minute
    def fail(*args):
        raise AssertionError("I_d was built")
    monkeypatch.setattr("symf.invariants.inv_char", fail)
    with pytest.raises(ResourceLimitError,
                       match="^plethysm of degree 42 is beyond the cap 40$"):
        inv_char_polyfunc(SnPermutation(2), PolyFunctor(h(2)), 21)
