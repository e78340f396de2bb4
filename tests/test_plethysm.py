import sys

import pytest
from fractions import Fraction

from symf.errors import DegreeError, ResourceLimitError, TruncationError
from symf.oracles import oracle_plethysm_schur
from symf.plethysm import (GradedSeries, fundamental, h_plus_series,
                           h_sum_series, plethysm, plethysm_series)
from symf.selftest import check_fundamental_forms
from symf.symfunc import (SymFn, _key, _mul_p, e, h, m, one, p, s, scalar,
                          to_basis, zero)


def test_power_sum_substitution_rule():
    assert plethysm(p(3), p(2)) == p(6)
    assert plethysm(p(2), h(2)) == SymFn("p", {(4,): Fraction(1, 2),
                                               (2, 2): Fraction(1, 2)})
    # constants inside g ride through untouched
    assert plethysm(p(2), one() + h(2)) == one() + plethysm(p(2), h(2))
    assert plethysm(p(2), 3 * one()) == 3 * one()


def test_identity_element():
    for f in [h(3), e(2, 1), s(2, 2), p(4) - 2 * m(2, 1)]:
        assert plethysm(f, p(1)) == f
        assert plethysm(p(1), f) == f


def test_linearity_and_multiplicativity():
    g = h(2) + e(2)
    assert plethysm(2 * h(2) + e(3), g) == \
        2 * plethysm(h(2), g) + plethysm(e(3), g)
    assert plethysm(h(2) * e(2), g) == plethysm(h(2), g) * plethysm(e(2), g)


def test_degrees_multiply():
    f = plethysm(s(2, 1), h(2))
    assert f.is_homogeneous() and f.degree() == 6
    assert plethysm(h(4), e(3)).degree() == 12


def test_associativity_on_small_triples():
    triples = [(h(2), h(2), h(2)), (e(2), h(2), p(2)),
               (p(2), e(2), h(2)), (s(2), s(1, 1), p(3)),
               (h(3), p(2), e(2))]
    for f, g, w in triples:
        assert plethysm(plethysm(f, g), w) == plethysm(f, plethysm(g, w))


def test_headline_plethysms():
    assert plethysm(h(2), h(2)) == s(4) + s(2, 2)
    assert plethysm(e(2), e(2)) == s(2, 1, 1)
    assert plethysm(e(2), h(2)) == s(3, 1)
    assert plethysm(h(2), e(2)) == s(2, 2) + s(1, 1, 1, 1)
    assert plethysm(h(3), h(2)) == s(6) + s(4, 2) + s(2, 2, 2)
    assert scalar(plethysm(h(2), h(2)), h(2) * h(2)) == 2


def test_against_monomial_oracle():
    for a in range(1, 5):
        for b in range(1, 5):
            if a * b > 8:
                continue
            assert plethysm(h(a), h(b)) == oracle_plethysm_schur("hh", a, b)
            assert plethysm(e(a), e(b)) == oracle_plethysm_schur("ee", a, b)


def test_degree_cap_refuses_before_expanding(monkeypatch):
    # deg f * deg g up to 40 is computed; past it nothing is expanded
    assert plethysm(p(2), p(20)) == p(40)
    assert plethysm(p(1, 1), p(5) + 3) == p(5, 5) + 6 * p(5) + 9

    def spy(*args):
        raise AssertionError("expanded")
    # the package re-exports the function under the module's name
    module = sys.modules["symf.plethysm"]
    monkeypatch.setattr(module, "_pleth_p", spy)
    monkeypatch.setattr(module, "_p_dict", spy)
    for f, g in ((h(2), h(30)), (p(41), p(1)), (s(3, 2) + 1, e(9) + h(1))):
        with pytest.raises(ResourceLimitError, match="beyond the cap 40$"):
            plethysm(f, g)


def test_graded_series_contract():
    series = GradedSeries(4, {0: one(), 2: h(2)})
    assert series.component(0) == one()
    assert series.component(1).is_zero()
    assert series.component(2) == h(2)
    with pytest.raises(TruncationError):
        series.component(5)
    with pytest.raises(ValueError):
        series.component(-1)
    with pytest.raises(ValueError):
        GradedSeries(-1, {})
    with pytest.raises(ValueError):
        GradedSeries(2, {3: h(3)})
    with pytest.raises(DegreeError):
        GradedSeries(4, {2: h(3)})
    with pytest.raises(DegreeError):
        GradedSeries(4, {3: h(3) + h(1)})


def test_h_series_constructors():
    full = h_sum_series(5)
    assert full.component(0) == one()
    assert full.component(3) == h(3)
    capped = h_sum_series(5, highest=2)
    assert capped.component(2) == h(2)
    assert capped.component(3).is_zero()
    assert capped.truncation_degree == 5
    plus = h_plus_series(4)
    assert plus.component(0).is_zero()
    assert plus.component(4) == h(4)


def test_series_plethysm_matches_finite_expansion():
    # the uncapped check below squares degrees, so keep the cap modest
    cap = 4
    series = plethysm_series(h_sum_series(cap), h_plus_series(cap), cap)
    inner = sum((h(d) for d in range(1, cap + 1)), zero())
    direct = one()
    for a in range(1, cap + 1):
        direct = direct + plethysm(h(a), inner)
    for d in range(cap + 1):
        assert series.component(d) == direct.homogeneous_part(d)


def _series_cases():
    # (F, G, cap): the permutation family's series, and one with rational
    # h, e, s and p components and a constant term in F
    for n in (2, 3):
        for cap in range(1, 11):
            yield h_sum_series(cap, n), h_plus_series(cap), cap
    cap = 9
    F = GradedSeries(cap, {0: Fraction(2, 3) * one(), 1: h(1),
                           2: Fraction(1, 2) * e(2) + s(2) - p(1, 1),
                           3: Fraction(-5, 7) * s(2, 1) + h(3),
                           4: p(2, 2) + Fraction(3, 4) * e(3, 1)})
    G = GradedSeries(cap, {1: Fraction(1, 3) * p(1),
                           2: h(2) - Fraction(2, 5) * e(2),
                           3: s(2, 1) + Fraction(7, 2) * p(3), 4: p(3, 1)})
    yield F, G, cap


def test_series_plethysm_forms_no_product_above_the_cap(monkeypatch):
    # the multiply forms each pair's key as mu + nu, so operand keys that
    # record the weight of every union see each pair formed, including a
    # term met with the empty partition, whose key is the term's own
    formed = []

    class Key(int):
        def __add__(self, other):
            union = int(self) + other
            formed.append(_key(union)[0])
            return union

    def spied(a, b, cap=None):
        return _mul_p({Key(k): v for k, v in a.items()},
                      {Key(k): v for k, v in b.items()}, cap)
    monkeypatch.setattr(sys.modules["symf.plethysm"], "_mul_p", spied)
    for F, G, cap in _series_cases():
        formed.clear()
        plethysm_series(F, G, cap)
        assert formed and max(formed) <= cap


def test_series_plethysm_keeps_term_order(monkeypatch):
    # against the full products with the terms above the cap dropped:
    # the same terms, in the same insertion order
    module = sys.modules["symf.plethysm"]
    capped = [plethysm_series(F, G, cap) for F, G, cap in _series_cases()]

    def filtered(a, b, cap=None):
        return {nu: c for nu, c in _mul_p(a, b).items()
                if cap is None or _key(nu)[0] <= cap}
    monkeypatch.setattr(module, "_mul_p", filtered)
    full = [plethysm_series(F, G, cap) for F, G, cap in _series_cases()]
    for got, want in zip(capped, full):
        assert [(d, list(f.terms.items())) for d, f in got.components.items()] \
            == [(d, list(f.terms.items())) for d, f in want.components.items()]


def test_series_plethysm_guards():
    with pytest.raises(DegreeError):
        plethysm_series(h_plus_series(4), h_sum_series(4), 4)
    with pytest.raises(TruncationError):
        plethysm_series(h_sum_series(3), h_plus_series(4), 4)


def test_fundamental_headline_values():
    # the two-player deal form: coefficient 3/2 on p_{1,1}, 1/2 on p_2
    got = fundamental(h(2), h(2) * h(2), 2)
    assert got == SymFn("p", {(1, 1): Fraction(3, 2), (2,): Fraction(1, 2)})
    assert fundamental(h(2), s(2, 2), 2) == h(2)
    assert fundamental(h(2), s(2, 2), 2, mode="s") == h(2)
    # p_{1,1} = h_{1,1} and p_2 = 2h_2 - h_{1,1}, so the h form is clean
    assert to_basis(got, "h") == h(2) + h(1, 1)


def test_fundamental_degenerate_inputs():
    assert fundamental(h(2), zero(), 3).is_zero()
    assert fundamental(h(2), one(), 0) == one()
    assert fundamental(h(3), 5 * one(), 0) == 5 * one()


def test_fundamental_rejections():
    with pytest.raises(DegreeError):
        fundamental(h(2), h(3), 1)
    with pytest.raises(DegreeError):
        fundamental(h(2) + h(3), h(4), 2)
    with pytest.raises(DegreeError):
        fundamental(zero(), h(4), 2)
    with pytest.raises(DegreeError):
        fundamental(one(), h(4), 2)
    with pytest.raises(ValueError):
        fundamental(h(2), h(4), 2, mode="q")
    with pytest.raises(ValueError):
        fundamental(h(2), h(4), -1)


def test_fundamental_checks_degrees_before_expanding(monkeypatch):
    # h_(50,2) has degree 52, not r*deg F = 4; expanding it first took
    # 10.8 s.  Each refusal keeps its message, read off the degrees.
    def spy(*args):
        raise AssertionError("expanded")
    monkeypatch.setattr(sys.modules["symf.plethysm"], "_p_dict", spy)
    for F, G, r, message in (
            (h(2), h(50, 2), 2, "G must be homogeneous of degree r*deg(F) "
                                "= 4, found degrees [52]"),
            (h(2), h(4) + h(3), 2, "G must be homogeneous of degree "
                                   "r*deg(F) = 4, found degrees [3, 4]"),
            (zero(), h(4), 2, "F must be nonzero and homogeneous of "
                              "degree >= 1"),
            (h(2) + s(3, 1), h(4), 2, "F must be homogeneous, found "
                                      "degrees [2, 4]"),
            (one(), h(4), 2, "F must have degree >= 1")):
        for mode in ("p", "s"):
            with pytest.raises(DegreeError) as info:
                fundamental(F, G, r, mode)
            assert str(info.value) == message
    assert fundamental(h(2), zero(), 30, "s") == zero("s")


def test_fundamental_forms_check():
    # the selftest suite fundamental-forms, which no acceptance test runs
    check_fundamental_forms()


def test_fundamental_modes_agree_on_fixed_pairs():
    pairs = [(h(2), h(2) * h(2), 2), (h(2), s(2, 2), 2),
             (e(2), e(2, 2), 2), (s(2, 1), s(3, 2, 1), 2),
             (h(1), s(2, 1) + s(3), 3), (h(3), h(3) * h(3), 2)]
    for f, g, r in pairs:
        assert fundamental(f, g, r, mode="p") == fundamental(f, g, r, mode="s")


def test_s_mode_multiplies_no_more_than_p_mode(monkeypatch):
    # s mode multiplies each p_mu[F], mu |- r, once per call and sums
    # every s_lam[F] from those products, as p mode pairs them; F and G
    # come in the p basis, so no h expansion multiplies inside the count
    module = sys.modules["symf.plethysm"]
    calls = []

    def counted(a, b, cap=None):
        calls.append(1)
        return _mul_p(a, b, cap)
    monkeypatch.setattr(module, "_mul_p", counted)
    F, G = to_basis(h(2), "p"), to_basis(h(8) * h(8), "p")
    counts = {}
    for mode in "ps":
        calls.clear()
        fundamental(F, G, 8, mode)
        counts[mode] = len(calls)
    assert 0 < counts["s"] <= counts["p"]
