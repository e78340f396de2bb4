import hashlib
import json
import sys

import pytest
from fractions import Fraction

from symf.errors import DegreeError, ResourceLimitError, TruncationError
from symf.invariants import (GLnAdjoint, PolyFunctor, SLnDefining, _ring,
                             hilbert_dim)
from symf.oracles import oracle_plethysm_schur
from symf.partitions import _reset_memo
from symf.plethysm import (GradedSeries, _PBasis, _products, fundamental,
                           h_plus_series, h_sum_series, plethysm,
                           plethysm_series)
from symf.selftest import check_fundamental_forms
from symf.symfunc import (SymFn, _key, _mul_p, _p_dict, e, h, m, one, p, s,
                          scalar, to_basis, to_json_dict, zero)


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


def test_s_mode_is_refused_above_the_table_cap(monkeypatch):
    # s mode reads the columns of S_r, as the s target does; the refusal
    # comes before any product, and after the zero-G return
    def spy(*args):
        raise AssertionError("multiplied")
    monkeypatch.setattr(sys.modules["symf.plethysm"], "_p_powers", spy)
    with pytest.raises(ResourceLimitError) as info:
        fundamental(h(1), h(21), 21, "s")
    assert str(info.value) == ("Schur expansion needs characters of S_21, "
                               "beyond the cap r <= 20")
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
    # both modes read each p_mu[F], mu |- r, from one memo: either mode
    # alone multiplies them all, and a repeat call in either mode
    # multiplies nothing; F and G come in the p basis, so no h expansion
    # multiplies inside the count
    module = sys.modules["symf.plethysm"]
    calls = []

    def counted(a, b, cap=None):
        calls.append(1)
        return _mul_p(a, b, cap)
    monkeypatch.setattr(module, "_mul_p", counted)
    F, G = to_basis(h(2), "p"), to_basis(h(8) * h(8), "p")
    counts = {}
    for mode in "ps":
        _reset_memo()
        calls.clear()
        fundamental(F, G, 8, mode)
        counts[mode] = len(calls)
    assert 0 < counts["s"] == counts["p"]
    for mode in "ps":
        calls.clear()
        fundamental(F, G, 8, mode)
        assert not calls


def test_plethysm_and_fundamental_share_the_products(monkeypatch):
    # a repeat plethysm multiplies nothing, and p_lam[F], lam |- r, formed
    # for h_r[F] are the ones fundamental reads, in either mode
    module = sys.modules["symf.plethysm"]
    calls = []

    def counted(a, b, cap=None):
        calls.append(1)
        return _mul_p(a, b, cap)
    monkeypatch.setattr(module, "_mul_p", counted)
    _reset_memo()
    want = plethysm(h(4), h(4))
    assert calls
    calls.clear()
    assert plethysm(h(4), h(4)) == want
    assert not calls
    for F, G, r in ((h(2), h(4) * h(4), 4),
                    (Fraction(1, 2) * s(2, 1), e(3) * s(3, 3), 3)):
        plethysm(h(r), F)
        misses = _products.cache_info().misses
        for mode in "ps":
            fundamental(F, G, r, mode)
        assert _products.cache_info().misses == misses


# sha256 of the JSON list of to_json_dict(fundamental(F, G, 3, mode)) over
# the F of test_products_memo_keys_on_cleared_integers and both modes, as
# computed when each call multiplied its own products
CLEARED_SHA256 = \
    "440cf6f703236da1b32a56b8fbeaaf6b093ed33ba799ee0851651ed37dd7fe02"


def test_products_memo_keys_on_cleared_integers():
    # the memoized p_lam[F] are keyed on D F's integer values: F whose
    # values are Fraction(1, 1), equal to and hashed as 1, shares them
    # with F of int values, and h_2 / 2 with h_2, in either mode first
    half = Fraction(1, 2)
    Fs = [half * s(2) + half * s(1, 1), half * p(1, 1), half * h(2), h(2)]
    assert any(type(v) is Fraction for v in _p_dict(Fs[0]).values())
    G = h(4) * h(2) + s(3, 3)
    runs = []
    for modes in ("ps", "sp"):
        _reset_memo()
        got = {(i, mode): fundamental(F, G, 3, mode)
               for i, F in enumerate(Fs) for mode in modes}
        runs.append([to_json_dict(got[i, mode])
                     for i in range(len(Fs)) for mode in "ps"])
        for i in range(len(Fs)):
            assert got[i, "p"] == got[i, "s"]
    assert runs[0] == runs[1]
    assert hashlib.sha256(json.dumps(runs[0]).encode()).hexdigest() == \
        CLEARED_SHA256


# sha256 of the JSON list of to_json_dict(fundamental(F, G, r, mode)) over
# _mode_pairs(k, r) and both modes, as computed when s mode summed each
# s_lam[F] on Partition keys and paired it through symfunc._scalar_p;
# keyed by the (deg F, r) of the schur_expand benchmark's mode queries
FUNDAMENTAL_SHA256 = {
    (1, 4): "5f5b79feabb58d895b603cb431c667d5f5b35dc3f05c310d19291713f63d7929",
    (1, 6): "63d71baaf40fe2ff8f8e1c8f2fe30c9ea60147f1df46fafa8fd9dd17e6452c85",
    (2, 3): "2c68ca5c84e668cf578384b8bc585f3d4910f9ec67934bc76309bd554ec77917",
    (2, 4): "c0e909124b0e13308375b8b9033b97caf8d2bfcbe66044af71c788e91ac53a6e",
    (3, 3): "72d15d276e18a558bed1d4a87d72d04e8a884abd28982c874e06b7530bac5ceb",
    (2, 5): "6a3f696c4058e82e5ec7b0f12d13bf50431fc0dd6c36a646f376669543228ac1",
    (3, 4): "bc39d1d0e03360b304dffb6438e6a9f9ebe98b38803a852d1266a53802dd7e91",
    (4, 3): "e5ce58f20362a5dac62578029214b16bc4f82c65f488246c7e1a7c928432533d",
    (2, 6): "72daebc30872ebe84c9bb86819e0806c92679a7d3e71f6eafc19b819409a6712",
    (4, 4): "eb357f968b9848b24a12c8a13088aba559d0957bb9823387547949cc45a2d352",
    (3, 5): "a706225278c64820ab78eabf806bb9f166c7b7a9e02999c0975d25ec1097d2a6",
    (5, 3): "4d01abdacb9dc336c87254bdb817c2ab0a0099d3d87c041aa4b98b15b01810d2",
    (2, 7): "3ef072447b5c8eb9fdd491f16f012fbc836f31c40582b7ad33ef9154649fb600",
    (7, 2): "0d7433854f648d6fd6fad37f0424b539bc2ac5c75fecaa1ae8835611c2778890",
    (2, 8): "6de440b98f5208becb648b32dec300320ee0a1e315a84e43a03444dda23b0ed2",
    (8, 2): "e12c54fbca420e1ed88c8dc3ca66a1d2cc998f6b56802780fcf96fe3b0247f69",
}


def _mode_pairs(k, r):
    # F = h_k, s_(k-1,1) and their conjugates (h_1 and e_1 for k = 1),
    # each against h_a h_b and e_a e_b, a + b = r*k, as the benchmark
    # draws them
    d = r * k
    a, b = d - d // 2, d // 2
    Fs = ((h(1), e(1)) if k == 1 else
          (h(k), s(k - 1, 1), e(k), s(2, *[1] * (k - 2))))
    return [(F, G) for F in Fs for G in (h(a) * h(b), e(a) * e(b))]


@pytest.mark.parametrize("k,r", sorted(FUNDAMENTAL_SHA256))
def test_fundamental_pins_of_the_benchmark_shapes(k, r):
    docs = [to_json_dict(fundamental(F, G, r, mode))
            for F, G in _mode_pairs(k, r) for mode in "ps"]
    assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == \
        FUNDAMENTAL_SHA256[k, r]


def test_pairings_unpack_no_product(monkeypatch):
    # both modes of fundamental and hilbert_dim on the p basis pair every
    # p_lam[F], s_lam[F] and h_r[F] on its packed keys
    module = sys.modules["symf.plethysm"]
    F, G, family = h(2), h(4) * h(4), GLnAdjoint(3)
    want = {mode: fundamental(F, G, 4, mode) for mode in "ps"}
    dim = hilbert_dim(family, PolyFunctor(F), 3)
    small = hilbert_dim(SLnDefining(2), PolyFunctor(F), 2)
    assert isinstance(_ring(family, F, 3), _PBasis)
    assert isinstance(_ring(SLnDefining(2), F, 2), _PBasis)

    def spy(a):
        raise AssertionError("unpacked a product")
    monkeypatch.setattr(module, "_unpacked", spy)
    monkeypatch.setattr(module._PBasis, "unpack", staticmethod(spy))
    for mode in "ps":
        assert fundamental(F, G, 4, mode) == want[mode]
    assert hilbert_dim(family, PolyFunctor(F), 3) == dim
    assert hilbert_dim(SLnDefining(2), PolyFunctor(F), 2) == small
    # the spy is live: plethysm still unpacks at its edge
    with pytest.raises(AssertionError):
        plethysm(h(2), h(2))
