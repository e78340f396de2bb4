"""Derandomized property tests of base change, skipped without hypothesis.

Random rational f of degree <= 10 in each of the five bases: every
round trip lands back on the p expansion, omega is an involution that
swaps h and e, and the m and h coefficients are the scalar products
with the dual basis.  Sums and products of operands in mixed bases obey
the ring axioms, h_n and e_n act by the Kronecker product as the
identity and omega, and fundamental() agrees in p and s mode.  Plethysm
is linear and multiplicative in its left argument, and p_n[g]
substitutes p_k -> p_nk in g.  The kernel product with a degree cap is
the full product with the terms above the cap dropped, in the same
order, and both match the tuple-keyed reference in test_kernel.py.
Newton's recurrence builds h_r[a] equal to the plethysm of h_r with a,
both on class function values and in a finite alphabet, and the pairing
on packed keys is the scalar product on partitions.  A weighted sum of
packed class columns or rows of the p-to-m matrix, at every field width
up to four words, is the plain sum in Fractions.  Every kernel
result, whose Partition keys and Fraction values the constructor takes
as they are, is the SymFn the constructor builds from its terms.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from symf.partitions import Partition, partitions_of
from symf.invariants import (GLnAdjoint, SLnDefining, SnPermutation,
                             Sp2nDefining, _Alphabet, inv_char)
from symf.plethysm import _Pairing, _h_of, _pleth_p, fundamental, plethysm
from symf import characters, symfunc
from symf.symfunc import (BASES, SymFn, _packed, _scalar_p, _unpacked,
                          _vector_sum, e, h,
                          kronecker, m, one, p, scalar, to_basis)
from test_kernel import _reference_mul, mul

derandomized = settings(derandomize=True, database=None, deadline=None,
                        max_examples=40)


def shapes_of(d):
    return st.sampled_from([tuple(mu) for mu in partitions_of(d)])


shapes = st.integers(0, 10).flatmap(shapes_of)
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def symfns(draw, max_degree=10, degree=None):
    # degree=None mixes degrees 0..max_degree; otherwise f is homogeneous
    basis = draw(st.sampled_from(BASES))
    shape = (shapes_of(degree) if degree is not None else
             st.integers(0, max_degree).flatmap(shapes_of))
    terms = draw(st.lists(st.tuples(shape, rationals), min_size=1, max_size=4))
    return SymFn(basis, terms)


def omega(f):
    # omega fixes p_mu up to the sign (-1)^(|mu| - l(mu))
    return SymFn("p", {mu: c if (sum(mu) - len(mu)) % 2 == 0 else -c
                       for mu, c in to_basis(f, "p").terms.items()})


@derandomized
@given(symfns())
def test_round_trip_through_every_basis(f):
    fp = to_basis(f, "p").terms
    for target in BASES:
        assert to_basis(to_basis(f, target), "p").terms == fp


@derandomized
@given(symfns())
def test_omega_is_an_involution_swapping_h_and_e(f):
    assert omega(omega(f)) == f
    # omega(h_mu) = e_mu, so f's h coefficients are omega(f)'s e ones
    assert to_basis(omega(f), "e").terms == to_basis(f, "h").terms


@derandomized
@given(shapes)
def test_h_in_e_matches_e_in_h(lam):
    assert to_basis(h(*lam), "e").terms == to_basis(e(*lam), "h").terms


@derandomized
@given(symfns())
def test_coefficients_are_dual_scalar_products(f):
    in_m, in_h = to_basis(f, "m"), to_basis(f, "h")
    for d in f.degrees():
        for mu in partitions_of(d):
            assert in_m.coefficient(mu) == scalar(f, h(*mu))
            assert in_h.coefficient(mu) == scalar(f, m(*mu))


# Operands of degree <= 3, so that triple products stay at degree <= 9.
small = symfns(max_degree=3)


@derandomized
@given(small, small, small)
def test_ring_axioms_across_bases(f, g, k):
    assert (f + g) + k == f + (g + k)
    assert f + g == g + f
    assert (f * g) * k == f * (g * k)
    assert f * g == g * f
    assert f * (g + k) == f * g + f * k
    assert f + 0 == f
    assert f * one() == f
    assert f - f == 0


@derandomized
@given(st.integers(1, 10), st.data())
def test_h_n_is_the_kronecker_identity(n, data):
    f = data.draw(symfns(degree=n))
    assert kronecker(h(n), f) == f
    assert kronecker(e(n), f) == omega(f)


@derandomized
@given(st.integers(1, 10).flatmap(
           lambda k: st.tuples(st.just(k), st.integers(0, 10 // k))),
       st.data())
def test_fundamental_p_mode_matches_s_mode(kr, data):
    k, r = kr
    F = data.draw(symfns(degree=k))
    assume(not F.is_zero())
    G = data.draw(symfns(degree=r * k))
    assert fundamental(F, G, r, "p") == fundamental(F, G, r, "s")


@st.composite
def pleth_operands(draw, count):
    # g of degree <= 3 and count left operands whose degrees sum to at
    # most 9 // deg g, so that every f[g] drawn has degree <= 9
    g = draw(symfns(max_degree=draw(st.integers(1, 3))))
    budget = 9 // max(g.degrees() + [1])
    fs = []
    for _ in range(count):
        d = draw(st.integers(0, budget))
        budget -= d
        fs.append(draw(symfns(max_degree=d)))
    return fs, g


@derandomized
@given(pleth_operands(2), rationals, rationals)
def test_plethysm_is_linear_in_f(operands, a, b):
    (f1, f2), g = operands
    assert plethysm(a * f1 + b * f2, g) == \
        a * plethysm(f1, g) + b * plethysm(f2, g)


@derandomized
@given(pleth_operands(2))
def test_plethysm_is_multiplicative_in_f(operands):
    (f1, f2), g = operands
    assert plethysm(f1 * f2, g) == plethysm(f1, g) * plethysm(f2, g)


@derandomized
@given(symfns(max_degree=3), st.integers(1, 3))
def test_power_sum_plethysm_substitutes(g, n):
    want = SymFn("p", {tuple(n * a for a in mu): c
                       for mu, c in to_basis(g, "p").terms.items()})
    assert plethysm(p(n), g) == want


# kernel dicts: part tuples of weight <= 5 to nonzero int or Fraction
# class function values
class_values = st.one_of(st.integers(-3, 3), rationals).filter(bool)
class_functions = st.dictionaries(st.integers(0, 5).flatmap(shapes_of),
                                  class_values, min_size=1, max_size=6)


@st.composite
def cancelling_factors(draw):
    # (a, b) with one key k of a*b cancelled: a gets a constant term a0,
    # and since only the pair ((), k) adds to k from b's term at k,
    # moving that term by -(a*b)_k / a0 sends (a*b)_k to zero
    a, b = draw(class_functions), draw(class_functions)
    a[()] = draw(class_values)
    full = mul(a, b)
    if full:
        k = draw(st.sampled_from(list(full)))
        b[k] = b.get(k, 0) - Fraction(full[k]) / a[()]
        if not b[k]:
            del b[k]
    return a, b


@derandomized
@given(cancelling_factors())
def test_capped_product_is_the_truncated_product(factors):
    # caps below, inside and above the product's degrees 0..15, each
    # product also equal, in value and order, to the tuple-keyed reference
    a, b = factors
    full = mul(a, b)
    assert list(full.items()) == list(_reference_mul(a, b).items())
    for cap in range(-1, 17):
        got = list(mul(a, b, cap).items())
        assert got == [(k, v) for k, v in full.items() if sum(k) <= cap]
        assert got == list(_reference_mul(a, b, cap).items())


@st.composite
def newton_operands(draw):
    # (a, r): a of weight <= 3 with Fraction values and a constant term
    # or not, or c p_2 - c^2 p_1^2, whose h_2 has its p_(2,2) terms
    # cancel; r <= 6
    a = draw(st.one_of(
        st.dictionaries(st.integers(1, 3).flatmap(shapes_of), class_values,
                        min_size=1, max_size=4),
        st.builds(lambda c: {(2,): 2 * c, (1, 1): -2 * c * c}, class_values)))
    if draw(st.booleans()):
        a[()] = draw(class_values)
    return a, draw(st.integers(0, 6))


@derandomized
@given(newton_operands())
def test_newton_recurrence_is_the_h_plethysm(operands):
    a, r = operands
    hr = dict.fromkeys(map(tuple, partitions_of(r)), 1)
    # _h_of keys h_r[a] by packed keys, as the p-basis ring does
    assert _unpacked(_h_of(a, r)) == _pleth_p(hr, a)


@derandomized
@given(newton_operands(),
       st.lists(st.integers(1, 6).flatmap(shapes_of).filter(
           lambda lam: len(lam) <= 3), min_size=1, max_size=2))
def test_newton_recurrence_in_a_finite_alphabet(operands, shapes):
    a, r = operands
    alphabet = _Alphabet(shapes)
    hr = dict.fromkeys(map(tuple, partitions_of(r)), 1)
    assert _h_of(alphabet.evaluate(a), r, alphabet) == \
        alphabet.evaluate(_pleth_p(hr, a))


@derandomized
@given(st.dictionaries(st.integers(0, 5).flatmap(shapes_of), class_values,
                       max_size=6),
       st.integers(0, 5).flatmap(lambda d: st.dictionaries(
           shapes_of(d), class_values, min_size=1, max_size=6)),
       st.booleans())
@example({}, {(2, 1): 3}, False)
@example({(2, 1): Fraction(1, 2)}, {(3,): 3}, False)
def test_pairing_on_packed_keys_is_the_scalar_product(f, g, disjoint):
    # g homogeneous, f of any degrees, int and Fraction values on either
    # side; an empty f, or one off g's support, pairs to 0
    if disjoint:
        f = {mu: v for mu, v in f.items() if mu not in g}
    got = _Pairing(g)(_packed(f))
    assert type(got) is Fraction and got == _scalar_p(f, g)


@st.composite
def vector_sums(draw):
    # the s or m target, a degree d up to the table cap and signed int or
    # Fraction weights on classes of d, of up to 200 bits
    target = draw(st.sampled_from("sm"))
    d = draw(st.sampled_from((0, 1, 5, 12, 20)))
    size = st.integers(0, 200).flatmap(
        lambda bits: st.integers(-2 ** bits, 2 ** bits))
    weight = st.one_of(size,
                       st.builds(Fraction, size, st.integers(1, 10 ** 6)))
    weights = draw(st.dictionaries(shapes_of(d), weight, min_size=1,
                                   max_size=6))
    return target, d, weights


def plain_vector_sum(target, d, weights):
    # the sum over mu of w_mu vector(mu), entry by entry, in Fractions
    vector = characters._column if target == "s" else symfunc._m_row
    return [sum(Fraction(w) * vector(mu)[i] for mu, w in weights.items())
            for i in range(len(partitions_of(d)))]


# one class of S_20 weighted about 2^b takes fields of 1, 2, 3 and 4 words
WIDE = [(k, target, 20, {mu: w})
        for target, mu, sign in (("s", (2,) * 10, 1), ("m", (20,), -1))
        for k, b in enumerate((0, 80, 140, 200), 1)
        for w in (sign * Fraction(2 ** b, 3),)]


@derandomized
@given(vector_sums())
@example(("m", 20, {(20,): 1, (1,) * 20: -1}))
def test_packed_vector_sum_is_the_plain_sum(case):
    # columns of S_d and rows of R, whose entries reach 20! at d = 20
    target, d, weights = case
    sums, D = _vector_sum(target, weights, d)
    assert all(type(v) is int for v in sums)
    assert [Fraction(v, D) for v in sums] == plain_vector_sum(*case)


@pytest.mark.parametrize("k, target, d, weights", WIDE)
def test_packed_vector_sum_takes_every_width(k, target, d, weights,
                                             monkeypatch):
    widths = []
    decode = symfunc._unpacked_vector

    def spy(total, k, n):
        widths.append(k)
        return decode(total, k, n)
    monkeypatch.setattr(symfunc, "_unpacked_vector", spy)
    sums, D = _vector_sum(target, weights, d)
    assert widths == [k]
    assert [Fraction(v, D) for v in sums] == \
        plain_vector_sum(target, d, weights)


def assert_validated(f):
    # what SymFn's constructor would build from f's own terms: Partition
    # keys, nonzero Fraction values, the same items in the same order
    assert all(type(mu) is Partition for mu in f.terms)
    assert all(type(c) is Fraction and c for c in f.terms.values())
    assert list(SymFn(f.basis, f.terms).terms.items()) == \
        list(f.terms.items())


families = st.builds(lambda family, n: family(n),
                     st.sampled_from((SLnDefining, Sp2nDefining,
                                      SnPermutation, GLnAdjoint)),
                     st.integers(1, 3))


@derandomized
@given(symfns(max_degree=8), symfns(max_degree=4), symfns(max_degree=4),
       families, st.integers(0, 8), st.data())
def test_kernel_results_are_validated_symfns(f, a, b, family, r, data):
    # inputs in all five bases, every result of degree <= 8
    results = [to_basis(f, target) for target in BASES]
    results += [a * b, a + b, kronecker(a, b), inv_char(family, r)]
    g = data.draw(symfns(max_degree=2))
    left = data.draw(symfns(max_degree=8 // max(g.degrees() + [1])))
    results.append(plethysm(left, g))
    k = data.draw(st.integers(1, 4))
    rk = data.draw(st.integers(0, 8 // k))
    F, G = data.draw(symfns(degree=k)), data.draw(symfns(degree=k * rk))
    if not F.is_zero():
        results += [fundamental(F, G, rk, mode) for mode in ("p", "s")]
    for out in results:
        assert_validated(out)
