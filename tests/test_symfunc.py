import json
import math
from functools import lru_cache

import pytest
from fractions import Fraction

from symf import characters, symfunc
from symf.errors import DegreeError, ResourceLimitError
from symf.oracles import oracle_syt
from symf.partitions import Partition, partitions_of, z_of
from symf.plethysm import plethysm
from symf.symfunc import (BASES, SymFn, _p_to_m, _schur_p,
                          _schur_p_jacobi_trudi,
                          dimension, e, from_json_dict, generator, h,
                          kronecker, m, monomial_coefficient, one, p, s,
                          scalar, specialize_ones, to_basis, to_json_dict,
                          zero)


def test_constructor_cleans_input():
    f = SymFn("p", {(2, 1): Fraction(1, 2), (3,): 0})
    assert f.terms == {Partition((2, 1)): Fraction(1, 2)}
    assert all(isinstance(k, Partition) for k in f.terms)
    assert zero().is_zero()
    assert not h(2).is_zero()
    with pytest.raises(ValueError):
        SymFn("q", {})


def test_constructor_refuses_inexact_coefficients():
    from decimal import Decimal
    for value in (0.1, 0.5, Decimal("0.1"), 1j):
        with pytest.raises(TypeError):
            SymFn("p", {(1,): value})
    # exact inputs still pass, including strings Fraction can parse
    assert SymFn("p", {(1,): "1/10"}) == SymFn("p", {(1,): Fraction(1, 10)})
    assert SymFn("p", {(1,): 2}).coefficient([1]) == 2


def test_instances_are_immutable():
    f = h(2)
    with pytest.raises(AttributeError):
        f.basis = "e"
    with pytest.raises(AttributeError):
        f.extra = 1


def test_degrees_and_homogeneity():
    f = h(2) + h(3)
    assert f.degrees() == [2, 3]
    assert not f.is_homogeneous()
    with pytest.raises(DegreeError):
        f.degree()
    assert h(2).degree() == 2
    assert one().degree() == 0
    assert zero().degree() == 0
    assert f.homogeneous_part(2) == h(2)
    assert f.homogeneous_part(5).is_zero()


def test_power_sum_expansions_of_generators():
    # h3 and e3 written in the power sum basis, the classical fractions
    sixth = Fraction(1, 6)
    assert to_basis(h(3), "p") == SymFn("p", {(1, 1, 1): sixth,
                                              (2, 1): Fraction(1, 2),
                                              (3,): Fraction(1, 3)})
    assert to_basis(e(3), "p") == SymFn("p", {(1, 1, 1): sixth,
                                              (2, 1): Fraction(-1, 2),
                                              (3,): Fraction(1, 3)})
    assert to_basis(s(2, 1), "p") == SymFn("p", {(1, 1, 1): Fraction(1, 3),
                                                 (3,): Fraction(-1, 3)})
    assert to_basis(p(2), "s") == s(2) - s(1, 1)


def test_round_trips_through_every_basis():
    mixed = h(3) + 2 * e(2, 1) - s(2, 2) + p(4, 1) - 3 * m(2, 1, 1)
    for a in BASES:
        for b in BASES:
            assert to_basis(to_basis(mixed, a), b) == mixed
    for n in range(1, 8):
        for basis in BASES:
            g = generator(basis, (n,))
            for other in BASES:
                assert to_basis(to_basis(g, other), basis) == g


def test_schur_via_hooks_matches_character_rows():
    # the determinant route and the character route must agree
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert dict(_schur_p(lam)) == dict(_schur_p_jacobi_trudi(lam))


def test_monomial_expansions():
    assert to_basis(h(2), "m") == m(2) + m(1, 1)
    assert to_basis(s(2, 1), "m") == m(2, 1) + 2 * m(1, 1, 1)
    assert to_basis(e(2), "m") == m(1, 1)


def test_hall_product_orthogonality():
    for n in range(0, 9):
        shapes = partitions_of(n)
        for lam in shapes:
            for mu in shapes:
                match = Fraction(1) if lam == mu else Fraction(0)
                assert scalar(s(*lam), s(*mu)) == match
                assert scalar(h(*lam), m(*mu)) == match
                want = z_of(lam) if lam == mu else 0
                assert scalar(p(*lam), p(*mu)) == want


def test_kronecker_product():
    # p_lam * p_lam = z_lam p_lam and distinct types annihilate
    assert kronecker(p(2), p(2)) == 2 * p(2)
    assert kronecker(p(2), p(1, 1)).is_zero
    assert kronecker(s(2, 1), s(2, 1)) == s(3) + s(2, 1) + s(1, 1, 1)
    assert kronecker(s(2), s(1, 1)) == s(1, 1)
    # the trivial character is the unit in each degree
    for lam in partitions_of(4):
        assert kronecker(s(4), s(*lam)) == s(*lam)


def test_omega_swaps_h_and_e():
    # the involution fixing p_odd and negating p_even sends h_n to e_n,
    # so the e expansion of h_n equals the h expansion of e_n
    assert to_basis(h(2), "e") == e(1, 1) - e(2)
    for n in range(1, 7):
        assert to_basis(h(n), "e").terms == to_basis(e(n), "h").terms
        assert to_basis(h(n), "e") == h(n)


def test_dimension_is_standard_tableaux_count():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert dimension(s(*lam)) == oracle_syt(lam)
    assert dimension(one()) == 1
    with pytest.raises(DegreeError):
        dimension(h(2) + h(3))


def test_specialize_ones():
    assert specialize_ones(h(4)) == 1
    assert specialize_ones(p(3, 2)) == 1
    assert specialize_ones(s(2, 1)) == 0  # no trivial component
    assert specialize_ones(zero()) == 0
    assert specialize_ones(3 * one()) == 3


def test_monomial_coefficient():
    f = s(2, 1)
    assert monomial_coefficient(f, (2, 1)) == 1
    assert monomial_coefficient(f, (1, 1, 1)) == 2
    assert monomial_coefficient(f, (3,)) == 0


def test_arithmetic_across_bases():
    f = h(2) + e(2)
    assert f == p(1, 1)  # h2 + e2 = p1^2
    assert h(2) - h(2) == zero()
    assert (h(1) ** 3) == p(1, 1, 1)
    assert 2 * h(2) == h(2) + h(2)
    assert h(2) * 0 == zero()
    assert (1 + h(1)) - 1 == h(1)
    with pytest.raises(ValueError):
        h(2) ** -1


def test_equality_ignores_basis_and_hash_is_disabled():
    assert to_basis(h(2), "s") == h(2)
    assert h(2) != e(2)
    assert zero("h") == zero("s")
    assert one() == 1
    assert h(2) != 1
    with pytest.raises(TypeError):
        hash(h(2))


def test_str_rendering():
    assert str(zero()) == "0"
    assert str(one()) == "1"
    assert str(Fraction(4, 3) * s(2, 1)) == "4/3*s[2,1]"
    assert str(-s(2, 1)) == "-s[2,1]"
    assert str(s(2) + s(1, 1)) == "s[2] + s[1,1]"
    assert str(to_basis(p(2), "s")) == "s[2] + -s[1,1]"
    # graded pieces come lowest degree first, then reverse lexicographic
    assert str(h(1) + h(3) + h(2, 1)) == "h[1] + h[3] + h[2,1]"


def test_json_round_trip():
    f = Fraction(4, 3) * s(2, 1) - s(1, 1, 1)
    doc = to_json_dict(f)
    assert doc == {"basis": "s",
                   "terms": [{"partition": [2, 1], "coeff": "4/3"},
                             {"partition": [1, 1, 1], "coeff": "-1"}]}
    assert from_json_dict(doc) == f
    assert from_json_dict(json.loads(json.dumps(doc))) == f
    assert from_json_dict(to_json_dict(zero())) == zero()


def test_json_load_is_exact_and_merges_repeats():
    with pytest.raises(TypeError):
        from_json_dict({"basis": "p",
                        "terms": [{"partition": [1], "coeff": 0.1}]})
    doc = {"basis": "p", "terms": [{"partition": [1], "coeff": "1/2"},
                                   {"partition": [1], "coeff": "1/2"}]}
    assert from_json_dict(doc).terms == p(1).terms


def test_conversion_caps_guard_big_inputs():
    with pytest.raises(ResourceLimitError):
        to_basis(p(21, 1), "s")
    # reading h coefficients needs the monomial transition matrix
    with pytest.raises(ResourceLimitError):
        to_basis(p(17), "h")
    with pytest.raises(ResourceLimitError):
        to_basis(m(17), "p")
    # the m target only multiplies by the p-to-m matrix, uncapped
    assert to_basis(p(17), "m") == m(17)


def test_h_and_e_targets_refuse_before_expanding(monkeypatch):
    # s_(9,9) has degree 18, past the cap: no character value may be
    # computed on the way to the refusal
    calls = []

    def spy(*args):
        calls.append(args)
        raise AssertionError("expanded %r" % (args,))
    monkeypatch.setattr(characters, "_chi", spy)
    monkeypatch.setitem(symfunc._GEN_EXPANSIONS, "s", spy)
    for target in ("h", "e"):
        with pytest.raises(ResourceLimitError,
                           match="capped at degree 16, got 18$"):
            to_basis(s(9, 9), target)
    assert calls == []


def test_m_inputs_refuse_before_building_a_matrix(monkeypatch):
    built = []

    def spy(d):
        built.append(d)
        raise AssertionError("built R(%d)" % d)
    monkeypatch.setattr(symfunc, "_p_to_m", spy)
    with pytest.raises(ResourceLimitError, match="got 18$"):
        to_basis(m(15) + m(18), "p")
    assert built == []
    # the refusal names the first term past the cap, in input order
    with pytest.raises(ResourceLimitError, match="got 18$"):
        to_basis(m(18) + m(17), "p")
    with pytest.raises(ResourceLimitError, match="got 17$"):
        to_basis(m(17) + m(18), "p")


def test_full_degree_16_m_input_returns_to_p():
    f = plethysm(h(4), h(4))
    in_m = to_basis(f, "m")
    assert len(in_m.terms) == 231
    assert to_basis(in_m, "p").terms == f.terms


def _fusions(nu, mu):
    # Ways to send each part of nu to one of the blocks of mu so that
    # block i receives parts summing to mu_i.
    @lru_cache(maxsize=None)
    def count(j, room):
        if j == len(nu):
            return int(not any(room))
        return sum(count(j + 1, room[:i] + (r - nu[j],) + room[i + 1:])
                   for i, r in enumerate(room) if r >= nu[j])
    return count(0, tuple(mu))


def test_p_to_m_matrix_counts_fusions():
    for d in range(11):
        shapes = [tuple(lam) for lam in partitions_of(d)]
        rows = _p_to_m(d)
        assert list(rows) == shapes
        for i, nu in enumerate(shapes):
            row = rows[nu]
            assert all(type(r) is int for r in row.values())
            # lower triangular, ending on the diagonal prod_i m_i(nu)!
            assert list(row) == [mu for mu in shapes[:i + 1] if mu in row]
            assert list(row)[-1] == nu
            assert row[nu] == math.prod(math.factorial(nu.count(a))
                                        for a in set(nu))
            for mu in shapes:
                assert row.get(mu, 0) == _fusions(nu, mu)
