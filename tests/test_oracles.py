"""The oracles get their own consistency checks: they are only worth
trusting as referees if they agree with hand counts and with each other.
"""

import hashlib
from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest

from symf.errors import ResourceLimitError
from symf.oracles import (_kostka, _times, _torus, oracle_cayley_sylvester,
                          oracle_deals, oracle_deals_cycle_index,
                          oracle_deals_matrix_count, oracle_matchings,
                          oracle_perm_inv_char, oracle_plethysm_monomials,
                          oracle_plethysm_schur,
                          oracle_regular_cycle_index, oracle_regular_graphs,
                          oracle_restricted_bell, oracle_su2_frobenius,
                          oracle_su2_inv_char, oracle_su2_poly_dim,
                          oracle_syt, oracle_weyl_inv_char)
from symf.partitions import partitions_of
from symf.symfunc import dimension, h, s, specialize_ones, to_basis


def test_two_deal_oracles_agree():
    for n in range(1, 5):
        for m in range(1, 7):
            if m * n > 10:
                continue
            assert oracle_deals(m, n) == oracle_deals_matrix_count(m, n)


def test_deal_oracle_hand_values():
    # two hands from AABB: AB/AB and AA/BB
    assert oracle_deals(2, 2) == 2
    # three hands from AABBCC, up to renaming hands:
    # AA/BB/CC, AA/BC/BC, AB/AB/CC(x3 ways)=...: five classes
    assert oracle_deals(2, 3) == 5
    assert oracle_deals(5, 1) == 1


def test_deal_cycle_index_evaluates_to_count():
    for n in range(1, 5):
        for m in range(1, 6):
            if m * n > 10:
                continue
            index = oracle_deals_cycle_index(m, n)
            assert specialize_ones(index) == oracle_deals(m, n)


def test_regular_graph_oracle_hand_values():
    # 2-regular on two vertices: the double edge, or a loop at each
    assert oracle_regular_graphs(2, 2) == 2
    # 2-regular on three: triangle, loop+edge pair, three loops
    assert oracle_regular_graphs(3, 2) == 3
    assert oracle_regular_graphs(3, 3) == 0
    assert oracle_regular_graphs(1, 2) == 1
    assert oracle_regular_graphs(4, 0) == 1


def test_regular_cycle_index_evaluates_to_count():
    for n in range(1, 5):
        for k in range(0, 4):
            if n * k > 8 or (n * k) % 2:
                continue
            index = oracle_regular_cycle_index(n, k)
            assert specialize_ones(index) == oracle_regular_graphs(n, k)


def test_perm_oracle_small_hand_values():
    # S_1 invariants of one variable: all of it, dimension 1 per degree
    for r in range(5):
        assert dimension(oracle_perm_inv_char(1, r)) == 1
    # S_2 on two variables, degree 2: x^2+y^2 and xy
    assert dimension(oracle_perm_inv_char(2, 2)) == 2


def test_syt_hand_values():
    assert oracle_syt((3,)) == 1
    assert oracle_syt((1, 1, 1)) == 1
    assert oracle_syt((2, 1)) == 2
    assert oracle_syt((2, 2)) == 2
    assert oracle_syt((3, 3)) == 5
    assert oracle_syt((3, 2, 1)) == 16
    # total over shapes squared is the group order
    for r in range(1, 8):
        fact = 1
        for i in range(2, r + 1):
            fact *= i
        assert sum(oracle_syt(lam) ** 2 for lam in partitions_of(r)) == fact


def test_matchings_and_bell_values():
    assert [oracle_matchings(q) for q in range(6)] == [1, 1, 3, 15, 105, 945]
    assert oracle_restricted_bell(4, 4) == 15   # the plain Bell number
    assert oracle_restricted_bell(4, 2) == 8
    assert oracle_restricted_bell(0, 3) == 1
    assert oracle_restricted_bell(3, 1) == 1


def test_torus_arithmetic():
    def chi(k):  # the SU(2) character of the binary forms of degree k
        return Counter(_torus("binary", k)[0])

    # Clebsch-Gordan in rank one: chi_1^2 = chi_2 + chi_0
    assert _times(chi(1), chi(1)) == chi(2) + chi(0)
    assert _times({(1, -1): 2}, {(-1, 1): 3, (0, 2): -1}) == \
        {(0, 0): 6, (1, 1): -2}


def test_su2_oracle_against_partition_count_oracle():
    for k in range(1, 5):
        for r in range(0, 5):
            if k * r > 16:
                continue
            assert oracle_su2_poly_dim(k, r) == oracle_cayley_sylvester(k, r)
    # the full tensor invariants at the identity class
    assert oracle_su2_frobenius(1, 2, (1, 1)) == 1
    assert oracle_su2_frobenius(1, 3, (1, 1, 1)) == 0
    assert oracle_su2_frobenius(2, 2, (1, 1)) == 1


# sha256 of repr of the rows (k, r, [(mu, oracle_su2_frobenius)],
# sorted oracle_su2_inv_char terms, oracle_su2_poly_dim) over every
# k*r <= 24, as the one-variable Laurent polynomials computed them.
SU2_ORACLES_SHA256 = (
    "f07a6ded06271ea04246f998bc77d5e2e22a9743eb2fb074a3c64152d9e7efd0")


def test_su2_oracles_pinned_up_to_k_times_r_24():
    rows = [(k, r,
             [(tuple(mu), oracle_su2_frobenius(k, r, mu))
              for mu in partitions_of(r)],
             sorted((tuple(mu), c)
                    for mu, c in oracle_su2_inv_char(k, r).terms.items()),
             oracle_su2_poly_dim(k, r))
            for k in range(25) for r in range(25) if k * r <= 24]
    assert len(rows) == 133
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        SU2_ORACLES_SHA256


def test_weyl_oracle_rows_agree_on_shared_groups():
    # SL(2) = Sp(2), and SL(2) on C^2 is SU(2) on the binary 1-forms
    for d in range(11):
        sl2 = oracle_weyl_inv_char("sl", 2, d)
        assert sl2 == oracle_weyl_inv_char("sp", 1, d)
        assert sl2 == oracle_su2_inv_char(1, d)
    # GL(1) acts trivially on 1 x 1 matrices: every invariant, h_d
    for d in range(1, 9):
        assert oracle_weyl_inv_char("gl-adjoint", 1, d) == h(d)


def test_su2_characters_are_schur_integral():
    for k in range(1, 4):
        for r in range(0, 5):
            ch = oracle_su2_inv_char(k, r)
            if ch.is_zero():
                continue
            expanded = to_basis(ch, "s").terms
            assert all(c.denominator == 1 and c > 0 for c in expanded.values())


def test_kostka_numbers():
    assert _kostka((2, 2), (2, 1, 1)) == 1
    assert _kostka((2, 2), (1, 1, 1, 1)) == 2
    assert _kostka((3, 1), (2, 1, 1)) == 2
    assert _kostka((2, 1, 1), (1, 1, 1, 1)) == 3
    assert _kostka((2, 2), (3, 1)) == 0
    for lam in partitions_of(5):
        assert _kostka(lam, lam) == 1
        assert _kostka(lam, (1, 1, 1, 1, 1)) == oracle_syt(lam)


def test_plethysm_oracle_small_cases():
    assert oracle_plethysm_schur("hh", 2, 2) == s(4) + s(2, 2)
    assert oracle_plethysm_schur("ee", 2, 2) == s(2, 1, 1)
    assert oracle_plethysm_schur("hh", 1, 3) == h(3)
    # h_a[h_1] is h_a again
    assert oracle_plethysm_schur("hh", 3, 1) == s(3)


# sha256 of repr of the sorted (partition, count) lists of
# oracle_plethysm_monomials over every (kind, a, b) with a*b <= 8, as
# counted when each multiset was summed tuple by tuple.
PLETHYSM_MONOMIALS_SHA256 = (
    "526d7257a80f427f505e8112d3bcb7703ad1ccc0d4392b68ab4dc9c4547d027f")


def _tuple_sum_counts(kind, a, b):
    # the monomials of h_b (or e_b) in a*b variables as exponent tuples,
    # every multiset (or subset) of a of them summed coordinate-wise
    n = a * b
    if kind == "hh":
        chooser = combinations_with_replacement
        vecs = [tuple(combo.count(t) for t in range(n))
                for combo in combinations_with_replacement(range(n), b)]
    else:
        chooser = combinations
        vecs = [tuple(int(t in combo) for t in range(n))
                for combo in combinations(range(n), b)]
    counts = {}
    for pick in chooser(vecs, a):
        total = tuple(map(sum, zip(*pick)))
        if all(x >= y for x, y in zip(total, total[1:])):
            lam = tuple(x for x in total if x)
            counts[lam] = counts.get(lam, 0) + 1
    return counts


def _kinds_and_sizes(max_ab):
    for kind in ("hh", "ee"):
        for a in range(1, max_ab + 1):
            for b in range(1, max_ab // a + 1):
                yield kind, a, b


def test_plethysm_monomial_oracle_against_tuple_sums():
    for kind, a, b in _kinds_and_sizes(6):
        assert oracle_plethysm_monomials(kind, a, b) == \
            _tuple_sum_counts(kind, a, b)


def test_plethysm_monomial_oracle_pinned_up_to_degree_8():
    rows = [(kind, a, b, sorted((tuple(lam), c) for lam, c in
                                oracle_plethysm_monomials(kind, a, b).items()))
            for kind, a, b in _kinds_and_sizes(8)]
    assert len(rows) == 40
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        PLETHYSM_MONOMIALS_SHA256


def test_resource_caps_are_loud():
    with pytest.raises(ResourceLimitError):
        oracle_deals(4, 4)
    with pytest.raises(ResourceLimitError):
        oracle_deals_matrix_count(3, 5)
    with pytest.raises(ResourceLimitError):
        oracle_regular_graphs(6, 2)
    with pytest.raises(ResourceLimitError):
        oracle_perm_inv_char(6, 2)
    with pytest.raises(ResourceLimitError):
        oracle_su2_frobenius(5, 6, (6,))
    for family, n, d in (("sl", 7, 2), ("sl", 2, 14), ("sp", 4, 2),
                         ("sp", 1, 16), ("gl-adjoint", 5, 2),
                         ("gl-adjoint", 1, 11)):
        with pytest.raises(ResourceLimitError):
            oracle_weyl_inv_char(family, n, d)
    with pytest.raises(ResourceLimitError):
        oracle_plethysm_schur("hh", 3, 3)
