import copy
import hashlib
import json
import math
import operator
import pickle
import random
from collections import Counter
from functools import lru_cache

import pytest
from fractions import Fraction

from symf import characters, symfunc
from symf.errors import DegreeError, ResourceLimitError
from symf.invariants import Custom, GLnAdjoint, SnPermutation, inv_char
from symf.oracles import _kostka, oracle_syt
from symf.partitions import (Partition, _positions, _reset_memo,
                             partitions_of, z_of)
from symf.plethysm import GradedSeries, fundamental, plethysm
from symf.symfunc import (BASES, SymFn, _m_row, _p_dict, _prod_h_p,
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


def test_constructor_merges_repeated_keys():
    # a repeated key sums in place; one that cancels drops, and comes
    # back as a new key
    f = SymFn("p", [((1,), 1), ((2,), Fraction(1, 3)), ((1,), Fraction(-1, 2)),
                    ((3,), 2), ((3,), -2)])
    assert list(f.terms.items()) == [((1,), Fraction(1, 2)),
                                     ((2,), Fraction(1, 3))]
    f = SymFn("p", [((1,), 1), ((1,), -1), ((2,), "1/2"), ((1,), 5)])
    assert list(f.terms.items()) == [((2,), Fraction(1, 2)), ((1,), 5)]
    assert all(type(c) is Fraction for c in f.terms.values())
    with pytest.raises(TypeError):
        SymFn("p", [((1,), 1), ((1,), 0.5)])


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


def test_copy_and_pickle_keep_basis_and_term_order():
    f = Fraction(4, 3) * s(2, 1) - s(1, 1, 1) + s(3)
    copies = [copy.copy(f), copy.deepcopy(f)]
    copies += [pickle.loads(pickle.dumps(f, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is SymFn and other.basis == "s"
        assert list(other.terms.items()) == list(f.terms.items())
        # read-only, and still a dict, which bench/spans.py counts
        assert isinstance(other.terms, dict)
        with pytest.raises(TypeError):
            other.terms.clear()


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


def test_schur_functions_above_the_table_cap_match_hook_lengths():
    # weights 21 to 36, two shapes with 9 rows; oracle_syt counts
    # tableaux by the hook length formula and shares no code with _chi
    for lam in ((13,) + (1,) * 8, (3,) * 7 + (2, 1), (3,) * 8, (7, 7, 7),
                (18, 18)):
        f = s(*lam)
        assert dimension(f) == oracle_syt(lam), lam
        assert scalar(f, f) == 1, lam


def test_monomial_expansions():
    assert to_basis(h(2), "m") == m(2) + m(1, 1)
    assert to_basis(s(2, 1), "m") == m(2, 1) + 2 * m(1, 1, 1)
    assert to_basis(e(2), "m") == m(1, 1)


def test_h_and_e_products_stay_in_their_basis():
    # h_mu h_nu = h_(mu+nu) and e_mu e_nu = e_(mu+nu), formed in the
    # basis and equal to the product of the p expansions
    rng = random.Random(5)
    for basis in ("h", "e"):
        for _ in range(30):
            f, g = (SymFn(basis, [
                (rng.choice(partitions_of(rng.randint(0, 5))),
                 Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))]) for _ in range(2))
            got = f * g
            assert got.basis == basis
            assert got == to_basis(f, "p") * to_basis(g, "p"), (f, g)
    assert str(h(2) * h(30)) == "h[30,2]"
    # nothing is packed, so the multiplicity cap waits for an expansion
    assert h(64) * h(64) == SymFn("h", {(64, 64): 1})
    with pytest.raises(ResourceLimitError, match="a part repeated 128"):
        to_basis(e(64) * e(64), "p")


def test_mixed_products_are_refused_above_the_plethysm_cap(monkeypatch):
    # a product that expands an operand into the p basis is refused, as
    # the p target is, where its degree passes 40, before either side is
    # expanded; power sums multiply at any degree, and a zero operand
    # gives zero
    assert p(39) * s(1) == p(39, 1)
    assert h(2) * e(3) == to_basis(h(2), "p") * to_basis(e(3), "p")
    assert h(20) * h(21) == SymFn("h", {(21, 20): 1})
    assert p(100) * p(50) == SymFn("p", {(100, 50): 1})
    assert zero() * h(50) == zero() == e(60) * zero("s")

    def spy(*args):
        raise AssertionError("expanded")
    products = ((h(2), e(50), 52), (e(2), h(58), 60), (s(1), p(40), 41),
                (p(30), m(11), 41), (SymFn("e", {(45,): 1, (1,): 1}), p(1), 46))
    monkeypatch.setattr(symfunc, "_p_dict", spy)
    for f, g, d in products:
        with pytest.raises(ResourceLimitError) as info:
            f * g
        assert str(info.value) == ("power-sum expansion of degree %d is "
                                   "beyond the cap 40" % d)


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


def test_dimension_reads_one_value(monkeypatch):
    # s, h and e inputs never expand: the hook length quotients
    # chi^lam(1^d) and the multinomials d!/prod(mu_i!) are one value each
    assert dimension(s(5, 5, 5, 5, 5)) == characters.chi((5,) * 5, (1,) * 25)

    def refused(*args):
        raise AssertionError("expanded %r" % (args,))
    monkeypatch.setattr(symfunc, "_schur_p", refused)
    monkeypatch.setattr(symfunc, "_prod_h_p", refused)
    monkeypatch.setattr(characters, "_chi", refused)
    # the staircase (15, ..., 1) has Catalan(16) subdiagrams, too many
    # for any walk that visits them
    for lam in ((5,) * 5, (7,) * 5, (10,) * 5, tuple(range(15, 0, -1))):
        assert dimension(s(*lam)) == oracle_syt(lam), lam
    assert dimension(h(3, 2, 2)) == dimension(e(3, 2, 2)) == 210
    # the multiplicity cap still refuses before _chi recurses |lam| deep
    with pytest.raises(ResourceLimitError):
        dimension(s(100, 100))
    with pytest.raises(ResourceLimitError):
        dimension(h(200))


def test_dimension_matches_the_full_expansion():
    # against the value at (1^d) of the whole class function, on inputs
    # in every basis, several terms each, and on cross-basis sums
    cases = []
    for d in range(7):
        shapes = partitions_of(d)
        for basis in BASES:
            cases.append(SymFn(basis, [(mu, Fraction(i - 2, i % 3 + 1))
                                       for i, mu in enumerate(shapes)]))
        middle = shapes[len(shapes) // 2]
        cases.append(s(*shapes[0]) - 3 * h(*shapes[-1]) + e(*middle))
        cases.append(m(*shapes[0]) + Fraction(1, 2) * s(*shapes[-1]))
    for f in cases:
        want = Fraction(_p_dict(f).get((1,) * f.degree(), 0))
        got = dimension(f)
        assert type(got) is Fraction and got == want, f


# every way to edit a dict in place, each given the terms and one key
_EDITS = (
    lambda t, mu: t.__setitem__(mu, t[mu] + 1),
    lambda t, mu: t.__setitem__(Partition((99,)), Fraction(1)),
    lambda t, mu: t.__delitem__(mu),
    lambda t, mu: t.pop(mu),
    lambda t, mu: t.popitem(),
    lambda t, mu: t.setdefault(Partition((99,)), Fraction(1)),
    lambda t, mu: t.update({mu: Fraction(0)}),
    lambda t, mu: operator.ior(t, {mu: Fraction(0)}),
    lambda t, mu: t.clear(),
)


def test_kernel_results_share_no_memo():
    # a result's terms refuse every edit, so memos hand results out
    # as they are: each edit raises, and no answer changes after it
    series = GradedSeries(4, {2: s(2), 4: h(3, 1) - e(4)})
    makes = (lambda: to_basis(s(4, 2), "p"), lambda: to_basis(h(3, 3), "m"),
             lambda: fundamental(h(2), h(4) * h(4), 4, "s"),
             lambda: inv_char(GLnAdjoint(3), 5),
             lambda: inv_char(SnPermutation(3), 4),
             lambda: inv_char(Custom(series), 4))
    for make in makes:
        before = list(make().terms.items())
        f = make()
        for edit in _EDITS:
            with pytest.raises(TypeError):
                edit(f.terms, before[0][0])
            assert list(f.terms.items()) == before
            assert list(make().terms.items()) == before


def test_memo_results_refuse_the_edits_that_leaked():
    # each of these edits used to change every later answer
    with pytest.raises(TypeError):
        inv_char(SnPermutation(3), 4).terms.clear()
    assert str(inv_char(SnPermutation(3), 4)) == (
        "1/2*p[4] + 2/3*p[3,1] + 3/4*p[2,2] + 3/2*p[2,1,1] + 7/12*p[1,1,1,1]")
    with pytest.raises(TypeError):
        characters.character_table(3).rows[0][0] = 99
    assert characters.character_table(3).rows[0] == (1, 1, 1)
    series = GradedSeries(3, {1: h(1), 3: s(2, 1)})
    with pytest.raises(TypeError):
        inv_char(Custom(series), 3).terms[Partition((2, 1))] += 1
    with pytest.raises(AttributeError):
        del inv_char(Custom(series), 3).terms
    assert list(inv_char(Custom(series), 3).terms.items()) == [
        (Partition((2, 1)), Fraction(1))]


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
    assert 1 - h(1) == one() - h(1) == -(h(1) - 1)
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
    # the m target only multiplies by the p-to-m matrix, so it shares the
    # table cap of 20, not the matrix cap of 16
    assert to_basis(p(17), "m") == m(17)


def test_h_and_e_targets_refuse_before_expanding(monkeypatch):
    # s_(9,9) has degree 18, past the cap: no character value may be
    # computed on the way to the refusal
    calls = []

    def spy(*args):
        calls.append(args)
        raise AssertionError("expanded %r" % (args,))
    monkeypatch.setattr(characters, "_chi", spy)
    monkeypatch.setattr(symfunc, "_schur_p", spy)
    for target in ("h", "e"):
        with pytest.raises(ResourceLimitError,
                           match="capped at degree 16, got 18$"):
            to_basis(s(9, 9), target)
    assert calls == []


def test_m_inputs_refuse_before_building_a_matrix(monkeypatch):
    built = []

    def spy(nu):
        built.append(nu)
        raise AssertionError("built row %r of R" % (nu,))
    monkeypatch.setattr(symfunc, "_m_row", spy)
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
    in_p = to_basis(in_m, "p")
    assert in_p.terms == f.terms
    # the back substitution hands its terms out in partitions_of order
    assert list(in_p.terms) == [mu for mu in partitions_of(16)
                                if mu in f.terms]


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
        for i, nu in enumerate(shapes):
            row = _m_row(nu)
            assert len(row) == len(shapes)
            assert all(type(r) is int for r in row)
            # lower triangular: zero after the diagonal prod_i m_i(nu)!
            assert row[i] == math.prod(math.factorial(nu.count(a))
                                       for a in set(nu))
            assert not any(row[i + 1:])
            for j, mu in enumerate(shapes):
                assert row[j] == _fusions(nu, mu)


def _p_to_m_by_columns(d):
    # the reference: column mu of R is h_mu's class function, the
    # product of the trivial characters h_{mu_i}, as full rows
    shapes = partitions_of(d)
    rows = {nu: [0] * len(shapes) for nu in shapes}
    for j, mu in enumerate(shapes):
        for nu, a in _prod_h_p(mu).items():
            rows[nu][j] = a
    return list(rows.values())


def test_p_to_m_rows_match_the_h_products():
    for d in range(17):
        assert [_m_row(nu) for nu in partitions_of(d)] == \
            _p_to_m_by_columns(d), d


def test_p_to_m_builds_no_h_products(monkeypatch):
    _reset_memo()

    def refused(*args):
        raise AssertionError("called with %r" % (args,))
    monkeypatch.setattr(symfunc, "_mul_p", refused)
    monkeypatch.setattr(symfunc, "_prod_h_p", refused)
    rows = [_m_row(nu) for nu in partitions_of(16)]
    assert len(rows) == 231
    pos = _positions(16)
    assert rows[pos[(1,) * 16]][pos[(16,)]] == 1
    assert rows[pos[(1,) * 16]][pos[(1,) * 16]] == math.factorial(16)
    assert _prod_h_p.cache_info().currsize == 0


def test_s_target_and_tables_read_columns_not_chi(monkeypatch, fresh_cache):
    f = to_basis(inv_char(SnPermutation(2), 12), "p")
    expected = {lam: scalar(f, s(*lam)) for lam in partitions_of(12)}
    shapes = partitions_of(12)
    rows = tuple(tuple(characters.chi(lam, mu) for mu in shapes)
                 for lam in shapes)
    _reset_memo()

    def refused(*args):
        raise AssertionError("called with %r" % (args,))
    monkeypatch.setattr(characters, "_chi", refused)
    in_s = to_basis(f, "s")
    assert list(in_s.terms.items()) == [
        (lam, c) for lam, c in expected.items() if c]
    assert characters.character_table(12).rows == rows
    # terms in partitions_of order, not in the order the columns add keys
    assert list(to_basis(p(4) + 2 * p(2, 2), "s").terms.items()) == [
        ((4,), 3), ((3, 1), -3), ((2, 2), 4), ((2, 1, 1), -1),
        ((1, 1, 1, 1), 1)]


def _walked_only(moves, *mus):
    # whether the _expand memo holds the walks of mus through moves and
    # nothing else: as many entries, each read back without a miss
    expand = characters._expand
    before = expand.cache_info()
    for mu in mus:
        expand(moves, mu)
    return (before.currsize == len(mus)
            and expand.cache_info().misses == before.misses)


def _sorted_raise_table(d, t):
    # the raise moves on part tuples: rho sorted afresh and looked up in
    # the positions of its partitions
    pos = _positions(d)
    out = []
    for j, lam in enumerate(partitions_of(d - t)):
        for v in {0, *lam}:
            k = lam.index(v) if v else len(lam)
            rho = tuple(sorted(lam[:k] + lam[k + 1:] + (v + t,), reverse=True))
            out.append((pos[rho], j, rho.count(v + t)))
    return out


def test_raise_tables_match_the_sorted_reference():
    # as multisets: _expand sums the moves in any order
    for d in range(19):
        for t in range(1, d + 1):
            assert Counter(symfunc._raise_table(d, t)) == Counter(
                _sorted_raise_table(d, t)), (d, t)


# sha256 of the reprs of every class column _column(mu), d <= 18, then
# every row _m_row(nu) of R, d <= 16, each in partitions_of order, as
# built by the move tables on sorted part tuples and one strip call per
# mask
COLUMNS_AND_ROWS_SHA256 = (
    "e4a2f3d08a5585ce1d810a245e21a6087d5f6e53c30c529e0aaa6e5035092c7a")


def test_columns_and_rows_are_pinned():
    digest = hashlib.sha256()
    for d in range(19):
        for mu in partitions_of(d):
            digest.update(repr(characters._column(mu)).encode())
    for d in range(17):
        for nu in partitions_of(d):
            digest.update(repr(_m_row(nu)).encode())
    assert digest.hexdigest() == COLUMNS_AND_ROWS_SHA256


def test_s_target_builds_only_the_input_columns():
    _reset_memo()
    assert to_basis(p(20), "s").terms[Partition((1,) * 20)] == -1
    assert _walked_only(characters._strip_table, (20,), ())


def test_m_target_builds_only_the_input_rows():
    _reset_memo()
    assert to_basis(p(20), "m") == m(20)
    assert _walked_only(symfunc._raise_table, (20,), ())


def test_m_target_above_the_matrix_cap(monkeypatch):
    assert to_basis(p(20), "m") == m(20)
    f = h(6, 6, 6) + 3 * p(9, 9) - e(10, 8) + p(5, 5, 4, 4)
    in_m = to_basis(f, "m")
    for mu in ((18,), (6, 6, 6), (9, 9), (5, 5, 4, 4), (3,) * 6):
        assert in_m.coefficient(mu) == monomial_coefficient(f, mu), mu
    # back to p by substitution against R, with the cap on that raised
    with pytest.raises(ResourceLimitError, match="got 18$"):
        to_basis(in_m, "p")
    monkeypatch.setattr(symfunc, "_M_MATRIX_CAP", 18)
    assert to_basis(in_m, "p") == f


def test_m_target_is_refused_above_the_table_cap(monkeypatch):
    # each class reads a row of R p(d) entries wide, as the s target
    # reads a column; h16 * h16 took 41 s and 1.9 GB in the m basis
    def fail(nu):
        raise AssertionError("built row %r of R" % (nu,))
    monkeypatch.setattr(symfunc, "_m_row", fail)
    for f in (p(21), h(1) + h(16, 5), s(11, 10) - e(22)):
        with pytest.raises(ResourceLimitError, match=(
                "^monomial expansion of degree 21 is beyond the cap 20$")):
            to_basis(f, "m")
    # an m input is the answer as it is
    assert to_basis(m(30), "m") == m(30)


def test_class_function_values_of_characters_are_ints():
    # h, e and s generators, their products and plethysms are virtual
    # characters: the kernel must carry their values as plain ints
    gens = [f(*lam) for d in range(7) for lam in partitions_of(d)
            for f in (h, e, s)]
    values = [_p_dict(f) for f in gens]
    values += [_p_dict(f * g) for f in gens[::7] for g in gens[::11]]
    values += [_p_dict(plethysm(f, g)) for f in gens[3:40:5]
               for g in gens[3:30:4] if f.degree() * g.degree() <= 12]
    values.append(_p_dict(to_basis(h(3) * e(2) + s(2, 2), "m")))
    values.append(_p_dict(SymFn("p", {(2, 1): Fraction(1, 2)})))
    assert all(type(v) is int for a in values for v in a.values())
    for r in range(9):
        rows = characters.character_table(r).rows
        assert all(type(v) is int for row in rows for v in row)


# Inputs whose class function values are not integers, checked against
# p-coefficient formulas written out here and against polynomials.
F = SymFn("p", {(1,): Fraction(1, 3), (2,): Fraction(2, 5)})
G = SymFn("s", {(2, 1): Fraction(3, 7), (1,): Fraction(1, 2)})
K = SymFn("m", {(2,): Fraction(1, 3), (1, 1): Fraction(-5, 2), (): 4})
H = SymFn("h", {(3,): Fraction(2, 9), (2, 1): Fraction(1, 4)})


def _coeffs(f):
    return dict(to_basis(f, "p").terms)


def _ref_mul(a, b):
    out = {}
    for mu, c in a.items():
        for nu, d in b.items():
            key = Partition(sorted(mu + nu, reverse=True))
            out[key] = out.get(key, 0) + c * d
    return out


def _ref_pleth(a, b):
    # p_mu[g] is the product over the parts k of mu of g with p_j -> p_kj
    out = {}
    for mu, c in a.items():
        term = {(): c}
        for k in mu:
            term = _ref_mul(term, {tuple(k * j for j in nu): d
                                   for nu, d in b.items()})
        for nu, d in term.items():
            out[nu] = out.get(nu, 0) + d
    return SymFn("p", out)


def _poly_mul(a, b):
    out = {}
    for x, c in a.items():
        for y, d in b.items():
            key = tuple(i + j for i, j in zip(x, y))
            out[key] = out.get(key, 0) + c * d
    return {x: c for x, c in out.items() if c}


@lru_cache(maxsize=None)
def _monomial(lam, n):
    # m_lam in n variables: every distinct arrangement of its parts
    from itertools import permutations
    return dict.fromkeys(permutations(tuple(lam) + (0,) * (n - len(lam))), 1)


_kostka_memo = lru_cache(maxsize=None)(_kostka)


def _poly(f, n):
    """f as a polynomial in n variables, from its own basis."""
    def gen(basis, k):
        if basis == "p":
            return {tuple(k if i == j else 0 for j in range(n)): 1
                    for i in range(n)}
        if basis == "e":
            return _monomial((1,) * k, n) if k <= n else {}
        out = {}
        for lam in partitions_of(k):
            if len(lam) <= n:
                out.update(_monomial(lam, n))
        return out
    total = {}
    for lam, c in f.terms.items():
        if f.basis == "m":
            term = _monomial(lam, n) if len(lam) <= n else {}
        elif f.basis == "s":
            term = {}
            for mu in partitions_of(sum(lam)):
                if len(mu) <= n and _kostka_memo(lam, mu):
                    term.update(dict.fromkeys(_monomial(mu, n),
                                              _kostka_memo(lam, mu)))
        else:
            term = {(0,) * n: 1}
            for k in lam:
                term = _poly_mul(term, gen(f.basis, k))
        for x, v in term.items():
            total[x] = total.get(x, 0) + c * v
    return {x: c for x, c in total.items() if c}


def test_non_integral_inputs_through_every_operation():
    for f, g in ((F, G), (G, K), (K, H), (H, F), (F * K, G)):
        a, b = _coeffs(f), _coeffs(g)
        assert f * g == SymFn("p", _ref_mul(a, b))
        assert scalar(f, g) == sum(c * b[mu] * z_of(mu)
                                   for mu, c in a.items() if mu in b)
        assert specialize_ones(f * g) == sum(a.values()) * sum(b.values())
        assert plethysm(f, g) == _ref_pleth(a, b)
        for d in f.degrees():
            fd = f.homogeneous_part(d)
            assert dimension(fd) == a.get((1,) * d, 0) * math.factorial(d)
            gd = g.homogeneous_part(d)
            bd = _coeffs(gd)
            assert kronecker(fd, gd) == SymFn("p", {
                mu: c * bd[mu] * z_of(mu) for mu, c in a.items() if mu in bd})
        n = max((f * g).degrees())
        want = _poly(SymFn("p", _ref_mul(a, b)), n)
        for target in BASES:
            assert _poly(to_basis(f * g, target), n) == want, target


def test_non_integral_product_bytes():
    # str and JSON of F * G, as printed when the kernel stored p
    # coefficients as Fractions
    fg = F * G
    assert str(fg) == ("1/6*p[1,1] + 1/5*p[2,1] + -1/21*p[3,1] + "
                       "1/21*p[1,1,1,1] + -2/35*p[3,2] + 2/35*p[2,1,1,1]")
    assert json.dumps(to_json_dict(fg)) == (
        '{"basis": "p", "terms": [{"partition": [1, 1], "coeff": "1/6"}, '
        '{"partition": [2, 1], "coeff": "1/5"}, {"partition": [3, 1], '
        '"coeff": "-1/21"}, {"partition": [1, 1, 1, 1], "coeff": "1/21"}, '
        '{"partition": [3, 2], "coeff": "-2/35"}, {"partition": [2, 1, 1, 1], '
        '"coeff": "2/35"}]}')
