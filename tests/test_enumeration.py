import sys
from fractions import Fraction

import pytest

from symf.enumeration import (DealSpec, RegularGraphSpec, card_deals,
                              deals_cycle_index, regular_graphs,
                              regular_graphs_cycle_index)
from symf.errors import DegreeError, ResourceLimitError
from symf.oracles import (oracle_deals, oracle_deals_cycle_index,
                          oracle_deals_matrix_count, oracle_regular_graphs,
                          oracle_regular_cycle_index)
from symf.plethysm import plethysm
from symf.symfunc import SymFn, h, p, scalar


def test_spec_validation():
    with pytest.raises(ValueError):
        DealSpec(0, 2)
    with pytest.raises(ValueError):
        DealSpec(2, 0)
    with pytest.raises(ValueError):
        RegularGraphSpec(0, 2)
    with pytest.raises(ValueError):
        RegularGraphSpec(2, -1)
    assert RegularGraphSpec(2, 0).k == 0


def test_deal_counts():
    # the classical small values, then the brute force multiset oracle
    assert card_deals(DealSpec(2, 2)) == 2
    assert card_deals(DealSpec(2, 3)) == 5
    assert card_deals(DealSpec(3, 3)) == 10
    assert card_deals(DealSpec(2, 4)) == 17
    for n in range(1, 5):
        for m in range(1, 11):
            if m * n > 10:
                continue
            assert card_deals(DealSpec(m, n)) == oracle_deals(m, n)
    # one player or one card of each type: a single deal
    assert card_deals(DealSpec(7, 1)) == 1
    assert card_deals(DealSpec(1, 9)) == 1


def test_deal_cycle_index():
    # two hands of two: identity fixes both deals, the swap fixes one
    got = deals_cycle_index(DealSpec(2, 2))
    assert got == SymFn("p", {(1, 1): Fraction(3, 2), (2,): Fraction(1, 2)})
    # the two hands of a full one-card deal form a regular S_2 orbit,
    # so the swap fixes nothing and the index is the regular character
    assert deals_cycle_index(DealSpec(1, 2)) == p(1, 1)
    for n in range(1, 5):
        for m in range(1, 11):
            if m * n > 10:
                continue
            spec = DealSpec(m, n)
            index = deals_cycle_index(spec)
            # the count is the index at p_i = 1; the scalar formula is
            # the independent route to it
            assert scalar(plethysm(h(n), h(m)), h(m) ** n) == \
                card_deals(spec)
            assert index == oracle_deals_cycle_index(m, n)


def test_regular_graph_counts():
    known = {(2, 2): 2, (3, 2): 3, (4, 2): 5, (5, 2): 7,
             (2, 4): 3, (3, 4): 7, (4, 3): 8, (4, 4): 20, (5, 4): 56}
    for (n, k), want in known.items():
        assert regular_graphs(RegularGraphSpec(n, k)) == want
        assert oracle_regular_graphs(n, k) == want


def test_regular_graph_edge_cases():
    # odd total valency is impossible; zero valency leaves the empty graph
    assert regular_graphs(RegularGraphSpec(3, 3)) == 0
    assert regular_graphs(RegularGraphSpec(5, 1)) == 0
    assert regular_graphs(RegularGraphSpec(4, 0)) == 1
    # h_200 at p_i = 1 would run over p(200) partitions
    assert regular_graphs(RegularGraphSpec(200, 0)) == 1
    assert regular_graphs(RegularGraphSpec(1, 2)) == 1  # a single loop
    assert regular_graphs(RegularGraphSpec(2, 1)) == 1


def test_regular_graph_cycle_index():
    got = regular_graphs_cycle_index(RegularGraphSpec(3, 2))
    assert got == SymFn("p", {(3,): Fraction(2, 3), (2, 1): Fraction(3, 2),
                              (1, 1, 1): Fraction(5, 6)})
    for n in range(1, 5):
        for k in range(0, 5):
            if n * k > 12 or (n * k) % 2:
                continue
            spec = RegularGraphSpec(n, k)
            index = regular_graphs_cycle_index(spec)
            if k:
                edges = plethysm(h(n * k // 2), h(2))
                assert scalar(plethysm(h(n), h(k)), edges) == \
                    regular_graphs(spec)
            assert index == oracle_regular_cycle_index(n, k)
    assert regular_graphs_cycle_index(RegularGraphSpec(4, 0)) == h(4)
    with pytest.raises(DegreeError):
        regular_graphs_cycle_index(RegularGraphSpec(3, 3))


def test_empty_graph_cycle_index_is_refused_above_the_plethysm_cap(
        monkeypatch):
    # k = 0: the index h_n is refused above n = 40 before it is formed,
    # and the count stays 1 at any n
    enumeration = sys.modules["symf.enumeration"]
    assert regular_graphs_cycle_index(RegularGraphSpec(40, 0)) == h(40)

    def unreachable(*args):
        raise AssertionError("formed past the cap")
    monkeypatch.setattr(enumeration, "generator", unreachable)
    with pytest.raises(ResourceLimitError,
                       match="^plethysm of degree 41 is beyond the cap 40$"):
        regular_graphs_cycle_index(RegularGraphSpec(41, 0))
    assert regular_graphs(RegularGraphSpec(41, 0)) == 1


def test_deals_are_refused_above_the_plethysm_cap(monkeypatch):
    # m*n = 42 and 100 are refused before h_m^n or the cycle index is
    # formed, in both forms, with the message the scalar route gave
    def unreachable(*args):
        raise AssertionError("expanded past the cap")
    enumeration = sys.modules["symf.enumeration"]
    monkeypatch.setattr(enumeration, "fundamental", unreachable)
    monkeypatch.setattr(enumeration, "generator", unreachable)
    monkeypatch.setattr(SymFn, "__pow__", unreachable)
    with pytest.raises(ResourceLimitError,
                       match="^plethysm of degree 42 is beyond the cap 40$"):
        deals_cycle_index(DealSpec(7, 6))
    with pytest.raises(ResourceLimitError,
                       match="^plethysm of degree 100 is beyond the cap 40$"):
        card_deals(DealSpec(10, 10))
