"""Derandomized property tests of base change, skipped without hypothesis.

Random rational f of degree <= 10 in each of the five bases: every
round trip lands back on the p expansion, omega is an involution that
swaps h and e, and the m and h coefficients are the scalar products
with the dual basis.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from symf.partitions import partitions_of
from symf.symfunc import BASES, SymFn, e, h, m, scalar, to_basis

derandomized = settings(derandomize=True, database=None, deadline=None,
                        max_examples=40)

shapes = st.integers(0, 10).flatmap(
    lambda d: st.sampled_from([tuple(mu) for mu in partitions_of(d)]))
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def symfns(draw):
    basis = draw(st.sampled_from(BASES))
    terms = draw(st.lists(st.tuples(shapes, rationals), min_size=1, max_size=4))
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
