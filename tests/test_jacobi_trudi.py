"""The Jacobi-Trudi expansion s_lam = det(h_{lam_i - i + j}) that the
finite alphabet of the SL/Sp routes reads, held against routes that do
not go through it; and the term order of the Schur rows chi^lam above
the character table cap, with the expansion read in the p basis as an
independent check of those rows.

The pins are sha256 digests of (key, value) lists in insertion order,
made by test_kernel.py's digest.
"""

import random
from itertools import permutations

from symf.alphabet import _jacobi_trudi
from symf.invariants import (GLnAdjoint, SLnDefining, Sp2nDefining, _Alphabet,
                             _shape_facts, inv_char)
from symf.partitions import partitions_of
from symf.symfunc import SymFn, _add_into, _prod_h_p, _schur_p, s, to_basis
from test_kernel import _digest


# Shapes of weight above 20, where no character table is built; each row
# is in partitions_of order, as below the cap.
_SCHUR_PINS = {
    (18, 18): "d34c2292b9766428", (11, 10): "8ae82b0ab5765d4d",
    (7, 7, 7): "866a1989f1ec2ab8", (9, 6, 4, 3): "247260db2716a82c",
}


def test_schur_row_term_order_is_pinned():
    got = {lam: _digest(_schur_p(lam).items()) for lam in _SCHUR_PINS}
    assert got == _SCHUR_PINS
    # two-row shapes of weight 22, above the character table cap
    G = inv_char(GLnAdjoint(2), 22)
    assert _digest(G.terms.items()) == "35246d94e897cb9f"


def _jacobi_trudi_p(lam):
    # the expansion read as products of h's in the p basis
    out = {}
    for sign, alpha in _jacobi_trudi(lam):
        _add_into(out, _prod_h_p(tuple(sorted(filter(None, alpha),
                                              reverse=True))), sign)
    return out


def test_schur_rows_above_the_cap_match_the_expansion():
    for lam in ((11, 10), (7, 7, 7), (9, 6, 4, 3)):
        assert _jacobi_trudi_p(lam) == _schur_p(lam), lam


def test_expansion_matches_the_character_route_in_the_h_basis():
    # to_basis(s_lam, "h") reads chi^lam and solves the p-to-m system;
    # it never goes through Jacobi-Trudi
    for n in range(11):
        for lam in partitions_of(n):
            if len(lam) > 8:
                continue
            terms = {}
            for sign, alpha in _jacobi_trudi(tuple(lam)):
                mu = tuple(sorted(filter(None, alpha), reverse=True))
                terms[mu] = terms.get(mu, 0) + sign
            assert SymFn("h", terms) == to_basis(s(*lam), "h"), lam


def _a_delta_weights(shapes):
    # the pairing with sum of s_lam read off the Vandermonde: a_delta =
    # sum over w in S_L of sign(w) x^w(delta), so <f, s_lam> sums sign(w)
    # [x^(lam + delta - w(delta))] f over w
    length = max(len(lam) for lam in shapes)
    rows = [tuple(lam) + (0,) * (length - len(lam)) for lam in shapes]
    delta = tuple(range(length - 1, -1, -1))
    weights = {}
    for w in permutations(delta):
        inversions = sum(a < b for i, a in enumerate(w) for b in w[i + 1:])
        sign = -1 if inversions % 2 else 1
        for lam in rows:
            e = tuple(a + b - c for a, b, c in zip(lam, delta, w))
            if min(e, default=0) >= 0:
                weights[e] = weights.get(e, 0) + sign
    return weights


def _random_shape_sets(count, seed=14):
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 16)
        shapes = [lam for lam in partitions_of(d) if len(lam) <= 5]
        yield rng.sample(shapes, rng.randint(1, min(4, len(shapes))))


def test_alphabet_weights_match_the_vandermonde_expansion():
    # SL(n <= 5) and Sp(2n <= 6) up to degree 24, and random shape sets
    families = ([SLnDefining(n) for n in range(1, 6)]
                + [Sp2nDefining(n) for n in range(1, 4)])
    sets = [_shape_facts(family, d)[2]() for family in families
            for d in range(25)]
    for shapes in filter(None, sets + list(_random_shape_sets(100))):
        assert _Alphabet(shapes).weights == _a_delta_weights(shapes), shapes
