"""Acceptance checks for the package as a whole.

Thirteen numbered criteria, each one an end to end comparison between
the library and an independently coded oracle or a classical closed
form.  Everything is exact rational arithmetic; there is no tolerance
anywhere, an answer is either identical or wrong.  Each test prints one
PASS line on success (visible with -s); pytest reports the failures.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

from symf.enumeration import (DealSpec, RegularGraphSpec, card_deals,
                              deals_cycle_index, regular_graphs,
                              regular_graphs_cycle_index)
from symf.characters import character_table
from symf.invariants import (GLnAdjoint, PolyFunctor, SLnDefining,
                             SnPermutation, Sp2nDefining, hilbert_dim,
                             inv_char, inv_char_polyfunc)
from symf.oracles import (oracle_cayley_sylvester, oracle_deals,
                          oracle_matchings, oracle_perm_inv_char,
                          oracle_perm_inv_char_polyfunc,
                          oracle_plethysm_monomials, oracle_plethysm_schur,
                          oracle_regular_graphs, oracle_restricted_bell,
                          oracle_su2_inv_char, oracle_su2_poly_dim,
                          oracle_syt)
from symf.partitions import Partition, partitions_of, z_of
from symf.plethysm import fundamental, plethysm
from symf.symfunc import (SymFn, dimension, e, h, kronecker, s,
                          specialize_ones, to_basis, zero)


def test_c01_plethysm_landmarks():
    hh = plethysm(h(2), h(2))
    ee = plethysm(e(2), e(2))
    assert hh == s(4) + s(2, 2)
    assert ee == s(2, 1, 1)

    for kind, value in (("hh", hh), ("ee", ee)):
        monomials = oracle_plethysm_monomials(kind, 2, 2)
        assert to_basis(value, "m").terms == {lam: Fraction(c)
                                              for lam, c in monomials.items()}
        assert value == oracle_plethysm_schur(kind, 2, 2)
    print("PASS c01 plethysm landmarks agree with the monomial oracle")


def test_c02_mode_agreement():
    rng = random.Random(20260822)
    shapes_by_degree = {d: partitions_of(d) for d in range(1, 13)}

    def positive_pick(degree):
        f = zero("s")
        for _ in range(rng.randint(1, 2)):
            f = f + rng.randint(1, 3) * s(*rng.choice(shapes_by_degree[degree]))
        return f

    for trial in range(50):
        k = rng.randint(1, 3)
        r = rng.randint(1, 12 // k)
        F = positive_pick(k)
        G = positive_pick(r * k)
        from_p = fundamental(F, G, r, "p")
        from_s = fundamental(F, G, r, "s")
        assert from_p == from_s, (trial, k, r, F, G)
    print("PASS c02 power sum and schur modes agree on 50 random pairs")


def test_c03_permutation_family():
    for n in range(1, 5):
        for r in range(0, 7):
            ch = inv_char(SnPermutation(n), r)
            assert ch == oracle_perm_inv_char(n, r), (n, r)
            assert dimension(ch) == oracle_restricted_bell(r, n), (n, r)
    print("PASS c03 permutation family matches averaging oracle and Bell dims")


# classical power sum expansions, written down rather than computed, so
# the oracle below shares no base change code with the library
RAW_P = {
    "h2": {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)},
    "e2": {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)},
    "h3": {(1, 1, 1): Fraction(1, 6), (2, 1): Fraction(1, 2),
           (3,): Fraction(1, 3)},
    "s21": {(1, 1, 1): Fraction(1, 3), (3,): Fraction(-1, 3)},
}


def test_c04_permutation_family_through_functors():
    functors = {"h2": h(2), "e2": e(2), "h3": h(3), "s21": s(2, 1)}
    for name, F in functors.items():
        raw = RAW_P[name]
        assert to_basis(F, "p").terms == {Partition(mu): c
                                          for mu, c in raw.items()}
        k = F.degree()
        for n in range(1, 4):
            for r in range(0, 6 // k + 1):
                lib = inv_char_polyfunc(SnPermutation(n), PolyFunctor(F), r)
                assert lib == oracle_perm_inv_char_polyfunc(n, raw, r), \
                    (name, n, r)
    print("PASS c04 functor characters over S(n) match the averaging oracle")


def test_c05_sl2_functors():
    for k in range(1, 4):
        for r in range(0, 5):
            lib = inv_char_polyfunc(SLnDefining(2), PolyFunctor(h(k)), r)
            assert lib == oracle_su2_inv_char(k, r), (k, r)
    print("PASS c05 symmetric powers of the SL(2) plane match Weyl integration")


def test_c06_catalan_dimensions():
    catalan = (1, 2, 5, 14, 42, 132)
    for m in range(1, 7):
        ch = inv_char(SLnDefining(2), 2 * m)
        expanded = to_basis(ch, "s").terms
        hook_dim = sum(c * oracle_syt(lam) for lam, c in expanded.items())
        assert hook_dim == catalan[m - 1], m
        assert dimension(ch) == catalan[m - 1], m
    assert dimension(inv_char(SLnDefining(2), 0)) == 1
    print("PASS c06 SL(2) invariant dimensions are the Catalan numbers")


def test_c07_symplectic_double_factorials():
    for q in range(1, 6):
        expected = oracle_matchings(q)
        for n in range(q, q + 3):
            total = dimension(inv_char(Sp2nDefining(n), 2 * q))
            assert total == expected, (q, n)
    assert [oracle_matchings(q) for q in range(1, 6)] == [1, 3, 15, 105, 945]
    print("PASS c07 stable Sp dimensions are the odd double factorials")


def test_c08_adjoint_kronecker_identity():
    for r in range(1, 9):
        total = zero("p")
        for lam in partitions_of(r):
            slam = s(*lam)
            total = total + kronecker(slam, slam)
        target = SymFn("p", {mu: 1 for mu in partitions_of(r)})
        assert total == target, r
        assert dimension(total) == math.factorial(r), r
        assert inv_char(GLnAdjoint(1), r) == target, r
    print("PASS c08 adjoint Kronecker sums equal the full power sum layer")


def test_c09_binary_forms_hilbert():
    for k in range(1, 11):
        for r in range(0, 11):
            form = PolyFunctor(h(k))
            dim = hilbert_dim(SLnDefining(2), form, r)
            assert dim == oracle_cayley_sylvester(k, r), (k, r)
            # Sp(2) = SL(2): the same group, reached through other shapes
            assert hilbert_dim(Sp2nDefining(1), form, r) == dim, (k, r)
            if k * r <= 24:
                assert dim == oracle_su2_poly_dim(k, r), (k, r)
    quartic = [hilbert_dim(SLnDefining(2), PolyFunctor(h(4)), r)
               for r in range(0, 7)]
    assert quartic == [1, 0, 1, 1, 1, 1, 2]
    print("PASS c09 binary form Hilbert dims match both classical oracles")


def test_c10_card_deals():
    assert card_deals(DealSpec(2, 2)) == 2
    assert card_deals(DealSpec(2, 3)) == 5
    for m in range(1, 13):
        for n in range(1, 13):
            if m * n > 12:
                continue
            spec = DealSpec(m, n)
            count = card_deals(spec)
            assert count == oracle_deals(m, n), (m, n)
            assert specialize_ones(deals_cycle_index(spec)) == count, (m, n)
    print("PASS c10 card deal counts match the hand enumeration oracle")


def test_c11_regular_multigraphs():
    assert regular_graphs(RegularGraphSpec(3, 2)) == 3
    for n in range(1, 6):
        for k in range(0, 5):
            if (n * k) % 2:
                continue
            spec = RegularGraphSpec(n, k)
            count = regular_graphs(spec)
            assert count == oracle_regular_graphs(n, k), (n, k)
            assert specialize_ones(regular_graphs_cycle_index(spec)) == count, \
                (n, k)
    print("PASS c11 regular multigraph counts match the orbit oracle")


def test_c12_character_table_integrity(tmp_path):
    for r in range(1, 11):
        table = character_table(r)
        shapes = partitions_of(r)
        rows = {lam: table.row(lam) for lam in shapes}
        for lam in shapes:
            assert rows[lam][Partition([1] * r)] == oracle_syt(lam), lam
            for lam2 in shapes:
                dot = sum(Fraction(rows[lam][mu] * rows[lam2][mu], z_of(mu))
                          for mu in shapes)
                assert dot == (1 if lam == lam2 else 0), (lam, lam2)
        for mu in shapes:
            for mu2 in shapes:
                dot = sum(rows[lam][mu] * rows[lam][mu2] for lam in shapes)
                assert dot == (z_of(mu) if mu == mu2 else 0), (mu, mu2)

    probe = (
        "import time\n"
        "from symf.characters import character_table\n"
        "from symf.partitions import Partition\n"
        "t0 = time.perf_counter()\n"
        "table = character_table(14)\n"
        "elapsed = time.perf_counter() - t0\n"
        "mark = table.value(Partition((7, 4, 2, 1)), Partition((5, 4, 3, 1, 1)))\n"
        "print('%f %s' % (elapsed, mark))\n"
    )
    env = dict(os.environ, SYMF_CACHE_DIR=str(tmp_path))

    def timed_run():
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        elapsed, mark = proc.stdout.split()
        return float(elapsed), mark

    cold_time, cold_mark = timed_run()
    assert cold_time <= 60.0, cold_time
    assert any(tmp_path.iterdir()), "cold build left no cache file"
    warm_time, warm_mark = timed_run()
    assert warm_time <= 1.0, warm_time
    assert warm_mark == cold_mark
    print("PASS c12 character tables orthogonal, hooks exact, cache fast "
          "(cold %.2fs, warm %.3fs)" % (cold_time, warm_time))


SUBCOMMANDS = [
    ("eval", ["eval", "h3[e2]", "--basis", "s"]),
    ("inv", ["inv", "--family", "sp", "--n", "2", "--r", "4"]),
    ("hilbert", ["hilbert", "--family", "sl", "--n", "2",
                 "--functor", "h4", "--r", "5"]),
    ("deals", ["deals", "--m", "3", "--n", "2", "--cycle-index"]),
    ("regular", ["regular", "--n", "4", "--k", "2", "--cycle-index"]),
    ("table", ["table", "--r", "6"]),
    ("selftest", ["selftest", "--max-degree", "4"]),
]


def test_c13_cli_contract(tmp_path):
    env = dict(os.environ, SYMF_CACHE_DIR=str(tmp_path))

    proc = subprocess.run([sys.executable, "-m", "symf",
                           "selftest", "--max-degree", "8"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.rstrip("\n").split("\n")
    assert len(lines) == 11 and all(l.startswith("ok ") for l in lines), lines

    for name, argv in SUBCOMMANDS:
        runs = [subprocess.run([sys.executable, "-m", "symf"] + argv,
                               env=env, capture_output=True)
                for _ in range(2)]
        assert runs[0].returncode == 0, (name, runs[0].stderr)
        assert runs[0].returncode == runs[1].returncode, name
        assert runs[0].stdout == runs[1].stdout, name
        assert runs[0].stderr == runs[1].stderr, name
    print("PASS c13 selftest exits clean and every subcommand is byte stable")
