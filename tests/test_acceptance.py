"""Acceptance checks for the package as a whole.

Thirteen numbered criteria, each one an end to end comparison between
the library and an independently coded oracle or a classical closed
form.  Everything is exact rational arithmetic; there is no tolerance
anywhere, an answer is either identical or wrong.  Each test prints one
PASS line on success (visible with -s); pytest reports the failures.

c01-c11 run the consistency checks defined once in symf.selftest, at
bounds at least as large as the ones `symf selftest` uses; a failing
check raises with the case that failed.
"""

import os
import subprocess
import sys
from fractions import Fraction

from symf.characters import character_table
from symf.oracles import oracle_syt
from symf.partitions import Partition, partitions_of, z_of
from symf.selftest import (check_card_deals, check_cauchy_modes,
                           check_gl_adjoint, check_hilbert_crosschecks,
                           check_perm_family, check_perm_polyfunctor,
                           check_plethysm_examples, check_regular_graphs,
                           check_sl2_catalan, check_sp_matchings)


def test_c01_plethysm_landmarks():
    check_plethysm_examples(8)
    print("PASS c01 plethysm landmarks agree with the monomial oracle")


def test_c02_mode_agreement():
    check_cauchy_modes(50, 16, 16)
    print("PASS c02 power sum and schur modes agree on 50 random pairs")


def test_c03_permutation_family():
    check_perm_family(4, 6)
    print("PASS c03 permutation family matches averaging oracle and Bell dims")


def test_c04_permutation_family_through_functors():
    check_perm_polyfunctor(6)
    print("PASS c04 functor characters over S(n) match the averaging oracle")


def test_c05_sl2_functors():
    check_hilbert_crosschecks(3, 4, 12)
    print("PASS c05 symmetric powers of the SL(2) plane match Weyl integration")


def test_c06_catalan_dimensions():
    check_sl2_catalan(6, 6, 4, 12)
    print("PASS c06 SL(2) invariant dimensions are the Catalan numbers")


def test_c07_symplectic_double_factorials():
    check_sp_matchings(5, 3, 10)
    print("PASS c07 stable Sp dimensions are the odd double factorials")


def test_c08_adjoint_kronecker_identity():
    check_gl_adjoint(8, 3, 8)
    print("PASS c08 adjoint Kronecker sums equal the full power sum layer")


def test_c09_binary_forms_hilbert():
    check_hilbert_crosschecks(10, 10, 100)
    print("PASS c09 binary form Hilbert dims match both classical oracles")


def test_c10_card_deals():
    check_card_deals(12, 12)
    print("PASS c10 card deal counts match the hand enumeration oracle")


def test_c11_regular_multigraphs():
    check_regular_graphs(5, 4, 20)
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

    # under -O, which strips assert, and at the acceptance degree
    for flags, degree in ((["-O"], "8"), ([], "12")):
        proc = subprocess.run([sys.executable, *flags, "-m", "symf",
                               "selftest", "--max-degree", degree],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.rstrip("\n").split("\n")
        assert len(lines) == 11, lines
        assert all(l.startswith("ok ") for l in lines), lines

    for name, argv in SUBCOMMANDS:
        runs = [subprocess.run([sys.executable, "-m", "symf"] + argv,
                               env=env, capture_output=True)
                for _ in range(2)]
        assert runs[0].returncode == 0, (name, runs[0].stderr)
        assert runs[0].returncode == runs[1].returncode, name
        assert runs[0].stdout == runs[1].stdout, name
        assert runs[0].stderr == runs[1].stderr, name
    print("PASS c13 selftest exits clean under -O and at degree 12, and "
          "every subcommand is byte stable")
