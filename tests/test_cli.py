"""Command line behavior.

Outputs are frozen as exact text because the tool promises byte stable
output; failures are checked through exit codes and the symf: prefix on
stderr.
"""

import doctest
import hashlib
import os
import resource
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from symf import selftest
from symf.characters import _load_table
from symf.cli import main
from symf.invariants import GLnAdjoint, inv_char
from symf.oracles import oracle_syt
from symf.partitions import _reset_memo, partition_count, partitions_of
from symf.symfunc import dimension

ROOT = Path(__file__).resolve().parent.parent

# sha256 of `symf table --r 14` stdout, as printed when the cache file
# held one {"lambda", "mu", "value"} object per entry.
TABLE_R14_SHA256 = (
    "6f7f5be2d04a3696a41c669589c3fced08c22ec3dc56c08e9be5233471d0897c")

# sha256 of `symf inv --family gl-adjoint --n 9 --r 21 --basis p` stdout,
# the first answer with a 9-row shape above the character table cap.
GL_ADJOINT_N9_R21_SHA256 = (
    "373666a5bf58aff5b1c4dde3d9a18b7525cc0147a45ba7514aaac8df7d8ad598")

# (family, n, r) of `symf inv` commands, run in every basis, and the
# sha256 of the repr of each (argv, exit code, stdout, stderr), one a
# line, as printed when the CLI guessed the basis of the answer from the
# family.
INV_QUERIES = [("sl", 2, 0), ("sl", 2, 5), ("sl", 2, 6), ("sl", 2, 30),
               ("sp", 2, 4), ("sp", 2, 5), ("perm", 3, 4),
               ("gl-adjoint", 2, 4)]
INV_SHA256 = \
    "f5ef92d5e6f6e22bddfd0f5a61182f702e7214144d431c7738e199ba4e51cf55"

# Commands answered in process, through main: each command line and the
# exit code, stdout and stderr it gives, stdout as its sha256 where it is
# long.  AT_ONCE holds the commands timed in a fresh process, and
# TestReadme runs README's examples.  The comments say when a digest or
# an answer was first printed.
ANSWERS = {
    "eval h2": (0, "s[2]\n", ""),
    "eval h2[h2] --basis p":
        (0, "1/4*p[4] + 3/8*p[2,2] + 1/4*p[2,1,1] + 1/8*p[1,1,1,1]\n", ""),
    # as printed when h coefficients came from a dense rational inverse
    # of the p-to-m matrix; h4[h4] has degree 16, so its h, e and m forms
    # use every row of it
    "eval h4[h4] --basis h": (
        0, "518c0644994f238fdc89a2b468c48940a0408e7438cebf2a37b1668d27021689",
        ""),
    "eval h4[h4] --basis e": (
        0, "56239064568d061f3ecd03a249ef04d4bc406cc8629e655b6499b06c8aa61917",
        ""),
    "eval h4[h4] --basis m": (
        0, "e447963a4ff4496c25f0c81e5f951fe405ac8c1d642390856d4e950cc09fedc6",
        ""),
    "eval m[4,2,2,1] --basis p": (
        0, "baee8a2467b7416d0a329c3177e1ad45c8d104e297d37264af72347112e90caf",
        ""),
    "eval h2[h2] --json":
        (0, '{"basis": "s", "terms": [{"partition": [4], "coeff": "1"}, '
            '{"partition": [2, 2], "coeff": "1"}]}\n', ""),
    "eval s2 --basis p --json":
        (0, '{"basis": "p", "terms": [{"partition": [2], "coeff": "1/2"}, '
            '{"partition": [1, 1], "coeff": "1/2"}]}\n', ""),
    "eval 'scalar(h2, h2)' --json": (0, '{"rational": "1"}\n', ""),
    "eval [2,1] --json": (0, '{"partition": [2, 1]}\n', ""),
    # expanding h2*h50 over the p basis took 18 s before the h target
    # refused degree 52; the product stays h[50,2]
    "eval h2*h50 --basis h": (0, "h[50,2]\n", ""),
    "inv --family perm --n 2 --r 3 --basis h": (0, "h[3] + h[2,1]\n", ""),
    # as printed when the truncated series multiply formed every product
    # term before it dropped those above the cap
    "inv --family perm --n 2 --r 16": (
        0, "94841441d77d819cdf37c95658af151e4dd4ccecd2ef559fa8a205ce6c966c2d",
        ""),
    # as printed when the component was read off the series
    # (1 + h_1 + ... + h_20)[h_1 + h_2 + ...] truncated at degree 20
    "inv --family perm --n 20 --r 20 --basis p": (
        0, "ab3fb8a70a12e11c3a22fc0e92bdba57e04a81b6faa596d36aba569ad5f18764",
        ""),
    # as printed when inv_char(GLnAdjoint) added one Kronecker square
    # s_lam * s_lam at a time as SymFns
    "inv --family gl-adjoint --n 2 --r 10": (
        0, "6e37a10120dcb4f6b11edefe84bfd6a9b2c7df27b40613fb3684c106c5135e93",
        ""),
    "inv --family gl-adjoint --n 3 --r 14 --basis p": (
        0, "913cbd7e4abfc401b1fe6e40bd604ba94d203c16e377c6d87305f14e667fa78b",
        ""),
    "hilbert --family gl-adjoint --n 3 --functor h2 --r 8": (0, "12663\n", ""),
    "inv --family sl --n 2 --functor h4 --r 2": (0, "s[2]\n", ""),
    # binary sextics, printed by the p-basis route through the weight-36
    # Jacobi-Trudi expansion of s_(18,18), before the finite alphabet
    # took this query
    "inv --family sl --n 2 --functor h6 --r 6":
        (0, "3*s[6] + s[5,1] + 6*s[4,2] + s[4,1,1] + 3*s[3,2,1] "
            "+ 3*s[3,1,1,1] + 4*s[2,2,2] + s[2,1,1,1,1]\n", ""),
    "hilbert --family sp --n 1 --functor h6 --r 6": (0, "3\n", ""),
    # binary forms of degree 25: bounds (126, 125) in 8-bit fields,
    # beyond the oracles' reach
    "hilbert --family sl --n 2 --functor h25 --r 10": (0, "1512\n", ""),
    # as printed when hilbert_dim's p-basis route paired the expanded
    # plethysm h_r[F] with I_(r*k)(V) by scalar()
    "hilbert --family perm --n 3 --functor s[2,1] --r 6": (0, "298\n", ""),
    "hilbert --family sl --n 3 --functor e2 --r 10": (0, "0\n", ""),
    "hilbert --family sp --n 2 --functor h2 --r 6": (0, "2\n", ""),
    "deals --m 2 --n 2 --cycle-index": (0, "1/2*p[2] + 3/2*p[1,1]\n", ""),
    "regular --n 4 --k 2": (0, "5\n", ""),
    # no multigraph on 3 nodes has every degree 3
    "regular --n 3 --k 3": (0, "0\n", ""),
    # the empty graph's index h_40 over all p(40) = 37,338 classes, at the
    # plethysm cap; n = 41 is refused
    "regular --n 40 --k 0 --cycle-index": (
        0, "46a23c347864e1076a62aa441c115896c05664a2e703a94fac4ef742d5609aff",
        ""),
    "table --r 3": (0, "chi \\ class  [3]  [2,1]  [1,1,1]\n"
                       "[3]            1      1        1\n"
                       "[2,1]         -1      0        2\n"
                       "[1,1,1]        1     -1        1\n", ""),
    "table --r 4": (
        0, "chi \\ class  [4]  [3,1]  [2,2]  [2,1,1]  [1,1,1,1]\n"
           "[4]            1      1      1        1          1\n"
           "[3,1]         -1      0     -1        1          3\n"
           "[2,2]          0     -1      2        0          2\n"
           "[2,1,1]        1      0     -1       -1          3\n"
           "[1,1,1,1]     -1      1      1       -1          1\n", ""),
}


def _readme_examples():
    # (argv, shown stdout) for each `$ symf ...` line with output under
    # it in README's Command line block
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ symf "):
            examples.append((shlex.split(line[len("$ symf "):]), []))
        elif examples:
            examples[-1][1].append(line)
    return [(argv, "\n".join(shown) + "\n") for argv, shown in examples
            if shown]


README_EXAMPLES = _readme_examples()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", ANSWERS)
def test_answers(capsys, command):
    code, out, err = run(capsys, *shlex.split(command))
    if not ANSWERS[command][1].endswith("\n"):  # the sha256 of stdout
        out = hashlib.sha256(out.encode()).hexdigest()
    assert (code, out, err) == ANSWERS[command]


class TestEval:
    def test_schur_output(self, capsys):
        assert run(capsys, "eval", "h2[h2]") == (0, "s[4] + s[2,2]\n", "")

    def test_rational_result(self, capsys):
        assert run(capsys, "eval", "scalar(h2[h2], h[2,2])") == (0, "2\n", "")

    def test_warning_is_one_line(self, capsys):
        # a fresh process, then in process twice: each call shows it
        # once, and callers of the library keep Python's own display
        warning = ("symf: warning: partition [3, 5] is not weakly "
                   "decreasing; sorted to [5, 3]\n")
        proc = subprocess.run([sys.executable, "-m", "symf", "eval",
                               "s[3,5]"],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, "s[5,3]\n", warning)
        shown = warnings.showwarning
        for _ in range(2):
            assert run(capsys, "eval", "s[3,5]") == (0, "s[5,3]\n", warning)
        assert warnings.showwarning is shown

    def test_long_chains_answer(self, capsys):
        # sums, products and bracket chains are read in loops, so their
        # length costs no stack
        assert run(capsys, "eval", "+".join(["h1"] * 3000)) == \
            (0, "3000*s[1]\n", "")
        assert run(capsys, "eval", "*".join(["1"] * 3000 + ["h1"])) == \
            (0, "s[1]\n", "")
        assert run(capsys, "eval", "h1" + "[h1]" * 3000, "--basis", "p") == \
            (0, "p[1]\n", "")

    def test_nesting_is_capped(self, capsys):
        # 200 nested plethysms answer, and so does every kind of nesting
        # at the cap of 256 levels; one level more is a syntax error
        nested = "h1[" * 200 + "h1" + "]" * 200
        assert run(capsys, "eval", nested, "--basis", "p") == (0, "p[1]\n", "")
        for opener, closer, out in (("(", ")", "s[1]\n"),
                                    ("h1[", "]", "s[1]\n"),
                                    ("ones(", ")", "1\n")):
            assert run(capsys, "eval", opener * 256 + "h1" + closer * 256) \
                == (0, out, "")
            code, out, err = run(capsys, "eval",
                                 opener * 257 + "h1" + closer * 257)
            assert (code, out) == (2, "")
            assert err.startswith("symf: column ") and err.count("\n") == 1
            assert "nested more than 256 levels" in err
        code, out, err = run(capsys, "eval", "(" * 300 + "h1" + ")" * 300)
        assert (code, out) == (2, "")
        assert err.startswith("symf: ") and err.count("\n") == 1


class TestInv:
    def test_sl_rectangle(self, capsys):
        code, out, err = run(capsys, "inv", "--family", "sl",
                             "--n", "2", "--r", "4")
        assert (code, out) == (0, "s[2,2]\n")

    def test_gl_adjoint_with_nine_rows_above_the_table_cap(self, capsys):
        # shapes of weight 21 with 9 rows, such as (13,1^8), expand by
        # Murnaghan-Nakayama like every other row; the answer's dimension
        # is the sum of (f^lam)^2 by the hook length formula
        try:
            code, out, err = run(capsys, "inv", "--family", "gl-adjoint",
                                 "--n", "9", "--r", "21", "--basis", "p")
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == \
                GL_ADJOINT_N9_R21_SHA256
            got = dimension(inv_char(GLnAdjoint(9), 21))
            assert got == sum(oracle_syt(lam) ** 2
                              for lam in partitions_of(21) if lam.length <= 9)
        finally:
            _reset_memo()  # the weight-21 character values

    def test_bytes_match_the_pinned_digest(self, capsys):
        # stdout, stderr and exit code in every basis, zero and nonzero
        # degrees and a refusal, of the answers built in the s basis (SL,
        # Sp) and the p basis (perm, GL(n) adjoint)
        records = []
        for family, n, r in INV_QUERIES:
            for basis in "spmhe":
                argv = ["inv", "--family", family, "--n", str(n),
                        "--r", str(r), "--basis", basis]
                records.append(repr((argv, *run(capsys, *argv))))
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert digest == INV_SHA256


class TestHilbert:
    def test_binary_quartics(self, capsys):
        code, out, err = run(capsys, "hilbert", "--family", "sl", "--n", "2",
                             "--functor", "h4", "--r", "6")
        assert (code, out) == (0, "2\n")


class TestDeals:
    def test_count(self, capsys):
        code, out, err = run(capsys, "deals", "--m", "2", "--n", "3")
        assert (code, out) == (0, "5\n")


class TestRegular:
    def test_cycle_index(self, capsys):
        code, out, err = run(capsys, "regular", "--n", "3", "--k", "2",
                             "--cycle-index")
        assert (code, out) == (0, "2/3*p[3] + 3/2*p[2,1] + 5/6*p[1,1,1]\n")


class TestTable:
    def test_r14_bytes_cold_and_warm(self, capsys, fresh_cache):
        # a transposed or reordered table would pass a comparison of
        # the cold output with the warm one, so both are pinned
        code, out, err = run(capsys, "table", "--r", "14")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_R14_SHA256
        _reset_memo()
        assert _load_table(14) is not None
        code, out, err = run(capsys, "table", "--r", "14")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_R14_SHA256

    def test_unwritable_cache_warning_is_one_line(self, capsys, tmp_path,
                                                   monkeypatch):
        expected = run(capsys, "table", "--r", "3")
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("plain file")
        monkeypatch.setenv("SYMF_CACHE_DIR", str(blocker / "sub"))
        _reset_memo()
        try:
            code, out, err = run(capsys, "table", "--r", "3")
        finally:
            _reset_memo()
        assert (code, out) == expected[:2]
        assert err.startswith("symf: warning: could not persist character "
                              "table r=3: ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code, out, err = run(capsys, "selftest", "--max-degree", "4")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert len(lines) == 11
        assert all(line.startswith("ok ") for line in lines)

    def test_failing_check_exits_5(self, capsys, monkeypatch):
        real = selftest.card_deals
        monkeypatch.setattr(selftest, "card_deals",
                            lambda spec: real(spec) + 1)
        assert selftest.run_selftest(4) is False
        lines = capsys.readouterr().out.rstrip("\n").split("\n")
        assert [line for line in lines if not line.startswith("ok ")] == \
            ["FAIL card-deals: count m=2 n=2 is 2"]
        assert len(lines) == 11
        code, out, err = run(capsys, "selftest", "--max-degree", "4")
        assert code == 5
        assert out.count("FAIL ") == 1

    def test_unexpected_error_is_reported(self, capsys, monkeypatch):
        def broken(spec):
            raise RuntimeError("boom")
        monkeypatch.setattr(selftest, "regular_graphs", broken)
        assert selftest.run_selftest(4) is False
        lines = capsys.readouterr().out.rstrip("\n").split("\n")
        assert [line for line in lines if not line.startswith("ok ")] == \
            ["FAIL regular-graphs: unexpected RuntimeError('boom')"]

    def test_checks_fire_under_optimize(self):
        # checks raise explicitly, so -O, which strips assert, keeps them
        probe = ("import sys\n"
                 "import symf.selftest as selftest\n"
                 "from symf.cli import main\n"
                 "real = selftest.card_deals\n"
                 "selftest.card_deals = lambda spec: real(spec) + 1\n"
                 "sys.exit(main(['selftest', '--max-degree', '4']))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", probe],
                              capture_output=True, text=True)
        assert proc.returncode == 5, proc.stderr
        assert "FAIL card-deals: count m=2 n=2 is 2\n" in proc.stdout


FAILURES = [
    (1, ["nope"]),
    (1, []),
    (1, ["eval"]),
    (1, ["inv", "--family", "xx", "--n", "2", "--r", "1"]),
    (1, ["deals", "--m", "2"]),
    (1, ["deals", "--m", "0", "--n", "3"]),
    (1, ["inv", "--family", "sl", "--n", "0", "--r", "1"]),
    (1, ["inv", "--family", "sp", "--n", "2", "--r", "-1"]),
    (2, ["eval", "q2"]),
    (2, ["eval", "h2 +"]),
    (2, ["eval", "fundamentalish(h2)"]),
    (3, ["inv", "--family", "sl", "--n", "2",
         "--functor", "h2 - h2", "--r", "1"]),
    (3, ["regular", "--n", "3", "--k", "3", "--cycle-index"]),
    (4, ["table", "--r", "21"]),
    (4, ["eval", "p21"]),
    (4, ["eval", "p[%s]*p1" % ",".join("1" * 127), "--basis", "p"]),
    # degree 130 is past the p target's cap of 40
    (4, ["eval", "s[130]", "--basis", "p"]),
    # the finite alphabet's estimate is 2.0e9 steps, above its cap
    (4, ["hilbert", "--family", "sl", "--n", "2", "--functor", "h1",
         "--r", "2000"]),
    # a number is not a functor character
    (2, ["hilbert", "--family", "sl", "--n", "2", "--functor", "3",
         "--r", "1"]),
]


# inv --functor commands run with both library entry points replaced on
# symf.cli, so that each is refused before the answer is built, or shown
# to reach the build.  c h_1 gives I_r(P(V)) the p_1^r coefficient
# c^r dim I_r(V) / r!, never zero for perm and GL(n), and for SL(n) and
# Sp(2n) zero exactly where I_r(V) is, so r alone decides; the cap of the
# ring the construction takes still speaks first.  Building the answer
# took 0.41 s for perm at r = 24, 0.24 s for GL(2), 3.2 s for SL(3) at
# r = 36 and 1.5 s for SL(2) at r = 40.  id -> (command line, stderr)
DEGREE_ONE_REFUSED = {
    "perm-s": ("inv --family perm --n 2 --functor h1 --r 24",
               "symf: Schur expansion needs characters of S_24, beyond the "
               "cap r <= 20\n"),
    "gl-adjoint-s": ("inv --family gl-adjoint --n 2 --functor 3*h1 --r 24",
                     "symf: Schur expansion needs characters of S_24, "
                     "beyond the cap r <= 20\n"),
    "perm-e": ("inv --family perm --n 3 --functor p1 --r 17 --basis e",
               "symf: monomial basis transitions are capped at degree 16, "
               "got 17\n"),
    "perm-m": ("inv --family perm --n 2 --functor h1 --r 21 --basis m",
               "symf: monomial expansion of degree 21 is beyond the cap "
               "20\n"),
    "perm-p-41": ("inv --family perm --n 2 --functor h1 --r 41 --basis p",
                  "symf: plethysm of degree 41 is beyond the cap 40\n"),
    "gl-adjoint-s-41": ("inv --family gl-adjoint --n 1 --functor h1 --r 41",
                        "symf: plethysm of degree 41 is beyond the cap 40\n"),
    "sl-h-36": ("inv --family sl --n 3 --functor h1 --r 36 --basis h",
                "symf: monomial basis transitions are capped at degree 16, "
                "got 36\n"),
    "sl-s-40": ("inv --family sl --n 2 --functor h1 --r 40 --basis s",
                "symf: Schur expansion needs characters of S_40, beyond the "
                "cap r <= 20\n"),
}


# A functor of higher degree is refused where the answer's dimension
# <F^r, I_rk(V)> is nonzero and built where it is 0, as e2 on perm(2) at
# r = 17 is; h2 on SL(2) or Sp(2), the adjoint, has invariants in degree
# 24.  Building the answer took 2.2-3.6 s for SL(3) at r = 30 and
# 1.7-2.2 s for SL(2) at r = 40.  command line -> the stderr of the
# refusal, or None where the answer is built
REFUSED_OR_BUILT = {
    "inv --family sl --n 2 --functor h2 --r 24":
        "symf: Schur expansion needs characters of S_24, beyond the cap "
        "r <= 20\n",
    "inv --family sp --n 1 --functor h2 --r 24":
        "symf: Schur expansion needs characters of S_24, beyond the cap "
        "r <= 20\n",
    "inv --family sl --n 3 --functor h2 --r 30 --basis m":
        "symf: monomial expansion of degree 30 is beyond the cap 20\n",
    "inv --family sl --n 2 --functor h2 --r 40 --basis s":
        "symf: Schur expansion needs characters of S_40, beyond the cap "
        "r <= 20\n",
    "inv --family perm --n 2 --functor e2 --r 17 --basis h": None,
}


class Built(Exception):
    """Raised in place of building an invariant character."""


def _forbid_builds(monkeypatch):
    def built(*args):
        raise Built(args)
    monkeypatch.setattr("symf.cli.inv_char_polyfunc", built)
    monkeypatch.setattr("symf.cli.inv_char", built)


# Commands that answer, or are refused, at once in a fresh process: each
# command line and the exit code, stdout and stderr it gives within 2 s
# under a 1,000,000 KB address-space limit.  The comments say what ran
# before the answer or the refusal came from the arguments.
AT_ONCE = {
    # hilbert's plethysm cap speaks after the zero test: there are no
    # invariants in degree 45, and perm and GL(n), never zero, are
    # refused before the degree-41 series is built
    "hilbert --family sl --n 5 --functor h5 --r 9":
        (4, "", "symf: plethysm of degree 45 is beyond the cap 40\n"),
    "hilbert --family sp --n 3 --functor h2 --r 21":
        (4, "", "symf: plethysm of degree 42 is beyond the cap 40\n"),
    "hilbert --family sl --n 2 --functor h1 --r 45": (0, "0\n", ""),
    "hilbert --family perm --n 1 --functor h1 --r 41":
        (4, "", "symf: plethysm of degree 41 is beyond the cap 40\n"),
    "hilbert --family gl-adjoint --n 2 --functor h1 --r 41":
        (4, "", "symf: plethysm of degree 41 is beyond the cap 40\n"),
    # the permutation family read as class functions of S_20: reading it
    # by block types took over 120 s
    "hilbert --family perm --n 20 --functor h2 --r 20":
        (0, "2313915241579\n", ""),
    # no valency leaves the empty graph, for any n; reading h_100 at
    # p_i = 1 would run over p(100) partitions
    "regular --n 100 --k 0": (0, "1\n", ""),
    # degree 2 * 30 = 60 is past the plethysm cap of 40; expanding
    # h2[h30] would run for more than 30 s
    "eval h2[h30] --basis h":
        (4, "", "symf: plethysm of degree 60 is beyond the cap 40\n"),
    # the perm answer is nonzero in degree r, so r alone decides the
    # refusal; building the series first takes about 2 s at r = 24 and
    # 7 s at r = 28
    "inv --family perm --n 3 --r 24":
        (4, "", "symf: Schur expansion needs characters of S_24, beyond "
                "the cap r <= 20\n"),
    "inv --family perm --n 3 --r 28 --basis h":
        (4, "", "symf: monomial basis transitions are capped at degree 16, "
                "got 28\n"),
    # GL(n)'s I_r holds h_r, so r alone decides the target's cap;
    # building I_r first took 1.6 s at r = 24 and 3.4 s at r = 26
    "inv --family gl-adjoint --n 4 --r 24 --basis h":
        (4, "", "symf: monomial basis transitions are capped at degree 16, "
                "got 24\n"),
    "inv --family gl-adjoint --n 4 --r 26 --basis h":
        (4, "", "symf: monomial basis transitions are capped at degree 16, "
                "got 26\n"),
    # GL(n)'s answer, as perm's, is nonzero at all p(r) classes, so r
    # alone decides the part and term caps; expanding chi rows over the
    # p(r) classes first took about 12.5 s into running out of memory
    "inv --family gl-adjoint --n 9 --r 41 --basis p":
        (4, "", "symf: the answer has up to 44583 terms, beyond the cap "
                "37338\n"),
    "inv --family gl-adjoint --n 2 --r 200 --basis p":
        (4, "", "symf: a part repeated 200 times is beyond the cap 127\n"),
    # the deal cycle index is refused at m*n > 40 as the count is;
    # forming h_10^10 first ran for more than 30 s
    "deals --m 10 --n 10 --cycle-index":
        (4, "", "symf: plethysm of degree 100 is beyond the cap 40\n"),
    # the empty graph's index h_n is refused above n = 40; printing h_41
    # in the p basis took 1.9 s
    "regular --n 41 --k 0 --cycle-index":
        (4, "", "symf: plethysm of degree 41 is beyond the cap 40\n"),
    # inv --functor refuses a nonzero I_{r*k} above the plethysm cap as
    # hilbert does; these answers at r*k = 42 took over 60 s, 10.3 s and
    # 3.95 s
    "inv --family perm --n 2 --functor h2 --r 21 --basis p":
        (4, "", "symf: plethysm of degree 42 is beyond the cap 40\n"),
    "inv --family gl-adjoint --n 2 --functor h2 --r 21 --basis p":
        (4, "", "symf: plethysm of degree 42 is beyond the cap 40\n"),
    "inv --family sl --n 6 --functor h2 --r 21 --basis p":
        (4, "", "symf: plethysm of degree 42 is beyond the cap 40\n"),
    # inv reads from n and r that I_140(Sp(40)) is nonzero and built in
    # the s basis, so the m, h and e caps refuse it; listing its
    # 3,034,232 shapes first took 25-28 s and ran out of memory under a
    # 2 GB limit
    "inv --family sp --n 20 --r 140 --basis m":
        (4, "", "symf: monomial expansion of degree 140 is beyond the cap "
                "20\n"),
    "inv --family sp --n 20 --r 140 --basis h":
        (4, "", "symf: monomial basis transitions are capped at degree 16, "
                "got 140\n"),
    "inv --family sp --n 20 --r 140 --basis e":
        (4, "", "symf: monomial basis transitions are capped at degree 16, "
                "got 140\n"),
    # the same count refuses the s basis, where the answer is built, at
    # the term cap of p(40) terms, and the p target is capped at degree
    # 40: listing the shapes, or expanding them over p(r) classes, took
    # 28-32 s into a traceback or out of memory
    "inv --family sp --n 20 --r 140 --basis s":
        (4, "", "symf: the answer has up to 3034232 terms, beyond the cap "
                "37338\n"),
    "inv --family sp --n 20 --r 140 --basis p":
        (4, "", "symf: power-sum expansion of degree 140 is beyond the cap "
                "40\n"),
    # the perm answer and the alphabet's answer to inv --functor have up
    # to p(r) terms, so the term cap refuses them above degree 40; the
    # perm one was still running at 45 s, and the other took 48.8 s and
    # 1.2 GB
    "inv --family perm --n 60 --r 60 --basis p":
        (4, "", "symf: the answer has up to 966467 terms, beyond the cap "
                "37338\n"),
    "inv --family sl --n 2 --functor h1 --r 60 --basis p":
        (4, "", "symf: the answer has up to 966467 terms, beyond the cap "
                "37338\n"),
    "inv --family sl --n 2 --r 60 --basis p":
        (4, "", "symf: power-sum expansion of degree 60 is beyond the cap "
                "40\n"),
    "inv --family sp --n 20 --r 50 --basis p":
        (4, "", "symf: power-sum expansion of degree 50 is beyond the cap "
                "40\n"),
    # eval caps the p target at degree 40 as inv does: h60 in the p
    # basis took 37.0 s for 51.5 MB of stdout
    "eval h60 --basis p":
        (4, "", "symf: power-sum expansion of degree 60 is beyond the cap "
                "40\n"),
    # chi^(130) at (1^130) would repeat a part 130 times, so s[130] is
    # refused before its row is built
    "eval 'scalar(s[130], p[130])'":
        (4, "", "symf: a part repeated 130 times is beyond the cap 127\n"),
    # routing reads the count and bounds of the shapes of I_140(Sp(2n))
    # from n and d; listing the 3.0 and 3.9 million shapes first ended
    # in a SystemError traceback, or in running out of memory
    "hilbert --family sp --n 20 --functor h1 --r 140":
        (4, "", "symf: plethysm of degree 140 is beyond the cap 40\n"),
    "hilbert --family sp --n 30 --functor h1 --r 140":
        (4, "", "symf: plethysm of degree 140 is beyond the cap 40\n"),
    # the count of the shapes of I_2r(Sp(2n)) runs over parts up to
    # min(n, r), not n: up to n, a billion loop steps came first
    "hilbert --family sp --n 1000000000 --functor h1 --r 0": (0, "1\n", ""),
    "hilbert --family sp --n 1000000000 --functor h1 --r 2": (0, "0\n", ""),
    "hilbert --family sp --n 1000000000 --functor h1 --r 4": (0, "0\n", ""),
    # the finite alphabet's estimate refuses degree 160,000 without
    # counting its partitions or shifting the box polynomial once per
    # degree
    "hilbert --family sl --n 2 --functor h2 --r 80000":
        (4, "", "symf: the finite-alphabet route is estimated at "
                "384012000060150 steps, beyond the cap 100000000\n"),
}


def _limit_memory():
    # the address space of `ulimit -v 1000000`, in bytes
    limit = 1_000_000 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("command", AT_ONCE)
def test_at_once(command):
    t0 = time.perf_counter()
    argv = [sys.executable, "-m", "symf"] + shlex.split(command)
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_memory)
    elapsed = time.perf_counter() - t0
    assert (proc.returncode, proc.stdout, proc.stderr) == AT_ONCE[command]
    assert elapsed < 2.0, elapsed


class TestExitCodes:
    @pytest.mark.parametrize("expected,argv", FAILURES,
                             ids=[" ".join(a) or "(empty)" for _, a in FAILURES])
    def test_failure(self, capsys, expected, argv):
        code, out, err = run(capsys, *argv)
        assert code == expected
        assert out == ""
        assert err.startswith("symf: ")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no limit on int digits")
    def test_refusal_names_the_digits_of_a_number_past_the_limit(self, capsys):
        # each literal is inside the limit and the degree 2N of the
        # product one digit past it: the refusal names how many digits
        # there are, where formatting the degree failed with exit 1
        digits = sys.get_int_max_str_digits()
        nines = "9" * digits
        assert run(capsys, "eval", "h[%s]*h[%s]" % (nines, nines),
                   "--basis", "s") == (
            4, "", "symf: Schur expansion needs characters of S_(a number "
                   "of %d digits), beyond the cap r <= 20\n" % (digits + 1))

    def test_refusal_above_the_plethysm_cap_counts_few_partitions(
            self, capsys, monkeypatch):
        # the p basis's estimate passes the finite one long before
        # p(40,000), which alone takes about 2 s to count
        seen = []

        def spy(n):
            seen.append(n)
            return partition_count(n)
        monkeypatch.setattr("symf.invariants.partition_count", spy)
        assert run(capsys, "hilbert", "--family", "sl", "--n", "2",
                   "--functor", "h2", "--r", "20000") == (
            4, "", "symf: the finite-alphabet route is estimated at "
                   "6000750015150 steps, beyond the cap 100000000\n")
        assert seen and max(seen) <= 2000, max(seen)

    @pytest.mark.parametrize("row", DEGREE_ONE_REFUSED)
    def test_degree_one_functor_refused_from_the_arguments(
            self, capsys, monkeypatch, row):
        command, stderr = DEGREE_ONE_REFUSED[row]
        _forbid_builds(monkeypatch)
        assert run(capsys, *shlex.split(command)) == (4, "", stderr)

    @pytest.mark.parametrize("command", REFUSED_OR_BUILT)
    def test_functor_refused_or_built(self, capsys, monkeypatch, command):
        _forbid_builds(monkeypatch)
        argv = shlex.split(command)
        if REFUSED_OR_BUILT[command] is None:
            with pytest.raises(Built):
                main(argv)
        else:
            assert run(capsys, *argv) == (4, "", REFUSED_OR_BUILT[command])

    def test_closed_pipe_ends_quietly(self, tmp_path):
        # the reader takes one line of a 273 KB table and leaves; the
        # writer ends as a shell reports a SIGPIPE, with no traceback
        env = dict(os.environ, SYMF_CACHE_DIR=str(tmp_path))
        proc = subprocess.Popen([sys.executable, "-m", "symf", "table",
                                 "--r", "14"], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"chi \\ class")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert (proc.wait(timeout=60), stderr) == (141, b"")

    def test_interrupt_is_one_line(self, capsys, monkeypatch):
        # Ctrl-C in a long command, as the handler sees it: one message
        # and 128 + SIGINT, with no traceback
        def interrupted(text):
            raise KeyboardInterrupt
        monkeypatch.setattr("symf.cli.evaluate_text", interrupted)
        assert run(capsys, "eval", "h60", "--basis", "p") == \
            (130, "", "symf: interrupted\n")

    def test_out_of_memory_is_one_line(self, capsys, monkeypatch):
        # an allocation past the process's limit, as the handler sees it
        # (this command reaches one under a 1 GB address-space limit):
        # one message and the size-cap code, with no traceback
        def exhausted(family, P, r):
            raise MemoryError
        monkeypatch.setattr("symf.cli.hilbert_dim", exhausted)
        assert run(capsys, "hilbert", "--family", "sl", "--n", "20000",
                   "--functor", "h1", "--r", "20000") == \
            (4, "", "symf: out of memory: the query needs more than this "
                    "process may allocate\n")


# Each library name that the benchmark's cli worker or a test sets on
# symf.cli in place of the real one, with a command that calls it.
PATCHED = [
    ("character_table", ["table", "--r", "3"]),
    ("to_basis", ["eval", "h2", "--basis", "p"]),
    ("evaluate_text", ["eval", "h2"]),
    ("inv_char", ["inv", "--family", "sl", "--n", "2", "--r", "4"]),
    ("inv_char_polyfunc", ["inv", "--family", "perm", "--n", "2",
                           "--functor", "h2", "--r", "2"]),
    ("card_deals", ["deals", "--m", "2", "--n", "2"]),
    ("deals_cycle_index", ["deals", "--m", "2", "--n", "2", "--cycle-index"]),
    ("regular_graphs", ["regular", "--n", "2", "--k", "2"]),
    ("regular_graphs_cycle_index", ["regular", "--n", "2", "--k", "2",
                                    "--cycle-index"]),
    ("PolyFunctor", ["hilbert", "--family", "sl", "--n", "2",
                     "--functor", "h2", "--r", "2"]),
]


@pytest.mark.parametrize("name,argv", PATCHED, ids=[n for n, _ in PATCHED])
def test_handlers_call_the_name_set_on_the_module(capsys, monkeypatch, name,
                                                  argv):
    # the layers load lazily, and a handler still calls what stands on
    # symf.cli at call time, so a wrapper set there sees every call
    import symf.cli as cli
    expected = run(capsys, *argv)
    real, calls = getattr(cli, name), []

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(cli, name, spy)
    assert run(capsys, *argv) == expected
    assert expected[0] == 0 and len(calls) == 1


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys):
        first = run(capsys, "table", "--r", "6")
        second = run(capsys, "table", "--r", "6")
        assert first == second
        third = run(capsys, "eval", "h3[e2]", "--basis", "m")
        fourth = run(capsys, "eval", "h3[e2]", "--basis", "m")
        assert third == fourth


class TestReadme:
    def test_examples_are_found(self):
        assert len(README_EXAMPLES) == 8

    def test_python_examples_run(self):
        # the >>> blocks, as `python -m doctest README.md` runs them
        failed, attempted = doctest.testfile(
            str(ROOT / "README.md"), module_relative=False)
        assert (failed, attempted) == (0, 5)

    @pytest.mark.parametrize("argv,shown", README_EXAMPLES,
                             ids=[" ".join(a) for a, _ in README_EXAMPLES])
    def test_example_prints_what_readme_shows(self, tmp_path, argv, shown):
        # as a user would run it: a fresh process and its own cache; an
        # example shortened with ... is compared up to the dots
        env = dict(os.environ, SYMF_CACHE_DIR=str(tmp_path / "cache"))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "symf"] + argv, env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        head, dots, _ = shown.partition("...")
        assert (proc.stdout[:len(head)] if dots else proc.stdout) == head


def _fresh_python(tmp_path, code):
    """Stdout of `python -c code` in a fresh interpreter that imports
    symf from this checkout, with its own cache."""
    env = dict(os.environ, SYMF_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestPackaging:
    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "symf", "eval", "h2[h2]"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "s[4] + s[2,2]\n"

    def test_startup_leaves_heavy_modules_unloaded(self, tmp_path):
        """Starting a command loads none of dataclasses, inspect, ast or json.

        Each `symf` command is a fresh process, so what symf imports is
        paid on every call: dataclasses brings inspect, ast and dis with
        it, and json is needed only for cache files and --json.  The
        check counts modules against a bare interpreter's, not time.
        """
        probe = ("import sys\n"
                 "bare = set(sys.modules)\n"
                 "from symf.cli import main\n"
                 "imported = set(sys.modules) - bare\n"
                 "code = main(['eval', 'h2'])\n"
                 "ran = set(sys.modules) - bare\n"
                 "print(code, ' '.join(sorted(imported)), ' '.join(sorted(ran)),"
                 " sep='\\n')\n")
        printed, code, imported, ran = \
            _fresh_python(tmp_path, probe).split("\n")[-5:-1]
        assert printed == "s[2]" and code == "0"
        heavy = {"dataclasses", "inspect", "ast", "json"}
        assert "symf.cli" in imported.split()
        assert heavy.isdisjoint(imported.split())
        assert heavy.isdisjoint(ran.split())

    @pytest.mark.parametrize("argv,unloaded", [
        ("table --r 4", {"symf.invariants", "symf.enumeration", "symf.expr",
                         "symf.oracles"}),
        ("eval h2", {"symf.invariants", "symf.enumeration"}),
        ("deals --m 2 --n 2", {"symf.invariants", "symf.expr"}),
    ])
    def test_a_command_loads_only_the_layers_it_runs(self, tmp_path, argv,
                                                     unloaded):
        probe = ("import sys\n"
                 "from symf.cli import main\n"
                 "code = main(%r)\n"
                 "print(code, ' '.join(sorted(sys.modules)))\n"
                 % argv.split())
        code, ran = _fresh_python(tmp_path, probe).split("\n")[-2].split(" ", 1)
        assert code == "0"
        assert unloaded.isdisjoint(ran.split())

    @pytest.mark.parametrize("first", ["", "import symf.expr",
                                       "import symf.plethysm",
                                       "import symf.enumeration"])
    def test_package_names_resolve_lazily(self, tmp_path, first):
        # symf.plethysm is the function, never its submodule, whatever
        # was imported first; every name of __all__ is listed before it
        # loads and resolves to its module's object; other names do not
        probe = (first + "\n"
                 "import sys, symf\n"
                 "from symf import plethysm\n"
                 "listed = set(symf.__all__) <= set(dir(symf))\n"
                 "found = [getattr(symf, name) for name in symf.__all__]\n"
                 "own = all(getattr(sys.modules[v.__module__], n) is v\n"
                 "          for n, v in zip(symf.__all__, found)\n"
                 "          if hasattr(v, '__module__'))\n"
                 "print(listed, own, hasattr(symf, 'nothing'),\n"
                 "      symf.plethysm is plethysm, type(plethysm).__name__,\n"
                 "      plethysm.__module__)\n")
        assert _fresh_python(tmp_path, probe) == \
            "True True False True function symf.plethysm\n"

    def test_console_script_registered(self, tmp_path):
        """Building this checkout registers `symf = symf.cli:main`.

        The metadata is built from pyproject.toml by setuptools' egg_info
        into tmp_path, so the check reads the repo rather than whatever
        the running interpreter has installed, and needs neither an
        install nor the wheel package.
        """
        pytest.importorskip("setuptools", minversion="61")
        from importlib.metadata import (PackageNotFoundError,
                                        PathDistribution, distribution)

        root = Path(__file__).resolve().parent.parent
        try:
            subprocess.run([sys.executable, "-c",
                            "from setuptools import setup; setup()",
                            "-q", "egg_info", "--egg-base", str(tmp_path)],
                           cwd=root, capture_output=True, text=True,
                           check=True)
        except subprocess.CalledProcessError as exc:
            pytest.fail(f"egg_info failed:\n{exc.stderr}")

        built = PathDistribution(tmp_path / "symf.egg-info")
        scripts = built.entry_points.select(group="console_scripts")
        names = {ep.name: ep.value for ep in scripts}
        assert names.get("symf") == "symf.cli:main"
        assert scripts["symf"].load() is main

        # Where symf is installed, its registered script must agree too.
        try:
            installed = distribution("symf")
        except PackageNotFoundError:
            return
        scripts = installed.entry_points.select(group="console_scripts")
        assert {ep.name: ep.value for ep in scripts}.get("symf") == \
            "symf.cli:main"
