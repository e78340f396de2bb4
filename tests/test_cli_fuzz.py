"""Derandomized fuzzing of the expression language through the command
line, skipped without hypothesis.

Random expressions are drawn from the language's own tables: basis
atoms of weight <= 3 (h[] included) from symfunc.BASES, integers 0-3
and partition literals, joined by + - * and plethysm brackets, and each
function of expr.FUNCS at its arity, nested at most three deep.  Each
runs in process through `symf eval` in a random output basis, sometimes
with --json.  Whatever it means, the command must end in an exit code
of 0-4 and must not raise.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from symf.cli import main
from symf.expr import FUNCS
from symf.partitions import partitions_of
from symf.symfunc import BASES

fuzzed = settings(derandomize=True, database=None, deadline=None,
                  max_examples=500)

partitions = st.sampled_from(
    ["[%s]" % ",".join(map(str, lam)) for d in range(4)
     for lam in partitions_of(d)])
# mostly symmetric functions: a partition literal only means something
# as the last argument of coeff
atoms = st.integers(0, 9).flatmap(lambda i: (
    partitions if i == 0 else st.integers(0, 3).map(str) if i < 3 else
    st.builds("{}{}".format, st.sampled_from(BASES), partitions)))


def _call(entry, args):
    return "%s(%s)" % (entry[0], ", ".join(args))


def expressions(depth):
    if depth == 0:
        return atoms
    sub = expressions(depth - 1)
    return st.one_of(
        atoms,
        st.builds("({}) {} ({})".format, sub, st.sampled_from("+-*"), sub),
        st.builds("({})[{}]".format, sub, sub),
        st.sampled_from(FUNCS).flatmap(lambda entry: st.builds(
            _call, st.just(entry), st.tuples(*[
                sub if kind == "f" else st.one_of(partitions, sub)
                for kind in entry[2]]))))


@fuzzed
@given(expressions(3), st.sampled_from(BASES), st.booleans())
def test_eval_ends_in_an_exit_code(text, basis, as_json):
    argv = ["eval", text, "--basis", basis] + (["--json"] if as_json else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5), (argv, code, err.getvalue())
    if code:
        assert out.getvalue() == "" and err.getvalue().startswith("symf: ")
