"""Derandomized fuzzing of the expression language through the command
line, skipped without hypothesis.

Random expressions are drawn from the language's own tables: basis
atoms of weight <= 3 (h[] included) from symfunc.BASES, integers 0-3
and partition literals, joined by + - * and plethysm brackets, and each
function of expr.FUNCS at its arity, nested at most three deep.  Each
runs in process through `symf eval` in a random output basis, sometimes
with --json.  Whatever it means, the command must end in an exit code
of 0-4 and must not raise.  The same expressions, wrapped in up to the
nesting cap's levels of parentheses, brackets and calls, print with
pretty to text that parses back to the same tree, and run through
`symf eval` end in an exit code of 0-4 with at most one line, a `symf:`
message, on stderr.  Short strings of any code points, run through
`symf eval`, end the same way but never in an exit code of 1, and so
do numbers past Python's limit on the digits of an int.
"""

import contextlib
import io
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from symf.cli import main
from symf.expr import (_NESTING_CAP, FUNCS, BasisAtom, BinOp, Call, Num,
                       Pleth, evaluate, parse, pretty)
from symf.partitions import Partition, partitions_of
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


def _eval(argv):
    # (exit code, stdout, stderr) of `symf eval` run in process
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval"] + argv)
    return code, out.getvalue(), err.getvalue()


@fuzzed
@given(expressions(3), st.sampled_from(BASES), st.booleans())
def test_eval_ends_in_an_exit_code(text, basis, as_json):
    argv = [text, "--basis", basis] + (["--json"] if as_json else [])
    code, out, err = _eval(argv)
    assert code in range(5), (argv, code, err)
    if code:
        assert out == "" and err.startswith("symf: ")


# one level of each kind of nesting: the text around a subexpression's
# text, and the tree that parses to around the subexpression's tree
WRAPPERS = (
    ("(%s)", lambda tree: tree),
    ("2 * (%s)", lambda tree: BinOp("*", Num(2), tree)),
    ("h1[%s]", lambda tree: Pleth(BasisAtom("h", Partition((1,))), tree)),
    ("dim(%s)", lambda tree: Call("dim", (tree,))),
)


@settings(fuzzed, max_examples=200)  # only parses and prints
@given(expressions(3), st.lists(st.sampled_from(WRAPPERS), min_size=1,
                                max_size=3),
       st.integers(0, _NESTING_CAP - 3))
def test_pretty_round_trips(text, kinds, levels):
    # expressions(3) nests up to three levels itself, so the wrapped
    # text stays within the cap
    tree = parse(text)
    for form, wrap in (kinds * levels)[:levels]:
        text, tree = form % text, wrap(tree)
    assert parse(text) == tree
    once = pretty(tree)
    assert parse(once) == tree
    assert pretty(parse(once)) == once


@settings(fuzzed, max_examples=100)
@given(expressions(3), st.lists(st.sampled_from(WRAPPERS), min_size=1,
                                max_size=3),
       st.integers(0, _NESTING_CAP - 3), st.sampled_from(BASES))
def test_deep_trees_end_in_an_exit_code(text, kinds, levels, basis):
    for form, _ in (kinds * levels)[:levels]:
        text = form % text
    code, out, err = _eval([text, "--basis", basis])
    assert code in range(5), (text, code, err)
    lines = err.splitlines()
    assert len(lines) <= 1 and all(
        line.startswith("symf: ") for line in lines), (text, err)


@fuzzed
@given(st.text(max_size=8))
@example("h\u00b2")
def test_any_text_is_read_or_refused(text):
    # any code point: a character int() cannot read, such as a
    # superscript two, is a syntax error at its column, never an exit
    # code of 1 or a traceback; "--" keeps a leading "-" an operand
    code, out, err = _eval(["--", text])
    assert code in (0, 2, 3, 4), (text, code, err)
    lines = err.splitlines()
    assert len(lines) <= 1 and all(
        line.startswith("symf: ") for line in lines), (text, err)


# Python's limit on the digits of an int read from or written to text;
# 0 where there is none (early 3.10 releases, or the limit switched off)
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGITS, reason="no limit on int digits")
@pytest.mark.parametrize("text,code,message", [
    ("1" * (_DIGITS + 1), 2,
     "symf: column 1: a number of %d digits is too long to read\n"
     % (_DIGITS + 1)),
    ("2 * " + "1" * (_DIGITS + 1), 2,
     "symf: column 5: a number of %d digits is too long to read\n"
     % (_DIGITS + 1)),
    ("*".join(["12345678901234567890"] * (_DIGITS // 14)), 4,
     "symf: the result has a number of more than %d digits, too long to "
     "print\n" % _DIGITS),
], ids=["literal", "literal-column", "product"])
@pytest.mark.parametrize("as_json", [False, True])
def test_numbers_beyond_the_digit_limit(text, code, message, as_json):
    # a literal int() refuses is a syntax error at its column, and a
    # result too long to print is a size cap, not an exit code of 1
    assert _eval([text] + (["--json"] if as_json else [])) == (code, "",
                                                                message)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("form", [form for form, _ in WRAPPERS])
def test_walks_of_deep_trees_need_no_stack(form):
    # with the recursion limit a small margin above this test's frames,
    # evaluating, printing, hashing and repr of 256 nested levels
    # recurse no deeper than a flat tree would
    text = "h1"
    for _ in range(_NESTING_CAP):
        text = form % text
    tree = parse(text)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        evaluate(tree), hash(tree), repr(tree)
        printed = pretty(tree)
    finally:
        sys.setrecursionlimit(limit)
    assert parse(printed) == tree
