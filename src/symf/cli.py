"""Command line front end.

Every subcommand prints deterministic text: term order is fixed by the
library, rationals print exactly, and nothing emits timings or machine
specific paths.  Exit codes separate the failure families so scripts can
tell a typo (2) from a degree mismatch (3) from a size cap (4).
"""

import argparse
import os
import sys
import warnings
from fractions import Fraction

from . import _lazy
from .characters import character_table
from .errors import DegreeError, ExprError, ResourceLimitError, TruncationError
from .partitions import Partition, partitions_of
from .symfunc import BASES, SymFn, _target_cap, to_basis, to_json_dict

# The layers a command may run load when it first reads them, so each
# process compiles only its own command's.  Handlers read these names
# through _cli, this module, at call time, as a bare global read does the
# eager ones: a name set on symf.cli in its place is the one called.
__getattr__ = _lazy(globals(), (
    ("expr", ("evaluate_text",)),
    ("invariants", ("GLnAdjoint", "PolyFunctor", "SLnDefining",
                    "SnPermutation", "Sp2nDefining", "_check_target",
                    "hilbert_dim", "inv_char", "inv_char_polyfunc")),
    ("enumeration", ("DealSpec", "RegularGraphSpec", "card_deals",
                     "deals_cycle_index", "regular_graphs",
                     "regular_graphs_cycle_index"))))
_cli = sys.modules[__name__]

# The --family names and the classes they build.
FAMILIES = (("sl", "SLnDefining"), ("sp", "Sp2nDefining"),
            ("perm", "SnPermutation"), ("gl-adjoint", "GLnAdjoint"))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exits."""

    def error(self, message):
        raise _UsageError(message)


def _family(args):
    return getattr(_cli, dict(FAMILIES)[args.family])(args.n)


def _print(value, text=str):
    # an int beyond sys.get_int_max_str_digits() is refused as a size cap
    try:
        line = text(value)
    except ValueError:
        raise ResourceLimitError(
            "the result has a number of more than %d digits, too long to "
            "print" % sys.get_int_max_str_digits()) from None
    print(line)


def _json_text(value):
    import json
    if isinstance(value, SymFn):
        return json.dumps(to_json_dict(value))
    if isinstance(value, Partition):
        return json.dumps({"partition": list(value)})
    return json.dumps({"rational": str(Fraction(value))})


def _cmd_eval(args):
    value = _cli.evaluate_text(args.expr)
    if isinstance(value, SymFn):
        # the p target's cap, which to_basis leaves to its callers; a
        # value already in p prints as it is
        if args.basis == "p" and value.basis != "p":
            _target_cap("p", value.degrees())
        value = to_basis(value, args.basis)
    _print(value, _json_text if args.json else str)
    return 0


def _functor_from(args):
    value = _cli.evaluate_text(args.functor)
    if not isinstance(value, SymFn):
        raise ExprError("--functor must evaluate to a symmetric function")
    return _cli.PolyFunctor(value)


def _cmd_inv(args):
    family = _family(args)
    P = None if args.functor is None else _functor_from(args)
    _cli._check_target(family, P, args.r, args.basis)
    out = (_cli.inv_char(family, args.r) if P is None
           else _cli.inv_char_polyfunc(family, P, args.r))
    _print(to_basis(out, args.basis))
    return 0


def _cmd_hilbert(args):
    _print(_cli.hilbert_dim(_family(args), _functor_from(args), args.r))
    return 0


def _cmd_deals(args):
    spec = _cli.DealSpec(args.m, args.n)
    if args.cycle_index:
        _print(to_basis(_cli.deals_cycle_index(spec), "p"))
    else:
        _print(_cli.card_deals(spec))
    return 0


def _cmd_regular(args):
    spec = _cli.RegularGraphSpec(args.n, args.k)
    if args.cycle_index:
        _print(to_basis(_cli.regular_graphs_cycle_index(spec), "p"))
    else:
        _print(_cli.regular_graphs(spec))
    return 0


def _cmd_table(args):
    table = character_table(args.r)
    shapes = [str(lam) for lam in partitions_of(args.r)]
    rows = [["chi \\ class"] + shapes]
    for lam, row in zip(shapes, table.rows):
        rows.append([lam] + [str(v) for v in row])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, len(row))]
        print("  ".join(cells).rstrip())
    return 0


def _cmd_selftest(args):
    from .selftest import run_selftest

    ok = run_selftest(args.max_degree)
    return 0 if ok else 5


def build_parser():
    parser = _Parser(prog="symf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    q = sub.add_parser("eval", help="evaluate an expression")
    q.add_argument("expr", help="expression such as 'scalar(h2[h2], h2*h2)'")
    q.add_argument("--basis", choices=BASES, default="s",
                   help="output basis for symmetric function results")
    q.add_argument("--json", action="store_true", help="print a JSON object")
    q.set_defaults(handler=_cmd_eval)

    q = sub.add_parser("inv", help="invariant character of a classical family")
    q.add_argument("--family", required=True,
                   choices=dict(FAMILIES))
    q.add_argument("--n", type=int, required=True,
                   help="group parameter; sp acts through Sp(2n)")
    q.add_argument("--r", type=int, required=True, help="degree")
    q.add_argument("--functor", default=None,
                   help="apply the family to this functor character first")
    q.add_argument("--basis", choices=BASES, default="s")
    q.set_defaults(handler=_cmd_inv)

    q = sub.add_parser("hilbert",
                       help="dimension of the degree r invariants of a functor")
    q.add_argument("--family", required=True,
                   choices=dict(FAMILIES))
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--functor", required=True)
    q.add_argument("--r", type=int, required=True)
    q.set_defaults(handler=_cmd_hilbert)

    q = sub.add_parser("deals", help="count m-card deals to n players")
    q.add_argument("--m", type=int, required=True, help="cards per player")
    q.add_argument("--n", type=int, required=True, help="players")
    q.add_argument("--cycle-index", action="store_true",
                   help="print the deal cycle index instead of the count")
    q.set_defaults(handler=_cmd_deals)

    q = sub.add_parser("regular", help="count k-regular multigraphs on n nodes")
    q.add_argument("--n", type=int, required=True, help="nodes")
    q.add_argument("--k", type=int, required=True, help="degree of every node")
    q.add_argument("--cycle-index", action="store_true",
                   help="print the configuration cycle index instead")
    q.set_defaults(handler=_cmd_regular)

    q = sub.add_parser("table", help="symmetric group character table")
    q.add_argument("--r", type=int, required=True, help="degree of the group")
    q.set_defaults(handler=_cmd_table)

    q = sub.add_parser("selftest", help="run the internal consistency suites")
    q.add_argument("--max-degree", type=int, default=8,
                   help="scale the suite bounds down to this total degree")
    q.set_defaults(handler=_cmd_selftest)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print("symf: warning: %s" % message, file=sys.stderr)


def main(argv=None):
    # warnings print as one line each, for this call only
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        return _main(argv)


def _main(argv):
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (_UsageError, ValueError, ExprError, DegreeError, TruncationError,
            ResourceLimitError) as exc:
        # 1 for usage and out of range values (m=0 players, n=0 groups),
        # 2 syntax, 3 degrees and truncation, 4 size caps
        print("symf: %s" % exc, file=sys.stderr)
        codes = ((ExprError, 2), ((DegreeError, TruncationError), 3),
                 (ResourceLimitError, 4))
        return next((code for kind, code in codes if isinstance(exc, kind)), 1)
    except BrokenPipeError:
        # the reader left: flush quietly into devnull, exit 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        # Ctrl-C: one line, and the shell's 128 + SIGINT
        print("symf: interrupted", file=sys.stderr)
        return 130
    except MemoryError:
        # past what the process may allocate: one line, and the size-cap
        # code that a refusal made before the work would have given
        print("symf: out of memory: the query needs more than this process "
              "may allocate", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
