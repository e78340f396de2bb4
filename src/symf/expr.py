"""The little expression language used on the command line.

Grammar, whitespace insignificant:

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('[' expr ']')*          brackets after an atom: plethysm
    atom   := BASIS PART                    p h e m s
            | NUMBER                        nonnegative integer literal
            | '(' expr ')'
            | FUNC '(' expr (',' expr)? ')'
            | '[' int (',' int)* ']'        partition literal, for coeff
    FUNC   := scalar | kron | dim | ones | coeff

The tokens are runs of decimal digits, of any script that int() reads
(Arabic-Indic digits too), runs of ASCII letters, and the marks
+ - * ( ) [ ] , and whitespace between them is skipped.  Any other
character, or a digit run too long for int(), is a syntax error there.

A partition can be attached to a basis letter as a single token (h3,
h12) or in brackets (h[3], s[2,1], h[] for the empty index).  A bracket
immediately after a basis letter is its partition; any further bracket
group is a plethysm argument, so h[2][h[2]] and h2[h2] agree.  Partition
entries given out of order are sorted with a warning.

Evaluation produces either a SymFn or an exact rational; partition
literals are only meaningful as the second argument of coeff.  Sums,
products and bracket chains of any length are read in loops, and a tree
is evaluated and printed by partitions._fold, the walk without recursion
that also hashes and prints Records, so neither length nor nesting costs
stack there.  Parentheses, brackets and calls nested more than
_NESTING_CAP (256) levels deep are refused as a syntax error.
"""

import re
import warnings
from fractions import Fraction

from .errors import ExprError
from .partitions import Partition, Record, _fold
from .symfunc import (BASES, SymFn, _coerce, dimension, generator,
                      kronecker, monomial_coefficient, scalar, specialize_ones)
from .plethysm import plethysm

# The functions of the language as (name, library call, arity), the
# arity one letter per argument: f a symmetric function, p a partition.
FUNCS = (("scalar", scalar, "ff"), ("kron", kronecker, "ff"),
         ("dim", dimension, "f"), ("ones", specialize_ones, "f"),
         ("coeff", monomial_coefficient, "fp"))

# Deepest nesting of parentheses, brackets and calls that parses; deeper
# input is refused as a syntax error rather than exhausting the stack.
_NESTING_CAP = 256


class Num(Record):
    __slots__ = ("value",)


class BasisAtom(Record):
    __slots__ = ("basis", "parts")


class PartitionLit(Record):
    __slots__ = ("parts",)


class BinOp(Record):
    __slots__ = ("op", "left", "right")


class Pleth(Record):
    __slots__ = ("outer", "inner")


class Call(Record):
    __slots__ = ("func", "args")


class _Token(Record):
    __slots__ = ("kind", "value", "pos")


# One token per match: a run of decimal digits, of any script that int()
# reads; a run of ASCII letters; or one mark of the grammar.  Whitespace
# between tokens is skipped, and any other character is refused.
_TOKEN = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z]+)|(?P<mark>[-+*()\[\],])"
                    r"|(?P<other>\S)")


def _tokenize(text):
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, value, pos = match.lastgroup, match.group(), match.start()
        if kind == "other":
            raise ExprError("unexpected character %r" % value, pos)
        try:
            value = int(value) if kind == "num" else value
        except ValueError:  # beyond sys.get_int_max_str_digits()
            raise ExprError("a number of %d digits is too long to read"
                            % len(value), pos) from None
        tokens.append(_Token(value if kind == "mark" else kind, value, pos))
    tokens.append(_Token("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ExprError("expected %r, found %r" % (kind, tok.value), tok.pos)
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprError("trailing input starting at %r" % (tok.value,), tok.pos)
        return node

    def expr(self):
        # A sum of products, read in loops: a long sum or product costs no
        # stack, only nesting does, and nesting is capped.
        if self.depth > _NESTING_CAP:
            raise ExprError("expression nested more than %d levels deep"
                            % _NESTING_CAP, self.peek().pos)
        self.depth += 1
        node, op = None, None
        if self.peek().kind in ("+", "-"):
            if self.next().kind == "-":
                node, op = Num(0), "-"
        while True:
            term = self.factor()
            while self.peek().kind == "*":
                self.next()
                term = BinOp("*", term, self.factor())
            node = term if op is None else BinOp(op, node, term)
            if self.peek().kind not in ("+", "-"):
                break
            op = self.next().kind
        self.depth -= 1
        return node

    def factor(self):
        # an atom, then its plethysm brackets
        tok = self.next()
        if tok.kind == "num":
            node = Num(tok.value)
        elif tok.kind == "(":
            node = self.expr()
            self.expect(")")
        elif tok.kind == "[":
            node = PartitionLit(self.partition_body(tok.pos))
        elif tok.kind == "name" and _function(tok.value):
            self.expect("(")
            args = [self.expr()]
            if self.peek().kind == ",":
                self.next()
                args.append(self.expr())
            self.expect(")")
            node = Call(tok.value, tuple(args))
        elif tok.kind == "name" and tok.value in BASES:
            node = BasisAtom(tok.value, self.basis_part(tok))
        elif tok.kind == "name":
            raise ExprError("unknown name %r" % tok.value, tok.pos)
        else:
            raise ExprError("expected a value, found %r" % (tok.value,), tok.pos)
        while self.peek().kind == "[":
            self.next()
            node = Pleth(node, self.expr())
            self.expect("]")
        return node

    def basis_part(self, tok):
        nxt = self.peek()
        if nxt.kind == "num" and nxt.pos == tok.pos + 1:
            # single-token form like h3 or h12
            self.next()
            return Partition((nxt.value,)) if nxt.value else Partition()
        if nxt.kind == "[":
            self.next()
            return self.partition_body(nxt.pos)
        raise ExprError("basis letter %r needs a partition" % tok.value, tok.pos)

    def partition_body(self, open_pos):
        entries = []
        if self.peek().kind == "]":
            self.next()
            return Partition()
        while True:
            tok = self.next()
            if tok.kind != "num":
                raise ExprError("partition entries must be integers, found %r"
                                % (tok.value,), tok.pos)
            if tok.value <= 0:
                raise ExprError("partition entries must be positive", tok.pos)
            entries.append(tok.value)
            tok = self.next()
            if tok.kind == "]":
                break
            if tok.kind != ",":
                raise ExprError("expected ',' or ']' in partition", tok.pos)
        ordered = sorted(entries, reverse=True)
        if ordered != entries:
            warnings.warn("partition %r is not weakly decreasing; sorted to %s"
                          % (entries, ordered))
        return Partition(ordered)


def parse(text):
    """Parse the expression language into a syntax tree."""
    return _Parser(text).parse()


def pretty(node):
    """Canonical text for a tree; parses back to an equal tree."""
    if not isinstance(node, Record):
        raise TypeError("not an expression node: %r" % (node,))
    return _fold(node, str, _text)


def _text(node, parts):
    # the text of node from the texts of its fields, each child put in
    # parentheses where its node type would bind differently unwrapped
    if isinstance(node, (Num, BasisAtom, PartitionLit)):
        return "".join(parts)
    if isinstance(node, BinOp):
        op, left, right = parts
        if op == "*" and _is_sum(node.left):
            left = "(%s)" % left
        if _is_sum(node.right) or op == "*" and isinstance(node.right, BinOp):
            right = "(%s)" % right
        return "%s %s %s" % (left, op, right)
    if isinstance(node, Pleth):
        outer, inner = parts
        if isinstance(node.outer, (BinOp, Num)):
            outer = "(%s)" % outer
        return "%s[%s]" % (outer, inner)
    if isinstance(node, Call):
        return "%s(%s)" % tuple(parts)
    if type(node) is tuple:
        return ", ".join(parts)
    raise TypeError("not an expression node: %r" % (node,))


def _is_sum(node):
    return isinstance(node, BinOp) and node.op in "+-"


def _as_symfn(value, what):
    f = _coerce(value)
    if f is not NotImplemented:
        return f
    raise ExprError("%s must be a symmetric function, not a partition" % what)


def evaluate(node):
    """Evaluate a tree to a SymFn, a Fraction, or a Partition."""
    if not isinstance(node, Record):
        raise TypeError("not an expression node: %r" % (node,))
    return _fold(node, lambda value: value, _value)


def _value(node, parts):
    # the value of node from the values of its fields
    if isinstance(node, Num):
        return Fraction(node.value)
    if isinstance(node, BasisAtom):
        return generator(node.basis, node.parts)
    if isinstance(node, PartitionLit):
        return node.parts
    if isinstance(node, BinOp):
        return _binop(*parts)
    if isinstance(node, Pleth):
        outer, inner = parts
        return plethysm(_as_symfn(outer, "plethysm outer"),
                        _as_symfn(inner, "plethysm inner"))
    if isinstance(node, Call):
        return _call(*parts)
    if type(node) is tuple:
        return parts  # the arguments of a Call
    raise TypeError("not an expression node: %r" % (node,))


def _binop(op, left, right):
    if isinstance(left, Partition) or isinstance(right, Partition):
        raise ExprError("partitions do not support %r" % op)
    if op == "*":
        return left * right
    if isinstance(left, SymFn) or isinstance(right, SymFn):
        left = _as_symfn(left, "operand")
        right = _as_symfn(right, "operand")
    return left + right if op == "+" else left - right


def _function(name):
    # the entry of FUNCS for name, or None
    return next((entry for entry in FUNCS if entry[0] == name), None)


def _call(func, args):
    name, call, arity = _function(func)
    if len(args) != len(arity):
        raise ExprError("%s takes %d argument%s" % (
            name, len(arity), "s" if len(arity) > 1 else ""))
    # a partition literal is checked first: coeff([2], h2) names it
    for ordinal, kind, value in zip(("first", "second"), arity, args):
        if kind == "p" and not isinstance(value, Partition):
            raise ExprError("the %s argument of %s must be a partition "
                            "literal like [2,1]" % (ordinal, name))
    return call(*(value if kind == "p" else
                  _as_symfn(value, "%s argument" % name)
                  for kind, value in zip(arity, args)))


def evaluate_text(text):
    return evaluate(parse(text))
