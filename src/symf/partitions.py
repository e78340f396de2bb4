"""Integer partitions.

Partitions index everything else in this package: symmetric function
basis elements, conjugacy classes of symmetric groups, irreducible
characters.  A partition is stored as a weakly decreasing tuple of
positive integers, so it is immutable and hashable and can be used as a
dictionary key directly.

Whenever the partitions of n are listed, they appear in reverse
lexicographic order, from (n) down to (1,...,1).  Every module relies on
that one canonical order; nothing ever depends on hash order.

Record, the immutable base of the invariant families, enumeration specs,
expression nodes and tokens, and character tables, lives here too,
since every layer imports this module, and so does _fold, the one walk
over a tree of Records without recursion: Records hash and print
through it, and the expression language evaluates and prints its trees
through it.  So does the registry of memos: each memo of computed values
is a function of its arguments, declared through _memo where it is
defined, which puts it in an lru_cache, and _reset_memo clears every
one that registered.  The caches of partitions, their positions,
their counts and z_mu below are pure functions of small arguments and
are kept.  _check_integer is the one type test of the counts that the
other layers take: group sizes, degrees, cards and vertices.
"""

from functools import lru_cache


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    def __new__(cls, parts=()):
        parts = tuple(parts)
        prev = None
        for a in parts:
            if not isinstance(a, int) or isinstance(a, bool) or a <= 0:
                raise ValueError("partition parts must be positive integers, got %r" % (a,))
            if prev is not None and a > prev:
                raise ValueError("partition parts must be weakly decreasing, got %r" % (parts,))
            prev = a
        return tuple.__new__(cls, parts)

    @property
    def weight(self):
        return sum(self)

    @property
    def length(self):
        return len(self)

    def multiplicities(self):
        """Map each part size to the number of times it occurs."""
        mult = {}
        for a in self:
            mult[a] = mult.get(a, 0) + 1
        return mult

    def conjugate(self):
        """The transposed partition, read off column lengths."""
        if not self:
            return Partition()
        cols = [0] * self[0]
        for a in self:
            for j in range(a):
                cols[j] += 1
        return Partition(cols)

    def has_even_columns(self):
        """True if every column of the diagram has even length.

        Equivalently, every part of the conjugate is even.  The empty
        partition qualifies.
        """
        return all(c % 2 == 0 for c in self.conjugate())

    def __repr__(self):
        return "Partition(%r)" % (list(self),)

    def __str__(self):
        return "[" + ",".join(str(a) for a in self) + "]"


class Record:
    """Immutable value with the fields named in __slots__.

    Every field is given, positionally or by keyword, and _check
    validates them.  Instances compare, hash, print and pickle by field
    values.  Written out by hand because the standard library's
    generator imports inspect, ast and dis, a cost every command line
    process would pay.
    """
    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if (len(args) + len(kwargs) != len(names)
                or not kwargs.keys() <= set(names[len(args):])):
            raise TypeError("%s takes the fields %s, got %r and %r"
                            % (type(self).__name__, names, args, kwargs))
        args += tuple(kwargs[name] for name in names[len(args):])
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self):
        pass

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    # __eq__, __hash__ and __repr__ give what comparing, hashing and
    # printing the tuple of field values would, but walk nested records
    # and the plain tuples holding them with a stack, so an expression
    # tree thousands of nodes deep does not exhaust the recursion limit.

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            a_fields, b_fields = _fields(a), _fields(b)
            if (a_fields is None or b_fields is None
                    or a.__class__ is not b.__class__
                    or len(a_fields) != len(b_fields)):
                if not a == b:
                    return False
            else:
                stack.extend(zip(a_fields, b_fields))
        return True

    def __hash__(self):
        return _fold(self, hash, _hash_of)

    def __repr__(self):
        return _fold(self, repr, _repr_of)

    def __reduce__(self):
        return type(self), self._values()


def _check_integer(who, name, value):
    # refuses a float, Fraction or bool where a count is meant, since it
    # passes the range checks (2.5 >= 1, True >= 0) and is computed with
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError("%s needs an integer %s, got %r" % (who, name, value))


def _fields(x):
    # what a Record or a plain tuple holds; None for any other value
    if isinstance(x, Record):
        return x._values()
    return x if type(x) is tuple else None


def _fold(root, leaf, join):
    # join(x, [results of x's fields]) for each Record and plain tuple
    # under root, fields first, and leaf(x) for every other value; the
    # stack stands in for recursion, so nesting costs no frames
    stack, done = [(root, None)], []
    while stack:
        x, kids = stack.pop()
        if kids is not None:
            # every field of x is folded, in order, at the end of done
            start = len(done) - len(kids)
            parts = done[start:]
            del done[start:]
            done.append(join(x, parts))
        elif (kids := _fields(x)) is None:
            done.append(leaf(x))
        else:
            stack.append((x, kids))
            stack.extend((kid, None) for kid in reversed(kids))
    return done[0]


def _hash_of(x, parts):
    # a tuple's hash reads only its items' hashes
    return hash(tuple(map(_Hash, parts)))


def _repr_of(x, parts):
    if isinstance(x, Record):
        return "%s(%s)" % (type(x).__qualname__, ", ".join(
            "%s=%s" % item for item in zip(x.__slots__, parts)))
    return "(%s%s)" % (", ".join(parts), "," if len(parts) == 1 else "")


class _Hash:
    """Stands in for a value whose hash is already known."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


_MEMOS = []  # every registered memo, in registration order


def _memo(fn):
    # fn in an unbounded lru_cache, registered; cache_info() gives each
    # memo's hits, misses and size
    fn = lru_cache(maxsize=None)(fn)
    _MEMOS.append(fn)
    return fn


def _reset_memo():
    # Test hook: forget every value held in a registered memo.
    for memo in _MEMOS:
        memo.cache_clear()


@lru_cache(maxsize=None)
def _partitions_of(n, largest):
    # All partitions of n with parts <= largest, reverse lexicographic.
    if n == 0:
        return (Partition(),)
    out = []
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions_of(n - first, first):
            # valid by construction, so not validated again
            out.append(tuple.__new__(Partition, (first,) + rest))
    return tuple(out)


def partitions_of(n, max_part=None):
    """All partitions of n in reverse lexicographic order.

    partitions_of(0) is the one-element list holding the empty
    partition.  An optional max_part bounds the largest part.  The list
    is a fresh copy; the memoized enumeration stays internal.
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if max_part is None:
        max_part = n
    return list(_partitions_of(n, max(max_part, 0)))


@lru_cache(maxsize=None)
def _positions(n):
    # {lam: i} for the i-th partition of n in partitions_of order, keyed
    # by the shared Partitions: the index of every dense row or column
    # over the partitions of n
    return {lam: i for i, lam in enumerate(_partitions_of(n, n))}


_COUNTS = [1]  # p(0), p(1), ...: one table every partition_count extends


def partition_count(n):
    """Number of partitions of n, by Euler's pentagonal number recurrence.

    Independent of the enumeration above, which is exactly why the test
    suite compares the two.
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    counts = _COUNTS
    for m in range(len(counts), n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 else -1
            if g1 <= m:
                total += sign * counts[m - g1]
            if g2 <= m:
                total += sign * counts[m - g2]
            k += 1
        counts.append(total)
    return counts[n]


@lru_cache(maxsize=None)
def z_of(mu):
    """The centralizer order z_mu = prod_i i^{m_i} m_i! for cycle type mu.

    n!/z_mu is the size of the conjugacy class of cycle type mu, and
    1/z_mu is the weight attached to p_mu all over this package.
    """
    z = 1
    mult = {}
    for a in mu:
        mult[a] = mult.get(a, 0) + 1
    for a, m in mult.items():
        z *= a ** m
        for i in range(2, m + 1):
            z *= i
    return z

