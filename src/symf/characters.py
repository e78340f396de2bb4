"""Symmetric group characters and characters of polynomial functors.

The irreducible character value chi^lambda(mu) is computed by the
Murnaghan-Nakayama rule, phrased on first-column hook lengths (beta
numbers).  A partition is read as its beta-set mask, _mask(lam), an int
whose set bits are its beta numbers.  There is one border-strip move,
_border_strips(masks, t), written once: removing a strip of t cells
moves a set bit b to the clear bit b - t >= 0, and the sign is
(-1)^(number of set bits strictly between b - t and b).  One call makes
the move over a whole sequence of masks and returns one flat list of
(k, sub, sign) triples, k the index of the mask.  Values are memoized
in two orientations, both read through that move.  Rows: _chi(mask, mu)
recurses on mu minus its first part, one value at a time, on the
memoized strips _strips(mask, t), which is the move called on the one
mask; it serves chi and the rows chi^lam that symfunc reads for Schur
inputs of any weight, where a column would span all p(|lam|) shapes.
Columns: _column(mu) is the dense list of chi^lam(mu) over every lam of
weight |mu|, zeros included, indexed by position in partitions_of(|mu|):
p_mu in the s basis (Macdonald I.7.8).  It is _expand(_strip_table, mu),
which expands p_mu one power sum at a time, p_mu being p_mu[0] times
p_mu[1:]: one pass over the list of mu minus its first part through the
move table of (|mu|, mu[0]), every move an (i, j, c) triple of
positions, so no partition is hashed per entry.  Here the moves are the
border strips of that size, c their signs; symfunc's rows of the p-to-m
matrix, p_nu in the m basis, take the same walk through the monomial
moves of its _raise_table.  A strip table is one call of the move over
every mask of its degree, in the order of the {mask: position} map of
that degree, _beta_positions, so k is already the position i, and the
same map of degree d - t positions each sub: building a table builds no
partition either.  Columns serve symfunc's s target, which reads the
columns of its input's classes only, and plethysm.fundamental's s mode,
both through one packed int per column (symfunc._packed_vector), and
the cold build of a full table, which transposes them, and _table(r)
keeps each full table.  The memos are _strips, _chi, _beta_positions,
_strip_table, _expand and _table, each a function in an unbounded
lru_cache: it keeps every value computed in the process.

A table is its integer rows: rows[i][j] is the character of the i-th
shape on the j-th class, both in partitions_of(r) order.  Each full
table is cached on disk as chartable-r<r>.json holding
{"version": 2, "r": r, "rows": rows}, so that a fresh process need not
redo all p(r)^2 evaluations: reading the 64 KB file back at r = 14 is
about twice as fast as building and storing the table (5.4 against
12.2 ms, and 69 against 134 ms at r = 20; medians of 5 in one process,
Python 3.11.7 on 2 vCPUs).  The cache location is $SYMF_CACHE_DIR when
set, otherwise the user cache directory.  Files are written to a
temporary name and renamed into place, so a crashed or concurrent
writer never leaves a torn file.  A file that is unreadable, of another
version, not a JSON object, or not exactly p(r) rows of p(r) integers is
silently recomputed.
"""

import math
import os
import warnings

from .errors import ResourceLimitError, _number
from .partitions import (Partition, Record, _check_integer, _memo,
                         _partitions_of, _positions, partitions_of)

# Practical cap on full-table construction, on the s and m bases as
# targets and on plethysm.fundamental's s mode, which read a vector p(d)
# entries wide per class: every chi^lam of the degree, or a row of the
# p-to-m matrix.  Beyond it the table has more than 600k entries and
# cold construction stops being interactive; below it every entry of
# such a vector, at most 20! < 2^63, fits in one 64-bit field of the
# packed vectors.  Single rows, as a Schur input needs, are not capped
# here.
CHAR_TABLE_CAP = 20

CACHE_FORMAT_VERSION = 2


def _mask(lam):
    # lam's beta-set mask: an int whose set bits are its beta numbers
    # lam_i + len(lam) - 1 - i; bit 0 is clear, and () is 0
    n = len(lam) - 1
    return sum([1 << a + n - i for i, a in enumerate(lam)])


def _border_strips(masks, size):
    # (k, sub, sign) for each border strip of `size` cells of the k-th
    # mask, sub the mask left when it is removed: one flat list over all
    # the masks.  A strip moves a set bit b of the mask to the clear bit
    # b - size >= 0, signed by the parity of the set bits between; bit 0
    # of a mask is clear, so only a strip moved to bit 0 empties rows,
    # whose bits, set at the bottom, are shifted out.
    out = []
    for k, mask in enumerate(masks):
        moves = mask & ~(mask << size) & -(1 << size)
        while moves:
            top = moves & -moves
            moves ^= top
            low = top >> size
            sub = mask ^ top ^ low
            if low == 1:
                sub >>= (sub ^ (sub + 1)).bit_length() - 1
            out.append((k, sub,
                        -1 if (mask & (top - low)).bit_count() & 1 else 1))
    return out


@_memo
def _strips(mask, size):
    # (sub, sign) for each border strip of `size` cells of the mask
    return tuple([(sub, sign)
                  for _, sub, sign in _border_strips((mask,), size)])


@_memo
def _chi(mask, mu):
    # chi^lam(mu) for lam of beta-set mask `mask` and a part tuple or
    # Partition mu of the same weight, consumed left to right
    if not mu:
        return 1
    head, rest = mu[0], mu[1:]
    total = 0
    for sub, sign in _strips(mask, head):
        total += sign * _chi(sub, rest)
    return total


@_memo
def _beta_positions(n):
    # {_mask(lam): i} for the i-th partition lam of n
    return {_mask(lam): i for i, lam in enumerate(_partitions_of(n, n))}


@_memo
def _strip_table(d, size):
    # (i, j, sign) for each border strip of `size` cells that takes the
    # i-th partition of d to the j-th partition of d - size, positions in
    # partitions_of order: one pass of the move over the masks of d, in
    # that order.  _strips' memo is not read: a table meets each mask once.
    pos = _beta_positions(d - size)
    return [(i, pos[sub], sign)
            for i, sub, sign in _border_strips(_beta_positions(d), size)]


@_memo
def _expand(moves, mu):
    # p_mu in a basis, as a dense list over partitions_of(|mu|), zeros
    # included: p_mu[0] times p_mu[1:], each (i, j, c) of moves(d,
    # mu[0]) adding c times entry j of the list of mu[1:] to entry i.
    # Recurses once per part of mu, at most CHAR_TABLE_CAP deep.
    if not mu:
        return [1]
    d = sum(mu)
    rest = _expand(moves, mu[1:])
    out = [0] * len(_positions(d))
    for i, j, c in moves(d, mu[0]):
        out[i] += c * rest[j]
    return out


def _column(mu):
    # [chi^lam(mu) for lam in partitions_of(|mu|)]: each lam sums over
    # its border strips of size mu[0] in the column of mu[1:]
    return _expand(_strip_table, mu)


def chi(lam, mu):
    """Irreducible character value chi^lam at cycle type mu, exact."""
    lam = Partition(lam)
    mu = Partition(mu)
    if lam.weight != mu.weight:
        raise ValueError("chi needs |lam| = |mu|, got %s and %s" % (lam, mu))
    # _chi recurses once per part of mu; symfunc's rows stop at the same
    # bound, the largest part multiplicity a packed key holds
    from .symfunc import _KEY_LIMIT
    if len(mu) >= _KEY_LIMIT:
        raise ResourceLimitError("a class of %s parts is beyond the cap %d"
                                 % (_number(len(mu)), _KEY_LIMIT - 1))
    return _chi(_mask(lam), tuple(mu))


class CharacterTable(Record):
    """The full character table of S_r.

    rows[i][j] is the character of the i-th shape on the j-th class,
    both indexed by partitions_of(r), in reverse lexicographic order.
    Immutable: the rows are tuples and the fields refuse assignment, so
    a table held in the memo cannot be edited.
    """

    __slots__ = ("r", "rows")

    def _check(self):
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))

    def shapes(self):
        return partitions_of(self.r)

    def _index(self, lam):
        # lam's position in partitions_of(r)
        lam = Partition(lam)
        i = _positions(self.r).get(lam)
        if i is None:
            raise ValueError("%s is not a partition of r=%d" % (lam, self.r))
        return i

    def value(self, lam, mu):
        return self.rows[self._index(lam)][self._index(mu)]

    def __getitem__(self, pair):
        return self.value(*pair)

    def row(self, lam):
        """Character values of chi^lam as a map cycle type -> integer."""
        return dict(zip(self.shapes(), self.rows[self._index(lam)]))

    def __repr__(self):
        return "CharacterTable(r=%d)" % self.r


def character_table(r):
    """Build (or fetch) the complete character table of S_r.

    Memoized in process and persisted on disk.  Raises a resource error
    above CHAR_TABLE_CAP.
    """
    _check_integer("character_table", "r", r)
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r > CHAR_TABLE_CAP:
        raise ResourceLimitError(
            "character table for r=%s exceeds the documented cap r <= %d"
            % (_number(r), CHAR_TABLE_CAP))
    return _table(r)


@_memo
def _table(r):
    # the table of S_r read from disk, or built from its columns and stored
    rows = _load_table(r)
    if rows is None:
        rows = list(zip(*map(_column, partitions_of(r))))
        _store_table(r, rows)
    return CharacterTable(r, rows)


def cache_dir():
    """Directory holding persisted character tables."""
    env = os.environ.get("SYMF_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "symf")


def _table_path(r):
    return os.path.join(cache_dir(), "chartable-r%d.json" % r)


def _load_table(r):
    # Anything but exactly p(r) rows of p(r) ints is rebuilt: a value
    # is never coerced, so 1.5, true or "7" cannot pass for an integer.
    # json is imported on use: every command pays for what symf imports
    # at start-up, and only cache I/O needs it.
    import json
    try:
        with open(_table_path(r), "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if (not isinstance(doc, dict) or doc.get("version") != CACHE_FORMAT_VERSION
            or doc.get("r") != r):
        return None
    rows = doc.get("rows")
    size = len(partitions_of(r))
    if type(rows) is not list or len(rows) != size:
        return None
    for row in rows:
        if (type(row) is not list or len(row) != size
                or any(type(v) is not int for v in row)):
            return None
    return rows


def _store_table(r, rows):
    import json
    import tempfile
    directory = cache_dir()
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="chartable-", suffix=".tmp", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                # json.dumps(doc)'s text in one write, encoded row by row:
                # json.dump feeds the file through the pure-Python encoder,
                # and json.dumps(doc) holds every token of the document
                fh.write('{"version": %d, "r": %d, "rows": [%s]}' % (
                    CACHE_FORMAT_VERSION, r, ", ".join(map(json.dumps, rows))))
            os.replace(tmp, _table_path(r))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        warnings.warn("could not persist character table r=%d: %s" % (r, exc))


class RepCharacter:
    """An exact class function on S_r, given by its values on cycle types.

    This is how a representation of S_r enters the package: as the map
    cycle type -> trace.  Integer traces describe genuine (or at least
    virtual) representations; the constructors below cover the standard
    ones.
    """

    def __init__(self, r, trace):
        self.r = r
        clean = {}
        for mu, value in trace.items():
            mu = Partition(mu)
            if mu.weight != r:
                raise ValueError("trace indexed by %s but r=%d" % (mu, r))
            clean[mu] = value
        for mu in partitions_of(r):
            clean.setdefault(mu, 0)
        self.trace = clean

    @classmethod
    def trivial(cls, r):
        return cls(r, {mu: 1 for mu in partitions_of(r)})

    @classmethod
    def sign(cls, r):
        return cls(r, {mu: (-1) ** (r - mu.length) for mu in partitions_of(r)})

    @classmethod
    def regular(cls, r):
        trace = {mu: 0 for mu in partitions_of(r)}
        trace[Partition([1] * r)] = math.factorial(r)
        return cls(r, trace)

    @classmethod
    def irreducible(cls, lam):
        lam = Partition(lam)
        r = lam.weight
        return cls(r, {mu: chi(lam, mu) for mu in partitions_of(r)})

    def __add__(self, other):
        if self.r != other.r:
            raise ValueError("cannot add characters of S_%d and S_%d" % (self.r, other.r))
        return RepCharacter(self.r, {mu: self.trace[mu] + other.trace[mu]
                                     for mu in self.trace})

    def __repr__(self):
        return "RepCharacter(r=%d)" % self.r


def char_of_functor(rho):
    """The symmetric function (1/r!) sum_sigma trace(sigma) p_{cycle type}.

    Grouping the sum over classes gives sum_mu trace(mu)/z_mu p_mu.
    This is the Frobenius image of the class function rho: for the
    trivial character it is h_r, for the sign character e_r, for the
    regular character p_1^r, and for chi^lam it is s_lam.
    """
    from .symfunc import _p_symfn
    return _p_symfn(rho.trace)


def schur_functor_char(lam):
    """Character of the Schur functor for shape lam: the function s_lam."""
    from .symfunc import SymFn
    return SymFn("s", {Partition(lam): 1})
