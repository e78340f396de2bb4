"""The ring of symmetric functions with exact rational coefficients.

A SymFn is a finite linear combination of basis elements drawn from one
of the five classical bases: power sums p, complete homogeneous h,
elementary e, monomial m, Schur s.  Coefficients are fractions.Fraction,
so every result in this package is exact; nothing is ever rounded.

Internally a function of degree d is the class function on S_d whose
Frobenius characteristic it is (Macdonald I.7): for f = sum of c_mu p_mu
the kernel stores a_mu = z_mu c_mu, the value at cycle type mu.  That is
an int wherever it is integral, as for every virtual character, and a
Fraction only where the input's own coefficients are not.  h_n is then
all ones, e_n the sign character and s_lam the row chi^lam; omega is the
sign (-1)^(|mu|-len(mu)), the Kronecker product is pointwise, p_n[g]
multiplies a_mu by n^len(mu), and p_mu p_nu = p_(mu+nu) multiplies
a_mu b_nu by z_(mu+nu)/(z_mu z_nu), the product of the binomials
C(m_i + n_i, m_i) over the part multiplicities.  A sum of a_mu / z_mu,
such as <f, g> = sum of a_mu b_mu / z_mu, is taken on the common
denominator d! and divided once; Fractions appear only at the SymFn
boundary, where c_mu = a_mu / z_mu.

The other bases are views reached by exact base change.  R[nu][mu] =
a_nu(h_mu) counts the ways to fuse the parts of nu into mu (Macdonald
I.6), so R is an integer matrix, lower triangular in the canonical
reverse lexicographic order since mu then dominates nu.  Row nu is p_nu
in the m basis, _m_row(nu), walked one power sum at a time by the walk
that builds the character columns, characters._expand: p_nu is p_t
times p of nu's other parts, for t its first part, and m_lam p_t raises
one part v of lam, or a new part 0, to v + t, with the multiplicity of
v + t as coefficient.  _raise_table(d, t) lists those moves as triples
of positions, made on the packed multiplicity keys of _mul_p below
rather than on sorted part tuples: raising v takes one unit off field v
and puts one on field v + t (a new part only adds the unit of field t),
the coefficient is field v + t of the result, and the result's position
is read from the {key: position} map of its degree, _key_positions(d).
A row is a dense list indexed by position in partitions_of(d), memoized
with the rows of its tails, and only the rows of the classes a query
reads are built.  The m coefficients of f
are <f, h_mu> = sum of a_nu R[nu][mu] / z_nu, its h coefficients solve
R c = a by forward substitution, and an m input is solved for a by one
back substitution per degree; no inverse is ever formed.  e goes
through omega in both directions: e inputs expand as h and are flipped,
and e targets flip f before solving for h coefficients.

The multiply _mul_p keys by packed partitions, m_i in bits 7(i-1) to
7i-1 of one int, so a union of partitions is + and _key, memoized as
keys appear, gives each key's weight, z and parts.  Packed keys stay
inside _mul_p, the moves of _raise_table and plethysm's p-basis ring,
which pairs its products with G on those keys (plethysm._Pairing) and
unpacks only the result of a plethysm.  SymFn.__mul__ and _prod_h_p,
the h products of h and e inputs and monomial_coefficient, pack around
_mul_p, except that a product of two h or two e functions stays in its
basis, h_mu h_nu = h_(mu+nu).  Any other product with an operand outside
the p basis expands both over their classes, so it is refused above the
plethysm cap on its degree, as the p target is, before either expands.
The rest (SymFn, _p_dict, _scalar_p, to_basis) keys by the shared
Partitions of partitions_of and of _key, and the dense columns and rows
of R are indexed by their positions, partitions._positions.  SymFn's
constructor validates its input but takes Partition keys and Fraction
values as they are, so kernel results are not rebuilt.  Where
partitions are packed, a product that could repeat a part 128 times,
and so spill into the next field, is refused first; for an h or e
product, that is when it expands.

A Schur input s_lam is its row chi^lam, read value by value from
characters._chi (Murnaghan-Nakayama), keyed by lam's beta-set mask,
computed once per row, and each class, at every weight; no character
table is built for it, so the table cap does not bound it.  The s
target reads columns instead: <f, s_lam> is the sum of a_mu
chi^lam(mu) / z_mu, so each class mu of f adds a_mu times its memoized
column characters._column(mu), the list of chi^lam(mu) over every lam,
and no other class is read.  A column spans all p(d) shapes, so the
table cap bounds it.

The s and m targets add those vectors as one int each (Kronecker
substitution): _packed_vector(vector, mu, k), memoized per field width,
is the sum of v_i 2^(64ki) over the entries v_i of the column or row,
written through array('q') as 64k-bit two's complement fields.  A
weighted sum of them is then one bignum multiply-add per class, and one
to_bytes decodes it, both in C.  The width comes from a bound that reads
no vector, by Cauchy-Schwarz: the rows chi^lam are orthonormal under
the weights 1/z_mu, and <h_lam, h_lam> <= d!, so with integer weights
w_mu every entry is at most the square root of the sum of w_mu^2 z_mu,
times d! under the root for the rows of R.  Rational weights are scaled
to integers by the lcm of their denominators, divided out once.  Every
entry of a vector read this way fits in 63 bits, since its degree is at
most CHAR_TABLE_CAP = 20 and 20! < 2^63.
"""

import math
import sys
from array import array
from decimal import Decimal
from fractions import Fraction
from operator import mul

from . import characters
from .errors import DegreeError, ResourceLimitError, _number
from .partitions import Partition, _memo, _positions, partitions_of, z_of

BASES = ("p", "h", "e", "m", "s")

# Coefficient types refused at construction.  Fraction() accepts floats
# and Decimals and would store their binary or decimal approximation as
# if it were exact.
_INEXACT = (float, complex, Decimal)

# Degree cap on base changes that solve against the p-to-m matrix R: h
# and e targets and m inputs, which read every row of R their terms
# reach.  The m target reads only the rows of its input's classes, as
# the s target reads its columns, and shares its cap,
# characters.CHAR_TABLE_CAP.
_M_MATRIX_CAP = 16

# Largest degree deg f * deg g of a plethysm f[g]: p(40) = 37,338 terms.
# Below _KEY_LIMIT, so no packed key of a plethysm can spill.
_PLETHYSM_DEGREE_CAP = 40

# Bits per part multiplicity in a packed key: a product that repeats a
# part 128 times is refused, far above every documented command.
_KEY_BITS = 7
_KEY_LIMIT = 1 << _KEY_BITS


class _Terms(dict):
    """A SymFn's terms: a dict that refuses every edit, so a result held
    in a memo can be handed out as it is."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("the terms of a SymFn cannot be edited")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


class SymFn:
    """A symmetric function expressed in one named basis.

    Immutable: every operation builds a new SymFn, and its terms refuse
    edits.  Equality is mathematical, not representational; h_2 in the
    h basis equals (p_1^2 + p_2)/2 in the p basis.
    """

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms=()):
        if basis not in BASES:
            raise ValueError("unknown basis %r" % (basis,))
        items = terms.items() if hasattr(terms, "items") else terms
        clean = {}
        for key, value in items:
            if isinstance(value, _INEXACT):
                raise TypeError("SymFn coefficients must be exact, got %r"
                                % (value,))
            # kernel results arrive as Partitions and Fractions already
            if type(key) is not Partition:
                key = Partition(key)
            if type(value) is not Fraction:
                value = Fraction(value)
            if key in clean:
                value += clean[key]
            if value:
                clean[key] = value
            else:
                clean.pop(key, None)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", _Terms(clean))

    def _refuse(self, *args):
        raise AttributeError("SymFn is immutable")

    __setattr__ = __delattr__ = _refuse

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return type(self), (self.basis, dict(self.terms))

    # -- structure ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degrees(self):
        """Sorted list of degrees of the nonzero homogeneous components."""
        return sorted({mu.weight for mu in self.terms})

    def is_homogeneous(self):
        return len(self.degrees()) <= 1

    def degree(self):
        """Degree of a homogeneous function; zero has degree 0 here."""
        degs = self.degrees()
        if len(degs) > 1:
            raise DegreeError("not homogeneous, degrees %s" % _number(degs))
        return degs[0] if degs else 0

    def homogeneous_part(self, d):
        return SymFn(self.basis,
                     {mu: c for mu, c in self.terms.items() if mu.weight == d})

    def coefficient(self, mu):
        """Coefficient of the basis element indexed by mu, in this basis."""
        return self.terms.get(Partition(mu), Fraction(0))

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.basis == other.basis:
            return SymFn(self.basis, _add_into(dict(self.terms), other.terms))
        return _p_symfn(_add_into(_p_dict(self), _p_dict(other)))

    __radd__ = __add__

    def __neg__(self):
        return SymFn(self.basis, {mu: -c for mu, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return SymFn(self.basis, {mu: c * v for mu, v in self.terms.items()})
        if isinstance(other, SymFn):
            if self.basis == other.basis and self.basis in ("h", "e"):
                # h_mu h_nu = h_(mu+nu), and so for e: nothing is expanded
                return SymFn(self.basis, (
                    (tuple.__new__(Partition, sorted(mu + nu, reverse=True)),
                     c * d)
                    for mu, c in self.terms.items()
                    for nu, d in other.terms.items()))
            if self.is_zero() or other.is_zero():
                return zero()
            if self.basis != "p" or other.basis != "p":
                # an operand outside the p basis expands over the classes
                # of its degrees: refused, as the p target is, above the
                # plethysm cap on the product's degree
                _target_cap("p", [self.degrees()[-1] + other.degrees()[-1]])
            a, b = _p_dict(self), _p_dict(other)
            _check_multiplicity(_multiplicity(a) + _multiplicity(b))
            return _p_symfn(_unpacked(_mul_p(_packed(a), _packed(b))))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("SymFn powers must be nonnegative integers")
        out = one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, SymFn):
            return NotImplemented
        if self.basis == other.basis:
            return self.terms == other.terms
        return _p_dict(self) == _p_dict(other)

    __hash__ = None

    # -- presentation ------------------------------------------------

    def sorted_terms(self):
        """Terms by degree, then reverse lexicographic within a degree."""
        return sorted(self.terms.items(),
                      key=lambda item: (item[0].weight, tuple(-a for a in item[0])))

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for mu, c in self.sorted_terms():
            if not mu:
                chunks.append(str(c))
            elif c == 1:
                chunks.append("%s%s" % (self.basis, mu))
            elif c == -1:
                chunks.append("-%s%s" % (self.basis, mu))
            else:
                chunks.append("%s*%s%s" % (c, self.basis, mu))
        return " + ".join(chunks)

    def __repr__(self):
        return "SymFn(%r, %s)" % (self.basis, str(self))


def _coerce(value):
    if isinstance(value, SymFn):
        return value
    if isinstance(value, (int, Fraction)):
        return SymFn("p", {Partition(): Fraction(value)})
    return NotImplemented


def generator(basis, mu):
    """The basis element of `basis` indexed by the partition mu."""
    return SymFn(basis, {Partition(mu): 1})


def zero(basis="p"):
    return SymFn(basis)


def one(basis="p"):
    return SymFn(basis, {Partition(): 1})


def p(*parts):
    return generator("p", parts)


def h(*parts):
    return generator("h", parts)


def e(*parts):
    return generator("e", parts)


def m(*parts):
    return generator("m", parts)


def s(*parts):
    return generator("s", parts)


# ---------------------------------------------------------------------
# class function kernel
# ---------------------------------------------------------------------
#
# The kernel works on plain dicts mapping partitions, or packed keys in
# and out of _mul_p, to class function values a_mu.  Its keys are the
# Partitions of partitions_of and of _key, shared rather than
# rebuilt; Partition subclasses tuple and hashes and compares as one, so
# a part tuple reads the same entries.

def _div(v, n):
    # v / n, exact: an int when n divides v
    if type(v) is int and not v % n:
        return v // n
    q = Fraction(v, n)
    return q.numerator if q.denominator == 1 else q


def _p_symfn(a):
    # the p-basis SymFn with class function values a: c_mu = a_mu / z_mu
    return SymFn("p", {mu: Fraction(v, z_of(mu)) for mu, v in a.items()})


def _scaled(a, d=None):
    # (n, {mu: a_mu n / z_mu}), n = d! for d the largest degree in a, read
    # from a unless given: the p coefficients a_mu / z_mu on a common
    # denominator, n / z_mu integral
    n = math.factorial(max(map(sum, a), default=0) if d is None else d)
    return n, {mu: v * (n // z_of(mu)) for mu, v in a.items()}


def _over_z(a):
    # sum of a_mu / z_mu, divided once
    n, w = _scaled(a)
    return Fraction(sum(w.values()), n)


def _add_into(out, terms, c=1):
    # out += c * terms, dropping keys that cancel; returns out.
    for mu, d in terms.items():
        val = out.get(mu, 0) + c * d
        if val:
            out[mu] = val
        elif mu in out:
            del out[mu]
    return out


@_memo
def _key(key):
    # (weight, z_mu, mu) of the packed key of mu, kept the first time the
    # key is read, so the memo holds only the partitions the kernel met
    parts, z, i, rest = [], 1, 1, key
    while rest:
        m = rest & (_KEY_LIMIT - 1)
        parts += [i] * m
        z *= i ** m * math.factorial(m)
        rest >>= _KEY_BITS
        i += 1
    return sum(parts), z, tuple.__new__(Partition, parts[::-1])


def _pack(mu):
    # one unit in the field of each part a: m_i lands in field i
    return sum([1 << _KEY_BITS * (a - 1) for a in mu])


def _packed(a):
    return {_pack(mu): v for mu, v in a.items()}


def _unpacked(a):
    return {_key(k)[2]: v for k, v in a.items()}


def _multiplicity(a):
    # the largest part multiplicity among the part tuples keying a
    return max((max(map(mu.count, mu)) for mu in a if mu), default=0)


def _check_multiplicity(m):
    # refused before packing: m repeats of a part would spill into the
    # next field of a packed key
    if m >= _KEY_LIMIT:
        raise ResourceLimitError("a part repeated %s times is beyond the "
                                 "cap %d" % (_number(m), _KEY_LIMIT - 1))


def _mul_p(a, b, cap=None):
    # a_(mu+nu) += a_mu b_nu z_(mu+nu) / (z_mu z_nu), an integer, on packed
    # keys whose unions repeat no part _KEY_LIMIT times, which callers
    # check before packing.  Under a cap, each term of the shorter side
    # meets only the other side's terms of weight at most cap minus its
    # own, in their order, so no pair above the cap is formed; those
    # terms are listed once per room.
    if len(a) > len(b):
        a, b = b, a
    key_of = _key
    rests = {}
    out = {}
    for mu, c in a.items():
        w, zmu, _ = key_of(mu)
        room = None if cap is None else cap - w
        rest = rests.get(room)
        if rest is None:
            rest = rests[room] = [(nu, d, z) for nu, d in b.items()
                                  for wnu, z, _ in (key_of(nu),)
                                  if room is None or wnu <= room]
        for nu, d, znu in rest:
            key = mu + nu
            val = out.get(key, 0) + c * d * (key_of(key)[1] // (zmu * znu))
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


@_memo
def _prod_h_p(mu):
    # h_mu = product of the trivial characters h_{mu_i}, multiplied packed;
    # its value at (1^|mu|) is positive, so |mu| is its top multiplicity.
    if not mu:
        return {(): 1}
    _check_multiplicity(sum(mu))
    ones = dict.fromkeys(map(_pack, partitions_of(mu[-1])), 1)
    return _unpacked(_mul_p(_packed(_prod_h_p(mu[:-1])), ones))


@_memo
def _schur_p(lam):
    # the row chi^lam; its value at (1^|lam|) counts standard tableaux and
    # is never 0, so |lam| is its top multiplicity
    _check_multiplicity(sum(lam))
    chi, mask = characters._chi, characters._mask(lam)
    return {mu: v for mu in partitions_of(sum(lam))
            if (v := chi(mask, mu))}


def _m_cap(d):
    if d > _M_MATRIX_CAP:
        raise ResourceLimitError(
            "monomial basis transitions are capped at degree %d, got %s"
            % (_M_MATRIX_CAP, _number(d)))


def _target_cap(target, degrees):
    # Refuse a base change to target, before any expansion, when one of
    # the degrees is beyond its cap: the s target reads the characters
    # of S_d and the m target the rows of R, each a vector p(d) entries
    # wide per class, under the table cap; the h and e targets solve
    # against R, under its own.  The p target, p(d) terms for one term of
    # another basis, is capped at the plethysm's degree cap, but only
    # where a caller asks: to_basis expands into p uncapped.
    for d in degrees:
        if target == "s" and d > characters.CHAR_TABLE_CAP:
            raise ResourceLimitError(
                "Schur expansion needs characters of S_%s, beyond the "
                "cap r <= %d" % (_number(d), characters.CHAR_TABLE_CAP))
        if target == "m" and d > characters.CHAR_TABLE_CAP:
            raise ResourceLimitError(
                "monomial expansion of degree %s is beyond the cap %d"
                % (_number(d), characters.CHAR_TABLE_CAP))
        if target in ("h", "e"):
            _m_cap(d)
        if target == "p" and d > _PLETHYSM_DEGREE_CAP:
            raise ResourceLimitError(
                "power-sum expansion of degree %s is beyond the cap %d"
                % (_number(d), _PLETHYSM_DEGREE_CAP))


@_memo
def _key_positions(d):
    # {_pack(lam): i} for the i-th partition lam of d
    return {_pack(lam): i for i, lam in enumerate(partitions_of(d))}


@_memo
def _raise_table(d, t):
    # (i, j, c) for each term c m_rho of m_lam p_t, lam the j-th partition
    # of d - t and rho the i-th of d: rho raises one part v of lam, or a
    # new part 0, to v + t, once for each distinct v.  On packed keys that
    # takes a unit off field v and puts one on field v + t, and c =
    # m_rho(v + t) is that field of rho's key.
    pos = _key_positions(d)
    out = []
    for j, (lam, key) in enumerate(zip(partitions_of(d - t),
                                       _key_positions(d - t))):
        for v in {0, *lam}:
            shift = _KEY_BITS * (v + t - 1)
            rho = key + (1 << shift) - (1 << _KEY_BITS * (v - 1) if v else 0)
            out.append((pos[rho], j, rho >> shift & _KEY_LIMIT - 1))
    return out


def _m_row(nu):
    # row nu of R, p_nu in the m basis over partitions_of(|nu|): zero
    # after its diagonal entry prod_i m_i(nu)!, the last nonzero one
    return characters._expand(_raise_table, nu)


def _m_to_p(terms):
    # d! c_lam = sum over nu of a_nu (d!/z_nu) R[nu][lam]: one back
    # substitution per degree, after every degree has passed the cap.
    # The diagonal d!/z_nu R[nu][nu] is d!/prod(nu).
    for lam in terms:
        _m_cap(sum(lam))
    out = {}
    for d in sorted({sum(lam) for lam in terms}):
        n, pos, shapes = math.factorial(d), _positions(d), partitions_of(d)
        acc = [0] * len(shapes)
        for lam, c in terms.items():
            if sum(lam) == d:
                acc[pos[lam]] = c * n
        part = []
        for i in reversed(range(len(shapes))):
            c = acc[i]
            if c:
                nu = shapes[i]
                a = _div(c * math.prod(nu), n)
                part.append((nu, a))
                # subtracts a times row nu; its diagonal cancels acc[i]
                b = a * (n // z_of(nu))
                acc = [x - b * v if v else x
                       for x, v in zip(acc, _m_row(nu))]
        out.update(reversed(part))
    return out


def _cleared(a):
    # (D, D a) with int values, for D the lcm of the denominators of a's
    # values
    D = math.lcm(*(v.denominator for v in a.values()))
    return D, {key: v.numerator * (D // v.denominator) for key, v in a.items()}


def _width(bound):
    # the words k of a 64k-bit two's complement field that holds every
    # integer of absolute value at most bound
    return bound.bit_length() // 64 + 1


@_memo
def _halves(k, n):
    # 2^(64k-1) in each of n fields of 64k bits, kept for the widths and
    # lengths met: every packed vector and every decode reads it
    return int.from_bytes((bytes(8 * k - 1) + b"\x80") * n, "little")


def _little(words):
    # an array of machine words in little-endian byte order
    if sys.byteorder == "big":
        words.byteswap()
    return words


@_memo
def _packed_vector(vector, mu, k):
    # vector(mu), entries v_i below 2^63 in absolute value, as the one int
    # sum of v_i 2^(64ki) (Kronecker substitution): written as 64k-bit
    # two's complement fields, whose top bit flipped gives v_i + 2^(64k-1),
    # and that offset taken off as a whole
    v = fields = array("q", vector(mu))
    if k > 1:
        fields = array("q", bytes(8 * k * len(v)))
        fields[::k] = v
        if min(v) < 0:
            # the fields above a negative entry are all ones; rows of R
            # have none, and their fields stay zero
            signs = array("q", [-(x < 0) for x in v])
            for j in range(1, k):
                fields[j::k] = signs
    half = _halves(k, len(v))
    return (int.from_bytes(_little(fields), "little") ^ half) - half


def _unpacked_vector(total, k, n):
    # the n entries c_i of total = sum of c_i 2^(64ki), each below
    # 2^(64k-1) in absolute value, from one to_bytes: the offset makes
    # every field c_i + 2^(64k-1), and its top bit flipped back leaves c_i
    # in two's complement
    half = _halves(k, n)
    raw = ((total + half) ^ half).to_bytes(8 * k * n, "little")
    if k == 1:
        return _little(array("q", raw)).tolist()
    step = 8 * k
    return [int.from_bytes(raw[i:i + step], "little", signed=True)
            for i in range(0, len(raw), step)]


def _vector_sum(target, weights, d):
    # (sums, D): D times the sum over mu of weights[mu] * vector(mu), entry
    # by entry, for vector the class columns (s) or the rows of R (m) of
    # degree d <= CHAR_TABLE_CAP and D the lcm of the weights'
    # denominators, as one bignum multiply-add per class on the packed
    # vectors and one decode.  The field width comes from a bound that
    # reads no vector, by Cauchy-Schwarz over the classes: the sum of
    # chi^lam(mu)^2 / z_mu is 1, and that of R[mu][lam]^2 / z_mu is
    # <h_lam, h_lam> <= <h_1^d, h_1^d> = d!.
    vector = characters._column if target == "s" else _m_row
    D, ints = _cleared(weights)
    norm = sum([w * w * z_of(mu) for mu, w in ints.items()])
    k = _width(math.isqrt(norm if target == "s" else norm * math.factorial(d)))
    total = sum([w * _packed_vector(vector, mu, k) for mu, w in ints.items()])
    return _unpacked_vector(total, k, len(_positions(d))), D


def _p_dict(f):
    """Class function values of f as a plain dict Partition -> int, or
    Fraction where f's own coefficients are not integral."""
    if f.basis == "p":
        return {mu: _div(c.numerator * z_of(mu), c.denominator)
                for mu, c in f.terms.items()}
    terms = {mu: _div(c.numerator, c.denominator) for mu, c in f.terms.items()}
    if f.basis == "m":
        return _m_to_p(terms)
    expand = _schur_p if f.basis == "s" else _prod_h_p
    out = {}
    for mu, c in terms.items():
        _add_into(out, expand(mu), c)
    return _omega_p(out) if f.basis == "e" else out


def _scalar_p(a, b):
    a, b = sorted((a, b), key=len)
    return _over_z({mu: c * b[mu] for mu, c in a.items() if mu in b})


def _omega_p(a):
    return {mu: c if (sum(mu) - len(mu)) % 2 == 0 else -c for mu, c in a.items()}


# ---------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------

def to_basis(f, target):
    """Rewrite f exactly in the named target basis."""
    if target not in BASES:
        raise ValueError("unknown basis %r" % (target,))
    if f.basis == target:
        return f
    if target != "p" and (target != "s" or f.basis != "m"):
        # an m input never meets the Schur cap: above degree 16 its own
        # expansion refuses it first, with that refusal's message
        _target_cap(target, f.degrees())
    fp = _p_dict(f)
    if target == "p":
        return _p_symfn(fp)
    if target == "e":
        # omega exchanges h and e and is diagonal on the p basis.
        fp = _omega_p(fp)
    parts = {}
    for mu, c in fp.items():
        parts.setdefault(sum(mu), {})[mu] = c
    out = {}
    for d, part in sorted(parts.items()):
        pos = _positions(d)
        if target in ("s", "m"):
            # <f, s_lam> = sum over mu of a_mu chi^lam(mu) / z_mu, read
            # from the columns of f's classes; <f, h_mu> = sum over nu of
            # a_nu R[nu][mu] / z_nu, from the rows of R of f's classes
            n, part = _scaled(part, d)
            sums, D = _vector_sum(target, part, d)
            out.update((lam, Fraction(v, n * D))
                       for lam, v in zip(pos, sums) if v)
        else:
            # Forward substitution for R c = a: row i meets the c of the
            # shapes before it, and row[i] is its diagonal.
            cs = []
            for i, nu in enumerate(pos):
                row = _m_row(nu)
                c = part.get(nu, 0) - sum(map(mul, row, cs))
                if c:
                    c = out[nu] = _div(c, row[i])
                cs.append(c)
    return SymFn(target, out)


def scalar(f, g):
    """Hall scalar product <f, g>, exact.

    In the p basis <p_mu, p_nu> = z_mu [mu = nu]; components of unequal
    degree are orthogonal, which the diagonal form gives for free.
    """
    return _scalar_p(_p_dict(f), _p_dict(g))


def kronecker(f, g):
    """Internal (Kronecker) product, the pointwise product of class
    functions: p_mu * p_mu scaled by z_mu.

    For Frobenius characters this is the characteristic of the tensor
    product of the underlying representations.
    """
    a, b = sorted((_p_dict(f), _p_dict(g)), key=len)
    return _p_symfn({mu: c * b[mu] for mu, c in a.items() if mu in b})


def dimension(f):
    """<f, p_1^r> for homogeneous f of degree r: the value at the identity.

    For the Frobenius character of an S_r representation this is its
    dimension.  Raises on inhomogeneous input since mixing degrees makes
    the count meaningless.  Only that one value is formed for s, h and e
    inputs: r!/prod(hook lengths of lam) for s_lam and r!/prod(mu_i!)
    for h_mu and e_mu.
    """
    if f.is_zero():
        return Fraction(0)
    if not f.is_homogeneous():
        raise DegreeError("dimension needs a homogeneous function")
    d = f.degree()
    if f.basis in ("m", "p"):
        return Fraction(_p_dict(f).get((1,) * d, 0))
    # the cap of the full expansion, so the inputs it refused stay refused
    _check_multiplicity(d)
    n = math.factorial(d)
    if f.basis == "s":
        return sum(c * (n // _hook_product(lam)) for lam, c in f.terms.items())
    return sum(c * (n // math.prod(map(math.factorial, mu)))
               for mu, c in f.terms.items())


def _hook_product(lam):
    # product of the hook lengths of lam's boxes, d!/chi^lam(1^d)
    conj = lam.conjugate()
    return math.prod(row - j + conj[j] - i - 1
                     for i, row in enumerate(lam) for j in range(row))


def specialize_ones(f):
    """Evaluate at p_i = 1 for every i.

    For a permutation character this is Burnside's orbit count; for a
    cycle index it is the number of unlabelled structures.
    """
    return _over_z(_p_dict(f))


def monomial_coefficient(f, mu):
    """Coefficient of the monomial m_mu in f, computed as <f, h_mu>."""
    mu = Partition(mu)
    return _scalar_p(_p_dict(f), _prod_h_p(mu))


# ---------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------

def to_json_dict(f):
    """Portable form: coefficients as exact fraction strings."""
    return {
        "basis": f.basis,
        "terms": [{"partition": list(mu), "coeff": str(c)}
                  for mu, c in f.sorted_terms()],
    }


def from_json_dict(doc):
    # The constructor sums repeated partitions and refuses inexact
    # coefficients such as floats.
    return SymFn(doc["basis"], [(entry["partition"], entry["coeff"])
                                for entry in doc["terms"]])
