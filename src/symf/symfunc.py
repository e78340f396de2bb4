"""The ring of symmetric functions with exact rational coefficients.

A SymFn is a finite linear combination of basis elements drawn from one
of the five classical bases: power sums p, complete homogeneous h,
elementary e, monomial m, Schur s.  Coefficients are fractions.Fraction,
so every result in this package is exact; nothing is ever rounded.

Internally the power sum basis is the canonical one.  There the product
is multiset union of indexing partitions, the Hall scalar product is
diagonal with weight z_mu, and plethysm is a substitution.  The other
bases are views reached by exact base change:

  h_n = sum over mu of p_mu / z_mu,   e_n the same with sign (-1)^(n - len),
  s_lam = sum over mu of chi^lam(mu)/z_mu p_mu    (Murnaghan-Nakayama),
  p_nu = sum over mu of R[nu][mu] m_mu,   R[nu][mu] = z_nu [p_nu] h_mu,
  e coefficients via the omega involution p_mu -> (-1)^(|mu|-len(mu)) p_mu.

R[nu][mu] counts the ways to fuse the parts of nu into mu (Macdonald I.6),
so R is an integer matrix, lower triangular in the canonical reverse
lexicographic order since mu then dominates nu.  For f = sum a_nu p_nu the
m coefficients are a R (that is <f, h_mu>), the h coefficients solve
R c = (z_nu a_nu) by forward substitution (that is <f, m_mu>), and an m
input sum c_lam m_lam is solved for its p coefficients x R = c by one
back substitution per degree; no inverse is ever formed.  e goes through
omega in both directions: e inputs expand as h and are flipped, and e
targets flip f before solving for h coefficients.

For Schur indices of weight above the character table cap the base
change falls back on the Jacobi-Trudi determinant det(h_{lam_i - i + j}),
expanded over permutations; that keeps things like s_(18,18) cheap where
a weight-36 character table would not be.
"""

import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from . import characters
from .errors import DegreeError, ResourceLimitError
from .partitions import Partition, partitions_of, z_of

BASES = ("p", "h", "e", "m", "s")

# Longest Schur index the Jacobi-Trudi fallback will expand: len! terms.
_JT_LENGTH_CAP = 8

# Coefficient types refused at construction.  Fraction() accepts floats
# and Decimals and would store their binary or decimal approximation as
# if it were exact.
_INEXACT = (float, complex, Decimal)

# Degree cap on base changes that solve against the p-to-m matrix R: h
# and e targets and m inputs.  The m target only multiplies by R and is
# not capped.
_M_MATRIX_CAP = 16


class SymFn:
    """A symmetric function expressed in one named basis.

    Treated as immutable: every operation builds a new SymFn.  Equality
    is mathematical, not representational; h_2 in the h basis equals
    (p_1^2 + p_2)/2 in the p basis.
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
            key = Partition(key)
            value = clean.get(key, 0) + Fraction(value)
            if value:
                clean[key] = value
            elif key in clean:
                del clean[key]
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SymFn is immutable")

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
            raise DegreeError("not homogeneous, degrees %s" % (degs,))
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
        return SymFn("p", _add_into(_p_dict(self), _p_dict(other)))

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
            return SymFn("p", _mul_p(_p_dict(self), _p_dict(other)))
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
# power sum kernel
# ---------------------------------------------------------------------
#
# The kernel works on plain dicts mapping part tuples to Fractions.
# Partition subclasses tuple, so the two key types interoperate; SymFn
# construction restores Partition keys at the boundary.

def _add_into(out, terms, c=1):
    # out += c * terms, dropping keys that cancel; returns out.
    for mu, d in terms.items():
        val = out.get(mu, 0) + c * d
        if val:
            out[mu] = val
        elif mu in out:
            del out[mu]
    return out


def _mul_p(a, b):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for mu, c in a.items():
        for nu, d in b.items():
            key = tuple(sorted(mu + nu, reverse=True))
            val = out.get(key, 0) + c * d
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


@lru_cache(maxsize=None)
def _gen_h_p(n):
    return {tuple(mu): Fraction(1, z_of(mu)) for mu in partitions_of(n)}


@lru_cache(maxsize=None)
def _prod_h_p(mu):
    # h_mu = product of h_{mu_i} in the p basis.
    if not mu:
        return {(): Fraction(1)}
    return _mul_p(_prod_h_p(mu[:-1]), _gen_h_p(mu[-1]))


@lru_cache(maxsize=None)
def _schur_p(lam):
    if sum(lam) <= characters.CHAR_TABLE_CAP:
        out = {}
        for mu in partitions_of(sum(lam)):
            v = characters._chi(tuple(lam), tuple(mu))
            if v:
                out[tuple(mu)] = Fraction(v, z_of(mu))
        return out
    return _schur_p_jacobi_trudi(lam)


def _schur_p_jacobi_trudi(lam):
    # det(h_{lam_i - i + j}) expanded over permutations.  Fine for short
    # shapes of large weight, which is the only place it is used.
    n = len(lam)
    if n > _JT_LENGTH_CAP:
        raise ResourceLimitError(
            "Schur index %s: weight beyond the character table cap and "
            "more than %d rows" % (Partition(lam), _JT_LENGTH_CAP))
    from itertools import permutations
    out = {}
    for sigma in permutations(range(n)):
        degrees = []
        ok = True
        for i in range(n):
            d = lam[i] - i + sigma[i]
            if d < 0:
                ok = False
                break
            if d > 0:
                degrees.append(d)
        if not ok:
            continue
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if sigma[i] > sigma[j])
        sign = -1 if inversions % 2 else 1
        _add_into(out, _prod_h_p(tuple(sorted(degrees, reverse=True))), sign)
    return out


def _m_cap(d):
    if d > _M_MATRIX_CAP:
        raise ResourceLimitError(
            "monomial basis transitions are capped at degree %d, got %d"
            % (_M_MATRIX_CAP, d))


@lru_cache(maxsize=None)
def _p_to_m(d):
    # Rows of R as {nu: {mu: int}}, both in partitions_of order, so each
    # row ends on its diagonal entry prod_i m_i(nu)!.  z_nu c is an
    # integer, so the denominator of c divides z_nu.
    rows = {tuple(nu): {} for nu in partitions_of(d)}
    for mu in rows:
        for nu, c in _prod_h_p(mu).items():
            rows[nu][mu] = z_of(nu) // c.denominator * c.numerator
    return rows


def _m_to_p(terms):
    # The p coefficients x of sum c_lam m_lam solve x R = c: one back
    # substitution per degree, after every degree has passed the cap.
    for lam in terms:
        _m_cap(sum(lam))
    out = {}
    for d in sorted({sum(lam) for lam in terms}):
        rows = _p_to_m(d)
        acc = {lam: c for lam, c in terms.items() if sum(lam) == d}
        part = {}
        for nu in reversed(rows):
            c = acc.get(nu)
            if c:
                c /= rows[nu][nu]
                part[nu] = c
                # subtracts c times row nu; its diagonal cancels acc[nu]
                _add_into(acc, rows[nu], -c)
        out.update(reversed(part.items()))
    return out


# Per-generator p expansions; e is expanded as h and flipped by omega.
_GEN_EXPANSIONS = {
    "h": _prod_h_p,
    "e": _prod_h_p,
    "s": _schur_p,
}


def _p_dict(f):
    """Expansion of f in the p basis as a plain dict tuple -> Fraction."""
    if f.basis == "p":
        return {tuple(mu): c for mu, c in f.terms.items()}
    if f.basis == "m":
        return _m_to_p(f.terms)
    expand = _GEN_EXPANSIONS[f.basis]
    out = {}
    for mu, c in f.terms.items():
        _add_into(out, expand(tuple(mu)), c)
    return _omega_p(out) if f.basis == "e" else out


def _scalar_p(a, b):
    if len(a) > len(b):
        a, b = b, a
    total = Fraction(0)
    for mu, c in a.items():
        d = b.get(mu)
        if d:
            total += c * d * z_of(mu)
    return total


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
    if target in ("h", "e"):
        for d in f.degrees():
            _m_cap(d)
    fp = _p_dict(f)
    if target == "p":
        return SymFn("p", fp)
    if target == "e":
        # omega exchanges h and e and is diagonal on the p basis.
        fp = _omega_p(fp)
    out = {}
    for d in sorted({sum(mu) for mu in fp}):
        part = {mu: c for mu, c in fp.items() if sum(mu) == d}
        if target == "s":
            if d > characters.CHAR_TABLE_CAP:
                raise ResourceLimitError(
                    "Schur expansion needs characters of S_%d, beyond the "
                    "cap r <= %d" % (d, characters.CHAR_TABLE_CAP))
            for lam in partitions_of(d):
                tl = tuple(lam)
                c = sum((a * characters._chi(tl, mu) for mu, a in part.items()),
                        Fraction(0))
                if c:
                    out[lam] = c
        elif target == "m":
            rows = _p_to_m(d)
            acc = {}
            for nu, a in part.items():
                _add_into(acc, rows[nu], a)
            out.update((mu, acc[mu]) for mu in rows if mu in acc)
        else:
            # Forward substitution for R c = (z_nu a_nu).  Row nu ends on
            # the diagonal, whose c_nu is not in out yet.
            for nu, row in _p_to_m(d).items():
                c = part.get(nu, 0) * z_of(nu)
                for mu, r in row.items():
                    if mu in out:
                        c -= r * out[mu]
                if c:
                    out[nu] = c / row[nu]
    return SymFn(target, out)


def scalar(f, g):
    """Hall scalar product <f, g>, exact.

    In the p basis <p_mu, p_nu> = z_mu [mu = nu]; components of unequal
    degree are orthogonal, which the diagonal form gives for free.
    """
    return _scalar_p(_p_dict(f), _p_dict(g))


def kronecker(f, g):
    """Internal (Kronecker) product, p_mu * p_mu scaled by z_mu.

    For Frobenius characters this is the characteristic of the tensor
    product of the underlying representations.
    """
    a, b = _p_dict(f), _p_dict(g)
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for mu, c in a.items():
        d = b.get(mu)
        if d:
            out[mu] = c * d * z_of(mu)
    return SymFn("p", out)


def dimension(f):
    """<f, p_1^r> for homogeneous f of degree r.

    For the Frobenius character of an S_r representation this is its
    dimension.  Raises on inhomogeneous input since mixing degrees makes
    the count meaningless.
    """
    if f.is_zero():
        return Fraction(0)
    if not f.is_homogeneous():
        raise DegreeError("dimension needs a homogeneous function")
    r = f.degree()
    coeff = _p_dict(f).get((1,) * r, Fraction(0))
    return coeff * math.factorial(r)


def specialize_ones(f):
    """Evaluate at p_i = 1 for every i.

    For a permutation character this is Burnside's orbit count; for a
    cycle index it is the number of unlabelled structures.
    """
    return sum(_p_dict(f).values(), Fraction(0))


def monomial_coefficient(f, mu):
    """Coefficient of the monomial m_mu in f, computed as <f, h_mu>."""
    mu = Partition(mu)
    return _scalar_p(_p_dict(f), _prod_h_p(tuple(mu)))


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
