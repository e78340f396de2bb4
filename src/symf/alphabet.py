"""The finite alphabet: pairings with a sum of Schur functions of bounded
rows, read off polynomials in L variables.

I_d(V) of SL(n) and Sp(2n) is a sum of s_lam with at most L rows.
Jacobi-Trudi (Macdonald, Symmetric Functions and Hall Polynomials,
I.3.4) writes s_lam as the sum of sign(sigma) h_alpha,
alpha_i = lam_i - i + sigma(i) over lam padded to L rows, and h and m
are dual, so <f, s_lam> sums sign(sigma) [x^alpha] f(x_1, ..., x_L).
Polynomials are truncated at B_i = max lam_i + L - 1 - i in variable i
(i from 0), the largest alpha_i of any term, and keyed by their
exponent vectors packed into one int.

A functor's character F enters as F(x_1, ..., x_L), listed inside the
box from F's own terms: h_k as the monomials of degree k, e_k as the
squarefree ones, m_lam as the distinct orderings of lam, s_lam as its
semistandard tableaux, read one variable at a time by the branching
rule, and p_j as x -> x^j; h, e and p terms multiply their parts.
Plethysm is that substitution, p_j[f](x) = f(x_1^j, ..., x_L^j), and
h_r[f] for an integral f is [t^r] of the product of (1 - t x^a)^(-c)
over the terms c x^a of f (Macdonald I.2), formed by additions alone.
Newton's recurrence (plethysm._h_of) serves a non-integral f, and it
and evaluate, which reads F from its class function values, are the
cross-checks of both.
"""

from functools import cached_property, partial
from itertools import combinations, permutations, product

from .partitions import Partition
from .plethysm import _h_of, _pleth_p
from .symfunc import _add_into, _div


def _jacobi_trudi(lam):
    # s_lam = det(h_{lam_i - i + j}) = sum over sigma of sign(sigma) h_alpha,
    # alpha_i = lam_i - i + sigma(i): yields (sign, alpha) in permutation
    # order, skipping the sigma with a negative alpha_i (h_{-k} = 0).
    n = len(lam)
    for sigma in permutations(range(n)):
        alpha = tuple(lam[i] - i + sigma[i] for i in range(n))
        if min(alpha, default=0) >= 0:
            inversions = sum(a > b for i, a in enumerate(sigma)
                             for b in sigma[i + 1:])
            yield -1 if inversions % 2 else 1, alpha


class _Alphabet:
    """The ring of polynomials in L variables, L the length of the
    longest shape, in which pairings with the sum of s_lam are read.

    Polynomials are dicts from packed exponent vectors to int, or to
    Fraction when the functor's own polynomial needs it, truncated above
    B_i = max lam_i + L - 1 - i in variable i (i from 0), the largest
    Jacobi-Trudi exponent alpha_i the pairing reads.  Dropping the
    monomials above it is a quotient by a monomial ideal, so it commutes
    with products, with x -> x^j and with exact division.

    The exponent of variable i sits in a field of bit_length(2 B_i + 1)
    bits, whose top bit is a guard.  Two exponents up to B_i add up
    below the guard, so the product of two monomials in the box is one
    int `+` of their keys, and adding `off`, which is B_i + 1 short of
    the guard in each field, sets a guard bit exactly when that product
    leaves the box.
    """

    one = {0: 1}
    unpack = staticmethod(lambda f: f)  # pair reads the packed keys

    def __init__(self, shapes, bounds=None):
        # shapes is a list of partitions, or, where their bounds are
        # given, a function that lists them: the Jacobi-Trudi weights
        # alone read them, so _ring, which reads the bounds from n and
        # d, lists no shape until the pairing is first read
        if bounds is None:
            length = max(len(lam) for lam in shapes)
            bounds = tuple(max(lam[i] for lam in shapes if len(lam) > i)
                           + length - 1 - i for i in range(length))
            shapes = partial(list, shapes)
        self.shapes = shapes
        self._fields(bounds)

    def _fields(self, bounds):
        self.bounds = bounds
        self.shifts, self.guard, width = [], 0, 0
        for b in bounds:
            self.shifts.append(width)
            width += (2 * b + 1).bit_length()
            self.guard |= 1 << width - 1
        self.off = self._offset(1)

    def _offset(self, j):
        # added to a key in the box, sets a guard bit exactly when some
        # j * e_i is above B_i
        return self.guard - self.pack([b // j + 1 for b in self.bounds])

    def pack(self, exponents):
        return sum(a << s for a, s in zip(exponents, self.shifts))

    @cached_property
    def weights(self):
        # <f, h_alpha> = [x^alpha] f, so Jacobi-Trudi gives <f, s_lam> as
        # the sum of sign [x^alpha] f over its terms.  Built on first use:
        # the routing rule reads only the bounds.
        weights, length = {}, len(self.bounds)
        for lam in self.shapes():
            # lam padded with zeros to L rows
            for sign, alpha in _jacobi_trudi(lam + (0,) * (length - len(lam))):
                weights[alpha] = weights.get(alpha, 0) + sign
        return weights

    @cached_property
    def _packed_weights(self):
        return [(self.pack(alpha), w) for alpha, w in self.weights.items()]

    @cached_property
    def _listed(self):
        # k -> the keys of h_k's monomials, listed once per alphabet
        return {}

    def mul(self, a, b, out=None):
        """a * b truncated, added into out when it is given."""
        out = {} if out is None else out
        off, guard = self.off, self.guard
        if len(a) > len(b):
            a, b = b, a
        b = list(b.items())
        for ea, ca in a.items():
            ea += off
            for eb, cb in b:
                e = ea + eb
                if not e & guard:
                    e -= off
                    out[e] = out.get(e, 0) + ca * cb
        return out

    def substitute(self, f, j):
        """f(x_1^j, ..., x_L^j), truncated."""
        off, guard = self._offset(j), self.guard
        return {j * e: c for e, c in f.items() if not (e + off) & guard}

    @cached_property
    def _x(self):
        # x_1 + ... + x_L, kept whole: every use substitutes it first
        return dict.fromkeys((1 << s for s in self.shifts), 1)

    def evaluate(self, fp):
        """f(x_1, ..., x_L) for f given by its class function values."""
        return _pleth_p(fp, self._x, self)

    def polynomial(self, F):
        """F(x_1, ..., x_L), truncated, listed from F's own terms: the
        product over the parts of an h, e or p term, the orderings of an
        m term, the tableaux of an s term."""
        out = {}
        for mu, c in F.terms.items():
            if F.basis == "s":
                poly = self._schur(mu)
            elif F.basis == "m":
                poly = dict.fromkeys(self._orderings(mu), 1)
            else:
                poly = self.one
                for a in mu:
                    poly = self.mul(poly, self._part(F.basis, a))
            _add_into(out, poly, _div(c.numerator, c.denominator))
        return {e: _div(c.numerator, c.denominator) for e, c in out.items()}

    def _part(self, basis, a):
        # h_a, e_a or p_a in the box
        if basis == "p":
            return self.substitute(self._x, a)
        if basis == "e":
            return dict.fromkeys(self._orderings((1,) * a), 1)
        if a not in self._listed:
            # variable by variable, each exponent at most its bound and
            # at least what the later bounds leave over
            level, room = [(0, a)], sum(self.bounds)
            for b, s in zip(self.bounds, self.shifts):
                room -= b
                level = [(key + (e << s), rest - e) for key, rest in level
                         for e in range(max(rest - room, 0), min(rest, b) + 1)]
            self._listed[a] = [key for key, rest in level if not rest]
        return dict.fromkeys(self._listed[a], 1)

    def _orderings(self, lam):
        # the keys of the distinct orderings of lam padded with zeros to
        # L exponents, in the box: each distinct part, largest first,
        # placed at every choice of the free positions whose bound admits
        # it; none where lam has more than L parts
        level = [(0, ())]
        for v, count in sorted(Partition(lam).multiplicities().items(),
                               reverse=True):
            fits = [i for i, b in enumerate(self.bounds) if b >= v]
            level = [(key + sum(v << self.shifts[i] for i in at), used + at)
                     for key, used in level for at in combinations(
                         [i for i in fits if i not in used], count)]
        return [key for key, _ in level]

    def _schur(self, lam):
        # s_lam(x_1, ..., x_L) as a sum over semistandard tableaux, by the
        # branching rule read from the last variable down:
        # s_mu(x_1..x_(i+1)) is the sum over nu with mu/nu a horizontal
        # strip, nu of at most i rows, of s_nu(x_1..x_i) x_(i+1)^|mu/nu|.
        # Each level keys its polynomials in the later variables by the
        # shape nu still to fill.
        level = {tuple(lam): {0: 1}} if len(lam) <= len(self.bounds) else {}
        for i in reversed(range(len(self.bounds))):
            b, s, below = self.bounds[i], self.shifts[i], {}
            for mu, poly in level.items():
                # nu_j between mu_(j+1) and mu_j for j < i, and 0 after
                ranges = [range(mu[j + 1] if j + 1 < len(mu) else 0, mu[j] + 1)
                          for j in range(min(len(mu), i))]
                weight = sum(mu)
                for nu in product(*ranges):
                    a = weight - sum(nu)
                    if a <= b:
                        # tableau counts: no coefficient cancels
                        out, a = below.setdefault(
                            tuple(v for v in nu if v), {}), a << s
                        for e, c in poly.items():
                            out[e + a] = out.get(e + a, 0) + c
            level = below
        return level.get((), {})

    def h_of(self, f, r):
        """h_r[f].  For f integral it is [t^r] of the product over the
        terms c x^a of f of (1 - t x^a)^(-c) (Macdonald I.2): |c| passes
        of hs[s] += x^a hs[s - 1] each, upward in s for c > 0, and of
        hs[s] -= x^a hs[s - 1], downward, for c < 0.  Where f is not
        integral, or those passes would outnumber r per monomial of f,
        Newton's recurrence, plethysm._h_of."""
        if (any(type(c) is not int for c in f.values())
                or sum(map(abs, f.values())) > r * len(f)):
            return _h_of(f, r, self)
        hs = [self.one] + [{} for _ in range(r)]
        off, guard = self.off, self.guard
        for a, c in f.items():
            a += off
            for _ in range(abs(c)):
                for s in range(1, r + 1) if c > 0 else range(r, 0, -1):
                    out = hs[s]
                    for e, v in hs[s - 1].items():
                        e += a
                        if not e & guard:
                            e -= off
                            out[e] = out.get(e, 0) + (v if c > 0 else -v)
        return hs[r]

    def pair(self, f):
        """<f, sum of s_lam> for f homogeneous of the shapes' weight."""
        return sum(w * f.get(e, 0) for e, w in self._packed_weights)
