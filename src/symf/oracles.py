"""Independent brute-force checks for everything the package computes.

Each oracle here re-derives a result by direct enumeration, group
averaging, Weyl integration on a torus, or another first-principles
route, without touching the character, plethysm, scalar product or
base change machinery it is meant to verify.  The only shared
vocabulary is Partition, z_of and exact rational arithmetic; a
symmetric function is filled into a p-basis SymFn from class data.

All oracles carry hard size caps and raise ResourceLimitError beyond
them, because they are exponential on purpose.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, combinations_with_replacement
from operator import add, sub

from .errors import ResourceLimitError
from .partitions import Partition, partitions_of, z_of
from .symfunc import SymFn


def _require(condition, what):
    if not condition:
        raise ResourceLimitError("oracle bound exceeded: %s" % what)


def _class_representative(mu, n):
    # A permutation of {0..n-1} with cycle type mu, as a lookup tuple.
    perm = list(range(n))
    start = 0
    for c in mu:
        for i in range(c):
            perm[start + i] = start + (i + 1) % c
        start += c
    return tuple(perm)


def _p_character(value, d):
    # the p-basis SymFn of the S_d-character with value(mu) at class mu
    values = ((mu, value(mu)) for mu in partitions_of(d))
    return SymFn("p", {mu: Fraction(v) / z_of(mu) for mu, v in values if v})


# ---------------------------------------------------------------------
# card deals
# ---------------------------------------------------------------------

def oracle_deals(m, n):
    """Count deals of m*n cards (n types, m of each) into n hands of m,
    by enumerating multisets of hands directly."""
    _require(m * n <= 14, "oracle_deals needs m*n <= 14")
    hands = []
    for combo in combinations_with_replacement(range(n), m):
        counts = [0] * n
        for c in combo:
            counts[c] += 1
        hands.append(tuple(counts))

    def extend(min_idx, hands_left, remaining):
        if hands_left == 0:
            return 1 if all(x == 0 for x in remaining) else 0
        total = 0
        for idx in range(min_idx, len(hands)):
            hand = hands[idx]
            if all(hand[t] <= remaining[t] for t in range(n)):
                nxt = tuple(remaining[t] - hand[t] for t in range(n))
                total += extend(idx, hands_left - 1, nxt)
        return total

    return extend(0, n, tuple([m] * n))


@lru_cache(maxsize=None)
def _deal_matrices(m, n):
    # All n x n matrices, entries 0..m, every row and column sum m, with
    # their rows in lexicographic order.
    def compositions(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, slots - 1):
                yield (first,) + rest

    rows = tuple(compositions(m, n))
    out = []

    def fill(mat, col_left):
        if len(mat) == n:
            out.append(mat)
            return
        for row in rows:
            if all(row[j] <= col_left[j] for j in range(n)):
                fill(mat + (row,), tuple(col_left[j] - row[j] for j in range(n)))

    fill((), (m,) * n)
    return tuple(out)


def _permute_rows(perm, mat):
    return tuple(mat[i] for i in perm)


def oracle_deals_matrix_count(m, n):
    """The same deal count from the matrix model: orbits of row/column
    sum m matrices under row permutation."""
    _require(n <= 5 and m * n <= 12, "matrix deal oracle needs n <= 5, m*n <= 12")
    return _orbit_count(_deal_matrices(m, n), n, _permute_rows)


def oracle_deals_cycle_index(m, n):
    """Frobenius character of S_n permuting the rows of the deal
    matrices, from fixed point counts per conjugacy class."""
    _require(n <= 5 and m * n <= 12, "matrix deal oracle needs n <= 5, m*n <= 12")
    return _permutation_character(_deal_matrices(m, n), n, _permute_rows)


@lru_cache(maxsize=None)
def _symmetric_group(n):
    from itertools import permutations
    return tuple(permutations(range(n)))


def _orbit_count(objects, n, act):
    # the orbits of S_n on objects, act(perm, obj) the image of obj
    seen, orbits = set(), 0
    for obj in objects:
        if obj not in seen:
            orbits += 1
            seen.update(act(perm, obj) for perm in _symmetric_group(n))
    return orbits


def _permutation_character(objects, n, act):
    # the Frobenius character of S_n permuting objects: at each class,
    # the objects that a representative fixes
    def fixed(mu):
        perm = _class_representative(mu, n)
        return sum(1 for obj in objects if act(perm, obj) == obj)
    return _p_character(fixed, n)


# ---------------------------------------------------------------------
# regular multigraphs
# ---------------------------------------------------------------------

def _regular_matrices(n, k):
    # Symmetric n x n matrices over the nonnegative integers with
    # 2*M[i][i] + sum of the rest of row i = k for every i: adjacency
    # matrices of k-regular multigraphs where a loop counts twice.
    out = []

    def fill(rows):
        i = len(rows)
        if i == n:
            out.append(tuple(tuple(r) for r in rows))
            return
        fixed = [rows[j][i] for j in range(i)]
        used = sum(fixed)
        if used > k:
            return

        def rest(row, left, j):
            if j == n:
                if left == 0:
                    fill(rows + [tuple(row)])
                return
            for v in range(left + 1):
                col_used = sum(rows[t][j] for t in range(i)) + v
                if col_used > k:
                    break
                row[j] = v
                rest(row, left - v, j + 1)
                row[j] = 0

        budget = k - used
        for loop in range(budget // 2 + 1):
            row = fixed + [0] * (n - i)
            row[i] = loop
            rest(row, budget - 2 * loop, i + 1)

    fill([])
    return out


def _relabel(perm, mat):
    return tuple(tuple(mat[i][j] for j in perm) for i in perm)


def oracle_regular_graphs(n, k):
    """Count k-regular multigraphs with loops on n unlabelled vertices
    by enumerating adjacency matrices and collecting S_n orbits."""
    _require(n <= 5 and k <= 6, "regular graph oracle needs n <= 5, k <= 6")
    if (n * k) % 2:
        return 0
    return _orbit_count(_regular_matrices(n, k), n, _relabel)


def oracle_regular_cycle_index(n, k):
    """Frobenius character of S_n on labelled k-regular multigraphs."""
    _require(n <= 5 and k <= 6, "regular graph oracle needs n <= 5, k <= 6")
    return _permutation_character(_regular_matrices(n, k), n, _relabel)


# ---------------------------------------------------------------------
# finite group averaging
# ---------------------------------------------------------------------

def _cycle_type(g):
    # The cycle lengths of the permutation g, longest first.
    seen, parts = set(), []
    for i in range(len(g)):
        if i not in seen:
            parts.append(0)
            while i not in seen:
                seen.add(i)
                i, parts[-1] = g[i], parts[-1] + 1
    return Partition(sorted(parts, reverse=True))


def _fixed_points(g, top):
    # [fix(g^0), fix(g^1), ..., fix(g^top)], composing g with itself.
    power, out = tuple(range(len(g))), []
    for _ in range(top + 1):
        out.append(sum(i == j for i, j in enumerate(power)))
        power = tuple(g[i] for i in power)
    return out


def _averaged(elements, d):
    # The S_d-character whose value at mu averages w * prod of trace[c]
    # over the parts c of mu, over one (w, trace) pair per group element.
    return _p_character(lambda mu: Fraction(sum(
        w * math.prod(trace[c] for c in mu) for w, trace in elements),
        len(elements)), d)


def oracle_perm_inv_char(n, r):
    """S_r-character of the invariants of S_n inside the r-th tensor
    power of its n-point permutation representation, by averaging.

    The trace of (g, sigma) on the tensor power is the product over the
    cycles c of sigma of fix(g^{|c|}); averaging over the n! elements g
    projects onto the invariants.
    """
    _require(n <= 5 and r <= 8, "averaging oracle needs n <= 5, r <= 8")
    return oracle_perm_hom_char(n, {nu: 1 for nu in partitions_of(n)}, r)


def oracle_perm_hom_char(n, w_trace, d):
    """S_d-character of Hom_{S_n}(V tensor d, W) for the permutation
    representation V, where w_trace gives the character of W by class."""
    _require(n <= 5 and d <= 8, "averaging oracle needs n <= 5, d <= 8")
    return _averaged([(w_trace.get(_cycle_type(g), 0), _fixed_points(g, d))
                      for g in _symmetric_group(n)], d)


def oracle_perm_inv_char_polyfunc(n, p_terms, r):
    """Like oracle_perm_inv_char but through a polynomial functor.

    p_terms is the power sum expansion of the functor character, given
    directly as a mapping partition -> coefficient, so this oracle does
    not lean on any base change code.  The trace of (g, sigma) on the
    tensor power of P(V) multiplies, over the cycles c of sigma, the
    value of the p expansion at p_i = fix(g^{i*|c|}), averaged over the
    n! elements g.
    """
    p_terms = {Partition(mu): Fraction(c) for mu, c in p_terms.items()}
    degrees = {mu.weight for mu in p_terms}
    _require(len(degrees) == 1, "functor character must be homogeneous")
    k = degrees.pop()
    _require(n <= 4 and r * k <= 8, "functor averaging oracle needs n <= 4, r*deg <= 8")
    elements = []
    for g in _symmetric_group(n):
        fix = _fixed_points(g, r * k)
        # the trace of g^c on P(V), c = 1..r
        elements.append((1, [None] + [
            sum(coeff * math.prod(fix[i * c] for i in rho)
                for rho, coeff in p_terms.items()) for c in range(1, r + 1)]))
    return _averaged(elements, r)


# ---------------------------------------------------------------------
# Weyl integration over a maximal torus
# ---------------------------------------------------------------------

def _torus(family, n):
    # The weights of V with multiplicity and the positive roots, as
    # exponent tuples on a maximal torus: of U(n) for SL(n), Sp(2n) on
    # C^2n, U(n) on n x n matrices, and SU(2) on binary forms of degree n.
    if family == "binary":
        return [(w,) for w in range(-n, n + 1, 2)], [(2,)]

    def e(i, j, b=-1):  # e_i + b * e_j, so (1 + b) * e_i where i = j
        return tuple((m == i) + b * (m == j) for m in range(n))
    roots = [e(i, j) for i, j in combinations(range(n), 2)]
    if family == "sl":
        return [e(i, i, 0) for i in range(n)], roots
    if family == "sp":
        return ([e(i, i, b) for i in range(n) for b in (0, -2)], roots
                + [e(i, j, 1) for i, j in
                   combinations_with_replacement(range(n), 2)])
    return [e(i, j) for i in range(n) for j in range(n)], roots


def _times(f, g):
    # the product of Laurent polynomials, dicts keyed by exponent tuples
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            key = tuple(map(add, ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _weyl_integral(family, n, d):
    """mu -> CT[x^-t prod_{c in mu} char_V(x^c) prod_{a > 0} (1 - x^a)],
    the trace of a permutation of cycle type mu on the invariants of G
    in the d-th tensor power of V (Weyl's integration formula).  t is 0,
    except for SL(n), whose invariants are the det^(d/n) part for U(n):
    t = (d/n, ..., d/n), and no term has its degree unless n | d."""
    if family == "binary":
        _require(n * d <= 24, "SU(2) oracle needs k*r <= 24")
    else:  # the largest n and d, where a call takes about a second
        top_n, top_d = {"sl": (6, 12), "sp": (3, 14),
                        "gl-adjoint": (4, 10)}[family]
        _require(1 <= n <= top_n and d <= top_d, "%s oracle needs n <= %d, "
                 "d <= %d" % (family, top_n, top_d))
    weights, roots = _torus(family, n)
    zero = (0,) * len(weights[0])
    delta = reduce(_times, ({zero: 1, a: -1} for a in roots), {zero: 1})
    t = (d // n,) * n if family == "sl" else zero
    reads = [(tuple(map(sub, t, a)), c) for a, c in delta.items() if c]

    @lru_cache(maxsize=None)
    def power(c):  # char_V(x^c)
        return Counter(tuple(c * x for x in w) for w in weights)

    def value(mu):
        f = reduce(_times, map(power, mu), {zero: 1})
        return sum(c * f.get(a, 0) for a, c in reads)
    return value


def oracle_weyl_inv_char(family, n, d):
    """Frobenius character of S_d on the invariants of G in the d-th
    tensor power of V, by Weyl integration: "sl" is SL(n) on C^n, "sp"
    Sp(2n) on C^2n, "gl-adjoint" GL(n) on n x n matrices by conjugation
    and "binary" SL(2) on the binary forms of degree n."""
    return _p_character(_weyl_integral(family, n, d), d)


def oracle_su2_frobenius(k, r, mu):
    """Trace of a cycle type mu permutation on the SL(2) invariants in
    the r-th tensor power of the (k+1)-dimensional irreducible."""
    value = _weyl_integral("binary", k, r)
    mu = Partition(mu)
    if mu.weight != r:
        raise ValueError("cycle type %s is not a partition of %d" % (mu, r))
    return value(mu)


def oracle_su2_inv_char(k, r):
    """Frobenius character of the S_r action on those SL(2) invariants."""
    return oracle_weyl_inv_char("binary", k, r)


def oracle_su2_poly_dim(k, r):
    """Dimension of the degree-r SL(2) invariants of the binary k-form,
    straight from Weyl integration (trivial isotypic of the above)."""
    return sum(oracle_su2_inv_char(k, r).terms.values(), Fraction(0))


# ---------------------------------------------------------------------
# partition counting oracles
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bounded_partition_count(total, max_part, slots):
    # partitions of `total` into at most `slots` parts, each <= max_part
    if total == 0:
        return 1
    if slots == 0 or max_part == 0:
        return 0
    count = 0
    for first in range(min(total, max_part), 0, -1):
        count += _bounded_partition_count(total - first, first, slots - 1)
    return count


def oracle_cayley_sylvester(k, r):
    """Dimension of the degree-r invariants of the binary k-form by the
    Cayley-Sylvester difference of bounded partition counts."""
    _require(k >= 0 and r >= 0 and k * r <= 120, "Cayley-Sylvester oracle bound")
    if (k * r) % 2:
        return 0
    target = k * r // 2
    now = _bounded_partition_count(target, k, r)
    below = _bounded_partition_count(target - 1, k, r) if target else 0
    return now - below


def oracle_syt(lam):
    """Standard Young tableaux of shape lam, by the hook length formula."""
    lam = Partition(lam)
    conj = lam.conjugate()
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    count, rem = divmod(math.factorial(lam.weight), hooks)
    if rem:
        raise ArithmeticError("hook product %d does not divide %d!"
                              % (hooks, lam.weight))
    return count


def oracle_matchings(q):
    """Perfect matchings of 2q points: (2q - 1)!!"""
    out = 1
    for i in range(1, 2 * q, 2):
        out *= i
    return out


def oracle_restricted_bell(r, n):
    """Set partitions of r elements into at most n blocks, by the
    Stirling recurrence."""
    @lru_cache(maxsize=None)
    def stirling(a, b):
        if a == 0 or b == 0:
            return int(a == b)
        return b * stirling(a - 1, b) + stirling(a - 1, b - 1)

    return sum(stirling(r, j) for j in range(min(r, n) + 1))


# ---------------------------------------------------------------------
# plethysm by monomial expansion
# ---------------------------------------------------------------------

def _kostka(lam, mu):
    # Semistandard tableaux of shape lam and content mu, counted by
    # building lam from horizontal strips of sizes mu_1, mu_2, ...
    lam = tuple(lam)

    def strips(inner, size):
        # shapes nu with inner <= nu <= lam, |nu| - |inner| = size,
        # nu/inner a horizontal strip
        rows = len(lam)
        inner = tuple(inner) + (0,) * (rows - len(inner))

        def choose(i, left, strip_cap):
            # strip_cap enforces the horizontal strip condition: the new
            # row cannot reach past the previous row of the inner shape.
            if i == rows:
                if left == 0:
                    yield ()
                return
            low = inner[i]
            high = min(lam[i], strip_cap)
            for v in range(low, high + 1):
                if v - inner[i] <= left:
                    for rest in choose(i + 1, left - (v - inner[i]), inner[i]):
                        yield (v,) + rest

        for shape in choose(0, size, lam[0] if lam else 0):
            yield tuple(a for a in shape if a)

    states = {(): 1}
    for part in mu:
        nxt = {}
        for shape, ways in states.items():
            for bigger in strips(shape, part):
                nxt[bigger] = nxt.get(bigger, 0) + ways
        states = nxt
    return states.get(lam, 0)


def _monomial_profile_counts(factors, chooser, outer):
    # factors: exponent vectors of the inner function's monomials.
    # Multiply out every multiset (or subset, as chooser picks them) of
    # `outer` of them; the products whose exponent vector is sorted give
    # the monomial coefficients, indexed by partition.  Each vector is
    # packed into one int in base degree + 1: no exponent of a product
    # exceeds its degree, so adding packed ints adds vectors, no carries.
    nvars = len(factors[0])
    degree = outer * sum(factors[0])

    def pack(vec):
        key = 0
        for a in vec:
            key = key * (degree + 1) + a
        return key

    totals = Counter(map(sum, chooser(map(pack, factors), outer)))
    counts = {}
    for lam in partitions_of(degree):
        c = totals.get(pack(lam + (0,) * (nvars - len(lam))))
        if c:
            counts[lam] = c
    return counts


def _solve_schur(mcounts, degree):
    # Invert the unitriangular Kostka system in reverse lexicographic
    # order: s_lam = m_lam + (dominated terms).
    coeffs = {}
    for lam in partitions_of(degree):
        c = mcounts.get(lam, 0)
        for nu, a in coeffs.items():
            if a:
                c -= a * _kostka(nu, lam)
        if c:
            coeffs[lam] = c
    return coeffs


def oracle_plethysm_monomials(kind, a, b):
    """Monomial expansion of h_a[h_b] (kind "hh") or e_a[e_b] ("ee"),
    by listing monomials of the inner function in a*b variables and
    multiplying out multisets (or subsets) of them."""
    _require(a * b <= 8 and a >= 1 and b >= 1, "monomial plethysm oracle needs a*b <= 8")
    if kind not in ("hh", "ee"):
        raise ValueError("kind must be 'hh' or 'ee'")
    # e_b's monomials are the subsets of b variables, h_b's the multisets
    chooser = combinations if kind == "ee" else combinations_with_replacement
    nvars = a * b
    factors = [tuple(combo.count(t) for t in range(nvars))
               for combo in chooser(range(nvars), b)]
    return _monomial_profile_counts(factors, chooser, a)


def oracle_plethysm_schur(kind, a, b):
    """Schur expansion of h_a[h_b] or e_a[e_b], solved from the monomial
    oracle through brute-force Kostka numbers."""
    mcounts = oracle_plethysm_monomials(kind, a, b)
    return SymFn("s", _solve_schur(mcounts, a * b))
