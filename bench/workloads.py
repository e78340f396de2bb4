"""The benchmark's workloads: seeded queries, how each runs, how each is checked.

A query is plain data (lists, strings, integers), so the process that
times it and the process that checks it rebuild the same inputs from
the seed without sharing objects.  The library receives only the inputs
built here.

invariants_grid  hilbert_dim / inv_char_polyfunc over the c09 grid and
                 its neighbours.  Queries share a lot (every SL(2) and
                 Sp(2) query at k*r = 36 needs s_(18,18) in the p basis),
                 and weights above 20 take the Jacobi-Trudi fallback.
schur_expand     f[g] rewritten in the s, m, h or e basis, and
                 fundamental(F, G, r) in p mode against s mode, at total
                 degree <= 16.  Character values and the monomial
                 inverse carry it; it never reaches weight 20.
cli_session      `python -m symf` invocations, one fresh process each,
                 run twice against one cache directory so that the
                 first pass builds and stores character tables and the
                 second pass loads them.

The seed sets the order of the queries and the random inputs.  An input
is drawn only where omega (h_a <-> e_a, s_lam <-> s_lam') maps one
choice's answer onto the other's with the same number of terms: both
arguments of fundamental(F, G, r) flip together, and so do both sides of
the CLI's f[g] in the s basis.  f[g] base changes are not flipped, since
omega of an answer in the m, h or e basis is not in that basis.  So
every seed does the same work, including the memoized set-up (the
degree-16 monomial inverse, the weight-36 Schur expansion), and
run-to-run spread reflects the machine, not the draw.
"""

import random
from fractions import Fraction

from symf import (PolyFunctor, SLnDefining, SnPermutation, Sp2nDefining,
                  SymFn, from_json_dict, generator, hilbert_dim, inv_char,
                  inv_char_polyfunc, one, scalar, to_basis, to_json_dict)
from symf.plethysm import fundamental, plethysm

WORKLOADS = ("invariants_grid", "schur_expand", "cli_session")

# ---------------------------------------------------------------------
# query generation
# ---------------------------------------------------------------------

_FUNCTORS = (("h", [1]), ("h", [2]), ("h", [3]), ("h", [4]), ("e", [2]),
             ("s", [2, 1]))


def _grid():
    out = []
    # c09: binary forms of degree k, up to k*r = 36
    for k in range(1, 7):
        for r in range(7):
            out.append(["hilbert", ("sl", 2), ("h", [k]), r])
    # below the Jacobi-Trudi weight: the same forms through Sp(2) = SL(2),
    # their full equivariant characters, and the e_2 and s_21 functors
    for k in range(1, 7):
        for r in range(7):
            if k * r <= 20:
                out.append(["hilbert", ("sp", 1), ("h", [k]), r])
                if r:
                    out.append(["inv", ("sl", 2), ("h", [k]), r])
    for functor, k in ((("e", [2]), 2), (("s", [2, 1]), 3)):
        for r in range(1, 20 // k + 1):
            out.append(["hilbert", ("sl", 2), functor, r])
    # SL(3) and Sp(4)
    for family in (("sl", 3), ("sp", 2)):
        for functor in _FUNCTORS:
            for r in range(1, 6):
                if sum(functor[1]) * r <= 12:
                    out.append(["hilbert", family, functor, r])
    # the permutation family, where the averaging oracle is affordable
    for n in (2, 3, 4):
        for functor in (("h", [2]), ("e", [2]), ("s", [2, 1])):
            for r in range(1, 8 // sum(functor[1]) + 1):
                out.append(["hilbert", ("perm", n), functor, r])
                out.append(["inv", ("perm", n), functor, r])
    return out


def _conjugate(parts):
    return [sum(1 for p in parts if p > i) for i in range(parts[0])]


def _omega(spec):
    """The generator omega maps spec to: h_a <-> e_a, s_lam <-> s_lam'."""
    basis, parts = spec
    if basis == "s":
        return ["s", _conjugate(parts)]
    return [{"h": "e", "e": "h"}[basis], list(parts)]


# f[g] rewritten in each target basis, as (f, g) up to omega.  Degrees
# run to 16, so each target builds the same monomial inverses and
# character values whatever the seed.
_CONVERTS = ((("h", [2]), ("h", [2])), (("h", [2]), ("h", [3])),
             (("h", [3]), ("h", [2])), (("h", [2]), ("s", [3, 1])),
             (("s", [2, 1]), ("h", [3])), (("h", [2]), ("s", [3, 2])),
             (("s", [2, 1]), ("h", [4])), (("h", [2]), ("s", [4, 3])),
             (("h", [4]), ("h", [4])))
# fundamental(F, G, r) mode comparisons as (deg F, r)
_MODE_SHAPES = ((1, 4), (1, 6), (2, 3), (2, 4), (3, 3), (2, 5), (3, 4),
                (4, 3), (2, 6), (4, 4), (3, 5), (5, 3), (2, 7), (7, 2),
                (2, 8), (8, 2))


def _schur_queries(rng):
    out = []
    for target in "smhe":
        for f, g in _CONVERTS:
            out.append(["convert", list(f), list(g), target])
    for k, r in _MODE_SHAPES:
        d = r * k
        for F in (("h", [k]), ("s", [k - 1, 1]) if k > 1 else ("e", [1])):
            F, G = list(F), [["h", [d - d // 2]], ["h", [d // 2]]]
            # <s_lam[F], G> = <s_mu[wF], wG> with mu = lam or lam', and
            # the p mode coefficients change at most in sign
            if rng.random() < 0.5:
                F, G = _omega(F), [_omega(g) for g in G]
            out.append(["modes", F, G, r])
    return out


def _cli_session(rng):
    # x2[x3] and its omega image; the scalar is one number either way
    x, y = rng.choice("he"), rng.choice("he")
    return [
        ["eval", "%s2[%s3]" % (x, x)],
        ["eval", "scalar(%s2[%s2], h2*h2)" % (x, y)],
        ["eval", "s[3,2]*h2", "--basis", "m", "--json"],
        ["inv", "--family", "sl", "--n", "2", "--r", "6"],
        ["inv", "--family", "perm", "--n", "3", "--functor", "h2",
         "--r", "3", "--basis", "p"],
        ["hilbert", "--family", "sl", "--n", "2", "--functor", "h4",
         "--r", "6"],
        ["deals", "--m", "3", "--n", "3", "--cycle-index"],
        ["regular", "--n", "4", "--k", "3", "--cycle-index"],
        ["table", "--r", "14"],
        ["selftest", "--max-degree", "8"],
    ]


# The ROADMAP's cap probe: h2[h30] has degree 60 and should be refused
# with exit 4 before any enumeration.  Kept out of cli_session, whose
# runs must not fail, and run as its own workload.
CAP_PROBE = ["eval", "h2[h30]", "--basis", "h"]
CAP_PROBE_DEADLINE_S = 5.0


def _grid_group(q):
    (kind, n), k, r = q[1], sum(q[2][1]), q[3]
    if (kind, n) in (("sl", 2), ("sp", 1)):
        return ("binary", k * r)  # both need s_(kr/2, kr/2)
    if kind == "perm":
        return ("perm", n)  # one plethysm series per n, grown on demand
    return (kind, n, k * r)


def _schur_group(q):
    if q[0] == "convert":
        return sum(q[1][1]) * sum(q[2][1])
    return sum(q[1][1]) * q[3]


def _shuffle(rng, qs, group):
    """qs in a seeded order that keeps each group's members in their
    listed order.  Queries in a group share memoized work, so the same
    query always pays for it and per-query latencies do not depend on
    the seed."""
    members = {}
    for q in qs:
        members.setdefault(group(q), []).append(q)
    slots = [group(q) for q in qs]
    rng.shuffle(slots)
    queues = {key: iter(value) for key, value in members.items()}
    return [next(queues[key]) for key in slots]


def queries(workload, seed):
    """The query list of one workload run.  Same seed, same list."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "invariants_grid":
        return _shuffle(rng, _grid(), _grid_group)
    if workload == "schur_expand":
        return _shuffle(rng, _schur_queries(rng), _schur_group)
    if workload == "cli_session":
        out = _cli_session(rng)
        rng.shuffle(out)
        return out
    raise ValueError("unknown workload %r" % (workload,))


# ---------------------------------------------------------------------
# running a query (inside a worker)
# ---------------------------------------------------------------------

def _family(spec):
    kind, n = spec
    return {"sl": SLnDefining, "sp": Sp2nDefining, "perm": SnPermutation}[kind](n)


def _symfn(spec):
    basis, parts = spec
    return generator(basis, parts)


class QueryError(str):
    """The repr of an exception a query raised, standing in for its answer."""


def encode(value):
    """A JSON form of an answer that keeps every digit."""
    if isinstance(value, QueryError):
        return {"error": str(value)}
    if isinstance(value, SymFn):
        return to_json_dict(value)
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    return str(Fraction(value))


def run_query(q, tracer=None):
    """Answer one in-process query.

    Without a tracer a query makes the calls a user would make.  With
    one, the benchmark splits it into its public calls and records a
    span for each; the answers must come out equal.
    """
    op = q[0]
    if op in ("hilbert", "inv"):
        family, F, r = _family(q[1]), _symfn(q[2]), q[3]
        if tracer is None:
            if op == "hilbert":
                return hilbert_dim(family, PolyFunctor(F), r)
            return inv_char_polyfunc(family, PolyFunctor(F), r)
        # hilbert_dim and inv_char_polyfunc, call by call
        call = tracer.call
        P = call("invariants.polyfunctor", PolyFunctor, F)
        G = call("invariants.inv_char", inv_char, family, r * P.degree)
        if op == "hilbert" and G.is_zero():
            return Fraction(0)
        Gp = call("symfunc.to_basis_p", to_basis, G, "p")
        if op == "inv":
            return call("plethysm.fundamental_p", fundamental,
                        P.character, Gp, r, "p")
        hr = one() if r == 0 else generator("h", (r,))
        f = call("plethysm.plethysm", plethysm, hr, P.character)
        return call("symfunc.scalar", scalar, f, Gp)
    call = tracer.call if tracer is not None else _plain_call
    if op == "convert":
        f = call("plethysm.plethysm", plethysm, _symfn(q[1]), _symfn(q[2]))
        return call("symfunc.to_basis_" + q[3], to_basis, f, q[3])
    if op == "modes":
        F = _symfn(q[1])
        G = call("symfunc.mul", _mul, _symfn(q[2][0]), _symfn(q[2][1]))
        via_p = call("plethysm.fundamental_p", fundamental, F, G, q[3], "p")
        via_s = call("plethysm.fundamental_s", fundamental, F, G, q[3], "s")
        return (via_p, via_s)
    raise ValueError("unknown query %r" % (q,))


def _plain_call(name, fn, *args):
    return fn(*args)


def _mul(a, b):
    return a * b


# ---------------------------------------------------------------------
# checking an answer (in the benchmark's parent process)
# ---------------------------------------------------------------------

def _z(mu):
    out = 1
    for part in set(mu):
        mult = mu.count(part)
        out *= part ** mult
        for i in range(2, mult + 1):
            out *= i
    return out


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _raw_p_terms(spec):
    """p expansion of h_k, e_k or s_21, written out here so the
    permutation oracle does not go through the library's base change."""
    basis, parts = spec
    if basis == "s":
        if list(parts) != [2, 1]:
            raise ValueError("no raw expansion for s%s" % (parts,))
        return {(1, 1, 1): Fraction(1, 3), (3,): Fraction(-1, 3)}
    k = parts[0]
    out = {}
    for mu in _partitions(k):
        sign = -1 if basis == "e" and (k - len(mu)) % 2 else 1
        out[mu] = Fraction(sign, _z(mu))
    return out


def check(q, answer):
    """None when the encoded answer is right, else what is wrong.

    Oracles from symf.oracles where one exists and is affordable;
    otherwise an independent route through the library (s mode against
    p mode, or a base change back to p).
    """
    from symf.oracles import (oracle_cayley_sylvester,
                              oracle_perm_inv_char_polyfunc,
                              oracle_plethysm_schur, oracle_su2_inv_char)
    if isinstance(answer, dict) and "error" in answer:
        return "raised " + answer["error"]
    op = q[0]
    if op in ("hilbert", "inv"):
        (kind, n), spec, r = q[1], q[2], q[3]
        family, F = _family(q[1]), _symfn(spec)
        k = F.degree()
        binary = (kind, n) in (("sl", 2), ("sp", 1)) and spec[0] == "h"
        perm_oracle = kind == "perm" and n <= 4 and k * r <= 8
        if op == "hilbert":
            got = Fraction(answer)
            if binary:
                want = Fraction(oracle_cayley_sylvester(spec[1][0], r))
            elif perm_oracle:
                char = oracle_perm_inv_char_polyfunc(n, _raw_p_terms(spec), r)
                want = scalar(char, generator("h", [r] if r else []))
            elif r == 0:
                want = Fraction(1)  # the constants
            else:
                # the s_(r) coefficient of the s mode character, which
                # fundamental builds from Schur plethysms in the p basis
                # without plethysm(), to_basis() or scalar()
                G = inv_char(family, r * k)
                want = fundamental(F, G, r, "s").coefficient([r])
            return None if got == want else "hilbert %s != %s" % (got, want)
        got = from_json_dict(answer)
        if binary:
            want = oracle_su2_inv_char(spec[1][0], r)
        elif perm_oracle:
            want = oracle_perm_inv_char_polyfunc(n, _raw_p_terms(spec), r)
        else:
            want = fundamental(F, inv_char(family, r * k), r, "s")
        return None if got == want else "character differs from %s" % want
    if op == "convert":
        got = from_json_dict(answer)
        if got.basis != q[3]:
            return "answer in basis %s, asked for %s" % (got.basis, q[3])
        f, g = q[1], q[2]
        want = plethysm(_symfn(f), _symfn(g))
        if to_basis(got, "p").terms != to_basis(want, "p").terms:
            return "round trip through p differs"
        a, b = f[1][0], g[1][0]
        if f[0] == g[0] and f[0] in "he" and a * b <= 8:
            oracle = oracle_plethysm_schur(f[0] * 2, a, b)
            if got != oracle:
                return "differs from the plethysm oracle"
        return None
    if op == "modes":
        via_p, via_s = (from_json_dict(a) for a in answer)
        if via_p.basis != "p" or via_s.basis != "s":
            return "modes returned bases %s, %s" % (via_p.basis, via_s.basis)
        return None if via_p == via_s else "p mode and s mode disagree"
    raise ValueError("unknown query %r" % (q,))
