"""The invariant character families and the functor engine.

For a group G acting on V, the S_r action on the G-invariants inside
the r-th tensor power of V has a Frobenius character I_r(V).  The four
built-in families compute it in closed form; inv_char_polyfunc pushes
any of them through a polynomial functor P, answering the same question
for P(V) without ever constructing the representation.
"""

from symf.invariants import (GLnAdjoint, PolyFunctor, SLnDefining,
                             SnPermutation, Sp2nDefining, inv_char,
                             inv_char_polyfunc)
from symf.symfunc import dimension, e, h, s, to_basis

print("= SL(2) on its defining plane =")
for r in range(0, 9):
    ch = inv_char(SLnDefining(2), r)
    print("  r=%d  dim %-4s %s" % (r, dimension(ch), to_basis(ch, "s")))
print("rectangles only, and the dimensions are Catalan numbers")
print()

print("= Sp(4): invariants come from perfect matchings =")
for q in range(1, 4):
    ch = inv_char(Sp2nDefining(2), 2 * q)
    print("  2q=%d  dim %-4s %s" % (2 * q, dimension(ch), ch))
print("stably the dimension at 2q is (2q-1)!!, here 1, 3, 15; the rank")
print("2 group drops to 14 at 2q=6 because one matching shape needs")
print("columns longer than 4")
print()

print("= S_3 permuting three points =")
for r in range(0, 6):
    ch = inv_char(SnPermutation(3), r)
    print("  r=%d  dim %-3s %s" % (r, dimension(ch), to_basis(ch, "h")))
print("dimensions are the Bell numbers with at most 3 blocks")
print()

print("= GL(n) adjoint, stably =")
ch = inv_char(GLnAdjoint(4), 4)
print("  r=4:", ch)
print("  every p_mu once, total dimension", dimension(ch))
print()

print("= pushing a family through a functor =")
# invariants of S_3 inside tensor powers of Sym^2(V), V the permutation
# representation, straight from the closed form for V itself
for P in (h(2), e(2), s(2, 1)):
    label = str(P)
    for r in (1, 2):
        ch = inv_char_polyfunc(SnPermutation(3), PolyFunctor(P), r)
        print("  P=%-7s r=%d  dim %-4s %s" % (label, r, dimension(ch), ch))
print()
print("the identity functor gives back the family itself:")
same = inv_char_polyfunc(SLnDefining(2), PolyFunctor(h(1)), 6)
print("  ", to_basis(same, "s"), "==", to_basis(inv_char(SLnDefining(2), 6), "s"))
