"""The p-basis kernel multiply: answers and term order pinned, held
against a tuple-keyed reference multiply written here, and refused
before a part multiplicity could overflow its bit field.  The
reference also backs the property test of capped products in
test_properties.py.

The pins are sha256 digests of (key, value) lists in insertion order,
so a change to the kernel that keeps every answer but reorders terms
still fails them.
"""

import hashlib
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest

from symf.errors import ResourceLimitError
from symf.partitions import partitions_of, z_of
from symf.plethysm import (GradedSeries, fundamental, h_plus_series,
                           h_sum_series, plethysm, plethysm_series)
from symf.symfunc import (SymFn, _KEY_LIMIT, _mul_p, _p_dict, _pack, _packed,
                          _prod_h_p, _unpacked, generator, h, one, p, s,
                          to_basis)


def _digest(items):
    flat = repr([(tuple(k), v) for k, v in items]).encode()
    return hashlib.sha256(flat).hexdigest()[:16]


# f[g] base changes of the schur_expand benchmark workload
_CONVERTS = ((("h", [2]), ("h", [2])), (("h", [2]), ("h", [3])),
             (("h", [3]), ("h", [2])), (("h", [2]), ("s", [3, 1])),
             (("s", [2, 1]), ("h", [3])), (("h", [2]), ("s", [3, 2])),
             (("s", [2, 1]), ("h", [4])), (("h", [2]), ("s", [4, 3])),
             (("h", [4]), ("h", [4])))

_PLETHYSM_PINS = [
    "1ec4f148fb02cc7b", "68f62b1f864c29f7", "864d3b9b74b480e7",
    "ea0b03dece4d94b5", "151585e45a704498", "5f310fcd29acec42",
    "b0a0565bf380cd52", "0e0ca30bbabbe41e", "337b880e44c46a93",
]

_FUNDAMENTAL_PINS = {
    (2, 8, "h", "s"): "5541ff54f7c68b5b", (2, 8, "h", "p"): "99f1840123a68daa",
    (2, 8, "s", "s"): "4858688ea1c65f51", (2, 8, "s", "p"): "0418c2d53aa2bde7",
    (8, 2, "h", "s"): "50d33a557993a5f4", (8, 2, "h", "p"): "c706b8045871f593",
    (8, 2, "s", "s"): "16361def19568c01", (8, 2, "s", "p"): "02e6974292e1f821",
}

# per highest part n (None: all of 1 + h_1 + h_2 + ...), a digest of the
# (degree, term digest) lists of plethysm_series(h_sum_series(cap, n),
# h_plus_series(cap), cap) for caps 0..12; a capped ring drops the
# substituted terms above its cap, which could flip the shorter operand
# of a multiply and so the term order
_SERIES_PINS = {
    None: "2fc707dfa4b3beaf", 1: "8176a5d67ff6e141", 2: "417175a8a321a9a0",
    3: "45f5deb3297a51fc", 4: "dc612b60f1e3a7a6", 5: "48efa3f46709ac6b",
}


def test_plethysm_term_order_is_pinned():
    got = [_digest(plethysm(generator(*f), generator(*g)).terms.items())
           for f, g in _CONVERTS]
    assert got == _PLETHYSM_PINS


# to_basis(f[g], target) over _CONVERTS, per target basis
_TARGET_PINS = {
    "s": ["fc5135cac80201f7", "ceba484115a374a9", "2a4d2b46d671491e",
          "e91ae53abe3286e6", "394742f7ae976ea3", "00aae50129a2971e",
          "51458a9b34e5bf2e", "64c3d30d2c4b9c37", "21950c9325c29a2a"],
    "m": ["4b646102ec4e6a39", "d6ca65680c7dd51d", "2256401507c2c59f",
          "82f54ea891f8bfb8", "1b52a738be21eb81", "356db52ceb64d898",
          "4f3ac988fa656361", "52bd706ff5906d5e", "5b1a98e3f3213cae"],
    "h": ["0fd1af3fe10ec83c", "3951dcaf947787f0", "a542bad9cec5e4a7",
          "f6f0120bb7c7be96", "20c95654cb49c885", "55458b9a1bafcbcf",
          "30d07ea184809f9e", "fa05ad33d79021f3", "9042e9da4e9e61c9"],
    "e": ["0e431d8ac71a0877", "5cd2fed6a4a7fbcb", "a2c1283d34bb74a1",
          "827ba4c0fe778d50", "494326788d971fbe", "48be56dd6f1c3280",
          "20586203b7af633e", "9b83b516280f1886", "b831d23ae5d26eea"],
}


def test_target_term_order_is_pinned():
    got = {t: [_digest(to_basis(plethysm(generator(*f), generator(*g)),
                                t).terms.items()) for f, g in _CONVERTS]
           for t in _TARGET_PINS}
    assert got == _TARGET_PINS


def test_fundamental_term_order_is_pinned():
    got = {}
    for k, r in ((2, 8), (8, 2)):
        d = r * k
        G = h(d - d // 2) * h(d // 2)
        for name, F in (("h", h(k)), ("s", s(k - 1, 1))):
            for mode in "sp":
                got[k, r, name, mode] = _digest(
                    fundamental(F, G, r, mode).terms.items())
    assert got == _FUNDAMENTAL_PINS


def test_product_term_order_is_pinned():
    assert _digest((h(3) * s(2, 1)).terms.items()) == "e88af2db41919918"
    assert _digest(_prod_h_p((4, 3, 2)).items()) == "fde4e64687ba5149"
    got = {}
    for n in _SERIES_PINS:
        per_cap = [[(d, _digest(f.terms.items())) for d, f in plethysm_series(
            h_sum_series(cap, n), h_plus_series(cap), cap).components.items()]
            for cap in range(13)]
        got[n] = hashlib.sha256(repr(per_cap).encode()).hexdigest()[:16]
    assert got == _SERIES_PINS


# ---------------------------------------------------------------------
# the packed multiply against a tuple-keyed reference
# ---------------------------------------------------------------------

def _z(mu):
    # centralizer order, from the multiplicities
    return math.prod(i ** m * math.factorial(m)
                     for i, m in Counter(mu).items())


def _reference_mul(a, b, cap=None):
    # a_(mu+nu) += a_mu b_nu z_(mu+nu) / (z_mu z_nu) on part tuples, the
    # shorter side outer, pairs above the cap skipped, cancelled keys
    # deleted
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for mu, c in a.items():
        for nu, d in b.items():
            if cap is not None and sum(mu) + sum(nu) > cap:
                continue
            key = tuple(sorted(mu + nu, reverse=True))
            val = out.get(key, 0) + c * d * (_z(key) // (_z(mu) * _z(nu)))
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


def mul(a, b, cap=None):
    # the kernel product of part-tuple dicts, through packed keys
    return _unpacked(_mul_p(_packed(a), _packed(b), cap))


def _agrees(a, b):
    for cap in (None, *range(-1, 2 + max(map(sum, a), default=0)
                               + max(map(sum, b), default=0))):
        assert list(mul(a, b, cap).items()) == \
            list(_reference_mul(a, b, cap).items()), cap


def test_kernel_matches_the_reference_on_a_cancelling_product():
    # the key (1, 1) gets 2, then -2 and is deleted, then 5 and comes back
    # last; Fraction values and the empty partition ride along
    a = {(): 1, (1,): 1, (1, 1): 1}
    b = {(1, 1): 2, (1,): -1, (): 5}
    got = mul(a, b)
    assert list(got)[-1] == (1, 1) and got[(1, 1)] == 5
    _agrees(a, b)
    _agrees({(2,): Fraction(1, 3), (): Fraction(-2, 5)},
            {(2, 1): Fraction(3, 2), (1,): 1, (3,): Fraction(1, 7)})
    _agrees({(): 1}, {(): Fraction(1, 2)})
    _agrees({}, {(1,): 1})


def test_kernel_keys_are_multiplicity_fields():
    assert _pack(()) == 0
    assert _pack((3, 1, 1)) == 2 + _pack((3,))
    assert _pack((2,)) + _pack((1,)) == _pack((2, 1))
    for mu in map(tuple, partitions_of(7)):
        assert _unpacked({_pack(mu): 1}) == {mu: 1}


# ---------------------------------------------------------------------
# the bit-field overflow guard
# ---------------------------------------------------------------------

def test_last_packed_power_is_exact_and_the_next_is_refused():
    # the documented threshold: 7-bit fields, a part repeated 127 times
    # and no more
    assert _KEY_LIMIT == 128
    assert p(1) ** 127 == SymFn("p", {(1,) * 127: 1})
    with pytest.raises(ResourceLimitError,
                       match="a part repeated 128 times is beyond the cap 127"):
        p(1) ** 128


def test_spilling_operands_are_refused_before_packing(monkeypatch):
    # a part repeated 128 times would carry into the next field before
    # the multiply ran, so the kernel is never reached
    def unreachable(*args):
        raise AssertionError("_mul_p reached")
    monkeypatch.setattr(sys.modules["symf.symfunc"], "_mul_p", unreachable)
    monkeypatch.setattr(sys.modules["symf.plethysm"], "_mul_p", unreachable)
    refusals = [
        lambda: p(*[1] * 128) * one(),
        lambda: p(*[1] * 127) * p(1),
        lambda: to_basis(SymFn("h", {(1,) * 128: 1}), "p"),
        lambda: fundamental(p(*[1] * 64), p(*[1] * 128), 2),
        lambda: fundamental(p(*[1] * 64), p(*[1] * 128), 2, "s"),
        lambda: plethysm_series(GradedSeries(128, {2: p(1, 1)}),
                                GradedSeries(128, {64: p(*[1] * 64)}), 128),
    ]
    for refused in refusals:
        with pytest.raises(ResourceLimitError, match="a part repeated"):
            refused()


def test_products_that_repeat_no_part_128_times_are_kept():
    # the limit is on multiplicities, not on degree
    assert p(64) * p(64) == SymFn("p", {(64, 64): 1})
    assert p(100) * p(50) == SymFn("p", {(100, 50): 1})
    assert p(*[1] * 127) * one() == SymFn("p", {(1,) * 127: 1})
    assert p(*[2] * 64, *[1] * 64) * p(2, 1) == \
        SymFn("p", {(2,) * 65 + (1,) * 65: 1})
    assert to_basis(SymFn("h", {(1,) * 127: 1}), "p") == p(1) ** 127
    F, G = GradedSeries(200, {1: p(1)}), GradedSeries(200, {150: p(150)})
    assert plethysm_series(F, G, 200).component(150) == p(150)


def test_kernel_does_not_call_z_of(monkeypatch):
    # with the operands expanded, z_of is read only at the boundary: once
    # per term of f for the weights of f[g], once per term of the answer
    f = g = h(4)
    fp, want = _p_dict(f), plethysm(f, g)
    calls = []

    def spy(mu):
        calls.append(mu)
        return z_of(mu)
    monkeypatch.setattr(sys.modules["symf.symfunc"], "z_of", spy)
    assert plethysm(f, g) == want
    assert len(calls) == len(fp) + len(want.terms)
