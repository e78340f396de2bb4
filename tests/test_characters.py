import copy
import importlib
import json
import os
import pickle
import pkgutil
import warnings
from collections import Counter
from decimal import Decimal

import pytest
from fractions import Fraction

import symf
from symf.characters import (CACHE_FORMAT_VERSION, CHAR_TABLE_CAP,
                             CharacterTable, RepCharacter, _column,
                             _load_table, _mask, _strip_table, _strips,
                             cache_dir, char_of_functor, character_table,
                             chi, schur_functor_char)
from symf.errors import ResourceLimitError
from symf.invariants import SnPermutation, Sp2nDefining, hilbert_dim, inv_char
from symf.oracles import oracle_syt
from symf.partitions import (_MEMOS, Partition, _positions, _reset_memo,
                             partitions_of, z_of)
from symf.plethysm import fundamental, plethysm
from symf.symfunc import _schur_p, e, h, p, s, scalar, to_basis


def test_small_tables_are_the_classical_ones():
    # S_3, rows indexed by shape, columns by class in the same order
    t3 = character_table(3)
    assert list(t3.row((3,)).values()) == [1, 1, 1]
    assert list(t3.row((2, 1)).values()) == [-1, 0, 2]
    assert list(t3.row((1, 1, 1)).values()) == [1, -1, 1]
    t4 = character_table(4)
    assert list(t4.row((2, 2)).values()) == [0, -1, 2, 0, 2]
    assert list(t4.row((3, 1)).values()) == [-1, 0, -1, 1, 3]
    assert list(t4.row((2, 2))) == partitions_of(4)


def test_chi_validates_weights():
    assert chi((2, 1), (1, 1, 1)) == 2
    assert chi((2, 1), (3,)) == -1
    with pytest.raises(ValueError):
        chi((2, 1), (2, 2))


def test_chi_refuses_classes_of_128_parts(monkeypatch):
    # _chi recurses once per part of mu, so a class as long as the
    # recursion limit would raise RecursionError; 127 parts still answer
    assert chi((127,), (1,) * 127) == 1
    assert chi((1,) * 127, (1,) * 127) == 1

    def refused(*args):
        raise AssertionError("recursed on %r" % (args,))
    monkeypatch.setattr(symf.characters, "_chi", refused)
    for lam, mu in (((128,), (1,) * 128), ((1000,), (1,) * 1000),
                    ((64, 64), (1,) * 128)):
        with pytest.raises(ResourceLimitError,
                           match="class of %d parts is beyond the cap 127"
                           % len(mu)):
            chi(lam, mu)


def test_trivial_and_sign_rows():
    for r in range(1, 9):
        for mu in partitions_of(r):
            assert chi((r,), mu) == 1
            assert chi(tuple([1] * r), mu) == (-1) ** (r - mu.length)


def test_first_column_is_tableaux_count():
    for r in range(1, 10):
        ones = tuple([1] * r)
        for lam in partitions_of(r):
            assert chi(lam, ones) == oracle_syt(lam)


def test_orthogonality_relations():
    for r in range(1, 9):
        shapes = partitions_of(r)
        table = character_table(r)
        for a in shapes:
            for b in shapes:
                first = sum(Fraction(table.value(a, mu) * table.value(b, mu),
                                     z_of(mu)) for mu in shapes)
                assert first == (1 if a == b else 0)
        for mu in shapes:
            for nu in shapes:
                second = sum(table.value(lam, mu) * table.value(lam, nu)
                             for lam in shapes)
                assert second == (z_of(mu) if mu == nu else 0)


def test_table_accessors():
    table = character_table(4)
    assert table.r == 4
    assert table.shapes() == partitions_of(4)
    assert table[(2, 2), (1, 1, 1, 1)] == 2
    assert table.value((4,), (2, 1, 1)) == 1
    assert isinstance(table, CharacterTable)


def test_table_accessors_refuse_partitions_of_another_weight():
    table = character_table(4)
    for lookup, bad in ((lambda: table.value((3,), (1, 1, 1)), "[3]"),
                        (lambda: table.value((4,), (3, 2)), "[3,2]"),
                        (lambda: table[(2, 1), (1, 1, 1, 1)], "[2,1]"),
                        (lambda: table.row((5,)), "[5]"),
                        (lambda: table.row(()), "[]")):
        with pytest.raises(ValueError) as info:
            lookup()
        assert str(info.value) == "%s is not a partition of r=4" % bad


def _strip_removals_by_beta_sets(lam, size):
    # the reference: move one beta number b down to b - size in the set
    # of beta numbers and read the partition back off the sorted set
    n = len(lam)
    beta = [lam[i] + n - 1 - i for i in range(n)]
    out = []
    for b in beta:
        nb = b - size
        if nb < 0 or nb in beta:
            continue
        crossed = sum(1 for x in beta if nb < x < b)
        newbeta = sorted(set(beta) - {b} | {nb}, reverse=True)
        parts = [newbeta[i] - (n - 1 - i) for i in range(n)]
        out.append((tuple(a for a in parts if a > 0), (-1) ** crossed))
    return tuple(out)


def _shape(mask):
    # the partition whose beta-set mask is `mask`, bit 0 clear
    beta = [b for b in range(mask.bit_length()) if mask >> b & 1][::-1]
    n = len(beta)
    return tuple(b - (n - 1 - i) for i, b in enumerate(beta))


def test_strips_match_the_beta_set_reference():
    # as a multiset: the masks are walked from the bottom row up
    for d in range(15):
        for lam in partitions_of(d):
            assert _shape(_mask(lam)) == lam
            for size in range(1, d + 2):
                got = Counter((_shape(sub), sign)
                              for sub, sign in _strips(_mask(lam), size))
                assert got == Counter(
                    _strip_removals_by_beta_sets(lam, size)), (lam, size)


def test_strip_tables_match_the_beta_set_reference():
    # each shape's entries, as a multiset of (position, sign), are its
    # strips moved in its beta set
    for d in range(15):
        shapes = partitions_of(d)
        for size in range(1, d + 1):
            pos = _positions(d - size)
            got = [Counter() for _ in shapes]
            for i, j, sign in _strip_table(d, size):
                got[i][j, sign] += 1
            want = [Counter((pos[sub], sign) for sub, sign
                            in _strip_removals_by_beta_sets(lam, size))
                    for lam in shapes]
            assert got == want, (d, size)


def test_columns_are_the_chi_values():
    for d in range(13):
        shapes = partitions_of(d)
        for mu in shapes:
            assert _column(mu) == [chi(lam, mu) for lam in shapes], mu


def test_cold_tables_match_the_chi_rows(fresh_cache):
    for r in range(11):
        shapes = partitions_of(r)
        assert character_table(r).rows == tuple(
            tuple(chi(lam, mu) for mu in shapes) for lam in shapes), r


def test_table_refuses_assignment_and_round_trips():
    table = character_table(3)
    with pytest.raises(AttributeError):
        table.rows = ((99,),)
    with pytest.raises(AttributeError):
        del table.r
    assert character_table(3).rows[0] == (1, 1, 1)
    for again in (copy.copy(table), copy.deepcopy(table),
                  pickle.loads(pickle.dumps(table))):
        assert (again.r, again.rows) == (3, table.rows)
        assert again.row((2, 1)) == table.row((2, 1))
        assert again == table
    assert repr(table) == "CharacterTable(r=3)"
    # rows given as lists are held as tuples, and tables compare by value
    built = CharacterTable(3, [list(row) for row in table.rows])
    assert built.rows == table.rows and built == table
    assert built != character_table(4)


def test_cap_is_enforced():
    with pytest.raises(ResourceLimitError):
        character_table(CHAR_TABLE_CAP + 1)


def test_reset_forgets_the_schur_rows():
    # the p rows of Schur functions are read from chi, and go with it
    before = to_basis(s(4, 2, 1), "p")
    assert _schur_p.cache_info().currsize > 0
    _reset_memo()
    assert _schur_p.cache_info().currsize == 0
    assert to_basis(s(4, 2, 1), "p") == before


# Memos left out of the registry on purpose: partitions, their
# positions, z_mu and the oracles' permutation lists, deal matrices and
# counts depend only on their integer arguments, and the registry itself
# lists the others.
KEPT_MEMOS = {
    "symf.partitions.z_of", "symf.partitions._partitions_of",
    "symf.partitions._positions",
    "symf.partitions._COUNTS", "symf.partitions._MEMOS",
    "symf.oracles._symmetric_group", "symf.oracles._deal_matrices",
    "symf.oracles._bounded_partition_count",
}


def _module_memos():
    # every lru_cache defined at module level in symf, and every module
    # level dict, list or set
    out = {}
    for info in pkgutil.iter_modules(symf.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("symf." + info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                if value.__module__ == module.__name__:
                    out[module.__name__ + "." + name] = value
            elif (isinstance(value, (dict, list, set))
                  and not name.startswith("__")):
                out[module.__name__ + "." + name] = value
    return out


def _memo_size(memo):
    if hasattr(memo, "cache_info"):
        return memo.cache_info().currsize
    return len(memo)


def test_reset_clears_every_memo_not_kept_on_purpose():
    # every module level memo is registered or kept, and every registered
    # memo is a module level one
    memos = _module_memos()
    assert KEPT_MEMOS <= memos.keys()
    cleared = {name: memo for name, memo in memos.items()
               if any(memo is m for m in _MEMOS)}
    assert memos.keys() - cleared.keys() == KEPT_MEMOS
    assert {id(memo) for memo in cleared.values()} == set(map(id, _MEMOS))
    assert {"symf.symfunc._prod_h_p", "symf.symfunc._raise_table",
            "symf.symfunc._key", "symf.symfunc._schur_p",
            "symf.characters._chi", "symf.characters._expand",
            "symf.characters._strip_table", "symf.characters._strips",
            "symf.characters._beta_positions",
            "symf.characters._table",
            "symf.plethysm._key_of", "symf.plethysm._products",
            "symf.symfunc._packed_vector",
            "symf.symfunc._halves"} <= cleared.keys()
    character_table(4)
    to_basis(p(2, 1), "s")
    to_basis(h(3, 2) * s(2, 1) + e(2), "m")
    inv_char(SnPermutation(2), 4)
    fundamental(h(2), h(2, 2), 2)
    assert all(_memo_size(memo) for memo in cleared.values())
    _reset_memo()
    assert {name: _memo_size(memo) for name, memo in cleared.items()} == \
        dict.fromkeys(cleared, 0)


# Upper bounds on the memo misses of a query run after _reset_memo():
# work counted, not timed, so a change that does more of it fails here
# on any machine.  Memos not named must miss 0 times.  A change that
# raises a bound says so, and why, in CHANGES.md.
MISSES = {
    "hilbert_dim(Sp2nDefining(20), h(2), 12)": (
        lambda: hilbert_dim(Sp2nDefining(20), h(2), 12),
        {"_chi": 278286, "_strips": 12649, "_key": 1491, "_key_of": 504,
         "_schur_p": 77, "_prod_h_p": 2}),
    "scalar(p(9, 9, 9, 9), s(9, 9, 9, 9))": (
        lambda: scalar(p(9, 9, 9, 9), s(9, 9, 9, 9)),
        {"_chi": 152326, "_strips": 3743, "_schur_p": 1}),
    'to_basis(plethysm(h(4), h(4)), "s")': (
        lambda: to_basis(plethysm(h(4), h(4)), "s"),
        {"_expand": 258, "_key": 176, "_packed_vector": 109,
         "_strip_table": 56, "_beta_positions": 17, "_prod_h_p": 2,
         "_halves": 1}),
    'fundamental(h(2), h(8) * h(8), 8, "s")': (
        lambda: fundamental(h(2), h(8) * h(8), 8, "s"),
        {"_key": 355, "_key_of": 167, "_expand": 44, "_strip_table": 24,
         "_packed_vector": 22, "_beta_positions": 9, "_prod_h_p": 4,
         "_products": 1, "_halves": 1}),
}


@pytest.mark.parametrize("query", MISSES)
def test_memo_misses_stay_within_their_bounds(query):
    run, bounds = MISSES[query]
    _reset_memo()
    try:
        run()
        misses = {memo.__name__: memo.cache_info().misses for memo in _MEMOS}
    finally:
        _reset_memo()
    assert len(misses) == len(_MEMOS)  # one name per memo
    assert bounds.keys() <= misses.keys()
    over = {name: (count, bounds.get(name, 0))
            for name, count in misses.items() if count > bounds.get(name, 0)}
    assert not over, over


def test_cache_file_round_trip(fresh_cache):
    character_table(5)
    path = os.path.join(str(fresh_cache), "chartable-r5.json")
    assert os.path.exists(path)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["version"] == CACHE_FORMAT_VERSION
    assert doc["r"] == 5
    shapes = partitions_of(5)
    assert doc["rows"] == [[chi(lam, mu) for mu in shapes] for lam in shapes]
    # a fresh process would load rather than rebuild; simulate with the
    # memo cleared and check the values survive the disk trip
    built = character_table(5).rows
    _reset_memo()
    again = character_table(5)
    assert again.rows == built
    assert again.row((3, 2)) == RepCharacter.irreducible((3, 2)).trace


def test_cache_file_is_the_json_text_of_the_document(fresh_cache):
    # written row by row, the file holds the bytes json.dumps gives
    for r in range(9):
        rows = character_table(r).rows
        with open(os.path.join(str(fresh_cache), "chartable-r%d.json" % r),
                  "rb") as fh:
            text = fh.read()
        doc = {"version": CACHE_FORMAT_VERSION, "r": r,
               "rows": [list(row) for row in rows]}
        assert text == json.dumps(doc).encode("ascii"), r


def test_corrupt_cache_is_rebuilt(fresh_cache):
    character_table(4)
    path = os.path.join(str(fresh_cache), "chartable-r4.json")
    # not JSON, then JSON that is not an object
    for text in ["{ not json", "[]", '"x"', "3", "null"]:
        with open(path, "w") as fh:
            fh.write(text)
        _reset_memo()
        assert _load_table(4) is None, text
        table = character_table(4)
        assert list(table.row((2, 2)).values()) == [0, -1, 2, 0, 2]
        assert _load_table(4) == [list(row) for row in table.rows], text


def test_version_mismatch_is_rebuilt(fresh_cache):
    character_table(4)
    path = os.path.join(str(fresh_cache), "chartable-r4.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["version"] = CACHE_FORMAT_VERSION + 1
    with open(path, "w") as fh:
        json.dump(doc, fh)
    _reset_memo()
    assert _load_table(4) is None
    assert list(character_table(4).row((4,)).values()) == [1, 1, 1, 1, 1]


def test_truncated_cache_is_rebuilt(fresh_cache):
    character_table(4)
    path = os.path.join(str(fresh_cache), "chartable-r4.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["rows"] = doc["rows"][:3]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    _reset_memo()
    assert _load_table(4) is None


R4 = [[chi(lam, mu) for mu in partitions_of(4)] for lam in partitions_of(4)]


@pytest.mark.parametrize("doctor", [
    lambda rows: rows[1].__setitem__(4, float(rows[1][4])),
    lambda rows: rows[1].__setitem__(0, 1.5),
    lambda rows: rows[0].__setitem__(0, True),
    lambda rows: rows[2].__setitem__(1, "7"),
    lambda rows: rows[3].pop(),
    lambda rows: rows[3].append(0),
    lambda rows: rows.pop(2),
    lambda rows: rows.append(list(rows[0])),
    lambda rows: rows.__setitem__(0, 5),
], ids=["integral_float", "float", "bool", "string", "short_row", "long_row",
        "missing_row", "extra_row", "row_not_list"])
def test_inexact_cache_is_rebuilt(fresh_cache, doctor):
    # values are refused, never coerced: int(1.5), int(True) and int("7")
    # would all have passed for integers
    character_table(4)
    path = os.path.join(str(fresh_cache), "chartable-r4.json")
    with open(path) as fh:
        doc = json.load(fh)
    doctor(doc["rows"])
    with open(path, "w") as fh:
        json.dump(doc, fh)
    _reset_memo()
    assert _load_table(4) is None
    assert [list(row) for row in character_table(4).rows] == R4
    _reset_memo()
    assert _load_table(4) == R4


def test_v1_cache_is_rewritten_as_v2(fresh_cache):
    shapes = partitions_of(4)
    entries = [{"lambda": list(lam), "mu": list(mu), "value": chi(lam, mu)}
               for lam in shapes for mu in shapes]
    os.makedirs(str(fresh_cache))
    path = os.path.join(str(fresh_cache), "chartable-r4.json")
    with open(path, "w") as fh:
        json.dump({"version": 1, "r": 4, "entries": entries}, fh)
    assert _load_table(4) is None
    assert [list(row) for row in character_table(4).rows] == R4
    with open(path) as fh:
        assert json.load(fh) == {"version": 2, "r": 4, "rows": R4}


def test_unwritable_cache_warns_but_serves(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("plain file")
    monkeypatch.setenv("SYMF_CACHE_DIR", str(blocker / "sub"))
    _reset_memo()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = character_table(3)
        assert list(table.row((3,)).values()) == [1, 1, 1]
        assert any("persist" in str(w.message) for w in caught)
    finally:
        _reset_memo()


def test_cache_dir_resolution(monkeypatch):
    monkeypatch.setenv("SYMF_CACHE_DIR", "/tmp/explicit")
    assert cache_dir() == "/tmp/explicit"
    monkeypatch.delenv("SYMF_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg")
    assert cache_dir() == os.path.join("/tmp/xdg", "symf")
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert cache_dir().endswith(os.path.join(".cache", "symf"))


def test_rep_characters():
    assert RepCharacter.trivial(3).trace == {Partition((3,)): 1,
                                             Partition((2, 1)): 1,
                                             Partition((1, 1, 1)): 1}
    assert RepCharacter.sign(3).trace[Partition((2, 1))] == -1
    reg = RepCharacter.regular(3)
    assert reg.trace[Partition((1, 1, 1))] == 6
    assert reg.trace[Partition((3,))] == 0
    both = RepCharacter.trivial(2) + RepCharacter.sign(2)
    assert both.trace[Partition((1, 1))] == 2
    assert both.trace[Partition((2,))] == 0
    with pytest.raises(ValueError):
        RepCharacter.trivial(2) + RepCharacter.trivial(3)
    with pytest.raises(ValueError):
        RepCharacter(2, {(3,): 1})


def test_char_of_functor_frobenius_images():
    # trivial -> h_r, sign -> e_r, regular -> p_1^r, irreducible -> s_lam
    for r in range(1, 6):
        assert char_of_functor(RepCharacter.trivial(r)) == h(r)
        assert char_of_functor(RepCharacter.sign(r)) == e(r)
        assert char_of_functor(RepCharacter.regular(r)) == p(*([1] * r))
    for lam in partitions_of(4):
        assert char_of_functor(RepCharacter.irreducible(lam)) == s(*lam)
        assert schur_functor_char(lam) == s(*lam)


def test_char_of_functor_refuses_inexact_traces():
    # the traces are user input: inexact ones are refused, zero or not,
    # and a zero trace leaves no term
    for v in (0.5, Decimal("0.5"), 1j, 0.0):
        with pytest.raises(TypeError):
            char_of_functor(RepCharacter(2, {(2,): v, (1, 1): 1}))
    f = char_of_functor(RepCharacter(2, {(2,): 0, (1, 1): 4}))
    assert list(f.terms.items()) == [(Partition((1, 1)), Fraction(2))]
    assert type(next(iter(f.terms))) is Partition
