"""The immutable value classes: invariant families, enumeration specs and
expression nodes.

Each compares, hashes, prints and pickles by its field values, takes its
fields positionally or by keyword, and refuses assignment and deletion.
"""

import copy
import pickle

import pytest

from symf.enumeration import DealSpec, RegularGraphSpec
from symf.expr import BasisAtom, BinOp, Call, Num, PartitionLit, Pleth
from symf.invariants import (Custom, GLnAdjoint, SLnDefining, SnPermutation,
                             Sp2nDefining)
from symf.partitions import Partition
from symf.plethysm import h_sum_series

SERIES = h_sum_series(3)

# (class, field names, positional values, repr of the instance)
CASES = [
    (SLnDefining, ("n",), (2,), "SLnDefining(n=2)"),
    (Sp2nDefining, ("n",), (3,), "Sp2nDefining(n=3)"),
    (SnPermutation, ("n",), (4,), "SnPermutation(n=4)"),
    (GLnAdjoint, ("n",), (3,), "GLnAdjoint(n=3)"),
    (Custom, ("series",), (SERIES,), "Custom(series=%r)" % (SERIES,)),
    (DealSpec, ("m", "n"), (2, 3), "DealSpec(m=2, n=3)"),
    (RegularGraphSpec, ("n", "k"), (4, 0), "RegularGraphSpec(n=4, k=0)"),
    (Num, ("value",), (7,), "Num(value=7)"),
    (BasisAtom, ("basis", "parts"), ("s", Partition((2, 1))),
     "BasisAtom(basis='s', parts=Partition([2, 1]))"),
    (PartitionLit, ("parts",), (Partition((3,)),),
     "PartitionLit(parts=Partition([3]))"),
    (BinOp, ("op", "left", "right"), ("+", Num(1), Num(2)),
     "BinOp(op='+', left=Num(value=1), right=Num(value=2))"),
    (Pleth, ("outer", "inner"), (Num(1), Num(2)),
     "Pleth(outer=Num(value=1), inner=Num(value=2))"),
    (Call, ("func", "args"), ("dim", (Num(3),)),
     "Call(func='dim', args=(Num(value=3),))"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)
def test_value_semantics(cls, names, values, text):
    obj = cls(*values)
    assert repr(obj) == text
    assert tuple(getattr(obj, name) for name in names) == values
    same = cls(**dict(zip(names, values)))
    assert same == obj and not same != obj
    assert hash(same) == hash(obj) == hash(values)
    assert len({obj, same}) == 1
    assert obj != values and obj != object()


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)
def test_frozen(cls, names, values, text):
    obj = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, values[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert tuple(getattr(obj, name) for name in names) == values


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)
def test_pickle_and_copy(cls, names, values, text):
    obj = cls(*values)
    assert copy.copy(obj) == obj
    copies = [copy.deepcopy(obj)]
    copies += [pickle.loads(pickle.dumps(obj, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls
        if cls is Custom:  # a GradedSeries compares by identity
            assert other.series.components == SERIES.components
        else:
            assert other == obj and repr(other) == text


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)
def test_positional_match(cls, names, values, text):
    assert cls.__match_args__ == names
    match cls(*values):
        case cls(first):
            assert first == values[0]
        case _:
            pytest.fail("positional pattern did not match")


def test_match_tells_classes_apart():
    def name(family):
        match family:
            case SLnDefining(n):
                return "sl%d" % n
            case Sp2nDefining(n):
                return "sp%d" % n
            case GLnAdjoint(n):
                return "gl%d" % n
        return None

    assert name(SLnDefining(2)) == "sl2"
    assert name(Sp2nDefining(2)) == "sp2"
    assert name(GLnAdjoint(3)) == "gl3"
    assert name(SnPermutation(2)) is None


def test_nested_fields_compare_hash_and_print_as_tuples():
    # records inside the plain tuples of other records, as Call holds
    # its arguments
    tree = Call("f", (Num(1), Call("g", (Num(2),))))
    values = ("f", (Num(1), Call("g", (Num(2),))))
    assert tree == Call(*values) and hash(tree) == hash(values)
    assert repr(tree) == ("Call(func='f', args=(Num(value=1), "
                          "Call(func='g', args=(Num(value=2),))))")
    for other in (Call("f", (Num(1),)), Call("f", (Num(1), Num(2))),
                  Call("f", (Num(1), Call("g", (Num(2), Num(2))))),
                  Call("f", (Num(1), Call("g", ()))),
                  Call("f", (Num(1), Call("h", (Num(2),)))),
                  Call("f", (Num(1), (Num(2),)))):
        assert tree != other and other != tree
        assert not tree == other


def test_distinct_classes_are_unequal():
    assert SLnDefining(2) != Sp2nDefining(2)
    assert SnPermutation(2) != SLnDefining(2)
    assert DealSpec(2, 2) != RegularGraphSpec(2, 2)
    assert PartitionLit(Partition((2,))) != BasisAtom("h", Partition((2,)))
    assert len({SLnDefining(2), Sp2nDefining(2), SnPermutation(2)}) == 3


def test_defaults_and_keywords():
    assert DealSpec(n=3, m=2) == DealSpec(2, 3)
    for bad in (lambda: SLnDefining(), lambda: SLnDefining(1, 2),
                lambda: SLnDefining(1, n=1), lambda: SLnDefining(m=1),
                lambda: GLnAdjoint(stable=False), lambda: Num()):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("make,message", [
    (lambda: SLnDefining(0), "SL(n) needs n >= 1"),
    (lambda: Sp2nDefining(0), "Sp(2n) needs n >= 1"),
    (lambda: SnPermutation(-1), "the permutation family needs n >= 1"),
    (lambda: GLnAdjoint(0), "GL(n) needs n >= 1"),
    (lambda: DealSpec(0, 2), "deal specs need m >= 1 and n >= 1"),
    (lambda: DealSpec(m=2, n=0), "deal specs need m >= 1 and n >= 1"),
    (lambda: RegularGraphSpec(0, 2), "graph specs need n >= 1 and k >= 0"),
    (lambda: RegularGraphSpec(2, -1), "graph specs need n >= 1 and k >= 0"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
