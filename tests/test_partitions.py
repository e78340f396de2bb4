import pytest

from symf.partitions import Partition, partition_count, partitions_of, z_of


def test_constructor_normalizes_and_validates():
    assert Partition([3, 1]) == (3, 1)
    assert Partition(()) == ()
    assert Partition((5,)).weight == 5
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))
    with pytest.raises(ValueError):
        Partition((True,))
    with pytest.raises(ValueError):
        Partition((2.0,))


def test_partitions_interoperate_with_tuples():
    assert Partition((2, 1)) == (2, 1)
    assert hash(Partition((2, 1))) == hash((2, 1))
    d = {Partition((2, 1)): "x"}
    assert d[(2, 1)] == "x"


def test_reverse_lexicographic_order():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(0) == [()]
    assert partitions_of(1) == [(1,)]


def test_enumerated_partitions_are_valid():
    # the enumeration builds its Partitions without validating them
    for n in range(21):
        shapes = partitions_of(n)
        assert all(type(lam) is Partition for lam in shapes)
        assert shapes == [Partition(list(lam)) for lam in shapes]
        assert {lam.weight for lam in shapes} == {n}


def test_counts_match_pentagonal_recurrence():
    # p(n) for small n, then the independent recurrence for the rest
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, want in enumerate(known):
        assert len(partitions_of(n)) == want
        assert partition_count(n) == want
    for n in range(11, 26):
        assert len(partitions_of(n)) == partition_count(n)


def test_counts_far_out_in_any_order():
    # a larger n first, then a smaller one the same table already holds
    assert partition_count(200) == 3972999029388
    assert partition_count(100) == 190569292


def test_max_part_restriction():
    assert partitions_of(5, max_part=2) == [(2, 2, 1), (2, 1, 1, 1),
                                            (1, 1, 1, 1, 1)]
    assert partitions_of(5, max_part=1) == [(1, 1, 1, 1, 1)]
    assert partitions_of(3, max_part=5) == partitions_of(3)


def test_weight_length_multiplicities():
    lam = Partition((4, 2, 2, 1))
    assert lam.weight == 9
    assert lam.length == 4
    assert lam.multiplicities() == {4: 1, 2: 2, 1: 1}
    assert Partition().weight == 0
    assert Partition().length == 0


def test_conjugate_is_an_involution():
    assert Partition((3, 1)).conjugate() == (2, 1, 1)
    assert Partition().conjugate() == ()
    for n in range(9):
        for lam in partitions_of(n):
            assert lam.conjugate().conjugate() == lam
            assert lam.conjugate().weight == n


def test_even_columns():
    # all column lengths even means the conjugate has only even parts
    assert Partition((2, 2)).has_even_columns()
    assert Partition((3, 3, 1, 1)).has_even_columns()
    assert not Partition((2, 1)).has_even_columns()
    assert not Partition((3,)).has_even_columns()
    assert Partition().has_even_columns()


def test_z_counts_permutations_by_cycle_type():
    # sum over cycle types of n!/z equals n!
    fact = 1
    for n in range(1, 9):
        fact *= n
        assert sum(fact // z_of(lam) for lam in partitions_of(n)) == fact
    assert z_of((3, 1)) == 3
    assert z_of((2, 2)) == 8
    assert z_of((1, 1, 1)) == 6
    assert z_of(()) == 1


def test_str_form():
    assert str(Partition((3, 1))) == "[3,1]"
    assert str(Partition()) == "[]"
