import pytest
from conftest import padded, partitions_of
from hypothesis import given
from hypothesis import strategies as st

from schurcert.errors import ValidationError
from schurcert.partitions import Partition
from schurcert.scenario import parse_partition


def test_trailing_zeros_are_stripped():
    assert Partition([2, 1, 0, 0]) == Partition([2, 1])
    assert hash(Partition([2, 1, 0])) == hash(Partition([2, 1]))
    assert Partition([0]) == Partition([])
    assert Partition([0]).parts == ()


def test_weight_length_maxpart():
    lam = Partition([3, 1, 1])
    assert lam.weight == 5
    assert len(lam) == 3
    assert lam.max_part == 3
    assert Partition([]).weight == 0
    assert Partition([]).max_part == 0


def test_rejects_bad_sequences():
    with pytest.raises(ValidationError):
        Partition([1, 2])
    with pytest.raises(ValidationError):
        Partition([2, -1])


def test_parse_and_format_roundtrip():
    assert parse_partition("2,1,0") == Partition([2, 1])
    assert parse_partition(" 3 , 3 ") == Partition([3, 3])
    assert Partition([2, 1]).format() == "2,1"
    assert Partition([]).format() == "0"
    assert parse_partition("0") == Partition([])
    with pytest.raises(ValidationError):
        parse_partition("")
    with pytest.raises(ValidationError):
        parse_partition("a,b")


def test_rank_validity():
    Partition([2, 1]).require_rank(2)
    with pytest.raises(ValidationError):
        Partition([3]).require_rank(2)


def test_conjugate_known_values():
    assert Partition([3, 1]).conjugate() == Partition([2, 1, 1])
    assert Partition([2, 2]).conjugate() == Partition([2, 2])
    assert Partition([]).conjugate() == Partition([])
    assert Partition([1, 1, 1]).conjugate() == Partition([3])


@given(st.lists(st.integers(min_value=0, max_value=6), max_size=6))
def test_conjugate_is_an_involution(parts):
    lam = Partition(sorted(parts, reverse=True))
    assert lam.conjugate().conjugate() == lam


def test_partitions_of_enumeration():
    assert sorted(p.parts for p in partitions_of(4)) == sorted(
        [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    )
    assert [p.parts for p in partitions_of(3, max_part=2)] == [(2, 1), (1, 1, 1)]
    assert list(partitions_of(0)) == [Partition([])]


def test_padded():
    assert padded(Partition([2, 1]), 4) == (2, 1, 0, 0)
    with pytest.raises(ValidationError):
        padded(Partition([2, 1]), 1)
