import pytest
from hypothesis import given, strategies as st

from partition_strategies import partitions
from tcores.abacus import (
    AbacusWord,
    TRunner,
    abacus_from_partition,
    inversion_pairs,
    justified_word,
    justify,
    make_word,
    merge_runners,
    partition_from_abacus,
    shift,
    split_runners,
)
from tcores import verify
from tcores.corequotient import core
from tcores.counting import f_t
from tcores.partitions import (
    EMPTY,
    hook_lengths,
    make_partition,
)

RUNNING = make_partition([5, 4, 4, 2, 1])
RUNNING_WORD = AbacusWord((0, 1, 0, 1, 0, 0, 1, 1, 0, 1), -5)


@st.composite
def words(draw):
    bits = draw(st.lists(st.integers(0, 1), min_size=0, max_size=24))
    offset = draw(st.integers(-12, 12))
    return make_word(bits, offset)


def test_running_example_word():
    assert abacus_from_partition(RUNNING) == RUNNING_WORD
    assert RUNNING_WORD.bit(0) == 0
    assert [RUNNING_WORD.bit(i) for i in range(-8, 8)] == [
        1, 1, 1, 0, 1, 0, 1, 0, 0,  # positions -8..0
        1, 1, 0, 1, 0, 0, 0,        # positions 1..7
    ]


def test_empty_partition_word():
    word = abacus_from_partition(EMPTY)
    assert word.is_justified and word.offset == 0


def test_word_reads_back():
    assert partition_from_abacus(RUNNING_WORD) == RUNNING
    assert partition_from_abacus(justified_word(-3)) == EMPTY
    for k in range(-3, 4):
        assert partition_from_abacus(shift(RUNNING_WORD, k)) == RUNNING


def test_canonical_validation():
    with pytest.raises(ValueError):
        AbacusWord((1, 0, 1), 0)   # leading 1 belongs to the tail
    with pytest.raises(ValueError):
        AbacusWord((0, 1, 0), 0)   # trailing 0 belongs to the tail
    assert make_word((1, 0, 1, 0), 0) == AbacusWord((0, 1), 1)


def test_shift_group_law():
    assert shift(justified_word(2), 5) == justified_word(-3)
    assert shift(shift(RUNNING_WORD, 2), -7) == shift(RUNNING_WORD, -5)


def test_inversion_pairs_match_hooks():
    word = abacus_from_partition(make_partition([2, 1]))
    pairs = inversion_pairs(word)
    assert len(pairs) == 3
    assert sorted(j - i for i, j in pairs) == sorted(hook_lengths(make_partition([2, 1])))
    # two adjacent 01 patterns, one per distinct part value
    adjacent = sum(
        1 for i in range(word.offset - 1, word.offset + len(word.window))
        if word.bit(i) == 0 and word.bit(i + 1) == 1
    )
    assert adjacent == 2


@pytest.mark.parametrize("n", range(18))
def test_pairs_biject_with_cells(n):
    assert verify.point("abacus_pair_statistics", n) is None


def test_split_matches_worked_runner_block():
    tr = split_runners(RUNNING_WORD, 3)
    assert [partition_from_abacus(r) for r in tr.runners] == [
        EMPTY,
        make_partition([1, 1, 1]),
        make_partition([1]),
    ]
    # bits of the three runners at positions -2..2
    assert [tr.runners[0].bit(i) for i in range(-2, 3)] == [1, 0, 0, 0, 0]
    assert [tr.runners[1].bit(i) for i in range(-2, 3)] == [0, 1, 1, 1, 0]
    assert [tr.runners[2].bit(i) for i in range(-2, 3)] == [1, 0, 1, 0, 0]


def test_split_matches_divisible_runner_block():
    word = abacus_from_partition(make_partition([7, 3, 2]))
    tr = split_runners(word, 3)
    assert [tr.runners[0].bit(i) for i in range(-2, 3)] == [1, 0, 0, 0, 1]
    assert [tr.runners[1].bit(i) for i in range(-2, 3)] == [1, 0, 1, 0, 0]
    assert [tr.runners[2].bit(i) for i in range(-2, 3)] == [1, 1, 0, 0, 0]


def test_split_rejects_small_t():
    with pytest.raises(ValueError):
        split_runners(RUNNING_WORD, 1)


@given(words(), st.integers(2, 6))
def test_merge_inverts_split(word, t):
    assert merge_runners(split_runners(word, t)) == word


@given(words())
def test_read_then_encode_is_balanced_form(word):
    shape = partition_from_abacus(word)
    balanced = abacus_from_partition(shape)
    assert partition_from_abacus(balanced) == shape
    # balanced: the canonical word of the partition re-reads identically
    assert abacus_from_partition(partition_from_abacus(balanced)) == balanced


def test_justification_positions_examples():
    runners = split_runners(abacus_from_partition(make_partition([1])), 3)
    justified = TRunner(3, tuple(justify(r)[0] for r in runners.runners))
    assert all(r.is_justified for r in justified.runners)
    assert tuple(r.offset for r in justified.runners) == (1, 0, -1)

    empty = split_runners(abacus_from_partition(EMPTY), 4)
    assert all(r.is_justified for r in empty.runners)
    assert tuple(r.offset for r in empty.runners) == (0, 0, 0, 0)

    vec = tuple(
        justify(r)[1]
        for r in split_runners(abacus_from_partition(make_partition([2, 1, 1])), 3).runners
    )
    assert sum(vec) == 0
    assert f_t(vec, 3) == 4
    assert core(RUNNING, 3) == make_partition([2, 1, 1])


@given(partitions(max_n=30))
def test_roundtrip_on_random_partitions(shape):
    word = abacus_from_partition(shape)
    assert partition_from_abacus(word) == shape


@pytest.mark.parametrize("n", range(15))
def test_zeros_ones_between_pair_are_arm_and_leg(n):
    assert verify.point("abacus_pair_statistics", n) is None
