from collections import Counter

import pytest
from hypothesis import given, strategies as st

from tcores.partitions import (
    EMPTY,
    Cell,
    arm_length,
    conjugate,
    enumerate_partitions,
    hook_length,
    hook_lengths,
    leg_length,
    make_partition,
    remove_rim_hook,
    rim_hook_cells,
)

RUNNING = make_partition([5, 4, 4, 2, 1])

# hook numbers of (5,4,4,2,1), row-major
RUNNING_HOOKS = (9, 7, 5, 4, 1, 7, 5, 3, 2, 6, 4, 2, 1, 3, 1, 1)


@st.composite
def partitions(draw, max_n=40):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return EMPTY
    bins = draw(st.integers(min_value=1, max_value=n))
    assignment = draw(
        st.lists(st.integers(min_value=0, max_value=bins - 1), min_size=n, max_size=n)
    )
    counts = Counter(assignment)
    return make_partition(sorted(counts.values(), reverse=True))


def test_make_partition_running_example():
    assert RUNNING.size == 16
    assert RUNNING.parts == (5, 4, 4, 2, 1)


def test_make_partition_empty():
    assert make_partition([]) == EMPTY
    assert EMPTY.size == 0


def test_make_partition_rejects_increasing():
    with pytest.raises(ValueError):
        make_partition([3, 5])


@pytest.mark.parametrize("bad", [[0], [2, 0], [-1], [1, -2], [2.5, 1.9], ["3", "1"]])
def test_make_partition_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        make_partition(bad)


def test_conjugate_running_example():
    assert conjugate(RUNNING).parts == (5, 4, 3, 3, 1)


def test_conjugate_edge_cases():
    assert conjugate(EMPTY) == EMPTY
    assert conjugate(make_partition([6])).parts == (1,) * 6


@given(partitions())
def test_conjugate_involution(shape):
    flipped = conjugate(shape)
    assert flipped.size == shape.size
    assert conjugate(flipped) == shape


def test_hook_arm_leg_content_examples():
    assert hook_length(RUNNING, Cell(1, 1)) == 9
    assert hook_length(RUNNING, Cell(2, 1)) == 7
    assert hook_length(make_partition([1]), Cell(1, 1)) == 1
    assert arm_length(RUNNING, Cell(1, 1)) == 4
    assert leg_length(RUNNING, Cell(1, 1)) == 4


def test_hook_and_content_tables():
    assert hook_lengths(RUNNING) == RUNNING_HOOKS


def test_cell_outside_diagram_raises():
    for fn in (hook_length, arm_length, leg_length):
        with pytest.raises(ValueError):
            fn(RUNNING, Cell(6, 1))
        with pytest.raises(ValueError):
            fn(RUNNING, Cell(1, 6))


@given(partitions(max_n=25))
def test_arm_leg_hook_relation(shape):
    for cell in shape.cells():
        assert (
            arm_length(shape, cell) + leg_length(shape, cell) + 1
            == hook_length(shape, cell)
        )


def test_remove_rim_hook_examples():
    assert remove_rim_hook(RUNNING, Cell(2, 1)).parts == (5, 3, 1)
    assert remove_rim_hook(make_partition([1]), Cell(1, 1)) == EMPTY
    # ribbon of (1,2) in the 2x2 square is {(1,2),(2,2)}, checked against the
    # bead-swap rule; the cell (2,1) is the one whose ribbon is the bottom row
    assert remove_rim_hook(make_partition([2, 2]), Cell(1, 2)).parts == (1, 1)
    assert remove_rim_hook(make_partition([2, 2]), Cell(2, 1)).parts == (2,)


def test_rim_hook_cells_walk():
    ribbon = rim_hook_cells(RUNNING, Cell(2, 1))
    assert len(ribbon) == 7
    assert ribbon[0] == Cell(2, 4)   # arm node
    assert ribbon[-1] == Cell(5, 1)  # leg node


def test_remove_rim_hook_outside_raises():
    with pytest.raises(ValueError):
        remove_rim_hook(RUNNING, Cell(9, 9))


@pytest.mark.parametrize("n", range(11))
def test_remove_rim_hook_always_valid(n):
    for shape in enumerate_partitions(n):
        for cell in shape.cells():
            h = hook_length(shape, cell)
            assert len(rim_hook_cells(shape, cell)) == h
            smaller = remove_rim_hook(shape, cell)
            assert smaller.size == n - h


def test_enumerate_base_cases():
    assert list(enumerate_partitions(0)) == [EMPTY]
    assert [p.parts for p in enumerate_partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
    ]
    assert sum(1 for _ in enumerate_partitions(5)) == 7


def test_enumerate_rejects_negative():
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))


@pytest.mark.parametrize("n", range(16))
def test_enumerate_distinct_and_ordered(n):
    seen = list(enumerate_partitions(n))
    assert len(set(seen)) == len(seen)
    parts = [p.parts for p in seen]
    assert parts == sorted(parts, reverse=True)  # reverse-lexicographic
    assert all(p.size == n for p in seen)


@pytest.mark.parametrize("n", range(26))
def test_hook_multiset_invariant_under_conjugation(n):
    for shape in enumerate_partitions(n):
        hooks = hook_lengths(shape)
        assert len(hooks) == n
        assert sorted(hooks) == sorted(hook_lengths(conjugate(shape)))
