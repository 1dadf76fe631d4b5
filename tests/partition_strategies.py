"""The hypothesis strategy for random partitions shared by the unit tests."""
from collections import Counter

from hypothesis import strategies as st

from tcores.partitions import EMPTY, make_partition


@st.composite
def partitions(draw, max_n):
    """A partition of a drawn n <= max_n: n balls thrown into a drawn number
    of bins, the bin sizes sorted into parts."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return EMPTY
    bins = draw(st.integers(min_value=1, max_value=n))
    counts = Counter(
        draw(st.lists(st.integers(0, bins - 1), min_size=n, max_size=n))
    )
    return make_partition(sorted(counts.values(), reverse=True))
