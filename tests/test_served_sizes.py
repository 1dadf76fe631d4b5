"""Division, cores, quotients and hooks at the n that `sample` and
`hooks --mode sample` serve, not only at the n <= 30 of the exhaustive
sweeps: a fixed set of uniform draws at n = 583 and 4000, each checked
against the classical identities for t = 2, 3 and 7.

DRAWS partitions are drawn at each n with seed SEED, indices 0..DRAWS-1, so
the test divides 2 * DRAWS = 8 shapes by three values of t and reads the
hooks of their drawn cells; at n = 583 it also strips each shape's rim
hooks.  It takes about 1 s, most of it the sampler table at n = 4000, which
is dropped afterwards.
"""
import pytest

from tcores import sampling
from tcores.corequotient import _divide, _positions, compose, decompose, is_core
from tcores.counting import f_t
from tcores.oracles import core_by_rim_stripping
from tcores.partitions import hook_lengths

SEED = 20240
DRAWS = 4
# rim-hook stripping rereads every hook after each strip: about 20 ms a
# shape at n = 583, far more at 4000
STRIP_MAX_N = 583


@pytest.fixture(scope="module", params=[583, 4000])
def draws(request):
    n = request.param
    table = sampling.build_sampler(n)
    shapes = [sampling.sample_partition(table, SEED, i) for i in range(DRAWS)]
    # each index's rank is its shape's, and its second value a cell of it
    cells = list(sampling.index_draws(SEED, DRAWS, table.total, n))
    yield table, shapes, cells
    sampling.clear_tables()


@pytest.mark.parametrize("t", [2, 3, 7])
def test_division_holds_on_uniform_draws(draws, t):
    _, shapes, _ = draws
    for shape in shapes:
        dc = decompose(shape, t)
        moved = sum(q.size for q in dc.quotient)
        assert compose(dc.core, dc.quotient, t) == shape
        positions = _positions(shape, t)
        assert positions == _divide(shape, t)[0]
        assert f_t(positions, t) == dc.core.size
        assert shape.size == dc.core.size + t * moved
        # James and Kerber 2.7: the hooks divisible by t number sum |q_i|
        assert sum(1 for h in hook_lengths(shape) if h % t == 0) == moved
        assert is_core(dc.core, t)
        assert is_core(shape, t) == (moved == 0)
        if shape.size <= STRIP_MAX_N:
            assert core_by_rim_stripping(shape, t) == dc.core


def test_hook_at_reads_the_drawn_cells(draws):
    table, shapes, cells = draws
    n = table.n
    for shape, (rank, cell) in zip(shapes, cells):
        assert sampling.unrank_partition(table, rank) == shape
        hooks = hook_lengths(shape)
        # the drawn cell, the first one, and every cell of the rows of width
        # 1 or 2 at the bottom, which the descent reads as its closed-form tail
        tail = sum(width for width in shape.parts if width <= 2)
        for at in (cell, 0, *range(n - tail, n)):
            assert sampling.hook_at(table, rank, at) == hooks[at], (rank, at)
