"""Exact combinatorics of integer partitions and their t-cores.

The library computes with partitions through three interchangeable lenses:
Young diagrams (hooks, rim hooks), abacus words (runners, justification),
and counting series (exact big-integer tables).  On top of those sit the
exact distribution of the t-core size with its gamma-limit comparison,
hook-length residue statistics under the quotient-permutation action, and
an exactly uniform partition sampler.
"""

from .partitions import (
    Cell,
    PartitionShape,
    conjugate,
    enumerate_partitions,
    hook_length,
    hook_lengths,
    make_partition,
    remove_rim_hook,
)
from .abacus import (
    AbacusWord,
    TRunner,
    abacus_from_partition,
    merge_runners,
    partition_from_abacus,
    shift,
    split_runners,
)
from .corequotient import CoreQuotient, compose, core, decompose, is_core, quotient
from .counting import (
    SeriesTable,
    core_count_table,
    core_sum,
    divisible_count_table,
    f_t,
    partition_count_table,
)
from .distribution import (
    CoreSizePMF,
    GammaParams,
    cdf_sup_distance,
    core_size_pmf,
    expected_core_size,
    gamma_cdf,
    gamma_moment,
    gamma_params,
    scaled_moment,
)
from .hookstats import (
    act_on_divisible,
    act_on_partition,
    b_smoothing,
    canonical_smoothing,
    exact_residue_distribution,
    phi_map,
    residue_census,
    sampled_residue_distribution,
    small_hook_count,
)
from .oracles import lattice_core_count
from .sampling import SamplerTable, build_sampler, sample_partition, unrank_partition

__version__ = "0.1.0"
