"""Exact combinatorics of integer partitions and their t-cores.

Partitions are immutable Young diagrams with their hook lengths; the t-core
and t-quotient come from one division on bead positions, and the counting
series are exact big-integer tables.  On top of those sit the exact
distribution of the t-core size with its gamma-limit comparison,
hook-length residue statistics under the quotient-permutation action, and
an exactly uniform partition sampler.  The independent routes that check
them (the bit-word abacus, rim-hook walks, lattice points and the rest) are
not exported: they live in `tcores.oracles` and `tcores.abacus`, for
`tcores.verify` and the tests.
"""

from .partitions import (
    Cell,
    PartitionShape,
    conjugate,
    enumerate_partitions,
    hook_lengths,
    make_partition,
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
from .sampling import SamplerTable, build_sampler, sample_partition, unrank_partition

__version__ = "0.1.0"
