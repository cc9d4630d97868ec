"""parkfn: random parking functions — sampling, exact enumeration,
statistics, ensemble comparisons, and limit-law numerics."""

from .core import (
    DyckCoding,
    ParkingFunction,
    ParkOutcome,
    PrefSequence,
    dyck_decode,
    dyck_encode,
    inconvenience,
    is_parking_function,
    park,
    queue_profile,
)
from .sample import (
    RngStream,
    find_valid_shift,
    sample_parking_function,
    sample_uniform_function,
    shift_sequence,
    split_stream,
)
from .stats import (
    ShuffleDecomposition,
    descent_pattern,
    descents,
    inversions,
    longest_run,
    lucky,
    max_discrepancy,
    max_first_coordinate,
    ones,
    repeats,
    scaled_area,
    species,
    value_counts,
)
from .enumeration import (
    CapacityError,
    abel_identity_check,
    count_first,
    count_pf,
    descent_pattern_prob,
    enumerate_pf,
    exact_mean_first,
    gf_closed_form,
    gf_statistic,
    k_pi_law,
    kpoint_correlation,
    species_joint_prob,
    species_moment,
)
from .ensemble import (
    ExperimentConfig,
    Histogram,
    exact_equidistribution,
    exhaustive_histogram,
    joint_coordinate_bound_check,
    ks_distance_to_limit,
    run_experiment,
    tv_distance,
    weak_peak_check,
)

__version__ = "0.1.0"
