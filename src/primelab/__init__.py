"""Short-interval statistics for primes in arithmetic progressions and
prime ideals of number fields: counters, zero-table ingestion, the
truncated explicit formula, and the experiments built on them."""

from .counters import StepCounter, WindowSource, field_source, \
    progression_source, window_events, window_source
from .errors import CapacityError, PrimeLabError, UnsupportedPrimeError, \
    ZeroTableError
from .explicit import TruncationSpec, residual_scan, smoothed_prediction, \
    smoothed_sum, truncated_psi, unweighted_sandwich
from .intervals import DeltaSeries, bt_check_ap, bt_check_field, \
    cramer_window_scan, delta, delta_K, delta_series, euler_phi, \
    inertia_scan, mean_square, meansq_ratio
from .numfield import NumberFieldSpec, SplittingType, dedekind_index_test, \
    pi_K, poly_discriminant, preset, preset_names, psi_K, splitting_type, \
    splitting_types
from .report import ExperimentReport, emit
from .sieve import ResidueClass, pi_ap, psi_ap, sieve_primes
from .zeros import ZeroTable, combine, component_table, count_zeros, \
    field_table, load_zeros, predicted_count

__version__ = "0.1.0"
