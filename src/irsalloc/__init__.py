"""Element allocation, beamforming and placement for jointly deployed
active/passive intelligent reflecting surfaces."""

from .allocation import Allocation, AllocationSolution, closed_form_split, \
    solve_continuous, solve_integer
from .benchmarks import BenchmarkResult, run_benchmark
from .channel import ChannelTriple, build_channels, direction_angles, steering, \
    unit_from_angles, upa_response
from .errors import (ConditionUndefined, ConfigError, DimensionMismatch,
                     DistanceTooSmall, InfeasibleBudget, IrsAllocError,
                     NoFeasiblePlacement, SearchSpaceTooLarge)
from .placement import AOTrace, PlacementGrid, alternating_optimize, \
    optimize_placement_given_allocation
from .reflection import ReflectionConfig, configure, optimal_phases
from .scenario import (SCHEMES, TAPR, TPAR, SystemParams, Topology,
                       build_topology, db_to_linear, dbm_to_watts,
                       free_space_ref_gain, linear_to_db, load_scenario,
                       watts_to_dbm)
from .snr import (LinkBudget, RegimeReport, SchemeComparison, check_lemma1,
                  compare_schemes, simulate_empirical_snr, snr_approx,
                  snr_closed_form, snr_exact_matrix)

__version__ = "0.1.0"
