"""Event-driven simulator for circle-valued opinion dynamics on graphs.

Opinions sit on the circle (-1, 1] (or the unit interval for the classic
averaging rule), edges carry independent Poisson clocks, and each ring pulls
the two endpoint opinions together along the shorter arc. The package
covers the scalar update rules, graph builders, the simulation engine with
deterministic streams and snapshots, edge-difference tracking, metrics and
limit extraction, canned scenarios, and a batch CLI.
"""

from .analysis import (CSV_COLUMNS, CSV_SCHEMA, LimitReport, MetricSample,
                       MonotoneReport, RunRecord, UniformityReport, circle_opinion_range,
                       compute_metrics, consensus_classify, extract_limits,
                       ks_uniform_pvalue, marginal_uniformity_test,
                       monotone_mean_delta_check, read_samples_csv, write_samples_csv)
from .difference import (DeltaState, DifferenceTracker, XiState, apply_event_delta,
                         apply_event_xi, check_consistency, delta_from_config,
                         winding_sum, xi_from_values)
from .engine import (Constant, Event, Explicit, IidUniform, PoissonStream,
                     ScheduleExhausted, ScriptedStream, SimState, SnapshotError,
                     StopRule, apply_event, derive_seed, initial_opinions,
                     new_simulation, restore, run, snapshot)
from .opinion_space import (ModelParams, circle_dist, mod_s, update_pair_compass,
                            update_pair_deffuant, validate_params)
from .scenarios import (ButterflyResult, ComparisonResult, FlattenPlan, SignFlipResult,
                        butterfly_scenario, flatten_schedule, run_butterfly,
                        run_comparison, run_signflip, signflip_scenario,
                        signflip_vertex_count)
from .topology import (Graph, build_path, build_ring, build_torus, graph_from_edges,
                       load_edge_list)

__version__ = "0.1.0"
