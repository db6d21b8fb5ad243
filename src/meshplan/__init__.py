"""meshplan: wireless mesh planning engine and slotted-time simulator.

Pipeline: topology construction and interference mapping, per-link load
estimation under uniform multipath splitting, congestion-aware route
selection with a load threshold, greedy gain-minimizing multi-channel
assignment with TDMA-like activation frames, and a deterministic packet
simulator producing delay / delivery-ratio / throughput metrics against a
seeded random-assignment baseline.
"""

from .channels import (ChannelAssignment, baseline_assign, channel_gain_sums,
                       order_links, schedule_all_frames)
from .errors import (ConfigurationError, ContractError, MeshPlanError,
                     PipelineError, ScenarioParseError,
                     ScenarioValidationError, UnroutableFlowError)
from .loads import (GoodputReport, LoadEstimate, acceptable_paths_for_profile,
                    enumerate_acceptable_paths, expected_link_load, goodput,
                    link_capacities)
from .pipeline import (PROTOCOLS, PipelineResult, SweepRow, run_pipeline,
                       sweep_channels, sweep_time)
from .report import emit_report, render_report, result_row
from .routing import (Route, RouteTable, cost_table, fixed_point_route,
                      routed_link_loads, select_routes)
from .scenario import (PRESETS, AlgorithmParams, Scenario, load_scenario,
                       parse_scenario, scenario_from_dict)
from .sim import (ServiceAudit, SimConfig, SimInput, SimMetrics, Simulator,
                  run_simulation, sim_input)
from .topology import (InterferenceMap, MeshNode, Topology, TopologySpec, VirtualLink,
                       build_interference_map)
from .traffic import Flow, TrafficProfile

__version__ = "0.1.0"
