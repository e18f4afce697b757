"""repro — Performance-driven simultaneous place and route for row-based FPGAs.

A from-scratch reproduction of Nag & Rutenbar, DAC 1994.  The package
provides the whole stack the paper builds on:

* :mod:`repro.arch` — row-based antifuse FPGA device model (segmented
  channels, vertical tracks, pinmaps, RC technology);
* :mod:`repro.netlist` — mapped netlists, a text format, and seeded
  synthetic MCNC-scale benchmark circuits;
* :mod:`repro.place` — placement state and classical wiring estimators;
* :mod:`repro.route` — segmented-channel detailed routing, feedthrough
  global routing, and the incremental rip-up/repair engine;
* :mod:`repro.timing` — levelized STA with exact Elmore delay on
  embedded nets and crude estimation elsewhere;
* :mod:`repro.core` — the paper's contribution, the simultaneous
  place-and-route annealer;
* :mod:`repro.flows` — end-to-end flows (sequential baseline vs
  simultaneous) scored with the same post-layout STA;
* :mod:`repro.analysis` — experiment harness helpers (Table-2 sweeps,
  table formatting);
* :mod:`repro.obs` — structured anneal tracing, a metrics registry,
  and the ``repro-fpga trace`` run-comparison tooling.

Quickstart::

    from repro import act1_like, paper_benchmark, run_simultaneous

    netlist = paper_benchmark("s1")
    arch = act1_like(
        num_io=len(netlist.cells_of_kind("input", "output")),
        num_logic=len(netlist.cells_of_kind("comb", "seq")),
    )
    result = run_simultaneous(netlist, arch)
    print(result.worst_delay, result.fully_routed)
"""

from .arch import (
    ANTIFUSE_DOMINATED,
    Architecture,
    Fabric,
    FabricSpec,
    Technology,
    WIRE_DOMINATED,
    act1_like,
    coarse_grained,
    fine_grained,
    wire_dominated,
)
from .core import (
    AnnealResult,
    AnnealerConfig,
    ScheduleConfig,
    SimultaneousAnnealer,
    fast_config,
    thorough_config,
)
from .flows import (
    FlowResult,
    SequentialConfig,
    fast_sequential_config,
    run_sequential,
    run_simultaneous,
    timing_improvement_percent,
)
from .obs import (
    MetricsRegistry,
    RunTrace,
    Tracer,
    maybe_tracer,
    read_trace,
)
from .netlist import (
    CircuitSpec,
    Netlist,
    PAPER_SPECS,
    TABLE_DESIGNS,
    generate,
    paper_benchmark,
    paper_benchmarks,
    tiny,
)
from .analysis import SweepResult, format_table, min_tracks_for_routing
from .partition import bipartition, extract_all_blocks, kway_partition
from .techmap import random_logic, technology_map

__version__ = "1.0.0"

__all__ = [
    "ANTIFUSE_DOMINATED",
    "AnnealResult",
    "AnnealerConfig",
    "Architecture",
    "CircuitSpec",
    "Fabric",
    "FabricSpec",
    "FlowResult",
    "MetricsRegistry",
    "Netlist",
    "PAPER_SPECS",
    "RunTrace",
    "Tracer",
    "ScheduleConfig",
    "SequentialConfig",
    "SimultaneousAnnealer",
    "SweepResult",
    "TABLE_DESIGNS",
    "Technology",
    "WIRE_DOMINATED",
    "__version__",
    "act1_like",
    "bipartition",
    "coarse_grained",
    "extract_all_blocks",
    "fast_config",
    "fast_sequential_config",
    "fine_grained",
    "format_table",
    "generate",
    "kway_partition",
    "maybe_tracer",
    "min_tracks_for_routing",
    "paper_benchmark",
    "read_trace",
    "random_logic",
    "paper_benchmarks",
    "run_sequential",
    "run_simultaneous",
    "technology_map",
    "thorough_config",
    "timing_improvement_percent",
    "tiny",
    "wire_dominated",
]


def architecture_for(netlist: "Netlist", tracks_per_channel: int = 24,
                     vtracks_per_column: int = 8) -> "Architecture":
    """The default ACT-1-like architecture sized for ``netlist``."""
    return act1_like(
        num_io=len(netlist.cells_of_kind("input", "output")),
        num_logic=len(netlist.cells_of_kind("comb", "seq")),
        tracks_per_channel=tracks_per_channel,
        vtracks_per_column=vtracks_per_column,
    )
