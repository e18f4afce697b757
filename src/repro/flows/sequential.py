"""The baseline: a traditional sequential place-then-route flow.

This reconstructs the flow the paper compares against (Section 4): "The
custom placer is based on TimberWolfSC [6], the global router is from
[7] and the detailed router from [11]" — i.e. exactly the published
algorithms our substrate modules implement:

1. **Placement** — simulated annealing over cell swaps/translations with
   the classic row-based standard-cell objective: total bounding-box
   net length plus a quadratic channel-congestion penalty.  Crucially
   (this is the paper's whole argument) the placer knows *nothing* about
   track segmentation or antifuse counts.
2. **Global routing** — feedthrough assignment, longest nets first,
   nearest-feasible-column heuristic.
3. **Detailed routing** — segmented-channel assignment per channel,
   longest nets first, wastage + segment-count cost.
4. **Timing analysis** — the same post-layout STA the simultaneous flow
   is scored with.

Routing failures at stage 2/3 are final: a sequential flow cannot go
back and move cells (the paper's "leverage" point).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from ..arch.presets import Architecture
from ..netlist.netlist import Netlist
from ..obs import build_manifest, maybe_tracer
from ..place.initial import clustered_placement, random_placement
from ..place.placement import Placement
from ..route.channel_router import DEFAULT_SEGMENT_WEIGHT, detail_route_all
from ..route.global_router import global_route_all
from ..route.state import RoutingState
from ..timing.analyzer import analyze
from ..core.moves import MoveGenerator
from ..core.schedule import CoolingSchedule, ScheduleConfig
from .common import FlowResult


@dataclass
class SequentialConfig:
    """Knobs of the baseline flow.

    ``timing_driven`` enables the classic net-weighting refinement: the
    placer minimizes criticality-weighted net length, with weights from
    a unit-delay pre-placement analysis (see
    :mod:`repro.place.netweights`).  This is the *strongest* sequential
    baseline — the paper's claim is that even prioritized net-length is
    the wrong objective on segmented antifuse fabrics.
    """

    seed: int = 0
    attempts_per_cell: int = 8
    congestion_weight: float = 2.0
    initial: str = "random"  # or "clustered"
    segment_weight: float = DEFAULT_SEGMENT_WEIGHT
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    target_acceptance: float = 0.44
    timing_driven: bool = False
    criticality_alpha: float = 2.0
    #: Structured event tracing (see :mod:`repro.obs`).  Sequential
    #: stages carry a scalar placement cost instead of the simultaneous
    #: flow's G/D/T terms; the trace tooling handles both shapes.
    trace: bool = False
    #: With tracing on, also append events live to this file so
    #: ``repro-fpga watch`` can tail-follow the placement anneal (same
    #: contract as :attr:`repro.core.AnnealerConfig.trace_stream`).
    trace_stream: Optional[str] = None
    #: Live heartbeat sidecar path (see :mod:`repro.obs.live`); the
    #: placer beats at stage boundaries with scalar-cost telemetry.
    #: None disables.  Same determinism contract as the simultaneous
    #: flow: the writer reads only monotonic clocks.
    heartbeat_path: Optional[str] = None
    #: Heartbeat rewrite throttle in seconds.
    heartbeat_min_interval_s: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts_per_cell <= 0:
            raise ValueError("attempts_per_cell must be positive")
        if self.initial not in ("random", "clustered"):
            raise ValueError(
                f"initial must be random|clustered, got {self.initial!r}"
            )
        if self.trace_stream is not None and not self.trace:
            raise ValueError("trace_stream requires trace=True")
        if self.heartbeat_min_interval_s <= 0:
            raise ValueError(
                f"heartbeat_min_interval_s must be > 0, got "
                f"{self.heartbeat_min_interval_s}"
            )


def fast_sequential_config(seed: int = 0) -> SequentialConfig:
    """Reduced-effort preset matched to :func:`repro.core.fast_config`."""
    return SequentialConfig(
        seed=seed,
        attempts_per_cell=4,
        initial="clustered",
        schedule=ScheduleConfig(lambda_=1.4, max_temperatures=60,
                                freeze_patience=2),
    )


class SequentialPlacer:
    """TimberWolfSC-style annealing placer (net length + congestion).

    Maintains the total HPWL and the per-channel congestion demand
    incrementally; only the nets on the moved cells are re-measured per
    move.
    """

    def __init__(
        self, netlist: Netlist, placement: Placement, config: SequentialConfig
    ) -> None:
        self.netlist = netlist
        self.placement = placement
        self.config = config
        self.rng = random.Random(config.seed)
        self.tracer = maybe_tracer(config.trace, stream_path=config.trace_stream)
        from ..obs.live import maybe_heartbeat

        self.heartbeat = maybe_heartbeat(
            config.heartbeat_path, config.heartbeat_min_interval_s
        )
        # Sequential placers do not reassign pinmaps (the palette
        # belongs to the layout-aware flow), so pinmap_probability=0.
        self.moves = MoveGenerator(placement, self.rng, pinmap_probability=0.0)
        self.schedule = CoolingSchedule(config.schedule)
        if config.timing_driven:
            from ..place.netweights import criticality_weights

            self._weights = criticality_weights(
                netlist, config.criticality_alpha
            )
        else:
            self._weights = [1.0] * netlist.num_nets
        fabric = placement.fabric
        self._tracks = fabric.spec.tracks_per_channel
        self._demand = [0.0] * fabric.num_channels
        self._net_hpwl = [0.0] * netlist.num_nets
        self._net_box: list[tuple[int, int, int, int]] = [
            (0, 0, 0, 0)
        ] * netlist.num_nets
        self._total_hpwl = 0.0
        for net in netlist.nets:
            self._measure(net.index, add=True)

    # -- incremental bookkeeping ---------------------------------------
    def _measure(self, net_index: int, add: bool) -> None:
        """Add or remove one net's contribution to the running totals."""
        if add:
            box = self.placement.net_bounding_box(net_index)
            self._net_box[net_index] = box
            hpwl = (box[3] - box[2]) + 0.5 * (box[1] - box[0])
            self._net_hpwl[net_index] = hpwl
        else:
            box = self._net_box[net_index]
            hpwl = self._net_hpwl[net_index]
        sign = 1.0 if add else -1.0
        self._total_hpwl += sign * hpwl * self._weights[net_index]
        cmin, cmax, xmin, xmax = box
        share = max(1, xmax - xmin) / self.placement.fabric.cols
        for channel in range(cmin, cmax + 1):
            self._demand[channel] += sign * share

    def _congestion(self) -> float:
        penalty = 0.0
        for demand in self._demand:
            overflow = demand - self._tracks
            if overflow > 0:
                penalty += overflow * overflow
        return penalty

    def cost(self) -> float:
        """Current scalar placement cost."""
        return self._total_hpwl + self.config.congestion_weight * self._congestion()

    # -- the anneal ------------------------------------------------------
    def _attempt(self, temperature: float, current_cost: float) -> float:
        move = self.moves.propose()
        if move is None:
            return current_cost
        affected: set[int] = set()
        for cell_index in move.cells_involved(self.placement):
            affected.update(self.netlist.nets_of_cell(cell_index))
        # Sorted order makes the float accumulation (+= per net) a pure
        # function of which nets are affected, not set iteration order.
        ordered = sorted(affected)
        for net_index in ordered:
            self._measure(net_index, add=False)
        move.apply(self.placement)
        for net_index in ordered:
            self._measure(net_index, add=True)
        new_cost = self.cost()
        delta = new_cost - current_cost
        if delta <= 0:
            return new_cost
        if temperature > 0:
            exponent = -delta / temperature
            if exponent > -60 and self.rng.random() < math.exp(exponent):
                return new_cost
        for net_index in ordered:
            self._measure(net_index, add=False)
        move.undo(self.placement)
        for net_index in ordered:
            self._measure(net_index, add=True)
        return current_cost

    def _beat(
        self,
        started: float,
        stage_index: int,
        attempted: int,
        accepted: int,
        acceptance: Optional[float],
        cost: float,
        status: str = "running",
        force: bool = False,
    ) -> None:
        """Heartbeat for the placement anneal (scalar-cost telemetry).

        Same determinism contract as the simultaneous flow's beats: a
        pure read of already-computed values plus the monotonic clock.
        """
        hb = self.heartbeat
        if hb is None or not (force or hb.due()):
            return
        elapsed = time.perf_counter() - started
        budget = self.config.schedule.max_temperatures
        eta = None
        if status == "running" and stage_index > 0 \
                and budget > stage_index and elapsed > 0:
            eta = round(elapsed / stage_index * (budget - stage_index), 1)
        hb.beat({
            "flow": "sequential",
            "design": self.netlist.name,
            "seed": self.config.seed,
            "status": status,
            "phase": "place",
            "stage": stage_index,
            "stage_budget": budget,
            "moves_attempted": attempted,
            "moves_accepted": accepted,
            "acceptance": (
                round(acceptance, 4) if acceptance is not None else None
            ),
            "terms": None,
            "cost": cost,
            "best": None,
            "elapsed_s": round(elapsed, 3),
            "moves_per_sec": (
                round(attempted / elapsed, 1) if elapsed > 0 else None
            ),
            "eta_s": eta,
            "last_checkpoint": None,
            "trace": self.config.trace_stream,
        }, force=True)

    def run(self) -> Placement:
        """Execute to completion and return the result."""
        started = time.perf_counter()
        num_cells = self.netlist.num_cells
        attempts_per_temp = self.config.attempts_per_cell * num_cells
        tracer = self.tracer
        if tracer is not None:
            tracer.run_start(
                build_manifest(self.config, self.netlist, flow="sequential")
            )
        current = self.cost()
        walk = []
        for _ in range(max(24, num_cells // 2)):
            current = self._attempt(float("inf"), current)
            walk.append(current)
        temperature = self.schedule.start(walk)
        total_attempts = len(walk)
        total_accepted = 0
        stage_index = 0
        self._beat(started, stage_index, total_attempts, total_accepted,
                   None, current, force=True)
        while not self.schedule.frozen:
            costs = []
            accepted = 0
            for _ in range(attempts_per_temp):
                new = self._attempt(temperature, current)
                if new != current:
                    accepted += 1
                current = new
                costs.append(current)
            acceptance = accepted / attempts_per_temp
            if acceptance > self.config.target_acceptance + 0.1:
                self.moves.set_window(self.moves.window * 0.9)
            elif acceptance < self.config.target_acceptance - 0.1:
                self.moves.set_window(self.moves.window * 1.1)
            self.schedule.observe(acceptance, costs)
            if tracer is not None:
                tracer.stage(
                    index=stage_index,
                    temperature=temperature,
                    attempts=attempts_per_temp,
                    accepted=accepted,
                    acceptance=acceptance,
                    cost=current,
                    window=self.moves.window,
                    calm_streak=self.schedule.calm_streak,
                )
            temperature = self.schedule.next_temperature(costs)
            stage_index += 1
            total_attempts += attempts_per_temp
            total_accepted += accepted
            self._beat(started, stage_index, total_attempts, total_accepted,
                       acceptance, current)
        # Greedy clean-up at zero temperature.
        greedy_accepted = 0
        for _ in range(attempts_per_temp):
            new = self._attempt(0.0, current)
            if new != current:
                greedy_accepted += 1
            current = new
        total_attempts += attempts_per_temp
        total_accepted += greedy_accepted
        if tracer is not None:
            tracer.emit("greedy", round=0, attempts=attempts_per_temp,
                        accepted=greedy_accepted)
            tracer.run_end(
                moves_attempted=total_attempts,
                moves_accepted=total_accepted,
                temperatures=self.schedule.temperatures_done,
                final_cost=current,
            )
        self._beat(started, stage_index, total_attempts, total_accepted,
                   greedy_accepted / attempts_per_temp, current,
                   status="completed", force=True)
        return self.placement


def run_sequential(
    netlist: Netlist,
    architecture: Architecture,
    config: Optional[SequentialConfig] = None,
) -> FlowResult:
    """Run the full sequential flow and score it with the shared STA."""
    config = config or SequentialConfig()
    netlist.freeze()
    started = time.perf_counter()
    fabric = architecture.build()
    rng = random.Random(config.seed)
    if config.initial == "clustered":
        placement = clustered_placement(netlist, fabric, rng)
    else:
        placement = random_placement(netlist, fabric, rng)

    placer = SequentialPlacer(netlist, placement, config)
    placer.run()

    state = RoutingState(placement)
    failed_global = global_route_all(state)
    failures = detail_route_all(state, config.segment_weight)
    report = analyze(state, architecture.technology)
    from ..obs.ledger import config_identity

    return FlowResult(
        flow="sequential",
        design=netlist.name,
        placement=placement,
        state=state,
        timing=report,
        wall_time_s=time.perf_counter() - started,
        extra={
            "failed_global": len(failed_global),
            "failed_detail_channels": len(failures),
            "placement_hpwl": placer._total_hpwl,
            "trace": (placer.tracer.finish()
                      if placer.tracer is not None else None),
            "seed": config.seed,
            **config_identity(config),
            "netlist": {"name": netlist.name, **netlist.stats()},
        },
    )
