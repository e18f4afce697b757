"""The paper's flow: one simultaneous place-and-route anneal.

Thin wrapper that runs :class:`repro.core.SimultaneousAnnealer` and
scores the final layout with the same post-layout STA used for the
sequential baseline, so Table-1 comparisons are apples to apples.
"""

from __future__ import annotations

import time
from typing import Optional

from ..arch.presets import Architecture
from ..core.annealer import AnnealerConfig, SimultaneousAnnealer
from ..netlist.netlist import Netlist
from ..timing.analyzer import analyze
from .common import FlowResult


def run_simultaneous(
    netlist: Netlist,
    architecture: Architecture,
    config: Optional[AnnealerConfig] = None,
    resume_from: Optional[dict] = None,
) -> FlowResult:
    """Run the simultaneous flow end to end.

    The run's :class:`~repro.obs.RunTrace` rides in ``extra["trace"]``
    (None unless ``config.trace`` is set).

    ``resume_from`` is a verified checkpoint payload (see
    :func:`repro.resilience.read_checkpoint`): the anneal continues the
    recorded trajectory instead of starting fresh.  Interrupted runs
    (signal or budget, see the resilience fields on
    :class:`~repro.core.AnnealerConfig`) report why in
    ``extra["interrupted"]`` and the resumable checkpoint in
    ``extra["checkpoint"]``.
    """
    started = time.perf_counter()
    annealer = SimultaneousAnnealer(
        netlist, architecture, config, resume_from=resume_from
    )
    result = annealer.run()
    report = analyze(result.state, architecture.technology)
    # Run-identity digests for the ledger (repro.obs.ledger): the
    # trajectory-shaping config digest and the seed-independent family
    # digest, both derived from the annealer's resolved config.
    from ..obs.ledger import config_identity

    resolved = annealer.config
    return FlowResult(
        flow="simultaneous",
        design=netlist.name,
        placement=result.placement,
        state=result.state,
        timing=report,
        wall_time_s=time.perf_counter() - started,
        extra={
            "dynamics": result.dynamics,
            "moves_attempted": result.moves_attempted,
            "moves_accepted": result.moves_accepted,
            "temperatures": result.temperatures,
            "internal_worst_delay": result.worst_delay,
            "trace": result.trace,
            "interrupted": result.interrupted,
            "checkpoint": result.checkpoint_path,
            "seed": resolved.seed,
            **config_identity(resolved),
            "netlist": {"name": netlist.name, **netlist.stats()},
        },
    )
