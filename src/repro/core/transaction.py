"""Atomic move transactions: apply -> evaluate -> commit or rollback.

One placement move sets off the paper's cascade (Section 3.2): rip up
every net on the perturbed cells, mutate the placement, recompute the
affected nets' geometry, let the incremental global and detailed
routers repair whatever they can (including previously-unroutable
bystander nets that fit the freed resources), and propagate the delay
change to the boundaries.

Because the annealer may reject the move, the whole cascade must be
undoable bit-exactly.  :func:`apply_move` journals every net whose
claims can change and captures the timing delta; :func:`rollback`
replays them in the correct order (placement first — route geometry is
recomputed from it — then routing claims, then timing).

A move that touches no nets (a swap of cells with no terminals, or an
unconnected pinmap change) frees no routing capacity, so the repair
queues are exactly as hopeless as the previous transaction left them —
the whole cascade is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs.metrics import MetricsRegistry
from ..place.placement import Placement
from ..route.incremental import IncrementalRouter, NetJournal
from ..route.state import RoutingState
from ..timing.incremental import IncrementalTiming, TimingDelta
from .moves import Move


@dataclass
class LayoutContext:
    """The live mutable state one annealer instance operates on."""

    placement: Placement
    state: RoutingState
    router: IncrementalRouter
    timing: IncrementalTiming
    #: Trace metrics registry; None unless tracing was requested.
    metrics: Optional[MetricsRegistry] = None


@dataclass
class TransactionRecord:
    """Everything needed to undo one applied move."""

    move: Move
    journal: NetJournal
    timing_delta: TimingDelta
    nets_touched: int


def apply_move(ctx: LayoutContext, move: Move) -> TransactionRecord:
    """Apply ``move`` and the full rip-up/repair/timing cascade.

    Mutates: every layer of ``ctx`` (placement, routing state, timing)
    — the returned record is what makes the cascade undoable.  Affected
    nets are processed in sorted order so the transaction is a pure
    function of *which* nets a move touches, never of set iteration
    order.
    """
    affected_cells = move.cells_involved(ctx.placement)
    affected_nets: set[int] = set()
    for cell_index in affected_cells:
        affected_nets.update(ctx.placement.netlist.nets_of_cell(cell_index))

    journal = NetJournal(ctx.state)
    if not affected_nets:
        # Nothing ripped, nothing freed: repair would re-fail every
        # pending net and timing would re-derive every arrival bit-for-
        # bit.  Apply the placement mutation alone.
        move.apply(ctx.placement)
        mx = ctx.metrics
        if mx is not None:
            mx.count("transaction.zero_net")
        return TransactionRecord(move, journal, TimingDelta(), 0)

    ordered_nets = sorted(affected_nets)
    ctx.router.rip_up_nets(ordered_nets, journal)
    move.apply(ctx.placement)
    ctx.router.refresh_nets(ordered_nets)
    ctx.router.repair(journal)

    touched = sorted(journal.touched())
    timing_delta = ctx.timing.update_nets(touched)
    mx = ctx.metrics
    if mx is not None:
        mx.observe("transaction.nets_journaled", len(touched))
    return TransactionRecord(move, journal, timing_delta, len(touched))


def rollback(ctx: LayoutContext, record: TransactionRecord) -> None:
    """Undo an applied move bit-exactly.

    Mutates: every layer of ``ctx`` (placement, routing state, timing),
    restoring each to its pre-``record`` snapshot.
    """
    record.move.undo(ctx.placement)
    record.journal.restore_all()
    ctx.timing.restore(record.timing_delta)
