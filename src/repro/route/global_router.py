"""Global routing: vertical-segment (feedthrough) assignment.

"Global routing for row-based FPGAs consists primarily of assigning
feedthroughs to nets that need them" (paper, Section 3.3).  A net whose
pins span channels ``[cmin, cmax]`` needs, at some column, a run of free
vertical segments covering that span; the heuristic of the paper is to
use "the available set of vertical segments that are closest to the
center of a net's bounding box".

:func:`route_net_global` implements exactly that: it takes the column
nearest the bounding-box center (ties: left, the order of
:func:`column_scan_order`) that has a feasible vertical candidate, and
the least-wasteful candidate there.  It probes the center column first;
when that misses, one query over the fabric's
:class:`~repro.arch.vertical.ColumnMasks` finds the nearest feasible
column, or proves there is none, without visiting columns one by one.
:func:`global_route_all` is the batch version used by the sequential
baseline flow; the simultaneous annealer instead calls
:func:`route_net_global` from the incremental repair loop.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .state import RoutingState


def column_scan_order(center: int, num_columns: int) -> Iterator[int]:
    """Columns ordered by distance from ``center`` (ties: left first).

    The reference order for the column :func:`route_net_global` picks.
    """
    if not 0 <= center < num_columns:
        center = min(max(center, 0), num_columns - 1)
    yield center
    for distance in range(1, num_columns):
        left = center - distance
        right = center + distance
        if left >= 0:
            yield left
        if right < num_columns:
            yield right
        if left < 0 and right >= num_columns:
            return


def route_net_global(state: RoutingState, net_index: int) -> bool:
    """Try to give ``net_index`` a global route.  True on success.

    Single-channel nets succeed trivially ("a trivially null global
    routing now suffices", Section 3.3).  Multi-channel nets claim
    vertical segments at the feasible column nearest their bounding-box
    center; within a column, the least-wasteful track run is used.

    Mutates: the routing state (commits the vertical claim or records
    the failure in the negative cache).
    """
    route = state.routes[net_index]
    if route.vertical is not None or route.cmax <= route.cmin:
        # globally_routed, inlined (hot path).
        state.unrouted_global.discard(net_index)
        return True
    center = column = (route.xmin + route.xmax) // 2
    vcolumns = state.fabric.vcolumns
    cmin, cmax = route.cmin, route.cmax
    candidate = vcolumns[center].best_candidate(cmin, cmax)
    if candidate is None:
        column = state.fabric.column_masks.nearest_free(cmin, cmax, center)
        if column is None:
            state.note_global_failure(net_index, cmin, cmax)
            return False
        candidate = vcolumns[column].best_candidate(cmin, cmax)
        if candidate is None:
            raise RuntimeError(
                f"column masks incoherent: column {column} reads free for "
                f"channels [{cmin}, {cmax}] but has no vertical candidate"
            )
    claim = vcolumns[column].claim(net_index, candidate, cmin, cmax)
    state.commit_vertical(net_index, claim)
    return True


def ripup_order(state: RoutingState, net_indices: Iterable[int]) -> list[int]:
    """Nets sorted longest-estimated-first (the U_G / U_DR queue order).

    Hot path: called once per pending queue per repair.  The sort key
    is ``RoutingState.queue_key``, stored when the net's geometry is
    written, so no key is rebuilt here.  Equal-length nets order by
    index (the inner sort; the outer one is stable), so the queue is a
    pure function of the pending *contents* — never of set iteration
    order, which varies with each set's mutation history and would
    make otherwise identical layouts repair differently.
    """
    return sorted(sorted(net_indices), key=state.queue_key.__getitem__)


def global_route_all(
    state: RoutingState, net_indices: Optional[Iterable[int]] = None
) -> list[int]:
    """Globally route the given nets (default: all pending).

    Nets are processed longest first, "giving priority to the longer
    unroutable nets".  Returns the nets that remain globally unroutable.

    Mutates: the routing state, via :func:`route_net_global`.
    """
    if net_indices is None:
        net_indices = state.unrouted_global
    failed: list[int] = []
    for net_index in ripup_order(state, net_indices):
        if not route_net_global(state, net_index):
            failed.append(net_index)
    return failed
