"""Detailed routing: track/segment assignment inside segmented channels.

The incremental detailed router "assigns available tracks to unrouted
nets based on two terms: segment-wastage and number of segments used"
(paper, Section 3.4, citing the Greene DAC'90 / Roy TCAD'94 cost).
Minimizing wastage constructively prefers short paths — this is why the
annealer's cost function needs no explicit wirelength term; minimizing
the segment count bounds the horizontal antifuses (and hence delay) on
the path.

:func:`route_net_in_channel` commits the single best assignment for one
net in one channel; :func:`route_channel` drains a channel's pending
queue longest-net-first; :func:`detail_route_all` is the batch form the
sequential baseline uses after placement and global routing are frozen.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..arch.channel import TrackCandidate
from .global_router import ripup_order
from .state import RoutingState

#: Relative weight of segment count vs. wasted segment length in the
#: track-selection cost.  Each extra segment is an extra horizontal
#: antifuse; weighting it like several columns of wastage makes the
#: router prefer one long segment over chains of short ones unless the
#: chain is much tighter.
DEFAULT_SEGMENT_WEIGHT = 4.0

#: Track-selection strategies (Greene et al. discuss the spectrum):
#: ``"weighted"`` — wastage + weight * segments (the default, Roy-style);
#: ``"first_fit"`` — first feasible track, cheapest to compute;
#: ``"min_wastage"`` — tightest fit regardless of antifuse count;
#: ``"min_segments"`` — fewest antifuses regardless of wastage.
STRATEGIES = ("weighted", "first_fit", "min_wastage", "min_segments")


def candidate_cost(candidate: TrackCandidate, segment_weight: float) -> float:
    """The Greene/Roy-style assignment cost for a feasible candidate."""
    return candidate.wastage + segment_weight * candidate.num_segments


def best_candidate(
    state: RoutingState,
    channel: int,
    lo: int,
    hi: int,
    segment_weight: float = DEFAULT_SEGMENT_WEIGHT,
    strategy: str = "weighted",
) -> Optional[TrackCandidate]:
    """Best feasible track assignment for ``[lo, hi]`` under a strategy."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
        )
    if strategy == "weighted":
        # Hot default: a fused scan on the channel picks the identical
        # candidate without generator dispatch per track.
        return state.fabric.channels[channel].best_weighted(lo, hi, segment_weight)
    best: Optional[TrackCandidate] = None
    best_key = None
    for candidate in state.fabric.channels[channel].candidates(lo, hi):
        if strategy == "first_fit":
            return candidate
        if strategy == "min_wastage":
            key = (candidate.wastage, candidate.num_segments)
        elif strategy == "min_segments":
            key = (candidate.num_segments, candidate.wastage)
        else:
            key = (candidate_cost(candidate, segment_weight),)
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    return best


def route_net_in_channel(
    state: RoutingState,
    net_index: int,
    channel: int,
    segment_weight: float = DEFAULT_SEGMENT_WEIGHT,
    strategy: str = "weighted",
) -> bool:
    """Try to detail route one net in one channel.  True on success.

    The net must already be globally routed (a net without a global
    route "automatically cannot be detail routed", Section 3.4).

    Mutates: the routing state (commits the channel claim, drops stale
    pending entries, or records the failure in the negative cache).
    """
    route = state.routes[net_index]
    if route.vertical is None and route.cmax > route.cmin:
        # not globally_routed, inlined (hot path).
        return False
    if channel in route.claims:
        return True
    # Inline single-channel form of route.requirements(): only this
    # channel's interval matters, so skip building the full dict.
    columns = route.pin_channels.get(channel)
    if columns is None:
        # Nothing needed here (e.g. stale queue entry after a move).
        state.discard_detail_pending(net_index, channel)
        return True
    lo, hi = columns[0], columns[-1]
    vertical = route.vertical
    if vertical is not None:
        trunk = vertical.column
        if trunk < lo:
            lo = trunk
        if trunk > hi:
            hi = trunk
    if strategy == "weighted":
        candidate = state.fabric.channels[channel].best_weighted(
            lo, hi, segment_weight
        )
    else:
        candidate = best_candidate(
            state, channel, lo, hi, segment_weight, strategy
        )
    if candidate is None:
        # Feasibility is strategy-independent (every strategy scans the
        # same candidate set), so the failure is safe to cache for the
        # repair fast path.
        state.note_detail_failure(net_index, channel, lo, hi)
        return False
    claim = state.fabric.channels[channel].claim(net_index, candidate, lo, hi)
    state.commit_detail(net_index, claim)
    return True


def route_channel(
    state: RoutingState,
    channel: int,
    net_indices: Optional[Iterable[int]] = None,
    segment_weight: float = DEFAULT_SEGMENT_WEIGHT,
) -> list[int]:
    """Drain a channel's pending queue, longest nets first.

    Returns the nets that remain unroutable in this channel.

    Mutates: the routing state, via :func:`route_net_in_channel`.
    """
    if net_indices is None:
        net_indices = state.unrouted_detail[channel]
    failed: list[int] = []
    for net_index in ripup_order(state, net_indices):
        if not route_net_in_channel(state, net_index, channel, segment_weight):
            failed.append(net_index)
    return failed


def detail_route_all(
    state: RoutingState, segment_weight: float = DEFAULT_SEGMENT_WEIGHT
) -> dict[int, list[int]]:
    """Detail route every channel ("we proceed through each of the P
    total channels", Section 3.4).  Returns channel -> failed nets.

    Mutates: the routing state, via :func:`route_channel`.
    """
    failures: dict[int, list[int]] = {}
    for channel in range(state.fabric.num_channels):
        failed = route_channel(state, channel, segment_weight=segment_weight)
        if failed:
            failures[channel] = failed
    return failures
