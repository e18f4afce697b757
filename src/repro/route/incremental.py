"""Incremental rip-up-and-repair routing with an undo journal.

This is the machinery that lets routing live *inside* the placement
annealer (paper, Sections 3.3-3.4).  After every placement perturbation:

1. every net with a terminal on a perturbed cell is ripped up (its
   vertical and horizontal segments are freed) and deposited in the
   unrouted sets ``U_G`` / ``U_DR``;
2. the placement mutation is applied and the affected nets' geometry is
   recomputed;
3. repair: ``U_G`` is drained longest-net-first through the global
   router, then every channel's ``U_DR`` is drained longest-net-first
   through the detailed router.  Repair is *allowed to fail* — leftover
   nets simply stay unrouted and are charged by the cost function.

Because the annealer may reject the move, every net whose claims can
change is snapshotted first; :meth:`NetJournal.restore_all` puts the
routing state back bit-exactly (release all touched claims, then
re-commit the snapshots — two phases so segments exchanged between nets
during repair cannot collide).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from ..arch.channel import ChannelClaim
from ..arch.vertical import VerticalClaim
from .channel_router import DEFAULT_SEGMENT_WEIGHT, route_net_in_channel
from .global_router import ripup_order, route_net_global
from .state import RoutingState

#: Fault-injection probe (see :mod:`repro.resilience.faults`): when
#: set, called as ``FAULT_HOOK(kind, net_index)`` before every route
#: attempt and allowed to raise.  None in production; the guard is one
#: ``is not None`` test per :meth:`IncrementalRouter.repair` call.
FAULT_HOOK = None


class NetSnapshot(NamedTuple):
    """A net's committed claims and geometry at journal time.

    A NamedTuple rather than a frozen dataclass: one is built for every
    net a move touches, and tuple construction skips the per-field
    ``object.__setattr__`` a frozen dataclass pays.
    """

    net_index: int
    vertical: Optional[VerticalClaim]
    claims: tuple[ChannelClaim, ...]
    #: Route-version counter at snapshot time (see
    #: ``RoutingState.route_version``); version equality at restore
    #: proves the record is untouched.
    version: int
    #: Geometry captured by reference: ``refresh_geometry`` replaces
    #: ``route.pin_channels`` (and its column lists) wholesale rather
    #: than mutating in place, so the captured objects stay valid and
    #: restore is an assignment.
    pin_channels: dict[int, list[int]]
    cmin: int
    cmax: int
    xmin: int
    xmax: int


class NetJournal:
    """Undo journal across one move transaction."""

    def __init__(self, state: RoutingState) -> None:
        self._state = state
        self._snapshots: dict[int, NetSnapshot] = {}

    def snapshot(self, net_index: int) -> None:
        """Record the net's current claims (first snapshot wins)."""
        if net_index in self._snapshots:
            return
        route = self._state.routes[net_index]
        self._snapshots[net_index] = NetSnapshot(
            net_index,
            route.vertical,
            tuple(route.claims.values()),
            self._state.route_version[net_index],
            route.pin_channels,
            route.cmin,
            route.cmax,
            route.xmin,
            route.xmax,
        )

    def touched(self) -> set[int]:
        """Net indices captured in this journal."""
        return set(self._snapshots)

    def restore_all(self) -> None:
        """Put every journaled net back to its snapshot.

        Phase 1 rips up all touched nets (freeing whatever repair
        claimed); phase 2 restores geometry (the caller must already
        have undone the placement mutation) and re-commits the
        snapshots.  The two-phase order is what makes segment exchange
        between nets safe to undo.

        A journaled net whose route version is unchanged since snapshot
        is provably already in its snapshot state, so the
        rip-up/re-commit round trip collapses to
        :meth:`RoutingState.log_phantom_releases`, which makes the
        round trip's only lasting side effect, forgetting the net's
        cached failures, without touching occupancy.  That path is
        rare: ripped nets always change, and repair attempts only nets
        that can route, except a first attempt that fails.  Changed
        nets restore geometry by assignment from the snapshot instead
        of recomputing pin positions.
        """
        state = self._state
        versions = state.route_version
        changed: list[int] = []
        for net_index in sorted(self._snapshots):
            if versions[net_index] == self._snapshots[net_index].version:
                state.log_phantom_releases(net_index)
                continue
            state.rip_up(net_index)
            changed.append(net_index)
        for net_index in changed:
            snap = self._snapshots[net_index]
            state.adopt_geometry(
                net_index, snap.pin_channels, snap.cmin, snap.cmax,
                snap.xmin, snap.xmax,
            )
            if snap.vertical is not None:
                state.fabric.vcolumns[snap.vertical.column].reclaim(
                    net_index, snap.vertical
                )
                state.commit_vertical(net_index, snap.vertical)
            for claim in snap.claims:
                state.fabric.channels[claim.channel].reclaim(net_index, claim)
                state.commit_detail(net_index, claim)


class IncrementalRouter:
    """Rip-up and repair driver bound to one :class:`RoutingState`."""

    def __init__(
        self,
        state: RoutingState,
        segment_weight: float = DEFAULT_SEGMENT_WEIGHT,
    ) -> None:
        self.state = state
        self.segment_weight = segment_weight
        #: Trace metrics registry (repair success/failure and negative-
        #: cache hit counters); None unless tracing was requested.
        #: Recording mutates no routing state and reads no RNG, so a
        #: metered run stays bit-identical.
        self.metrics = None

    # ------------------------------------------------------------------
    # Rip-up
    # ------------------------------------------------------------------
    def rip_up_nets(
        self, net_indices: Iterable[int], journal: Optional[NetJournal] = None
    ) -> None:
        """Free the segments of the given nets (journaling first).

        Mutates: the routing state (releases claims) and ``journal``
        (records pre-rip snapshots).  Rip-up order follows sorted net
        index, so nothing downstream depends on set iteration order.
        """
        rip_up = self.state.rip_up
        snapshot = None if journal is None else journal.snapshot
        for net_index in sorted(net_indices):
            if snapshot is not None:
                snapshot(net_index)
            rip_up(net_index)

    def refresh_nets(self, net_indices: Iterable[int]) -> None:
        """Recompute geometry after the placement mutation is applied.

        Mutates: the routing state (rewrites each net's geometry and
        unrouted bookkeeping), in sorted net order for determinism.
        """
        for net_index in sorted(net_indices):
            self.state.refresh_geometry(net_index)

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def repair(self, journal: Optional[NetJournal] = None) -> set[int]:
        """Attempt to route everything pending.  Returns nets touched.

        Order follows the paper: first the global queue (longest nets
        first), then each channel's detailed queue (longest first).
        Every net attempted is journaled before its attempt, so a
        rejected move can undo whatever it gains even if it was not
        connected to the perturbed cell (e.g. a previously-unroutable
        net that succeeds in the more compliant intermediate
        placement).

        Only channels with pending nets are visited, and a net is
        attempted only when it can route or has no cached failure (see
        the negative caches on :class:`RoutingState`).  Each queue is
        cut to its candidates with one set difference: a net without a
        global route is skipped in every channel, and so is a parked
        net, one whose last attempt failed and that no release has
        woken since.  Only a woken net, one a release may have freed,
        pays an exact occupancy test.  So only a first attempt can
        fail.  A skipped attempt would have failed, and a failed attempt
        commits nothing, so the claims committed are identical, in the
        same order, to an exhaustive scan's.

        Mutates: the routing state (commits claims) and ``journal``
        (snapshots every net attempted).  Candidates are drained in
        :func:`ripup_order`, so the attempt order is a pure function of
        queue contents.
        """
        state = self.state
        touched: set[int] = set()
        add_touched = touched.add
        mx = self.metrics
        fault_hook = FAULT_HOOK
        snapshot = None if journal is None else journal.snapshot
        # Same-module private peek: most attempts re-touch an already-
        # journaled net, so the membership test is inlined to skip the
        # snapshot() call (which would re-test and return) entirely.
        snapshotted = None if journal is None else journal._snapshots
        hopeless_global = state.global_attempt_is_hopeless
        hopeless_detail = state.detail_attempt_is_hopeless
        segment_weight = self.segment_weight

        candidates, woken = state.global_candidates()
        skipped = len(state.unrouted_global) - len(candidates)
        for net_index in ripup_order(state, candidates):
            if net_index in woken and hopeless_global(net_index):
                skipped += 1
                continue
            if snapshot is not None and net_index not in snapshotted:
                snapshot(net_index)
            add_touched(net_index)
            if fault_hook is not None:
                fault_hook("global", net_index)
            ok = route_net_global(state, net_index)
            if mx is not None:
                mx.count("repair.global_ok" if ok else "repair.global_fail")
        if mx is not None and skipped:
            mx.count("cache.global_hit", skipped)

        unrouted_detail = state.unrouted_detail
        for channel in sorted(state.dirty_channels):
            candidates, woken = state.detail_candidates(channel)
            skipped = len(unrouted_detail[channel]) - len(candidates)
            for net_index in ripup_order(state, candidates):
                if net_index in woken and hopeless_detail(net_index, channel):
                    skipped += 1
                    continue
                if snapshot is not None and net_index not in snapshotted:
                    snapshot(net_index)
                add_touched(net_index)
                if fault_hook is not None:
                    fault_hook("detail", net_index)
                ok = route_net_in_channel(
                    state, net_index, channel, segment_weight
                )
                if mx is not None:
                    mx.count("repair.detail_ok" if ok else "repair.detail_fail")
            if mx is not None and skipped:
                mx.count("cache.detail_hit", skipped)
        return touched

    def route_all_from_scratch(self) -> None:
        """Rip up everything and run one full global + detailed pass.

        Used to initialize the simultaneous annealer's starting state
        and by the sequential baseline's routing stage.
        """
        for route in self.state.routes:
            self.state.rip_up(route.net_index)
            self.state.refresh_geometry(route.net_index)
        self.repair()
