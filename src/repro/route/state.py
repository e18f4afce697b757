"""Routing state: per-net vertical and horizontal segment assignments.

The paper's state representation (Section 3.2) tracks every net as a
pair of segment sets ``(Vn, Hn)``:

* *unrouted*: ``Vn = {} and Hn = {}``;
* *globally routed*: vertical segments assigned, horizontal pending;
* *completely routed*: both assigned.

:class:`NetRoute` is that record for one net, plus the geometry that
defines the routing problem under the current placement:

* the net's pin positions group into channels; ``cmin..cmax`` is the
  channel span;
* a net whose pins sit in one channel needs no vertical wire (a
  "trivially null global routing", Section 3.3);
* a multi-channel net must claim vertical segments at one *trunk
  column* covering ``[cmin, cmax]`` — that claim IS its global route;
* once the trunk is known, the net needs one horizontal claim in every
  channel that contains pins, spanning from its pins to the trunk.

:class:`RoutingState` owns all :class:`NetRoute` records against one
fabric, maintains the unrouted sets (``U_G`` and per-channel ``U_DR``),
and exposes the counters ``G`` and ``D`` of the cost function.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Optional

from ..arch.channel import ChannelClaim
from ..arch.fabric import Fabric
from ..arch.vertical import VerticalClaim
from ..place.placement import Placement

Interval = tuple[int, int]


@dataclass
class NetRoute:
    """Route record for one net under the current placement.

    ``pin_channels`` maps channel -> sorted pin columns in that channel.
    ``vertical`` is the global-routing claim (None if absent or not
    needed); ``claims`` maps channel -> committed detailed claim.
    ``requirements`` maps channel -> the column interval the net needs
    there; it is only defined when the net's trunk is decided (or no
    trunk is needed).
    """

    net_index: int
    pin_channels: dict[int, list[int]] = field(default_factory=dict)
    cmin: int = 0
    cmax: int = 0
    xmin: int = 0
    xmax: int = 0
    vertical: Optional[VerticalClaim] = None
    claims: dict[int, ChannelClaim] = field(default_factory=dict)

    @property
    def needs_vertical(self) -> bool:
        """Whether the net spans more than one channel."""
        return self.cmax > self.cmin

    @property
    def globally_routed(self) -> bool:
        """True when the net's vertical requirement is satisfied."""
        return not self.needs_vertical or self.vertical is not None

    def requirements(self) -> dict[int, Interval]:
        """Channel -> needed column interval; requires a global route."""
        if not self.globally_routed:
            raise RuntimeError(
                f"net {self.net_index} has no global route; "
                "detailed requirements are undefined"
            )
        trunk = self.vertical.column if self.vertical is not None else None
        needs: dict[int, Interval] = {}
        for channel, columns in self.pin_channels.items():
            lo, hi = columns[0], columns[-1]
            if trunk is not None:
                lo, hi = min(lo, trunk), max(hi, trunk)
            needs[channel] = (lo, hi)
        return needs

    def missing_channels(self) -> list[int]:
        """Pin channels that still lack a committed detailed claim."""
        if not self.globally_routed:
            return sorted(self.pin_channels)
        return sorted(c for c in self.pin_channels if c not in self.claims)

    @property
    def fully_routed(self) -> bool:
        """Whether every net is completely routed.

        O(1): equivalent to ``not missing_channels()`` — a claim exists
        for every pin channel (dict-keys superset test) and the global
        route, if needed, is committed.  ``globally_routed`` is inlined
        (hot: called per net per timing recompute).
        """
        return (
            self.vertical is not None or self.cmax <= self.cmin
        ) and self.claims.keys() >= self.pin_channels.keys()

    def horizontal_antifuses(self) -> int:
        """Programmed horizontal antifuses across all claims."""
        return sum(claim.num_antifuses for claim in self.claims.values())

    def vertical_antifuses(self) -> int:
        """Programmed vertical antifuses on the trunk."""
        return self.vertical.num_antifuses if self.vertical is not None else 0

    def cross_antifuses(self) -> int:
        """Programmed cross antifuses: one per pin, two per trunk/channel tap."""
        pins = sum(len(columns) for columns in self.pin_channels.values())
        taps = 2 * len(self.claims) if self.vertical is not None else 0
        return pins + taps


def _wake(
    parked: dict[int, Interval], woken: dict[int, Interval], run: Interval
) -> None:
    """Move every parked entry whose interval lies inside ``run`` to
    ``woken``.

    ``run`` is the maximal free run a release just left on one track
    (:meth:`~repro.arch.channel.Channel.free_run`): an interval inside
    it can route on that track now, and the release gave no other
    interval a free covering run there.

    Mutates: ``parked`` and ``woken``.
    """
    lo, hi = run
    for net_index in [
        net for net, (a, b) in parked.items() if lo <= a and b <= hi
    ]:
        woken[net_index] = parked.pop(net_index)


class RoutingState:
    """All net routes plus the unrouted bookkeeping (U_G, U_DR)."""

    def __init__(self, placement: Placement) -> None:
        self.placement = placement
        self.fabric: Fabric = placement.fabric
        self.netlist = placement.netlist
        self.routes: list[NetRoute] = [
            NetRoute(net.index) for net in self.netlist.nets
        ]
        #: Nets lacking a (needed) global route.
        self.unrouted_global: set[int] = set()
        #: Per channel: nets lacking a detailed claim they need there.
        self.unrouted_detail: list[set[int]] = [
            set() for _ in range(self.fabric.num_channels)
        ]
        #: Channels whose pending set is non-empty; the repair fast path
        #: iterates this instead of every channel.
        self.dirty_channels: set[int] = set()
        # Per-net mirror of the channels it is pending in, so rip-up /
        # re-mark touches only those channels instead of scanning all.
        # Kept as a *sorted list* per net: the hot re-mark path iterates
        # it in order (no per-call ``sorted``), and removal is O(n) on a
        # list of at most a handful of channels.
        self._pending_channels: list[list[int]] = [
            [] for _ in range(len(self.routes))
        ]
        # O(1) D-counter support: per-net count of missing channel claims,
        # per-net "counts toward D" flag, and the running total.
        self._missing: list[int] = [0] * len(self.routes)
        self._counts_d: list[bool] = [False] * len(self.routes)
        self._d_count = 0
        # Negative-result caches (see "Negative-result caches" below):
        # per channel, net -> the column interval its failed detail
        # attempt needs, either *parked* or *woken*; the vertical plane
        # keeps the same two books of channel spans.
        self._parked: list[dict[int, Interval]] = [
            {} for _ in range(self.fabric.num_channels)
        ]
        self._woken: list[dict[int, Interval]] = [
            {} for _ in range(self.fabric.num_channels)
        ]
        self._parked_global: dict[int, Interval] = {}
        self._woken_global: dict[int, Interval] = {}
        #: Per-net monotonic route-version counter, bumped by every
        #: mutation of the net's route record (geometry refresh, rip-up,
        #: vertical/detail commit).  Version equality between two
        #: observations proves the record — claims, vertical, geometry —
        #: is untouched in between; the journal's phantom restore and the
        #: timing layer's delay-cache reuse key on it.  Starts at 0 and
        #: is ≥ 1 after construction (the initial geometry pass bumps
        #: every net), so 0 doubles as a "never valid" sentinel.
        self.route_version = array("Q", bytes(8 * len(self.routes)))
        #: Per-net repair-queue key, ``2 * (xmin - xmax) + (cmin -
        #: cmax)``: twice the negated length estimate ``(xmax - xmin) +
        #: 0.5 * (cmax - cmin)``, so it stays an integer and sorts like
        #: it.  :func:`ripup_order` sorts on it; it is written with the
        #: geometry it derives from.
        self.queue_key: list[int] = [0] * len(self.routes)
        for net in self.netlist.nets:
            self.refresh_geometry(net.index)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def refresh_geometry(self, net_index: int) -> NetRoute:
        """Recompute pin channels/columns from the current placement.

        Must only be called while the net holds no claims (it redefines
        what the claims would have to cover).  Marks the net unrouted,
        through :meth:`adopt_geometry`.
        """
        positions = self.placement.net_pin_positions(net_index)
        pin_channels: dict[int, list[int]] = {}
        for channel, column in positions:
            pin_channels.setdefault(channel, []).append(column)
        for columns in pin_channels.values():
            columns.sort()
        return self.adopt_geometry(
            net_index,
            pin_channels,
            min(pin_channels),
            max(pin_channels),
            min(columns[0] for columns in pin_channels.values()),
            max(columns[-1] for columns in pin_channels.values()),
        )

    def adopt_geometry(
        self,
        net_index: int,
        pin_channels: dict[int, list[int]],
        cmin: int,
        cmax: int,
        xmin: int,
        xmax: int,
    ) -> NetRoute:
        """Restore previously captured geometry by assignment.

        Move rollback's replacement for :meth:`refresh_geometry`: the
        journal snapshot holds the pre-move geometry (by reference —
        geometry fields are replaced wholesale, never mutated in
        place), so restoring is an assignment instead of a
        placement-wide pin recompute.  Same contract and side effects
        as :meth:`refresh_geometry`: the net must hold no claims, and
        it is re-marked unrouted.

        Mutates: the net's route record and queue key, unrouted books,
        negative caches.
        """
        route = self.routes[net_index]
        if route.vertical is not None or route.claims:
            raise RuntimeError(
                f"net {net_index} still holds claims; rip it up before "
                "changing its geometry"
            )
        route.pin_channels = pin_channels
        route.cmin = cmin
        route.cmax = cmax
        route.xmin = xmin
        route.xmax = xmax
        self.queue_key[net_index] = 2 * (xmin - xmax) + (cmin - cmax)
        self.route_version[net_index] += 1
        self._mark_unrouted(route)
        return route

    def _mark_unrouted(self, route: NetRoute) -> None:
        net_index = route.net_index
        # Geometry (and hence requirements) may have changed: forget
        # the net's cached failures while its old pending channels,
        # the only ones that can hold them, are still recorded.
        self._forget_failures(net_index)
        if route.cmax > route.cmin:  # needs_vertical, sans property call
            self.unrouted_global.add(net_index)
        else:
            self.unrouted_global.discard(net_index)
        # The mirror lists are maintained sorted, so iterating them keeps
        # the mutation order (and hence any downstream observation of
        # it) a function of contents, not of set insertion history, so
        # repair is order-invariant by construction.
        unrouted_detail = self.unrouted_detail
        dirty_channels = self.dirty_channels
        old_pending = self._pending_channels[net_index]
        pending_channels = sorted(route.pin_channels)
        if pending_channels != old_pending:
            for channel in old_pending:
                pending = unrouted_detail[channel]
                pending.discard(net_index)
                if not pending:
                    dirty_channels.discard(channel)
            self._pending_channels[net_index] = pending_channels
            for channel in pending_channels:
                unrouted_detail[channel].add(net_index)
                dirty_channels.add(channel)
        # else: the mirror is exact (the consistency audit pins it), so
        # discarding and re-adding the same memberships is a no-op —
        # common when an unrouted net is ripped up again.
        self._missing[net_index] = len(pending_channels)
        self._refresh_d(net_index)

    def _refresh_d(self, net_index: int) -> None:
        """Keep the O(1) D counter in sync for one net."""
        route = self.routes[net_index]
        counting = (
            self._missing[net_index] > 0
            or (route.cmax > route.cmin and route.vertical is None)
        )
        if counting and not self._counts_d[net_index]:
            self._d_count += 1
        elif not counting and self._counts_d[net_index]:
            self._d_count -= 1
        self._counts_d[net_index] = counting

    # ------------------------------------------------------------------
    # Claims
    # ------------------------------------------------------------------
    def commit_vertical(self, net_index: int, claim: VerticalClaim) -> None:
        """Record a vertical claim for a net."""
        route = self.routes[net_index]
        if route.vertical is not None:
            raise RuntimeError(f"net {net_index} already has a vertical claim")
        route.vertical = claim
        self.route_version[net_index] += 1
        self.unrouted_global.discard(net_index)
        self._parked_global.pop(net_index, None)
        self._woken_global.pop(net_index, None)
        self._refresh_d(net_index)

    def commit_detail(self, net_index: int, claim: ChannelClaim) -> None:
        """Record a detailed channel claim for a net."""
        route = self.routes[net_index]
        if claim.channel in route.claims:
            raise RuntimeError(
                f"net {net_index} already routed in channel {claim.channel}"
            )
        route.claims[claim.channel] = claim
        self.route_version[net_index] += 1
        self._drop_pending(net_index, claim.channel)

    def rip_up(self, net_index: int) -> None:
        """Release all of the net's segments and mark it unrouted.

        This is the paper's move side effect: "each move that alters
        cells removes any routing associated with the pins on the moved
        cells" (Section 3.2).

        Each release wakes the parked failures it could have freed (see
        "Negative-result caches" below).  A wake depends only on its
        own channel (or the vertical plane), and each claim sits in its
        own channel, so the release order does not matter.

        Mutates: fabric occupancy, the net's route record, unrouted
        books, negative caches.
        """
        route = self.routes[net_index]
        if route.vertical is not None:
            self._release_vertical(net_index, route.vertical)
            route.vertical = None
        for claim in route.claims.values():
            self._release_detail(net_index, claim)
        route.claims = {}
        self.route_version[net_index] += 1
        self._mark_unrouted(route)

    def _release_detail(self, net_index: int, claim: ChannelClaim) -> None:
        """Free one channel claim and wake the failures it could free.

        The route record is the caller's to update (see :meth:`rip_up`).

        Mutates: channel occupancy, the channel's negative-cache books.
        """
        channel = self.fabric.channels[claim.channel]
        channel.release(net_index, claim)
        parked = self._parked[claim.channel]
        if parked:
            _wake(
                parked, self._woken[claim.channel],
                channel.free_run(claim.track, claim.first_seg, claim.last_seg),
            )

    def _release_vertical(self, net_index: int, claim: VerticalClaim) -> None:
        """:meth:`_release_detail` for a vertical claim.

        Mutates: column occupancy and masks, the global negative-cache
        books.
        """
        column = self.fabric.vcolumns[claim.column]
        column.release(net_index, claim)
        if self._parked_global:
            _wake(
                self._parked_global, self._woken_global,
                column.free_run(claim.track, claim.first_seg, claim.last_seg),
            )

    def log_phantom_releases(self, net_index: int) -> None:
        """Forget the net's cached failures, as a rip-up round trip would.

        The journal fast-restore path skips rip-up + re-commit for a
        net whose route record is provably untouched since snapshot
        (route version unchanged).  The round trip's only side effect
        that repair can see is the cache clear :meth:`_mark_unrouted`
        makes.  Its releases would also wake entries, but the re-commit
        takes back everything they freed, so a woken entry would only
        be tested and parked again: skipping the wake changes no
        answer.  The method keeps its name only because the flow
        benchmark hooks it as ``route.phantom``.

        Mutates: this net's negative-cache entries.
        """
        self._forget_failures(net_index)

    # ------------------------------------------------------------------
    # Cost-function counters and diagnostics
    # ------------------------------------------------------------------
    def _drop_pending(self, net_index: int, channel: int) -> None:
        pending = self.unrouted_detail[channel]
        if net_index in pending:
            pending.discard(net_index)
            if not pending:
                self.dirty_channels.discard(channel)
            # Invariantly present: the mirror tracks unrouted_detail
            # membership exactly (remove raises on drift, as an audit).
            self._pending_channels[net_index].remove(channel)
            self._missing[net_index] -= 1
            # Cached failures exist only for pending pairs; a woken
            # entry reaches here when a batch router routes it untested.
            self._parked[channel].pop(net_index, None)
            self._woken[channel].pop(net_index, None)
            self._refresh_d(net_index)

    def discard_detail_pending(self, net_index: int, channel: int) -> None:
        """Drop a stale pending entry while keeping the D counter exact."""
        self._drop_pending(net_index, channel)

    # ------------------------------------------------------------------
    # Negative-result caches (repair fast path)
    # ------------------------------------------------------------------
    # A failed attempt *parks* the net with the interval it needs (for
    # global routing, its channel span).  Claims only take segments, so
    # a parked interval stays blocked until a release frees a segment
    # of one of its covering runs.  Each release *wakes* the parked
    # entries inside the maximal free run it leaves on its track (see
    # :func:`_wake`), and only a woken entry pays an exact occupancy
    # test.  This is exact: if a parked interval can route on track
    # ``t`` now, take the last release that freed a segment of its
    # covering run on ``t``.  Nothing claimed a segment of that run
    # since (it is free now and no later release freed one), so right
    # after that release the whole run was free, joined to the freed
    # segments, and the release woke the entry.  A woken entry found
    # free is dropped, so an entry no release woke is still blocked.
    # Entries live only for pending (net, channel) pairs and for nets
    # in ``unrouted_global``: :meth:`_mark_unrouted` (the single place
    # a net's needed intervals can change), :meth:`commit_vertical` and
    # :meth:`_drop_pending` forget them.

    def _forget_failures(self, net_index: int) -> None:
        """Drop the net's entries from every negative-cache book."""
        for channel in self._pending_channels[net_index]:
            self._parked[channel].pop(net_index, None)
            self._woken[channel].pop(net_index, None)
        self._parked_global.pop(net_index, None)
        self._woken_global.pop(net_index, None)

    def detail_attempt_is_hopeless(self, net_index: int, channel: int) -> bool:
        """Whether a detail attempt for the net in ``channel`` must fail.

        A parked failure reads hopeless.  A woken one pays one
        packed-word test
        (:meth:`~repro.arch.channel.Channel.all_blocked`): still
        blocked, it is parked again and reads hopeless; free, it is
        dropped and the attempt that follows commits a claim.  A net
        with no entry reads hopeless exactly when it has no global
        route (it "automatically cannot be detail routed", Section
        3.4).  O(1).
        """
        entry = self._woken[channel].pop(net_index, None)
        if entry is None:
            return (
                net_index in self._parked[channel]
                or net_index in self.unrouted_global
            )
        if self.fabric.channels[channel].all_blocked(*entry):
            self._parked[channel][net_index] = entry
            return True
        return False

    def note_detail_failure(self, net_index: int, channel: int,
                            lo: int, hi: int) -> None:
        """Park the net in ``channel`` after a no-candidate failure.

        Only meaningful for a globally-routed net (whose requirement in
        the channel is pinned until the next rip-up); callers must not
        record failures caused by a missing global route.
        """
        self._woken[channel].pop(net_index, None)
        self._parked[channel][net_index] = (lo, hi)

    def global_attempt_is_hopeless(self, net_index: int) -> bool:
        """Whether a global attempt for the net must fail.

        The vertical-plane twin of :meth:`detail_attempt_is_hopeless`:
        a parked span reads hopeless, and a woken one pays one
        :meth:`~repro.arch.vertical.ColumnMasks.free_columns` query.
        A net with no entry reads False.  O(1) per vertical track.
        """
        entry = self._woken_global.pop(net_index, None)
        if entry is None:
            return net_index in self._parked_global
        if self.fabric.column_masks.free_columns(*entry):
            return False
        self._parked_global[net_index] = entry
        return True

    def note_global_failure(self, net_index: int, cmin: int, cmax: int) -> None:
        """Park the net after an all-columns-infeasible global failure."""
        self._woken_global.pop(net_index, None)
        self._parked_global[net_index] = (cmin, cmax)

    def detail_candidates(
        self, channel: int
    ) -> tuple[set[int], dict[int, Interval]]:
        """The channel's pending nets that may route, and its woken book.

        Pending minus parked minus globally unrouted: every net left
        out reads hopeless without a test.  Of the candidates, only
        those in the returned woken book need
        :meth:`detail_attempt_is_hopeless`; the rest have no entry and
        attempt directly.
        """
        return (
            self.unrouted_detail[channel]
            .difference(self._parked[channel])
            .difference(self.unrouted_global),
            self._woken[channel],
        )

    def global_candidates(self) -> tuple[set[int], dict[int, Interval]]:
        """:meth:`detail_candidates` for the global queue."""
        return (
            self.unrouted_global.difference(self._parked_global),
            self._woken_global,
        )

    # ------------------------------------------------------------------
    # Sanitizer probes (repro.lint.runtime)
    # ------------------------------------------------------------------
    def audit_negative_caches(self, channel: int) -> list[str]:
        """Cross-check one channel's cached detail failures.

        For every net whose cached failure in ``channel`` still reads
        hopeless, re-probe feasibility from scratch; a feasible
        candidate means the cache would have wrongly skipped a routable
        net.  The probe itself is side-effect-free (``candidates`` only
        reads occupancy).  Querying :meth:`detail_attempt_is_hopeless`
        may park or drop a woken entry after re-testing occupancy; the
        next repair would have made the same test, so this changes no
        attempt it makes.
        """
        problems: list[str] = []
        entries = {**self._parked[channel], **self._woken[channel]}
        for net_index, (lo, hi) in sorted(entries.items()):
            if not self.detail_attempt_is_hopeless(net_index, channel):
                continue
            probe = next(
                iter(self.fabric.channels[channel].candidates(lo, hi)), None
            )
            if probe is not None:
                problems.append(
                    f"negative detail cache incoherent: net {net_index} is "
                    f"cached hopeless for [{lo}, {hi}] in channel {channel} "
                    f"but track {probe.track} has a feasible candidate"
                )
        return problems

    def audit_global_cache(self, net_index: int) -> list[str]:
        """Cross-check one net's cached global-routing failure.

        If the cached failure still reads hopeless, scan every column
        for a feasible vertical candidate; finding one means the cache
        would have wrongly skipped a globally-routable net.
        """
        entry = self._parked_global.get(net_index) or self._woken_global.get(
            net_index
        )
        if entry is None:
            return []
        cmin, cmax = entry
        if not self.global_attempt_is_hopeless(net_index):
            return []
        for column in range(self.fabric.cols):
            if self.fabric.vcolumns[column].best_candidate(cmin, cmax) is not None:
                return [
                    f"negative global cache incoherent: net {net_index} is "
                    f"cached hopeless for channels [{cmin}, {cmax}] but "
                    f"column {column} has a feasible vertical candidate"
                ]
        return []

    def _audit_cache_books(self) -> list[str]:
        """The negative-cache books hold at most one entry per pending
        (net, channel) pair, with the interval the net needs there, and
        global entries only for nets in ``unrouted_global``, with their
        channel span."""
        problems: list[str] = []
        for channel in range(self.fabric.num_channels):
            books = {"parked": self._parked[channel], "woken": self._woken[channel]}
            for net_index in sorted(books["parked"].keys() & books["woken"].keys()):
                problems.append(
                    f"net {net_index} is both parked and woken in ch{channel}"
                )
            for name, book in books.items():
                for net_index, interval in sorted(book.items()):
                    route = self.routes[net_index]
                    if net_index not in self.unrouted_detail[channel]:
                        why = "is not pending there"
                    elif channel in route.claims:
                        why = "holds a claim there"
                    elif not route.globally_routed:
                        why = "has no global route"
                    elif route.requirements()[channel] != interval:
                        why = f"needs {list(route.requirements()[channel])}"
                    else:
                        continue
                    problems.append(
                        f"{name} detail entry {list(interval)} for net "
                        f"{net_index} in ch{channel}: the net {why}"
                    )
        books = {"parked": self._parked_global, "woken": self._woken_global}
        for net_index in sorted(books["parked"].keys() & books["woken"].keys()):
            problems.append(f"net {net_index} is both parked and woken globally")
        for name, book in books.items():
            for net_index, span in sorted(book.items()):
                route = self.routes[net_index]
                if net_index not in self.unrouted_global:
                    why = "is not in unrouted_global"
                elif span != (route.cmin, route.cmax):
                    why = f"spans {[route.cmin, route.cmax]}"
                else:
                    continue
                problems.append(
                    f"{name} global entry {list(span)} for net {net_index}: "
                    f"the net {why}"
                )
        return problems

    def count_global_unrouted(self) -> int:
        """G: nets that need but lack a global route."""
        return len(self.unrouted_global)

    def count_detail_unrouted(self) -> int:
        """D: nets lacking a complete detailed routing (O(1)).

        Includes globally-unrouted nets, which "automatically cannot be
        detail routed" (Section 3.4).
        """
        return self._d_count

    def fully_routed_fraction(self) -> float:
        """Fraction of nets completely routed."""
        total = len(self.routes)
        if not total:
            return 1.0
        return sum(1 for route in self.routes if route.fully_routed) / total

    def is_complete(self) -> bool:
        """Whether every cell is placed / every net routed."""
        return (
            not self.unrouted_global
            and all(not pending for pending in self.unrouted_detail)
        )

    def summary(self) -> dict:
        """Compact JSON-ready digest (carried by trace ``run_end`` events)."""
        return {
            "nets": len(self.routes),
            "global_unrouted": self.count_global_unrouted(),
            "detail_unrouted": self.count_detail_unrouted(),
            "fully_routed": self.is_complete(),
            "total_antifuses": self.total_antifuses(),
        }

    def used_track_segments(self) -> dict:
        """Claim-side used-segment totals, for occupancy cross-checks.

        Counts segments from the per-net :class:`NetRoute` records (the
        claim side of the books); the fabric's per-channel
        ``segments_used()`` counts the same wire from the owner arrays.
        The two must agree — snapshot tests assert it.
        """
        horizontal = [0] * self.fabric.num_channels
        vertical = 0
        for route in self.routes:
            for channel, claim in route.claims.items():
                horizontal[channel] += claim.num_segments
            if route.vertical is not None:
                vertical += route.vertical.num_segments
        return {
            "horizontal": horizontal,
            "horizontal_total": sum(horizontal),
            "vertical": vertical,
        }

    def total_antifuses(self) -> int:
        """All programmed antifuses in the layout."""
        return sum(
            route.horizontal_antifuses()
            + route.vertical_antifuses()
            + route.cross_antifuses()
            for route in self.routes
        )

    def check_consistency(self) -> list[str]:
        """Invariant audit used by tests: claims and occupancy must agree."""
        problems: list[str] = []
        pending: set[int] = set(self.unrouted_global)
        for channel_sets in self.unrouted_detail:
            pending.update(channel_sets)
        if len(pending) != self._d_count:
            problems.append(
                f"D counter drift: counter {self._d_count}, actual {len(pending)}"
            )
        actual_dirty = {
            channel
            for channel, channel_sets in enumerate(self.unrouted_detail)
            if channel_sets
        }
        if actual_dirty != self.dirty_channels:
            problems.append(
                f"dirty-channel drift: tracked {sorted(self.dirty_channels)}, "
                f"actual {sorted(actual_dirty)}"
            )
        for net_index, route in enumerate(self.routes):
            actual_channels = {
                channel
                for channel, channel_sets in enumerate(self.unrouted_detail)
                if net_index in channel_sets
            }
            if sorted(actual_channels) != self._pending_channels[net_index]:
                problems.append(
                    f"net {net_index} pending-channel drift: mirror "
                    f"{self._pending_channels[net_index]}, actual "
                    f"{sorted(actual_channels)}"
                )
            if len(actual_channels) != self._missing[net_index]:
                problems.append(
                    f"net {net_index} missing-count drift: counter "
                    f"{self._missing[net_index]}, actual {len(actual_channels)}"
                )
        for route in self.routes:
            key = 2 * (route.xmin - route.xmax) + (route.cmin - route.cmax)
            if self.queue_key[route.net_index] != key:
                problems.append(
                    f"net {route.net_index} queue-key drift: stored "
                    f"{self.queue_key[route.net_index]}, geometry gives {key}"
                )
            for channel, claim in route.claims.items():
                ch = self.fabric.channels[channel]
                for seg in range(claim.first_seg, claim.last_seg + 1):
                    owner = ch.owner_of(claim.track, seg)
                    if owner != route.net_index:
                        problems.append(
                            f"net {route.net_index} claims ch{channel} "
                            f"t{claim.track} s{seg} but owner is {owner}"
                        )
            if route.vertical is not None:
                vc = self.fabric.vcolumns[route.vertical.column]
                chan = vc._channel  # test-only access to occupancy
                for seg in range(
                    route.vertical.first_seg, route.vertical.last_seg + 1
                ):
                    owner = chan.owner_of(route.vertical.track, seg)
                    if owner != route.net_index:
                        problems.append(
                            f"net {route.net_index} vertical claim at column "
                            f"{route.vertical.column} s{seg} owner is {owner}"
                        )
            if route.globally_routed:
                needs = route.requirements()
                for channel, (lo, hi) in needs.items():
                    claim = route.claims.get(channel)
                    if claim is not None and not (
                        claim.lo == lo and claim.hi == hi
                    ):
                        problems.append(
                            f"net {route.net_index} claim in ch{channel} covers "
                            f"[{claim.lo},{claim.hi}], needs [{lo},{hi}]"
                        )
        problems.extend(self._audit_cache_books())
        # Every owned segment must belong to a recorded claim.
        claimed: set[tuple[int, int, int]] = set()
        for route in self.routes:
            for channel, claim in route.claims.items():
                for seg in range(claim.first_seg, claim.last_seg + 1):
                    claimed.add((channel, claim.track, seg))
        for channel_index, channel in enumerate(self.fabric.channels):
            for track in range(channel.num_tracks):
                for seg in range(len(channel.segmentation.tracks[track])):
                    owner = channel.owner_of(track, seg)
                    if owner is not None and (
                        channel_index, track, seg
                    ) not in claimed:
                        problems.append(
                            f"orphan segment ch{channel_index} t{track} s{seg} "
                            f"owned by net {owner}"
                        )
        # The flat occupancy bitmasks must mirror the owner arrays
        # bit-for-bit, and the packed word the bitmasks (horizontal
        # channels and vertical columns alike).
        for label, channel in [
            (f"ch{i}", ch) for i, ch in enumerate(self.fabric.channels)
        ] + [
            (f"vcol{vc.column}", vc._channel) for vc in self.fabric.vcolumns
        ]:
            for track, owners in enumerate(channel._owner):
                expected = 0
                for seg, owner in enumerate(owners):
                    if owner is not None:
                        expected |= 1 << seg
                if channel._occ[track] != expected:
                    problems.append(
                        f"occupancy bitmask drift: {label} t{track} mask "
                        f"{channel._occ[track]:#x}, owners imply {expected:#x}"
                    )
            packed = channel._tables.pack(channel._occ)
            if channel._word != packed:
                problems.append(
                    f"occupancy word drift: {label} packed word "
                    f"{channel._word:#x}, bitmasks pack to {packed:#x}"
                )
        # The column masks global routing queries must mirror every
        # vertical column's bitmasks in turn.
        for vc in self.fabric.vcolumns:
            for track, seg in self.fabric.column_masks.mismatches(
                vc.column, vc._channel._occ
            ):
                problems.append(
                    f"column mask drift: vcol{vc.column} t{track} s{seg} bit "
                    f"disagrees with the occupancy bitmask"
                )
        return problems
