"""Segmented routing channel with segment-level occupancy.

A :class:`Channel` instantiates a :class:`~repro.arch.segmentation.Segmentation`
and tracks which net owns each segment.  It is the shared substrate of
both detailed routers (the baseline full-channel router and the
incremental in-the-loop router): they only differ in *when* and *in what
order* they call :meth:`Channel.candidates` / :meth:`Channel.claim`.

Geometry conventions
--------------------
Columns are integer positions ``0 .. width-1``.  A net's presence in a
channel is an inclusive column interval ``[lo, hi]`` (``lo == hi`` for a
single connection point).  The interval must be covered by a run of
*consecutive free segments on a single track*; adjacent segments in the
run are joined by programming the horizontal antifuse at their shared
break point.  This "one track per channel passage" rule is the rigidity
the paper builds its whole argument on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

from .segmentation import Segmentation

NetId = int


class SegmentationTables:
    """Flat lookup tables for one segmentation, shared by every channel.

    A fabric instantiates *one* horizontal segmentation for all of its
    channels and one vertical segmentation for all of its columns, so
    everything that depends only on the segment geometry is computed
    once and shared:

    * ``seg_at[t][col]`` — index of the segment of track ``t``
      containing ``col`` (an O(1) array lookup in place of bisecting
      the per-track start columns);
    * per-interval candidate tables — for a needed interval ``[lo,
      hi]`` every track has exactly one covering segment run, so the
      complete candidate set (run bounds, used length, wastage, and a
      segment-occupancy bitmask per run) is a static property of the
      segmentation.  Only *feasibility* depends on runtime occupancy,
      which a single ``occ & mask`` test per entry answers;
    * the packed-word layout — with ``S`` the most segments on any
      track and ``field = S + 1``, a channel's packed occupancy word
      keeps track ``t``'s bitmask at bits ``[t * field, t * field + S)``
      and leaves bit ``t * field + S``, the track's *guard*, clear.
      ``carry`` sets the low ``S`` bits of every field and ``guards``
      every guard bit.  Each interval's table also holds its packed
      run: every track's covering-run mask shifted to the track's
      field.  Each field of ``word & run`` is below ``2**S``, so adding
      ``carry`` sets a field's guard exactly when the field is nonzero
      and never carries into the next field: ``((word & run) + carry)
      & guards == guards`` holds exactly when no track is free.  With
      no tracks, ``guards`` is 0 and the test answers "none free".

    The candidate tables are materialized lazily per distinct interval
    and kept pre-sorted in the two selection orders the routers use, so
    the hot scans (:meth:`Channel.best_weighted`,
    :meth:`Channel.best_tight`) first test the packed run and then walk
    a static list, returning at the first entry whose run is free.
    """

    __slots__ = (
        "width", "tracks", "starts", "seg_at", "field", "carry", "guards",
        "_weighted", "_tight", "_runs",
    )

    def __init__(self, segmentation: Segmentation) -> None:
        self.width = segmentation.width
        self.tracks = segmentation.tracks
        self.starts = [
            [seg[0] for seg in track] for track in segmentation.tracks
        ]
        self.seg_at: list[list[int]] = []
        for track in segmentation.tracks:
            table = [0] * segmentation.width
            for index, (start, end) in enumerate(track):
                for col in range(start, end):
                    table[col] = index
            self.seg_at.append(table)
        most = max((len(track) for track in segmentation.tracks), default=0)
        self.field = most + 1
        self.carry = self.pack([(1 << most) - 1] * segmentation.num_tracks)
        self.guards = self.pack([1 << most] * segmentation.num_tracks)
        # weight -> (lo, hi) -> (packed run, entries sorted by (cost,
        # track)); (lo, hi) -> (packed run, entries sorted by (wastage,
        # num_segments, track)).
        self._weighted: dict[
            float, dict[tuple[int, int], tuple[int, list[tuple]]]
        ] = {}
        self._tight: dict[tuple[int, int], tuple[int, list[tuple]]] = {}
        # (lo, hi) -> packed run, for every interval either table holds.
        self._runs: dict[tuple[int, int], int] = {}

    def pack(self, occ: list[int]) -> int:
        """Per-track occupancy bitmasks packed into one word.

        The layout the scans test (see the class docstring); a channel's
        packed word must always equal ``pack`` of its bitmasks.
        """
        word = 0
        for track, mask in enumerate(occ):
            word |= mask << (track * self.field)
        return word

    def _entries(self, lo: int, hi: int) -> tuple[int, list[tuple]]:
        """The packed run and one raw candidate per track for ``[lo, hi]``.

        Candidates are in track order.  Entry layout: ``(mask, track,
        first_seg, last_seg, used, wastage, num_segments)``.
        """
        entries = []
        span = hi - lo + 1
        for track, segs in enumerate(self.tracks):
            table = self.seg_at[track]
            first = table[lo]
            last = table[hi]
            used = segs[last][1] - segs[first][0]
            mask = ((1 << (last - first + 1)) - 1) << first
            entries.append(
                (mask, track, first, last, used, used - span, last - first + 1)
            )
        run = self._runs[(lo, hi)] = self.pack([entry[0] for entry in entries])
        return run, entries

    def run(self, lo: int, hi: int) -> int:
        """The packed run for ``[lo, hi]``: one dict lookup once a scan
        table holds the interval."""
        run = self._runs.get((lo, hi))
        if run is None:
            run = self._entries(lo, hi)[0]
        return run

    def weighted_entries(
        self, lo: int, hi: int, weight: float
    ) -> tuple[int, list[tuple]]:
        """The packed run, and candidates sorted by (weighted cost, track).

        First-feasible in this order is exactly the strict-``<`` minimum
        of ``wastage + weight * num_segments`` over candidates in track
        order — the selection :meth:`Channel.best_weighted` must make.
        Entry layout: ``(mask, track, first_seg, last_seg, used)``.
        """
        per_weight = self._weighted.get(weight)
        if per_weight is None:
            per_weight = self._weighted[weight] = {}
        table = per_weight.get((lo, hi))
        if table is None:
            run, raw = self._entries(lo, hi)
            raw.sort(key=lambda e: (e[5] + weight * e[6], e[1]))
            table = per_weight[(lo, hi)] = (run, [e[:5] for e in raw])
        return table

    def tight_entries(self, lo: int, hi: int) -> tuple[int, list[tuple]]:
        """The packed run, and candidates sorted by (wastage,
        num_segments, track).

        First-feasible in this order matches the strict-``<`` scan over
        ``(wastage, num_segments)`` keys in track order — the selection
        the vertical (global-routing) router makes.  Entry layout as in
        :meth:`weighted_entries`.
        """
        table = self._tight.get((lo, hi))
        if table is None:
            run, raw = self._entries(lo, hi)
            raw.sort(key=lambda e: (e[5], e[6], e[1]))
            table = self._tight[(lo, hi)] = (run, [e[:5] for e in raw])
        return table


@lru_cache(maxsize=32)
def tables_for(segmentation: Segmentation) -> SegmentationTables:
    """The shared :class:`SegmentationTables` for a segmentation.

    Keyed by value (``Segmentation`` is a frozen dataclass), so every
    fabric built from the same recipe — each annealer builds its own —
    reuses the tables and the intervals they have already materialized.
    The bound caps what a sweep over many designs or track counts keeps
    alive.
    """
    return SegmentationTables(segmentation)


class ChannelClaim(NamedTuple):
    """A committed detailed-routing assignment inside one channel.

    A NamedTuple (not a frozen dataclass) because the move loop builds
    one per committed claim: tuple construction skips the per-field
    ``object.__setattr__`` a frozen dataclass pays.

    Attributes
    ----------
    channel: index of the channel the claim lives in.
    track: track index within the channel.
    first_seg, last_seg: inclusive run of segment indices on the track.
    lo, hi: the column interval the net actually needed.
    """

    channel: int
    track: int
    first_seg: int
    last_seg: int
    lo: int
    hi: int

    @property
    def num_segments(self) -> int:
        """Number of segments in the claimed run."""
        return self.last_seg - self.first_seg + 1

    @property
    def num_antifuses(self) -> int:
        """Horizontal antifuses programmed to join the segment run."""
        return self.num_segments - 1


class TrackCandidate(NamedTuple):
    """A feasible (free) track assignment for an interval, with its cost terms.

    NamedTuple for cheap construction: the candidate scans build one per
    winning entry on every routing attempt.
    """

    track: int
    first_seg: int
    last_seg: int
    used_length: int
    wastage: int

    @property
    def num_segments(self) -> int:
        """Number of segments in the claimed run."""
        return self.last_seg - self.first_seg + 1


class Channel:
    """One segmented channel of the device, with per-segment occupancy."""

    def __init__(
        self,
        index: int,
        segmentation: Segmentation,
        column_masks: Optional[list[list[int]]] = None,
    ) -> None:
        self.index = index
        self.segmentation = segmentation
        self._width = segmentation.width
        # _owner[t][s] is the net id occupying segment s of track t, or None.
        self._owner: list[list[Optional[NetId]]] = [
            [None] * len(track) for track in segmentation.tracks
        ]
        # Flat lookup tables shared across all channels with this
        # segmentation (see :class:`SegmentationTables`).
        self._tables = tables_for(segmentation)
        self._starts = self._tables.starts
        self._seg_at = self._tables.seg_at
        # _occ[t] is a bitmask with bit s set iff segment s of track t
        # is owned; mirrors _owner exactly (claim/release/reclaim keep
        # both).  Feasibility of a segment run [first, last] is one
        # integer test: ``occ & run_mask == 0``.
        self._occ: list[int] = [0] * segmentation.num_tracks
        # _word is _occ packed at the tables' field offsets (track t's
        # mask shifted left by t * _field; see SegmentationTables), kept
        # in step by the same three methods.  It lets a scan prove every
        # track blocked without walking the tracks.
        self._word = 0
        self._field = self._tables.field
        self._carry = self._tables.carry
        self._guards = self._tables.guards
        # Vertical columns only: the fabric-wide table of
        # :class:`~repro.arch.vertical.ColumnMasks`, in which bit
        # ``index`` of ``column_masks[t][s]`` mirrors bit ``s`` of
        # ``_occ[t]``.  None for horizontal channels.
        self._column_masks = column_masks

    @property
    def width(self) -> int:
        """Channel width in columns."""
        return self.segmentation.width

    @property
    def num_tracks(self) -> int:
        """Number of tracks."""
        return self.segmentation.num_tracks

    def _check_interval(self, lo: int, hi: int) -> None:
        # Runs before every table lookup: seg_at[t][lo] with a negative
        # lo would silently read the last column's segment.
        if not 0 <= lo <= hi < self._width:
            raise ValueError(
                f"interval [{lo}, {hi}] outside channel of width {self._width}"
            )

    def _segment_at(self, track: int, col: int) -> int:
        """Index of the segment of ``track`` containing column ``col``."""
        return self._seg_at[track][col]

    def run_for(self, track: int, lo: int, hi: int) -> tuple[int, int]:
        """Segment-index run on ``track`` needed to cover ``[lo, hi]``."""
        self._check_interval(lo, hi)
        return self._segment_at(track, lo), self._segment_at(track, hi)

    def is_free(self, track: int, first_seg: int, last_seg: int) -> bool:
        """Whether every segment in the run is unowned."""
        owner = self._owner[track]
        return all(owner[s] is None for s in range(first_seg, last_seg + 1))

    def candidate_on(self, track: int, lo: int, hi: int) -> Optional[TrackCandidate]:
        """The feasible assignment of ``[lo, hi]`` on ``track``, if any."""
        first_seg, last_seg = self.run_for(track, lo, hi)
        if not self.is_free(track, first_seg, last_seg):
            return None
        segs = self.segmentation.tracks[track]
        used = segs[last_seg][1] - segs[first_seg][0]
        span = hi - lo + 1
        return TrackCandidate(track, first_seg, last_seg, used, used - span)

    def candidates(self, lo: int, hi: int) -> Iterator[TrackCandidate]:
        """All feasible track assignments for ``[lo, hi]``, in track order."""
        self._check_interval(lo, hi)
        for track in range(self.num_tracks):
            candidate = self.candidate_on(track, lo, hi)
            if candidate is not None:
                yield candidate

    def best_weighted(
        self, lo: int, hi: int, segment_weight: float
    ) -> Optional[TrackCandidate]:
        """Lowest ``wastage + segment_weight * num_segments`` candidate.

        Table-walk form of ``min(candidates(lo, hi), key=...)`` for the
        incremental router's hot loop: the shared segmentation tables
        keep every track's run for ``[lo, hi]`` pre-sorted by
        ``(cost, track)``.  After one packed-word test that returns
        None when every run is blocked, the scan is one
        occupancy-bitmask test per entry and stops at the first free
        run.  Ties keep the lowest track index, exactly like a strict
        ``<`` comparison over :meth:`candidates` in track order —
        selection must stay bit-identical to the generic path.
        """
        self._check_interval(lo, hi)
        return self._first_free(
            hi - lo + 1, self._tables.weighted_entries(lo, hi, segment_weight)
        )

    def best_tight(self, lo: int, hi: int) -> Optional[TrackCandidate]:
        """Lowest ``(wastage, num_segments)`` candidate, ties to low track.

        Same table-walk scheme as :meth:`best_weighted`, in the
        selection order the vertical-column (global-routing) assignment
        uses; identical to a strict ``<`` scan over
        ``(candidate.wastage, candidate.num_segments)`` keys across
        :meth:`candidates` in track order.
        """
        self._check_interval(lo, hi)
        return self._first_free(hi - lo + 1, self._tables.tight_entries(lo, hi))

    def all_blocked(self, lo: int, hi: int) -> bool:
        """Whether every track's covering run for ``[lo, hi]`` is owned.

        The packed-word test :meth:`_first_free` opens with, so it is
        True exactly when :meth:`best_weighted` and :meth:`best_tight`
        return None.  ``[lo, hi]`` must lie inside the channel.
        """
        guards = self._guards
        return (
            (self._word & self._tables.run(lo, hi)) + self._carry
        ) & guards == guards

    def free_run(self, track: int, first_seg: int, last_seg: int) -> tuple[int, int]:
        """Columns of the maximal free run on ``track`` around segments
        ``first_seg..last_seg``, which must be free.

        An interval inside the returned columns can route on ``track``
        now.  The run's ends are the nearest owned segments below and
        above, one bit operation each on the track's bitmask.
        """
        occ = self._occ[track]
        segs = self.segmentation.tracks[track]
        first = (occ & ((1 << first_seg) - 1)).bit_length()
        above = occ >> (last_seg + 1)
        last = (
            last_seg + (above & -above).bit_length() - 1 if above
            else len(segs) - 1
        )
        return segs[first][0], segs[last][1] - 1

    def _first_free(
        self, span: int, table: tuple[int, list[tuple]]
    ) -> Optional[TrackCandidate]:
        """The first entry of a presorted table whose run is free.

        Most detail attempts on a busy channel fail, so one packed-word
        test (see :class:`SegmentationTables`) first proves "every
        track's covering run has an owned segment" without touching the
        entries; only when some track may be free does the walk run.
        """
        run, entries = table
        guards = self._guards
        if ((self._word & run) + self._carry) & guards == guards:
            return None
        occ = self._occ
        for mask, track, first, last, used in entries:
            if not occ[track] & mask:
                return TrackCandidate(track, first, last, used, used - span)
        return None

    def claim(self, net: NetId, candidate: TrackCandidate, lo: int, hi: int) -> ChannelClaim:
        """Commit ``candidate`` for ``net``; returns the recorded claim."""
        owner = self._owner[candidate.track]
        for s in range(candidate.first_seg, candidate.last_seg + 1):
            if owner[s] is not None:
                raise RuntimeError(
                    f"channel {self.index} track {candidate.track} segment {s} "
                    f"already owned by net {owner[s]}"
                )
        for s in range(candidate.first_seg, candidate.last_seg + 1):
            owner[s] = net
        run = (1 << (candidate.last_seg + 1)) - (1 << candidate.first_seg)
        self._occ[candidate.track] |= run
        self._word |= run << (candidate.track * self._field)
        if self._column_masks is not None:
            self._mirror_columns(
                candidate.track, candidate.first_seg, candidate.last_seg, True
            )
        return ChannelClaim(
            self.index, candidate.track, candidate.first_seg, candidate.last_seg, lo, hi
        )

    def release(self, net: NetId, claim: ChannelClaim) -> None:
        """Release a previously committed claim (exact inverse of claim)."""
        if claim.channel != self.index:
            raise ValueError(
                f"claim for channel {claim.channel} released on channel {self.index}"
            )
        owner = self._owner[claim.track]
        for s in range(claim.first_seg, claim.last_seg + 1):
            if owner[s] != net:
                raise RuntimeError(
                    f"channel {self.index} track {claim.track} segment {s} "
                    f"owned by {owner[s]}, expected net {net}"
                )
            owner[s] = None
        run = (1 << (claim.last_seg + 1)) - (1 << claim.first_seg)
        self._occ[claim.track] &= ~run
        self._word &= ~(run << (claim.track * self._field))
        if self._column_masks is not None:
            self._mirror_columns(claim.track, claim.first_seg, claim.last_seg, False)

    def reclaim(self, net: NetId, claim: ChannelClaim) -> None:
        """Re-commit a claim captured earlier (used by move rollback)."""
        owner = self._owner[claim.track]
        for s in range(claim.first_seg, claim.last_seg + 1):
            if owner[s] is not None:
                raise RuntimeError(
                    f"rollback collision: channel {self.index} track {claim.track} "
                    f"segment {s} owned by {owner[s]}"
                )
        for s in range(claim.first_seg, claim.last_seg + 1):
            owner[s] = net
        run = (1 << (claim.last_seg + 1)) - (1 << claim.first_seg)
        self._occ[claim.track] |= run
        self._word |= run << (claim.track * self._field)
        if self._column_masks is not None:
            self._mirror_columns(claim.track, claim.first_seg, claim.last_seg, True)

    def _mirror_columns(self, track: int, first: int, last: int, owned: bool) -> None:
        """Set (``owned``) or clear this column's bit in a run's column masks."""
        row = self._column_masks[track]
        bit = 1 << self.index
        for s in range(first, last + 1):
            if owned:
                row[s] |= bit
            else:
                row[s] &= ~bit

    def owner_of(self, track: int, seg: int) -> Optional[NetId]:
        """Net id owning a segment, or None if free."""
        return self._owner[track][seg]

    def segments_used(self) -> int:
        """Count of currently owned segments."""
        return sum(
            1 for track in self._owner for owner in track if owner is not None
        )

    def column_occupancy(self) -> list[int]:
        """Per-column count of tracks blocked by an owned segment.

        A claimed segment blocks its whole span (overhang beyond the
        needed interval included — wastage is real occupancy), so the
        count at a column is how many of the channel's tracks are
        unavailable there; the density ceiling is :attr:`num_tracks`.
        """
        occupancy = [0] * self.width
        for t, track in enumerate(self.segmentation.tracks):
            owner = self._owner[t]
            for s, (start, end) in enumerate(track):
                if owner[s] is not None:
                    for col in range(start, end):
                        occupancy[col] += 1
        return occupancy

    def utilization(self) -> float:
        """Fraction of total segment *length* currently owned."""
        total = 0
        used = 0
        for t, track in enumerate(self.segmentation.tracks):
            for s, (start, end) in enumerate(track):
                total += end - start
                if self._owner[t][s] is not None:
                    used += end - start
        return used / total if total else 0.0

    def occupancy_rows(self) -> list[str]:
        """ASCII occupancy map, one string per track ('.' free, '#' used,
        '|' at segment breaks).  Used by the Figure-7 report."""
        rows = []
        for t, track in enumerate(self.segmentation.tracks):
            chars: list[str] = []
            for s, (start, end) in enumerate(track):
                fill = "#" if self._owner[t][s] is not None else "."
                chars.append(fill * (end - start))
                if s + 1 < len(track):
                    chars.append("|")
            rows.append("".join(chars))
        return rows
