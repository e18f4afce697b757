"""Vertical routing resources: segmented vertical tracks per column.

A net whose pins sit in different channels needs vertical wire to cross
the intervening rows.  In a row-based part this wire comes from
*vertical tracks* running at each column position; like the horizontal
tracks, vertical tracks "may themselves be segmented" (paper, Section 1)
with vertical antifuses joining adjacent segments.

Global routing (paper, Section 3.3) is precisely the assignment of these
vertical segments: a net spanning channels ``[cmin, cmax]`` must find,
at some column ``x``, one vertical track whose free segments cover that
channel range.  The heuristic router prefers columns near the net's
bounding-box center.

The occupancy mechanics are identical to a horizontal channel with the
coordinate axis reinterpreted (columns -> channels), so
:class:`VerticalColumn` delegates to an internal
:class:`~repro.arch.channel.Channel`.  Every column of a fabric shares
one vertical segmentation, so a fabric also keeps the transposed view,
:class:`ColumnMasks`: per vertical segment, the set of columns where it
is owned.  That view answers "which columns can carry this channel
span?" for all columns at once.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .channel import Channel, ChannelClaim, TrackCandidate, tables_for
from .segmentation import Segmentation, full_length_segmentation, uniform_segmentation

NetId = int


class VerticalClaim(NamedTuple):
    """A committed vertical (global-routing) assignment at one column.

    A NamedTuple for the same reason as
    :class:`~repro.arch.channel.ChannelClaim`: hot-path construction.

    Attributes
    ----------
    column: the trunk column the net crosses rows at.
    track: vertical track index at that column.
    first_seg, last_seg: inclusive run of vertical segment indices.
    cmin, cmax: inclusive channel range the net spans.
    """

    column: int
    track: int
    first_seg: int
    last_seg: int
    cmin: int
    cmax: int

    @property
    def num_segments(self) -> int:
        """Number of segments in the claimed run."""
        return self.last_seg - self.first_seg + 1

    @property
    def num_antifuses(self) -> int:
        """Vertical antifuses programmed to join the segment run."""
        return self.num_segments - 1

    @property
    def span_channels(self) -> int:
        """Channel distance covered by the claim."""
        return self.cmax - self.cmin


class ColumnMasks:
    """Per-segment column bitmasks shared by all of a fabric's columns.

    Bit ``x`` of ``masks[t][s]`` is set while segment ``s`` of vertical
    track ``t`` is owned at column ``x``.  Each column's inner
    :class:`~repro.arch.channel.Channel` keeps its bit in step from
    ``claim``/``release``/``reclaim``, the only places its occupancy
    changes.  Because the columns share the vertical segmentation, they
    also share its candidate tables, so a few big-int operations per
    vertical track find every column with a free run for a channel span.
    """

    __slots__ = ("masks", "_tables", "_all")

    def __init__(self, segmentation: Segmentation, num_columns: int) -> None:
        self.masks: list[list[int]] = [
            [0] * len(track) for track in segmentation.tracks
        ]
        self._tables = tables_for(segmentation)
        self._all = (1 << num_columns) - 1

    def free_columns(self, cmin: int, cmax: int) -> int:
        """Bit ``x`` set for each column with a free run over ``[cmin, cmax]``.

        Zero exactly when every column's ``best_candidate`` is None.
        """
        # A column is blocked when every track's covering run has an
        # owned segment there.
        blocked = self._all
        masks = self.masks
        _, entries = self._tables.tight_entries(cmin, cmax)
        for _, track, first, last, _ in entries:
            row = masks[track]
            taken = row[first]
            for s in range(first + 1, last + 1):
                taken |= row[s]
            blocked &= taken
            if not blocked:
                break
        return self._all ^ blocked

    def nearest_free(self, cmin: int, cmax: int, center: int) -> Optional[int]:
        """The column nearest ``center`` with a free run over ``[cmin, cmax]``.

        Ties go left, so this is the first column
        :func:`repro.route.global_router.column_scan_order` yields whose
        ``best_candidate`` is not None; None when no column has one.
        ``center`` must be a column index.
        """
        free = self.free_columns(cmin, cmax)
        if not free:
            return None
        # Highest free column <= center, lowest free column >= center.
        left = (free & ((2 << center) - 1)).bit_length() - 1
        above = free >> center
        if not above:
            return left
        right = center + (above & -above).bit_length() - 1
        if left < 0 or right - center < center - left:
            return right
        return left

    def mismatches(self, column: int, occ: list[int]) -> list[tuple[int, int]]:
        """``(track, seg)`` pairs where bit ``column`` disagrees with ``occ``.

        ``occ`` is the column's per-track occupancy bitmask list; the
        sanitizer probes demand an empty result.
        """
        return [
            (track, seg)
            for track, row in enumerate(self.masks)
            for seg, mask in enumerate(row)
            if mask >> column & 1 != occ[track] >> seg & 1
        ]


class VerticalColumn:
    """Vertical tracks available at one column position.

    A fabric's columns pass their shared :class:`ColumnMasks`; a
    standalone column carries none.
    """

    def __init__(
        self,
        column: int,
        segmentation: Segmentation,
        column_masks: Optional[ColumnMasks] = None,
    ) -> None:
        self.column = column
        self._channel = Channel(
            column, segmentation,
            None if column_masks is None else column_masks.masks,
        )

    @property
    def num_channels(self) -> int:
        """Number of channels the vertical tracks cross."""
        return self._channel.width

    @property
    def num_tracks(self) -> int:
        """Number of tracks."""
        return self._channel.num_tracks

    @property
    def segmentation(self) -> Segmentation:
        """The vertical track segmentation."""
        return self._channel.segmentation

    def candidates(self, cmin: int, cmax: int) -> Iterator[TrackCandidate]:
        """Feasible vertical track assignments covering channels [cmin, cmax]."""
        return self._channel.candidates(cmin, cmax)

    def best_candidate(self, cmin: int, cmax: int) -> Optional[TrackCandidate]:
        """Least-wasteful feasible assignment, ties broken by fewer segments.

        Delegates to the shared-table occupancy-bitmask scan, which
        makes exactly the selection a strict ``<`` comparison over
        ``(wastage, num_segments)`` across :meth:`candidates` in track
        order would make.
        """
        return self._channel.best_tight(cmin, cmax)

    def claim(self, net: NetId, candidate: TrackCandidate, cmin: int, cmax: int) -> VerticalClaim:
        """Commit a candidate assignment for a net."""
        claim = self._channel.claim(net, candidate, cmin, cmax)
        return VerticalClaim(
            self.column, claim.track, claim.first_seg, claim.last_seg, cmin, cmax
        )

    def release(self, net: NetId, claim: VerticalClaim) -> None:
        """Release a previously committed claim."""
        self._channel.release(net, self._to_channel_claim(claim))

    def reclaim(self, net: NetId, claim: VerticalClaim) -> None:
        """Re-commit a claim captured earlier (move rollback)."""
        self._channel.reclaim(net, self._to_channel_claim(claim))

    def free_run(self, track: int, first_seg: int, last_seg: int) -> tuple[int, int]:
        """Channels of the maximal free run on ``track`` around segments
        ``first_seg..last_seg`` (see
        :meth:`~repro.arch.channel.Channel.free_run`)."""
        return self._channel.free_run(track, first_seg, last_seg)

    def _to_channel_claim(self, claim: VerticalClaim) -> ChannelClaim:
        if claim.column != self.column:
            raise ValueError(
                f"claim for column {claim.column} applied to column {self.column}"
            )
        return ChannelClaim(
            self.column, claim.track, claim.first_seg, claim.last_seg,
            claim.cmin, claim.cmax,
        )

    def utilization(self) -> float:
        """Fraction of wire length currently owned."""
        return self._channel.utilization()

    def segments_used(self) -> int:
        """Count of currently owned segments."""
        return self._channel.segments_used()

    def channel_occupancy(self) -> list[int]:
        """Per-channel count of vertical tracks blocked by an owned segment."""
        return self._channel.column_occupancy()


def uniform_vertical_segmentation(
    num_channels: int, num_tracks: int, span: int
) -> Segmentation:
    """Vertical tracks cut into equal ``span``-channel segments."""
    return uniform_segmentation(num_channels, num_tracks, span)


def mixed_vertical_segmentation(num_channels: int, num_tracks: int) -> Segmentation:
    """Default vertical scheme: short feedthroughs plus long vertical tracks.

    Roughly half the tracks are cut into 2-channel feedthrough segments
    (one-row hops, the commonest need); the remainder alternate between
    half-height and full-height ("LVT") tracks.
    """
    if num_tracks <= 0:
        raise ValueError(f"num_tracks must be positive, got {num_tracks}")
    short = uniform_segmentation(num_channels, 1, min(2, num_channels)).tracks[0]
    half = uniform_segmentation(
        num_channels, 1, max(2, num_channels // 2)
    ).tracks[0]
    full = full_length_segmentation(num_channels, 1).tracks[0]
    tracks = []
    for t in range(num_tracks):
        slot = t % 4
        if slot in (0, 1):
            tracks.append(short)
        elif slot == 2:
            tracks.append(half)
        else:
            tracks.append(full)
    return Segmentation(num_channels, tuple(tracks))
