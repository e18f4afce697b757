"""Whole-device model of a row-based FPGA.

A :class:`Fabric` is a ``rows x cols`` grid of module *slots* separated
by ``rows + 1`` segmented routing channels, plus segmented vertical
tracks at every column:

::

    channel rows      ──────────────   (above the top row)
    row rows-1        [s][s][s][s]...
    channel rows-1    ──────────────
    ...
    row 0             [s][s][s][s]...
    channel 0         ──────────────   (below the bottom row)

A cell placed at slot ``(row, col)`` reaches channel ``row`` through its
bottom pins and channel ``row + 1`` through its top pins; which ports
use which side is decided by the cell's current pinmap.

Slots are typed: by default the leftmost/rightmost ``io_cols`` slots of
each row accept only I/O modules (matching the paper's Figure 1, where
"i" blocks live in the rows alongside "c" blocks), and the interior
slots accept logic modules.  The placer must respect slot typing.

The fabric owns all routing occupancy state (its channels and vertical
columns), so a *layout* is fully described by (placement, pinmap choice,
routing claims) against one fabric instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .channel import Channel
from .segmentation import Segmentation, mixed_segmentation
from .vertical import ColumnMasks, VerticalColumn, mixed_vertical_segmentation

IO = "io"
LOGIC = "logic"

Slot = tuple[int, int]


@dataclass(frozen=True)
class FabricSpec:
    """A recipe for building (and re-building) a fabric.

    ``channel_scheme(width, tracks)`` and
    ``vertical_scheme(num_channels, tracks)`` build the segmentations;
    keeping the recipe around lets experiments rebuild the same device
    with a different track count (the Table-2 wirability sweep).
    """

    rows: int
    cols: int
    tracks_per_channel: int
    vtracks_per_column: int
    io_cols: int = 1
    sites_per_side: int = 4
    channel_scheme: Callable[[int, int], Segmentation] = mixed_segmentation
    vertical_scheme: Callable[[int, int], Segmentation] = mixed_vertical_segmentation

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(f"fabric must have positive size, got {self.rows}x{self.cols}")
        if self.tracks_per_channel <= 0:
            raise ValueError("tracks_per_channel must be positive")
        if self.vtracks_per_column <= 0:
            raise ValueError("vtracks_per_column must be positive")
        if self.io_cols < 0 or 2 * self.io_cols > self.cols:
            raise ValueError(
                f"io_cols {self.io_cols} does not fit in {self.cols} columns"
            )

    def with_tracks(self, tracks_per_channel: int) -> "FabricSpec":
        """Same device, different horizontal track budget (Table-2 knob)."""
        from dataclasses import replace

        return replace(self, tracks_per_channel=tracks_per_channel)

    def build(self) -> "Fabric":
        """Instantiate the device from this recipe."""
        return Fabric(self)


class Fabric:
    """An instantiated row-based FPGA with live routing occupancy."""

    def __init__(self, spec: FabricSpec) -> None:
        self.spec = spec
        self.rows = spec.rows
        self.cols = spec.cols
        self.num_channels = spec.rows + 1
        channel_seg = spec.channel_scheme(spec.cols, spec.tracks_per_channel)
        self.channels: list[Channel] = [
            Channel(c, channel_seg) for c in range(self.num_channels)
        ]
        vertical_seg = spec.vertical_scheme(self.num_channels, spec.vtracks_per_column)
        # Global routing's all-columns view of vertical occupancy.
        self.column_masks = ColumnMasks(vertical_seg, spec.cols)
        self.vcolumns: list[VerticalColumn] = [
            VerticalColumn(x, vertical_seg, self.column_masks)
            for x in range(spec.cols)
        ]

    # ------------------------------------------------------------------
    # Slot geometry
    # ------------------------------------------------------------------
    def slot_kind(self, row: int, col: int) -> str:
        """Slot class at (row, col): ``'io'`` on row ends, ``'logic'`` inside."""
        self._check_slot(row, col)
        if col < self.spec.io_cols or col >= self.cols - self.spec.io_cols:
            return IO
        return LOGIC

    def slots(self) -> list[Slot]:
        """All slot coordinates, row-major."""
        return [(r, c) for r in range(self.rows) for c in range(self.cols)]

    def slots_of_kind(self, kind: str) -> list[Slot]:
        """Slot coordinates of the given class."""
        return [s for s in self.slots() if self.slot_kind(*s) == kind]

    def capacity(self, kind: str) -> int:
        """Number of slots of the given class."""
        if kind == IO:
            return self.rows * 2 * self.spec.io_cols
        if kind == LOGIC:
            return self.rows * (self.cols - 2 * self.spec.io_cols)
        raise ValueError(f"unknown slot kind {kind!r}")

    def _check_slot(self, row: int, col: int) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(
                f"slot ({row}, {col}) outside {self.rows}x{self.cols} fabric"
            )

    def channel_for(self, row: int, side: str) -> int:
        """Channel index reached by a pin on ``side`` of a cell in ``row``."""
        self._check_slot(row, 0)
        if side == "bottom":
            return row
        if side == "top":
            return row + 1
        raise ValueError(f"side must be 'bottom' or 'top', got {side!r}")

    # ------------------------------------------------------------------
    # Resource accounting
    # ------------------------------------------------------------------
    def total_horizontal_segments(self) -> int:
        """Total horizontal segments across all channels."""
        return sum(ch.segmentation.segment_count() for ch in self.channels)

    def horizontal_utilization(self) -> float:
        """Mean fraction of channel wire length in use."""
        values = [ch.utilization() for ch in self.channels]
        return sum(values) / len(values) if values else 0.0

    def vertical_utilization(self) -> float:
        """Mean fraction of vertical wire length in use."""
        values = [vc.utilization() for vc in self.vcolumns]
        return sum(values) / len(values) if values else 0.0

    def occupancy_report(self) -> str:
        """ASCII die map: channels interleaved with row markers (Figure 7)."""
        lines: list[str] = []
        for c in reversed(range(self.num_channels)):
            lines.append(f"--- channel {c} " + "-" * max(0, self.cols - 12))
            lines.extend(self.channels[c].occupancy_rows())
            if c > 0:
                lines.append(f"row {c - 1}: " + "[]" * self.cols)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Fabric({self.rows}x{self.cols}, "
            f"{self.spec.tracks_per_channel} tracks/channel, "
            f"{self.spec.vtracks_per_column} vtracks/column)"
        )


def fabric_spec_for(
    num_io: int,
    num_logic: int,
    tracks_per_channel: int = 24,
    vtracks_per_column: int = 8,
    utilization: float = 0.85,
    aspect: float = 2.5,
    io_cols: Optional[int] = None,
) -> FabricSpec:
    """Size a fabric to hold a netlist at the given target utilization.

    Rows and columns are chosen so that logic slots >= num_logic /
    utilization and io slots >= num_io / utilization, with roughly
    ``aspect`` columns per row (row-based parts are wide and short).
    """
    if num_io < 0 or num_logic < 0 or num_io + num_logic == 0:
        raise ValueError("need num_io, num_logic >= 0 and at least one cell")
    if not 0 < utilization <= 1:
        raise ValueError(f"utilization must be in (0, 1], got {utilization}")
    need_logic = max(1, int(num_logic / utilization + 0.999))
    need_io = max(0, int(num_io / utilization + 0.999))
    rows = max(2, int((need_logic / aspect) ** 0.5 + 0.5))
    while True:
        logic_cols = max(1, (need_logic + rows - 1) // rows)
        if io_cols is None:
            per_row_io = (need_io + 2 * rows - 1) // (2 * rows) if need_io else 1
        else:
            per_row_io = io_cols
        cols = logic_cols + 2 * per_row_io
        spec = FabricSpec(
            rows=rows,
            cols=cols,
            tracks_per_channel=tracks_per_channel,
            vtracks_per_column=vtracks_per_column,
            io_cols=per_row_io,
        )
        fabric_io = spec.rows * 2 * spec.io_cols
        fabric_logic = spec.rows * (spec.cols - 2 * spec.io_cols)
        if fabric_io >= num_io and fabric_logic >= num_logic:
            return spec
        rows += 1
