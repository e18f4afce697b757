"""Trace event schema, JSONL serialization, and validation.

A trace is an ordered list of flat JSON objects ("events"), one per
line on disk (JSONL).  The first event of every trace is ``run_start``,
which carries the schema version and the run manifest; the last, on a
run that finished, is ``run_end``.  In between, the annealer emits one
``stage`` event per temperature (the structured form of the paper's
Figure-6 per-temperature data: cost terms ``G``/``D``/``T``, adaptive
weights ``Wg``/``Wd``/``Wt``, acceptance, move-type accept/reject
counts, and per-stage metric deltas from the repair/cache/timing
layers).

Schema stability contract
-------------------------
``TRACE_SCHEMA_VERSION`` names the event vocabulary.  Removing an
event type, removing a required field, or changing a field's meaning
REQUIRES bumping the version; adding optional fields does not.  The
golden-file test (``tests/test_obs.py``) pins :func:`schema_descriptor`
so any vocabulary change forces an explicit version decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

from ..resilience import jsonl

#: Version of the event vocabulary written into every run manifest.
#: v2 added the ``checkpoint`` event (and the optional ``interrupted``
#: field on ``run_end``); v1 traces remain readable.
TRACE_SCHEMA_VERSION = 2

#: Schema versions :func:`validate_events` accepts.  Old traces stay
#: valid as long as every event type they use is still in the
#: vocabulary — v2 only added to v1.
SUPPORTED_SCHEMA_VERSIONS = frozenset({1, 2})

#: Event type -> required fields (beyond ``type`` itself).  Optional
#: fields may ride on any event; these are the floor a valid trace
#: must provide.
EVENT_REQUIRED: dict[str, tuple[str, ...]] = {
    "run_start": ("schema_version", "manifest"),
    "stage": ("index", "temperature", "attempts", "accepted", "acceptance"),
    "greedy": ("round", "attempts", "accepted"),
    "sanitizer_violation": ("phase", "problems"),
    "note": ("message",),
    "snapshot": ("snapshot",),
    "checkpoint": ("stage", "path"),
    "run_end": ("moves_attempted", "moves_accepted", "temperatures"),
}


def schema_descriptor() -> dict:
    """The schema as data, for the golden stability test."""
    return {
        "schema_version": TRACE_SCHEMA_VERSION,
        "events": {
            name: sorted(required)
            for name, required in sorted(EVENT_REQUIRED.items())
        },
    }


def validate_events(events: Iterable[dict]) -> list[str]:
    """Structural problems in an event stream (empty list = valid).

    Checks the envelope (``run_start`` first with a supported schema
    version, known event types, required fields present) — not value
    semantics, which belong to the analysis layer.
    """
    problems: list[str] = []
    first = True
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {position}: not a JSON object")
            first = False
            continue
        kind = event.get("type")
        if first:
            if kind != "run_start":
                problems.append(
                    f"event {position}: trace must open with run_start, "
                    f"got {kind!r}"
                )
            else:
                version = event.get("schema_version")
                if version not in SUPPORTED_SCHEMA_VERSIONS:
                    supported = ", ".join(
                        str(v) for v in sorted(SUPPORTED_SCHEMA_VERSIONS)
                    )
                    problems.append(
                        f"event {position}: unsupported schema_version "
                        f"{version!r} (supported: {supported})"
                    )
            first = False
        if kind not in EVENT_REQUIRED:
            problems.append(f"event {position}: unknown event type {kind!r}")
            continue
        for name in EVENT_REQUIRED[kind]:
            if name not in event:
                problems.append(
                    f"event {position}: {kind} event missing required "
                    f"field {name!r}"
                )
    if first:
        problems.append("trace is empty (no events)")
    return problems


@dataclass
class RunTrace:
    """One run's complete event stream, in emission order."""

    events: list[dict] = field(default_factory=list)
    #: Tolerated damage met reading the trace (a torn final line).
    problems: list[str] = field(default_factory=list)

    # -- structure accessors -------------------------------------------
    @property
    def manifest(self) -> dict:
        """The run manifest from the opening ``run_start`` event."""
        if self.events and self.events[0].get("type") == "run_start":
            return self.events[0].get("manifest", {})
        return {}

    @property
    def schema_version(self) -> Optional[int]:
        """Schema version declared by the opening event, if any."""
        if self.events and self.events[0].get("type") == "run_start":
            return self.events[0].get("schema_version")
        return None

    def of_type(self, kind: str) -> list[dict]:
        """All events of one type, in order."""
        return [event for event in self.events if event.get("type") == kind]

    @property
    def stages(self) -> list[dict]:
        """The per-temperature ``stage`` events."""
        return self.of_type("stage")

    @property
    def run_end(self) -> Optional[dict]:
        """The closing ``run_end`` event (None if the run aborted)."""
        ends = self.of_type("run_end")
        return ends[-1] if ends else None

    def series(self, *path: str) -> list:
        """One column across the stage events, e.g. ``series('terms', 'T')``.

        Stages lacking the field are skipped, so the same accessor works
        on simultaneous traces (terms + weights) and sequential traces
        (scalar cost only).
        """
        values = []
        for stage in self.stages:
            node: object = stage
            for key in path:
                if not isinstance(node, dict) or key not in node:
                    node = None
                    break
                node = node[key]
            if node is not None:
                values.append(node)
        return values

    def validate(self) -> list[str]:
        """Structural problems in this trace (empty list = valid)."""
        return validate_events(self.events)

    # -- serialization -------------------------------------------------
    def to_jsonl(self) -> str:
        """The trace as JSONL text (one compact JSON object per line)."""
        return "".join(jsonl.encode(event) for event in self.events)

    def write_jsonl(self, path: Union[str, Path]) -> None:
        """Write the trace to ``path`` as JSONL, atomically."""
        from ..resilience.atomic import atomic_write_text

        atomic_write_text(path, self.to_jsonl(), kind="trace")


def read_trace(path: Union[str, Path]) -> RunTrace:
    """Load a JSONL trace from disk.

    A torn final line (a killed run's live stream) is dropped into
    :attr:`RunTrace.problems`; other damage raises ``ValueError``.
    Schema problems are left to :meth:`RunTrace.validate`.
    """
    events, problems = jsonl.read(path, ValueError, "trace event")
    return RunTrace(events, problems)


def reconstructed_cost(stage_or_end: dict) -> Optional[float]:
    """``Wg*G + Wd*D + Wt*T`` recomputed from one event's fields.

    Returns None when the event lacks terms or weights (e.g. a
    sequential-flow stage).  Because events record the exact floats the
    annealer used, the reconstruction is bit-identical to the
    annealer's own scalarization — the acceptance test for the trace
    being a faithful window into the run.
    """
    terms = stage_or_end.get("terms")
    weights = stage_or_end.get("weights")
    if not terms or not weights:
        return None
    return (
        weights["wg"] * terms["G"]
        + weights["wd"] * terms["D"]
        + weights["wt"] * terms["T"]
    )
