"""The supervisor's persistent job journal.

The journal is the service's single source of truth: an append-only
JSONL event log under the contract every log shares
(:mod:`repro.resilience.jsonl`): concurrent appenders (the supervisor
vs. a ``jobs cancel`` from another process) lose nothing and ``seq``
stays strictly increasing; a torn *final* line is dropped and
reported, and damage anywhere else raises :class:`JournalError`.
State is never stored; it is *replayed*: folding the event stream
reconstructs every job's current state, which is what lets a
freshly-started supervisor pick up where a dead one left off
(:meth:`repro.service.supervisor.Supervisor.recover`).

Event vocabulary (``kind`` field; every event also carries ``v`` and a
monotonically increasing ``seq``):

``submitted``
    A new job and its :class:`JobSpec` entered the queue.
``running``
    An attempt started: worker pid, the supervisor's host stamp (the
    machine the pid was minted on — pids mean nothing elsewhere), and
    the checkpoint and heartbeat paths.
``checkpointed``
    The attempt ended with a valid checkpoint on disk (a graceful
    drain, or a crash that left periodic checkpoints behind); the job
    is eligible for resume.
``crashed``
    The attempt died without finishing — worker exit code and a
    human-readable reason.  The job folds back to ``checkpointed``
    when a checkpoint path was recorded, else to ``submitted``.
``done`` / ``failed`` / ``cancelled``
    Terminal states.  ``done`` carries a compact result summary
    (layout digest, worst delay, routedness); ``failed`` the reason
    (retry budget, wall-clock budget, setup error).
``cancel``
    A cancellation *request* (from the CLI); the supervisor honours it
    at the next scheduling point by appending ``cancelled``.
``supervisor``
    Free-form operational notes (pool shrinks, recovery actions);
    ignored by the fold.

The job lifecycle is therefore ``submitted → running → checkpointed →
… → done|failed|cancelled``, with ``running → checkpointed`` loops for
every retry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from ..resilience import jsonl

#: Version of the journal event vocabulary.  Adding optional fields is
#: compatible; removing or re-interpreting one requires a bump.
JOURNAL_SCHEMA_VERSION = 1

#: Job states a fold can produce.  The first three are live (the
#: scheduler may act on them); the last three are terminal.
LIVE_STATES = ("submitted", "running", "checkpointed")
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Designs the service accepts: the paper suite plus the synthetic
#: ``tiny`` generator used by tests and smokes.
TINY_DESIGN = "tiny"


class JournalError(ValueError):
    """The journal file is corrupted or not a journal."""


# ----------------------------------------------------------------------
# Job specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """Everything needed to (re)build one anneal job from scratch.

    A spec is a pure value: the same spec always produces the same
    netlist, architecture, and annealer config, which is what makes a
    retried job's trajectory bit-identical to its first attempt.
    ``overrides`` maps :class:`~repro.core.AnnealerConfig` field names
    to values (``schedule`` may be a plain dict) applied over the
    effort preset.
    """

    design: str = TINY_DESIGN
    seed: int = 0
    effort: str = "fast"
    tracks: int = 24
    vtracks: int = 8
    #: ``tiny`` generator knobs (ignored for paper designs).
    netlist_seed: int = 4
    num_cells: int = 32
    depth: int = 4
    overrides: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        """JSON-safe form for the ``submitted`` event."""
        return {
            "design": self.design,
            "seed": self.seed,
            "effort": self.effort,
            "tracks": self.tracks,
            "vtracks": self.vtracks,
            "netlist_seed": self.netlist_seed,
            "num_cells": self.num_cells,
            "depth": self.depth,
            "overrides": dict(self.overrides),
        }

    @classmethod
    def from_record(cls, record: dict) -> "JobSpec":
        if not isinstance(record, dict):
            raise JournalError("job spec is not a JSON object")
        known = {
            "design", "seed", "effort", "tracks", "vtracks",
            "netlist_seed", "num_cells", "depth", "overrides",
        }
        unknown = set(record) - known
        if unknown:
            raise JournalError(
                f"job spec has unknown fields {sorted(unknown)}"
            )
        try:
            return cls(**record)
        except TypeError as exc:
            raise JournalError(f"invalid job spec: {exc}") from exc


# ----------------------------------------------------------------------
# Folded job state
# ----------------------------------------------------------------------
@dataclass
class Job:
    """One job's current state, reconstructed by :func:`replay`."""

    job_id: str
    spec: JobSpec
    state: str = "submitted"
    #: Number of ``running`` events seen (== attempts started).
    attempts: int = 0
    #: Worker pid of the current attempt (None unless ``running``).
    pid: Optional[int] = None
    #: Host the supervisor that launched the current attempt ran on —
    #: the only machine where ``pid`` may be probed or signalled.
    host: Optional[str] = None
    checkpoint: Optional[str] = None
    heartbeat: Optional[str] = None
    #: Compact result summary from the ``done`` event.
    result: Optional[dict] = None
    #: Why the job last crashed / failed / was cancelled.
    reason: Optional[str] = None
    cancel_requested: bool = False


# ----------------------------------------------------------------------
# Persistence (locked single-line appends)
# ----------------------------------------------------------------------
def append_event(path: Union[str, Path], event: dict) -> dict:
    """Append one event to the journal; returns the stamped event.

    Stamps ``v`` and ``seq`` (1-based position, counted under the
    append's lock, so concurrent appenders never mint a duplicate).  A
    torn fragment left by a crash is sealed first, so this event starts
    a fresh line and the fragment reads as the interior damage it is.
    """
    return jsonl.append(path, event, stamp=lambda event, count: {
        **event, "v": JOURNAL_SCHEMA_VERSION, "seq": count + 1,
    })


def read_journal(
    path: Union[str, Path],
) -> tuple[list[dict], list[str]]:
    """Load the raw event stream; returns ``(events, problems)``.

    A missing file is an empty journal (submit creates it); an event of
    an unsupported version raises :class:`JournalError`, like damage.
    """
    try:
        events, problems = jsonl.read(path, JournalError, "journal event")
    except FileNotFoundError:
        return [], []
    for number, event in enumerate(events, start=1):
        version = event.get("v")
        if version != JOURNAL_SCHEMA_VERSION:
            raise JournalError(
                f"{path}: event {number}: unsupported journal version "
                f"{version!r} (supported: {JOURNAL_SCHEMA_VERSION})"
            )
    return events, problems


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def replay(events: list[dict]) -> tuple[dict[str, Job], list[str]]:
    """Fold the event stream into per-job state, in submission order.

    Returns ``(jobs, problems)``; problems note events that reference
    unknown jobs or carry unknown kinds (skipped, not fatal — a newer
    writer may have appended events this reader does not understand).
    """
    jobs: dict[str, Job] = {}
    problems: list[str] = []
    for event in events:
        kind = event.get("kind")
        if kind == "supervisor":
            continue
        job_id = event.get("job_id")
        if kind == "submitted":
            if not isinstance(job_id, str) or not job_id:
                problems.append("submitted event without a job_id")
                continue
            if job_id in jobs:
                problems.append(f"{job_id}: resubmitted; later spec wins")
            jobs[job_id] = Job(
                job_id=job_id, spec=JobSpec.from_record(event.get("spec"))
            )
            continue
        job = jobs.get(job_id)
        if job is None:
            problems.append(f"{kind} event for unknown job {job_id!r}")
            continue
        if kind == "running":
            job.state = "running"
            job.attempts = int(event.get("attempt", job.attempts + 1))
            job.pid = event.get("pid")
            job.host = event.get("host")
            job.checkpoint = event.get("checkpoint", job.checkpoint)
            job.heartbeat = event.get("heartbeat", job.heartbeat)
        elif kind == "checkpointed":
            job.state = "checkpointed"
            job.pid = None
            job.checkpoint = event.get("checkpoint", job.checkpoint)
            job.reason = event.get("reason", job.reason)
        elif kind == "crashed":
            # Reschedulable: from its checkpoint when one was recorded,
            # from scratch otherwise.
            job.state = "checkpointed" if job.checkpoint else "submitted"
            job.pid = None
            job.reason = event.get("reason")
        elif kind == "done":
            job.state = "done"
            job.pid = None
            job.result = event.get("result")
            job.reason = None
        elif kind == "failed":
            job.state = "failed"
            job.pid = None
            job.reason = event.get("reason")
        elif kind == "cancelled":
            job.state = "cancelled"
            job.pid = None
            job.reason = event.get("reason")
        elif kind == "cancel":
            job.cancel_requested = True
        else:
            problems.append(f"{job_id}: unknown event kind {kind!r}")
    return jobs, problems


def load_jobs(path: Union[str, Path]) -> tuple[dict[str, Job], list[str]]:
    """Read + replay in one step; problems from both phases merged."""
    events, problems = read_journal(path)
    jobs, fold_problems = replay(events)
    return jobs, problems + fold_problems


def next_job_id(jobs: dict[str, Job]) -> str:
    """Sequential ids (``j0001``, ``j0002``, ...) past every known id."""
    highest = 0
    for job_id in jobs:
        if job_id.startswith("j") and job_id[1:].isdigit():
            highest = max(highest, int(job_id[1:]))
    return f"j{highest + 1:04d}"
