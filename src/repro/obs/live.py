"""Live run observability: heartbeat sidecar, tail-follow trace reader,
and the incremental anomaly engine behind ``repro-fpga watch``.

Every other observability layer (traces, snapshots, the run ledger) is
post-hoc: a multi-hour anneal is a black box until ``run_end``.  This
module is the in-flight window, built from three cooperating pieces:

* :class:`HeartbeatWriter` — a small schema-versioned JSON sidecar
  (``<trace>.hb``) rewritten atomically at stage boundaries and at
  least every ``min_interval_s`` seconds mid-stage.  It carries the
  wall-clock telemetry deliberately kept *out* of the deterministic
  trace — pid, counters, acceptance, moves/sec, ETA, last checkpoint —
  following the ledger's ``VOLATILE_FIELDS`` discipline.  The writer
  reads only monotonic clocks (never ``time.time``), so a heartbeating
  run stays bit-identical to a plain run and the deep-lint
  transitive-nondeterminism rule stays clean; watchers derive beat age
  from the file's mtime on their own side.
* :class:`TraceFollower` — incremental tail-follow over a growing
  trace stream, decoding lines with the one JSONL codec every log
  shares (:mod:`repro.resilience.jsonl`): complete lines decode, the
  trailing partial line waits for the rest, and rotation and damaged
  lines are reported in ``.problems`` instead of raising.
* :class:`AnomalyEngine` — the per-detector functions refactored out
  of :func:`repro.obs.summary.find_anomalies` (stalled acceptance,
  weight oscillation, repair collapse) plus two live-only detectors:
  cost plateau and heartbeat loss — so alarms fire mid-run rather
  than at post-mortem.

:func:`watch_once` snapshots all three into a :class:`WatchState`;
:func:`render_watch` turns a state into the terminal dashboard the
``repro-fpga watch`` CLI redraws (sparklines via
:func:`repro.obs.summary.sparkline`).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from ..resilience import jsonl
from .events import RunTrace

#: Version of the heartbeat vocabulary.  Removing a field or changing a
#: field's meaning requires bumping this; adding optional fields does
#: not.  Readers reject other versions (a heartbeat is ephemeral, so
#: there is no migration story — just re-run the writer).
HEARTBEAT_SCHEMA_VERSION = 1

#: ``status`` values that mean the run is over (an ``interrupted: ...``
#: status is also terminal — budget stops and signals end the process).
_TERMINAL_STATUS_PREFIXES = ("completed", "interrupted")


def heartbeat_path(trace_path: Union[str, Path]) -> Path:
    """The conventional sidecar path for a trace: ``<trace>.hb``."""
    trace_path = Path(trace_path)
    return trace_path.with_name(trace_path.name + ".hb")


def heartbeat_terminal(payload: Optional[dict]) -> bool:
    """Whether a heartbeat payload declares the run finished."""
    if not isinstance(payload, dict):
        return False
    status = str(payload.get("status") or "")
    return status.startswith(_TERMINAL_STATUS_PREFIXES)


_LOCAL_HOST: Optional[str] = None


def local_host() -> str:
    """This machine's name, as heartbeat writers stamp it (cached).

    The same stamp scopes every pid recorded by this package (heartbeat
    payloads, the job journal's ``running`` events): a reader may only
    signal-0 probe — let alone kill — a pid it can prove was minted on
    its own machine.
    """
    global _LOCAL_HOST
    if _LOCAL_HOST is None:
        import socket

        _LOCAL_HOST = socket.gethostname()
    return _LOCAL_HOST


def pid_alive(pid) -> Optional[bool]:
    """Whether ``pid`` is a live process *on this host*.

    A signal-0 probe: ``True`` (alive, possibly owned by someone else),
    ``False`` (definitely gone), or ``None`` when this host cannot tell
    (bad pid value, exotic platform).  Never raises.
    """
    if not isinstance(pid, int) or isinstance(pid, bool) or pid <= 0:
        return None
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        # The process exists but belongs to another user.
        return True
    except (OSError, OverflowError):
        return None
    return True


def heartbeat_pid_dead(payload: Optional[dict]) -> bool:
    """Whether a heartbeat's writing process is provably dead.

    The mtime-age watchdog takes a full ``--stall-timeout`` to notice a
    dead run; this probe notices immediately — but only when it can be
    *sure*: the payload must carry a ``pid``, the heartbeat must have
    been written on this host (the ``host`` stamp matches, or predates
    the stamp entirely), and the signal-0 probe must come back
    definitively dead.  Every uncertain case returns False and leaves
    the verdict to the staleness clock.
    """
    if not isinstance(payload, dict):
        return False
    host = payload.get("host")
    if host is not None and host != local_host():
        return False  # written on another machine; pids don't transfer
    return pid_alive(payload.get("pid")) is False


class HeartbeatWriter:
    """Throttled atomic writer for one run's heartbeat sidecar.

    The annealer calls :meth:`beat` at stage boundaries and (guarded by
    :meth:`due`) every few hundred attempts mid-stage; the writer
    rewrites the sidecar at most once per ``min_interval_s`` unless
    forced (phase transitions and the final beat are forced so the
    terminal status always lands).  Telemetry assembly and the write
    are pure reads of already-computed values — no RNG, and only the
    monotonic clock — so heartbeating never perturbs the anneal.
    """

    __slots__ = ("path", "min_interval_s", "seq", "_last_beat")

    def __init__(
        self, path: Union[str, Path], min_interval_s: float = 2.0
    ) -> None:
        if min_interval_s <= 0:
            raise ValueError(
                f"min_interval_s must be > 0, got {min_interval_s}"
            )
        self.path = Path(path)
        self.min_interval_s = float(min_interval_s)
        self.seq = 0
        self._last_beat: Optional[float] = None

    def due(self) -> bool:
        """Whether the throttle window has elapsed since the last beat."""
        if self._last_beat is None:
            return True
        return time.monotonic() - self._last_beat >= self.min_interval_s

    def beat(self, telemetry: dict, force: bool = False) -> bool:
        """Write one heartbeat (skipped unless due or forced).

        Returns True when a beat was written.  ``telemetry`` is merged
        over the envelope (schema version, pid, sequence number), so a
        caller cannot accidentally shadow them.
        """
        if not force and not self.due():
            return False
        from ..resilience.atomic import atomic_write_text

        self.seq += 1
        payload = dict(telemetry)
        payload["schema_version"] = HEARTBEAT_SCHEMA_VERSION
        payload["pid"] = os.getpid()
        # The host stamp scopes the pid: a reader may only signal-0
        # probe a pid it knows was minted on its own machine.
        payload["host"] = local_host()
        payload["seq"] = self.seq
        # durable=False: beats are advisory — a crash leaving the
        # sidecar stale is exactly the watchdog's signal, and an fsync
        # per beat would dominate the cost of beating.  The tmp+rename
        # atomicity that protects readers from torn files is kept.
        atomic_write_text(
            self.path,
            json.dumps(payload, sort_keys=True) + "\n",
            kind="heartbeat",
            durable=False,
        )
        self._last_beat = time.monotonic()
        return True


def maybe_heartbeat(
    path: Optional[Union[str, Path]], min_interval_s: float = 2.0
) -> Optional[HeartbeatWriter]:
    """Writer when a path is configured, None otherwise (guarded-probe)."""
    if path is None:
        return None
    return HeartbeatWriter(path, min_interval_s)


def read_heartbeat(
    path: Union[str, Path],
) -> tuple[Optional[dict], list[str]]:
    """Load a heartbeat sidecar, degrading gracefully.

    Returns ``(payload, problems)``: a missing file, a zero-byte file
    (a torn non-atomic writer), malformed JSON, or an unsupported
    schema version all yield ``(None, [note])`` instead of raising —
    a watcher polls this between atomic replacements and must survive
    every intermediate state.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None, [f"{path}: no heartbeat file"]
    except OSError as exc:
        return None, [f"{path}: unreadable heartbeat ({exc})"]
    if not text.strip():
        return None, [f"{path}: zero-byte heartbeat (torn write?)"]
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"{path}: malformed heartbeat dropped ({exc.msg})"]
    if not isinstance(payload, dict):
        return None, [f"{path}: heartbeat is not a JSON object"]
    version = payload.get("schema_version")
    if version != HEARTBEAT_SCHEMA_VERSION:
        return None, [
            f"{path}: unsupported heartbeat schema_version {version!r} "
            f"(supported: {HEARTBEAT_SCHEMA_VERSION})"
        ]
    return payload, []


def heartbeat_age_s(path: Union[str, Path]) -> Optional[float]:
    """Seconds since the sidecar was last replaced (None when absent).

    This is the watcher's side of the no-wall-clock-in-the-writer
    bargain: the writer never stamps wall time into the payload, so
    staleness is derived here from the file's mtime.  The wall-clock
    read lives in watcher-only code, unreachable from the anneal.
    """
    try:
        mtime = os.stat(path).st_mtime
    except OSError:
        return None
    now = time.time()  # repro-lint: disable=nondeterministic-call
    return max(0.0, now - mtime)


# ----------------------------------------------------------------------
# Tail-follow trace reader
# ----------------------------------------------------------------------
class TraceFollower:
    """Incremental reader over a growing JSONL trace stream.

    Each :meth:`poll` reads the bytes appended since the previous poll,
    decodes the complete lines (:func:`repro.resilience.jsonl.decode`),
    and holds a partial final line until its remainder arrives.
    Rotation/truncation (the file shrinking under the follower)
    restarts the follow from offset zero with a note in ``problems``; a
    damaged complete line is dropped with a note, not raised.
    ``trace`` always views every event decoded so far, so the summary
    detectors run on it directly.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.events: list[dict] = []
        self.trace = RunTrace(self.events)
        self.problems: list[str] = []
        self._offset = 0
        self._pending = b""

    def poll(self) -> list[dict]:
        """Consume newly-appended bytes; returns the fresh events."""
        try:
            size = os.stat(self.path).st_size
        except OSError:
            return []
        if size < self._offset:
            self.problems.append(
                f"{self.path}: shrank from {self._offset} to {size} bytes "
                f"(rotated or truncated); restarting follow"
            )
            self._offset = 0
            self._pending = b""
            self.events.clear()
        if size == self._offset and not self._pending:
            return []
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                chunk = handle.read()
        except OSError as exc:
            self.problems.append(f"{self.path}: read failed ({exc})")
            return []
        self._offset += len(chunk)
        buffer = self._pending + chunk
        lines = buffer.split(b"\n")
        # The final element is either empty (buffer ended on a newline)
        # or a torn line still being written — hold it for next poll.
        self._pending = lines.pop()
        fresh: list[dict] = []
        for line in lines:
            if not line.strip():
                continue
            try:
                event = jsonl.decode(line)
            except ValueError as exc:
                self.problems.append(
                    f"{self.path}: malformed line dropped ({exc})"
                )
                continue
            self.events.append(event)
            fresh.append(event)
        return fresh


def follow_trace(path: Union[str, Path]) -> TraceFollower:
    """A fresh follower positioned at the start of ``path``."""
    return TraceFollower(path)


# ----------------------------------------------------------------------
# Incremental anomaly engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Alarm:
    """One live finding: ``kind`` is ``"anomaly"`` (bad dynamics the
    run may still finish with) or ``"stall"`` (the run has stopped
    making observable progress — the watchdog's exit-6 family)."""

    kind: str
    message: str


class AnomalyEngine:
    """Runs the detector set over a (growing) trace plus the heartbeat.

    Dynamics detectors are the exact per-detector functions the
    post-hoc summary composes (:data:`repro.obs.summary.
    SUMMARY_DETECTORS`), plus the live-only cost-plateau detector.
    The heartbeat-loss detector turns sidecar staleness into a stall
    alarm — only while the run is still in flight; a finished run's
    heartbeat is allowed to age forever.  A pid-liveness probe
    (:func:`heartbeat_pid_dead`) short-circuits the staleness clock:
    when the heartbeat was written on this host and its pid is provably
    gone, the stall alarm fires immediately instead of after
    ``stall_after_s``.

    :meth:`scan` returns the full current alarm list and remembers
    which messages were already seen, so ``engine.fresh`` after a scan
    holds only the alarms that appeared on that poll (the dashboard's
    "new alarm" ticker).
    """

    def __init__(
        self,
        stall_after_s: float = 30.0,
        plateau_stages: int = 8,
        detectors: Optional[tuple[Callable[[RunTrace], list[str]], ...]] = None,
    ) -> None:
        from .summary import SUMMARY_DETECTORS, detect_cost_plateau

        if detectors is None:
            detectors = SUMMARY_DETECTORS + (
                lambda trace: detect_cost_plateau(
                    trace, min_stages=plateau_stages
                ),
            )
        self.detectors = detectors
        self.stall_after_s = float(stall_after_s)
        self.fresh: list[Alarm] = []
        self._seen: set[tuple[str, str]] = set()

    def scan(
        self,
        trace: RunTrace,
        heartbeat: Optional[dict] = None,
        heartbeat_age: Optional[float] = None,
        finished: bool = False,
    ) -> list[Alarm]:
        """All current alarms for one poll of the run's artifacts."""
        alarms = [
            Alarm("anomaly", message)
            for detector in self.detectors
            for message in detector(trace)
        ]
        finished = (
            finished
            or trace.run_end is not None
            or heartbeat_terminal(heartbeat)
        )
        if not finished and heartbeat_pid_dead(heartbeat):
            alarms.append(Alarm(
                "stall",
                f"process dead: heartbeat pid {heartbeat.get('pid')} is no "
                f"longer alive on this host and the run never reached a "
                f"terminal status",
            ))
        elif not finished and heartbeat_age is not None \
                and heartbeat_age > self.stall_after_s:
            alarms.append(Alarm(
                "stall",
                f"heartbeat lost: last beat {heartbeat_age:.1f}s ago "
                f"(stall threshold {self.stall_after_s:.0f}s); the run is "
                f"hung, killed, or starved",
            ))
        self.fresh = [
            alarm for alarm in alarms
            if (alarm.kind, alarm.message) not in self._seen
        ]
        self._seen.update(
            (alarm.kind, alarm.message) for alarm in alarms
        )
        return alarms


# ----------------------------------------------------------------------
# Watch snapshot
# ----------------------------------------------------------------------
@dataclass
class WatchState:
    """Everything one dashboard frame (or ``--json`` snapshot) shows."""

    trace_path: str
    heartbeat_path: str
    #: "waiting" (no artifacts yet), "running", "completed", "stalled".
    status: str
    heartbeat: Optional[dict] = None
    heartbeat_age_s: Optional[float] = None
    stages: int = 0
    events: int = 0
    alarms: list[Alarm] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def stalled(self) -> bool:
        return any(alarm.kind == "stall" for alarm in self.alarms)

    @property
    def anomalous(self) -> bool:
        return any(alarm.kind == "anomaly" for alarm in self.alarms)

    def to_dict(self) -> dict:
        """JSON-safe snapshot for ``watch --json`` (sorted by caller)."""
        return {
            "trace": self.trace_path,
            "heartbeat_path": self.heartbeat_path,
            "status": self.status,
            "heartbeat": self.heartbeat,
            "heartbeat_age_s": (
                round(self.heartbeat_age_s, 3)
                if self.heartbeat_age_s is not None else None
            ),
            "stages": self.stages,
            "events": self.events,
            "alarms": [
                {"kind": alarm.kind, "message": alarm.message}
                for alarm in self.alarms
            ],
            "problems": list(self.problems),
        }


def watch_once(
    follower: TraceFollower,
    hb_path: Union[str, Path],
    engine: AnomalyEngine,
) -> WatchState:
    """Poll the run's artifacts once and classify where the run stands."""
    follower.poll()
    trace = follower.trace
    heartbeat, hb_problems = read_heartbeat(hb_path)
    age = heartbeat_age_s(hb_path)
    finished = trace.run_end is not None or heartbeat_terminal(heartbeat)
    alarms = engine.scan(
        trace, heartbeat=heartbeat, heartbeat_age=age, finished=finished
    )
    if finished:
        status = "completed"
    elif any(alarm.kind == "stall" for alarm in alarms):
        status = "stalled"
    elif trace.events or heartbeat is not None:
        status = "running"
    else:
        status = "waiting"
    problems = list(follower.problems)
    # A missing heartbeat file is normal before the run opens and after
    # cleanup; report reader damage, not plain absence.
    if heartbeat is None and age is not None:
        problems.extend(hb_problems)
    return WatchState(
        trace_path=str(follower.path),
        heartbeat_path=str(hb_path),
        status=status,
        heartbeat=heartbeat,
        heartbeat_age_s=age,
        stages=len(trace.stages),
        events=len(trace.events),
        alarms=alarms,
        problems=problems,
    )


# ----------------------------------------------------------------------
# Dashboard rendering
# ----------------------------------------------------------------------
def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    value = float(value)
    if value >= 3600:
        return f"{value / 3600:.1f}h"
    if value >= 60:
        return f"{value / 60:.1f}m"
    return f"{value:.1f}s"


def render_watch(state: WatchState, max_rows: int = 8) -> str:
    """The state panel of one dashboard frame (no trace series).

    ``max_rows`` is accepted for symmetry with
    :func:`render_watch_trace`, which appends the per-stage table.
    """
    del max_rows
    parts: list[str] = []
    hb = state.heartbeat or {}
    header = (
        f"watch: {state.trace_path}  [{state.status}]"
    )
    parts.append(header)
    if hb:
        terms = hb.get("terms") or {}
        best = hb.get("best") or {}
        parts.append(
            f"run: flow={hb.get('flow', '?')} design={hb.get('design', '?')} "
            f"seed={hb.get('seed', '?')} pid={hb.get('pid', '?')} "
            f"phase={hb.get('phase', '?')} "
            f"stage={hb.get('stage', '?')}/{hb.get('stage_budget', '?')}"
        )
        parts.append(
            f"moves: {hb.get('moves_accepted', '?')}/"
            f"{hb.get('moves_attempted', '?')} accepted  "
            f"{hb.get('moves_per_sec', '?')} moves/s  "
            f"acceptance={hb.get('acceptance', '?')}"
        )
        def _terms_line(label: str, record: dict) -> str:
            return (
                f"{label}: G={record.get('G', '?')} D={record.get('D', '?')} "
                f"T={record.get('T', '?')}"
            )
        if terms:
            line = _terms_line("terms", terms)
            if hb.get("cost") is not None:
                line += f"  cost={hb['cost']}"
            parts.append(line)
        if best:
            parts.append(_terms_line("best ", best))
        parts.append(
            f"clock: elapsed={_fmt_seconds(hb.get('elapsed_s'))} "
            f"eta={_fmt_seconds(hb.get('eta_s'))} "
            f"beat_age={_fmt_seconds(state.heartbeat_age_s)} "
            f"checkpoint={hb.get('last_checkpoint') or '-'}"
        )
    else:
        parts.append(f"heartbeat: none ({state.heartbeat_path})")

    if state.events:
        parts.append(f"trace: {state.events} events, {state.stages} stages")
    else:
        parts.append("trace: no events yet")

    if state.alarms:
        parts.append("alarms:")
        parts.extend(
            f"  ! [{alarm.kind}] {alarm.message}" for alarm in state.alarms
        )
    else:
        parts.append("alarms: none")
    for problem in state.problems:
        parts.append(f"  ~ {problem}")
    return "\n".join(parts)


def render_watch_trace(
    state: WatchState, trace: RunTrace, max_rows: int = 8
) -> str:
    """The full dashboard frame: state panel + trace curves and table."""
    from ..analysis.report import format_table
    from .summary import sparkline, stage_costs

    parts = [render_watch(state, max_rows=max_rows)]
    stages = trace.stages
    if stages:
        costs = stage_costs(trace)
        acceptance = trace.series("acceptance")
        if costs:
            parts.append(
                f"  cost        {sparkline(costs)}  "
                f"[{min(costs):.4g}, {max(costs):.4g}]"
            )
        if acceptance:
            parts.append(
                f"  acceptance  {sparkline(acceptance)}  "
                f"[{min(acceptance):.4g}, {max(acceptance):.4g}]"
            )
        recent = stages[-max_rows:]
        has_terms = any("terms" in stage for stage in recent)
        headers = ["stage", "temperature", "accept"]
        if has_terms:
            headers += ["G", "D", "T"]
        else:
            headers += ["cost"]
        rows = []
        for stage in recent:
            row: list = [
                stage.get("index"), stage.get("temperature"),
                stage.get("acceptance"),
            ]
            if has_terms:
                terms = stage.get("terms", {})
                row += [terms.get("G"), terms.get("D"), terms.get("T")]
            else:
                row += [stage.get("cost")]
            rows.append(row)
        parts.append(format_table(
            headers, rows, title=f"last {len(recent)} stages", decimals=4,
        ))
    return "\n".join(parts)
