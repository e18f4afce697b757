"""Append-only JSONL logs: one line format, one locked append, one
damage contract.

The run ledger, the job journal and traces (including the live stream
:class:`repro.obs.live.TraceFollower` tails) are files of one JSON
object per line; this module is the only code that encodes, appends
and reads those lines.  A crash mid-append can tear only the final
line, so :func:`read` drops a bad final line and reports it as a
``torn final`` problem, while a bad line anywhere else, or a line that
is not a JSON object, raises the caller's error type naming
``path:line``.  ``docs/ROBUSTNESS.md`` ("Append-only logs") states the
contract in full.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Optional, Union


def encode(record: dict) -> str:
    """One log line: compact, key-sorted JSON plus a newline."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


class _NotAnObject(ValueError):
    """A line that parses but is not an object: damage even at the tail."""


def decode(line: Union[str, bytes]) -> dict:
    """The object on one line; ``ValueError`` if malformed or not one."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise _NotAnObject("not a JSON object")
    return record


def read(
    path: Union[str, Path], error: type, noun: str,
) -> tuple[list[dict], list[str]]:
    """Load a log as ``(records, problems)``, skipping blank lines.

    ``error`` is raised for damage and ``noun`` names one record in
    messages.  ``FileNotFoundError`` propagates, so each caller keeps
    its own policy for a missing log.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise error(f"{path}: unreadable {noun}: {exc}") from exc
    lines = [
        (number, line)
        for number, line in enumerate(data.split(b"\n"), start=1)
        if line.strip()
    ]
    records: list[dict] = []
    problems: list[str] = []
    for position, (number, line) in enumerate(lines):
        try:
            records.append(decode(line))
        except ValueError as exc:
            final = position == len(lines) - 1
            if final and not isinstance(exc, _NotAnObject):
                problems.append(
                    f"line {number}: torn final {noun} dropped ({exc})"
                )
                continue
            raise error(
                f"{path}:{number}: corrupted {noun} (malformed JSONL: {exc})"
            ) from None
    return records, problems


def append(
    path: Union[str, Path],
    record: dict,
    stamp: Optional[Callable[[dict, int], dict]] = None,
) -> dict:
    """Append ``record`` as one line; returns the record written.

    One ``O_APPEND`` write under an exclusive lock on ``<path>.lock``,
    fsynced before the lock is released; an unterminated tail is sealed
    first.  ``stamp(record, count)``, when given, runs under the lock
    with the number of non-blank lines already written and returns the
    record to write; otherwise only the last byte is read.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.with_name(path.name + ".lock"), "ab") as lock:
        try:
            import fcntl

            fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
        except (ImportError, OSError):
            pass  # no locking on this platform/filesystem; best effort
        with open(path, "a+b") as handle:
            end = handle.seek(0, os.SEEK_END)
            if stamp is not None:
                handle.seek(0)
                record = stamp(record, sum(1 for ln in handle if ln.strip()))
            if end:
                handle.seek(end - 1)
            prefix = b"\n" if end and handle.read(1) != b"\n" else b""
            handle.write(prefix + encode(record).encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
    return record
