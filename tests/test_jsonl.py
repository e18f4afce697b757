"""One fault matrix for every append-only JSONL log.

The run ledger and the job journal share one locked append and one
damage contract (:mod:`repro.resilience.jsonl`); each matrix row drives
one of them through its public append/read pair.  Traces share the
read side: a torn tail keeps the events before it.  A last row pins
the bytes: re-appending the committed ledger fixture reproduces it.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.obs.cli import main as trace_main
from repro.obs.events import read_trace
from repro.obs.ledger import (
    LedgerError,
    append_record,
    make_record,
    read_ledger,
)
from repro.resilience import jsonl
from repro.resilience.faults import corrupt_file, truncate_file
from repro.service.journal import JournalError, append_event, read_journal

from conftest import DATA

TRACE_FIXTURE = DATA / "ledger_trace_seed3.jsonl"


@dataclass(frozen=True)
class LogFormat:
    """One log's public append/read pair, as the matrix drives it."""

    name: str
    append: Callable[[Path, dict], object]
    read: Callable[[Path], tuple[list[dict], list[str]]]
    error: type
    noun: str
    #: Record number ``i``; ``key`` is the field that identifies it.
    record: Callable[[int], dict]
    key: str

    def keys(self, records: list[dict]) -> list:
        return [record[self.key] for record in records]

    def keys_of(self, *numbers: int) -> list:
        return [self.record(number)[self.key] for number in numbers]


def _read_ledger(path: Path) -> tuple[list[dict], list[str]]:
    ledger = read_ledger(path)
    return ledger.records, ledger.problems


FORMATS = {
    "ledger": LogFormat(
        "ledger", append_record, _read_ledger, LedgerError, "ledger record",
        lambda i: make_record(flow="simultaneous", design="tiny", seed=i,
                              worst_delay_ns=21.5, fully_routed=True),
        "seed",
    ),
    "journal": LogFormat(
        "journal", append_event, read_journal, JournalError, "journal event",
        lambda i: {"kind": "supervisor", "job_id": None, "note": f"n{i}"},
        "note",
    ),
}


@pytest.fixture(params=sorted(FORMATS))
def fmt(request) -> LogFormat:
    return FORMATS[request.param]


def two_records(fmt: LogFormat, tmp_path: Path) -> Path:
    path = tmp_path / "log.jsonl"
    fmt.append(path, fmt.record(1))
    fmt.append(path, fmt.record(2))
    return path


def _appender(name: str, path: str, worker: int) -> None:
    fmt = FORMATS[name]
    for index in range(25):
        fmt.append(Path(path), fmt.record(worker * 1000 + index))


class TestFaultMatrix:
    def test_round_trip(self, fmt, tmp_path):
        records, problems = fmt.read(two_records(fmt, tmp_path))
        assert fmt.keys(records) == fmt.keys_of(1, 2)
        assert problems == []

    def test_torn_tail_keeps_complete_records(self, fmt, tmp_path):
        path = two_records(fmt, tmp_path)
        truncate_file(path, keep_fraction=0.9)  # tears the last record
        records, problems = fmt.read(path)
        assert fmt.keys(records) == fmt.keys_of(1)
        assert len(problems) == 1
        assert "torn final" in problems[0]

    def test_interior_byte_flip_names_the_line(self, fmt, tmp_path):
        path = two_records(fmt, tmp_path)
        # Flip the opening quote of the FIRST record's first key.
        assert path.read_bytes()[:2] == b'{"'
        corrupt_file(path, offset=1, flip=0x7B)
        with pytest.raises(fmt.error, match=f":1: corrupted {fmt.noun}"):
            fmt.read(path)

    def test_non_object_line_raises(self, fmt, tmp_path):
        path = tmp_path / "log.jsonl"
        fmt.append(path, fmt.record(1))
        valid = path.read_text(encoding="utf-8")
        path.write_text("[1, 2]\n" + valid, encoding="utf-8")
        with pytest.raises(fmt.error, match=":1: .*not a JSON object"):
            fmt.read(path)
        # ...anywhere: a final non-object line is damage, not a tear.
        path.write_text(valid + "[1, 2]\n", encoding="utf-8")
        with pytest.raises(fmt.error, match=":2: .*not a JSON object"):
            fmt.read(path)

    def test_append_seals_missing_trailing_newline(self, fmt, tmp_path):
        path = tmp_path / "log.jsonl"
        fmt.append(path, fmt.record(1))
        path.write_bytes(path.read_bytes().rstrip(b"\n"))  # valid, unsealed
        fmt.append(path, fmt.record(2))
        records, problems = fmt.read(path)
        assert fmt.keys(records) == fmt.keys_of(1, 2)
        assert problems == []

    def test_append_after_torn_fragment_is_interior_damage(
        self, fmt, tmp_path
    ):
        path = tmp_path / "log.jsonl"
        fmt.append(path, fmt.record(1))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "runn')  # a torn non-atomic append
        fmt.append(path, fmt.record(2))
        assert path.read_text(encoding="utf-8").count("\n") == 3
        with pytest.raises(fmt.error, match=f":2: corrupted {fmt.noun}"):
            fmt.read(path)

    def test_concurrent_process_appends_lose_nothing(self, fmt, tmp_path):
        """4 processes x 25 appends: every record lands exactly once."""
        path = tmp_path / "log.jsonl"
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_appender, args=(fmt.name, str(path), worker))
            for worker in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert [worker.exitcode for worker in workers] == [0] * 4
        records, problems = fmt.read(path)
        assert problems == []
        assert sorted(fmt.keys(records)) == sorted(fmt.keys_of(*(
            worker * 1000 + index
            for worker in range(4) for index in range(25)
        )))
        if fmt.name == "journal":
            assert [r["seq"] for r in records] == list(range(1, 101))


class TestTraceRows:
    @pytest.fixture
    def torn(self, tmp_path) -> Path:
        """A copy of a committed trace with its last line torn."""
        path = tmp_path / "trace.jsonl"
        path.write_bytes(TRACE_FIXTURE.read_bytes()[:-20])
        return path

    def test_torn_tail_keeps_events_before_it(self, torn):
        trace = read_trace(torn)
        assert trace.events == read_trace(TRACE_FIXTURE).events[:-1]
        assert len(trace.problems) == 1
        assert "torn final" in trace.problems[0]

    def test_interior_damage_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(TRACE_FIXTURE.read_bytes())
        corrupt_file(path, offset=1, flip=0x7B)
        with pytest.raises(ValueError, match="malformed JSONL"):
            read_trace(path)

    def test_cli_warns_on_torn_tail(self, torn, capsys):
        lines = len(TRACE_FIXTURE.read_bytes().splitlines())
        assert trace_main(["summary", str(torn)]) == 0
        err = capsys.readouterr().err
        assert f"warning: {torn}: line {lines}: torn final" in err
        assert trace_main(["diff", str(torn), str(TRACE_FIXTURE)]) == 0
        assert "torn final" in capsys.readouterr().err
        # validate reports the same damage as a failure.
        assert trace_main(["validate", str(torn)]) == 1
        assert trace_main(["validate", str(TRACE_FIXTURE)]) == 0

    def test_final_trace_bytes_are_the_line_encoding(self):
        trace = read_trace(TRACE_FIXTURE)
        assert trace.problems == []
        assert "".join(map(jsonl.encode, trace.events)).encode("utf-8") \
            == TRACE_FIXTURE.read_bytes()


def test_fixture_reappends_byte_for_byte(tmp_path):
    fixture = DATA / "ledger_fixture.jsonl"
    path = tmp_path / "ledger.jsonl"
    for record in read_ledger(fixture).records:
        append_record(path, record)
    assert path.read_bytes() == fixture.read_bytes()
