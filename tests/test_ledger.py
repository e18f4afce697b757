"""Tests for the run ledger and the cross-run analytics stack.

Five layers:

1. unit tests of record construction and the identity digest (volatile
   wall-clock telemetry stays outside identity);
2. persistence: round trip, missing and empty ledgers (the damage
   contract the ledger shares with every log is the fault matrix in
   ``tests/test_jsonl.py``);
3. selection/aggregation/regression gates over record slices;
4. integration with the flows: ``record_from_result`` on real runs,
   and the determinism contract — identical runs collide on identity,
   and recording never perturbs the anneal;
5. the ``repro-fpga runs`` CLI end to end: typed exit codes, empty /
   missing / torn ledgers, and the golden byte-identical HTML
   observatory against the committed fixtures.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro import architecture_for
from repro.core import AnnealerConfig, ScheduleConfig
from repro.flows import run_simultaneous
from repro.netlist import tiny
from repro.obs.cli import (
    RUNS_EXIT_LEDGER,
    RUNS_EXIT_NO_DATA,
    RUNS_EXIT_OK,
    RUNS_EXIT_REGRESSION,
    RUNS_EXIT_USAGE,
    runs_main,
)
from repro.obs.ledger import (
    FAMILY_EXCLUDE,
    LEDGER_SCHEMA_VERSION,
    LedgerError,
    append_record,
    group_records,
    make_record,
    read_ledger,
    record_from_result,
    record_identity,
    regress_slices,
    resolve_artifact,
    select,
    slice_stats,
)
from repro.obs.report import render_report, svg_overlay, svg_sparkline
from repro.obs.tracer import config_digest
from repro.resilience.faults import corrupt_file, truncate_file

from conftest import DATA, fixture_generator

FIXTURE = DATA / "ledger_fixture.jsonl"
GOLDEN = DATA / "ledger_report_golden.html"


def basic_record(**overrides) -> dict:
    fields = dict(
        flow="simultaneous", design="tiny", seed=3,
        worst_delay_ns=21.5, fully_routed=True,
        config_digest="abc123", moves_attempted=1000, moves_accepted=400,
    )
    fields.update(overrides)
    return make_record(**fields)


# ----------------------------------------------------------------------
# Record construction and identity
# ----------------------------------------------------------------------
class TestRecordIdentity:
    def test_record_carries_schema_version_and_digest(self):
        record = basic_record()
        assert record["schema_version"] == LEDGER_SCHEMA_VERSION
        assert record["record_digest"] == record_identity(record)

    def test_volatile_fields_stay_outside_identity(self):
        slow = basic_record(wall_time_s=99.0, moves_per_sec=10.1,
                            normalized_score=1.0, tag="slow-host",
                            artifacts={"trace": "elsewhere.jsonl"},
                            overheads={"tracing": {"overhead_frac": 0.5}})
        # Older versions also wrote an in-program profiler's "profile"
        # block; make_record no longer takes one.
        slow["profile"] = {"section_s": {"ripup": 9.0}}
        fast = basic_record(wall_time_s=0.1, moves_per_sec=9999.0)
        assert slow["record_digest"] == fast["record_digest"]
        assert record_identity(slow) == fast["record_digest"]

    def test_identity_fields_change_the_digest(self):
        base = basic_record()
        for overrides in (
            {"seed": 4}, {"worst_delay_ns": 30.0}, {"fully_routed": False},
            {"moves_attempted": 1001}, {"design": "other"},
        ):
            assert basic_record(**overrides)["record_digest"] != \
                base["record_digest"], overrides

    def test_optional_fields_omitted_not_null_padded(self):
        record = make_record(flow="bench", design="d", seed=None,
                             worst_delay_ns=1.0, fully_routed=True)
        assert "terms" not in record
        assert "wall_time_s" not in record
        assert "tag" not in record

    def test_record_json_round_trips(self):
        record = basic_record(terms={"G": 0, "D": 0, "T": 21.5})
        again = json.loads(json.dumps(record))
        assert record_identity(again) == record["record_digest"]


# ----------------------------------------------------------------------
# Persistence (damage cases: tests/test_jsonl.py)
# ----------------------------------------------------------------------
class TestPersistence:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        first, second = basic_record(), basic_record(seed=4)
        append_record(path, first)
        append_record(path, second)
        ledger = read_ledger(path)
        assert ledger.records == [first, second]
        assert ledger.problems == []

    def test_missing_ledger_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="no such ledger"):
            read_ledger(tmp_path / "absent.jsonl")

    def test_empty_ledger_reads_as_zero_records(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("", encoding="utf-8")
        ledger = read_ledger(path)
        assert ledger.records == []
        assert ledger.problems == []

    def test_resolve_artifact_relative_to_ledger(self, tmp_path):
        ledger = tmp_path / "runs" / "ledger.jsonl"
        assert resolve_artifact(ledger, "t.jsonl") == ledger.parent / "t.jsonl"
        absolute = tmp_path / "abs.jsonl"
        assert resolve_artifact(ledger, str(absolute)) == absolute
        assert resolve_artifact(None, "t.jsonl") == Path("t.jsonl")


# ----------------------------------------------------------------------
# Selection, grouping, aggregation, the regression gate
# ----------------------------------------------------------------------
class TestSliceAnalytics:
    RECORDS = [
        basic_record(seed=1, worst_delay_ns=20.0, normalized_score=30.0,
                     tag="base"),
        basic_record(seed=2, worst_delay_ns=22.0, normalized_score=28.0,
                     tag="base"),
        basic_record(flow="sequential", seed=1, worst_delay_ns=29.0,
                     config_digest="def456", tag="base"),
    ]

    def test_select_filters_compose(self):
        assert len(select(self.RECORDS, flow="simultaneous")) == 2
        assert len(select(self.RECORDS, flow="simultaneous", seed=1)) == 1
        assert select(self.RECORDS, design="missing") == []
        assert len(select(self.RECORDS, tag="base")) == 3
        assert select(self.RECORDS, tag="") == []

    def test_group_records_aliases_digests(self):
        groups = group_records(self.RECORDS, "digest")
        assert set(groups) == {"abc123", "def456"}
        by_flow = group_records(self.RECORDS, "flow")
        assert [len(v) for v in by_flow.values()] == [2, 1]

    def test_group_records_missing_value_buckets_none(self):
        groups = group_records([{"flow": "x"}], "family")
        assert set(groups) == {"(none)"}

    def test_slice_stats_variance(self):
        stats = slice_stats(select(self.RECORDS, flow="simultaneous"))
        assert stats["runs"] == 2
        assert stats["seeds"] == [1, 2]
        assert stats["delay_mean"] == pytest.approx(21.0)
        assert stats["delay_stdev"] == pytest.approx(2 ** 0.5)
        assert stats["delay_min"] == 20.0
        assert stats["delay_max"] == 22.0
        assert stats["routed_fraction"] == 1.0
        assert stats["best_score"] == 30.0

    def test_regress_identical_slices_pass(self):
        rows, failures = regress_slices(self.RECORDS, self.RECORDS)
        assert failures == []
        assert all(row[-1] == "ok" for row in rows)

    def test_regress_catches_slowed_run(self):
        slowed = [dict(record) for record in self.RECORDS]
        for record in slowed:
            if record.get("normalized_score"):
                record["normalized_score"] = record["normalized_score"] / 2
        rows, failures = regress_slices(self.RECORDS, slowed)
        assert any("normalized_score regressed" in f for f in failures)

    def test_regress_catches_delay_and_routing(self):
        worse = [dict(record) for record in self.RECORDS]
        worse[0]["worst_delay_ns"] = 40.0
        worse[2]["fully_routed"] = False
        _, failures = regress_slices(self.RECORDS, worse)
        assert any("worst_delay_ns worsened" in f for f in failures)
        assert any("lost full routing" in f for f in failures)

    def test_regress_gates_overhead_ratios(self):
        candidate = [dict(record) for record in self.RECORDS]
        candidate[0]["overheads"] = {"tracing": {"overhead_frac": 0.20}}
        _, failures = regress_slices(self.RECORDS, candidate)
        assert any("tracing overhead" in f for f in failures)
        _, ok = regress_slices(self.RECORDS, self.RECORDS,
                               max_overhead=0.5)
        assert ok == []

    def test_regress_one_sided_designs_never_fail(self):
        only_base = [basic_record(design="lonely")]
        rows, failures = regress_slices(only_base, self.RECORDS)
        assert failures == []
        assert any("baseline only" in row for row in rows
                   for row in [row])


# ----------------------------------------------------------------------
# Flow integration and determinism
# ----------------------------------------------------------------------
def short_config(seed: int, trace: bool = False) -> AnnealerConfig:
    return AnnealerConfig(
        seed=seed, attempts_per_cell=2, initial="clustered",
        greedy_rounds=1, trace=trace,
        schedule=ScheduleConfig(lambda_=1.4, max_temperatures=6,
                                freeze_patience=2),
    )


class TestFlowIntegration:
    @pytest.fixture(scope="class")
    def flow_result(self):
        netlist = tiny(seed=9, num_cells=24, depth=3)
        arch = architecture_for(netlist, tracks_per_channel=10)
        return run_simultaneous(netlist, arch, short_config(11, trace=True))

    def test_flows_stash_identity_extras(self, flow_result):
        extra = flow_result.extra
        assert extra["seed"] == 11
        assert len(extra["config_digest"]) == 16
        assert len(extra["family_digest"]) == 16
        assert extra["netlist"]["cells"] == 24

    def test_family_digest_is_seed_independent(self):
        a = config_digest(short_config(1), exclude=FAMILY_EXCLUDE)
        b = config_digest(short_config(2), exclude=FAMILY_EXCLUDE)
        assert a == b
        assert config_digest(short_config(1)) != config_digest(short_config(2))
        other = AnnealerConfig(seed=1, attempts_per_cell=9)
        assert config_digest(other, exclude=FAMILY_EXCLUDE) != a

    def test_family_digest_of_fixture_config_is_pinned(self):
        # FAMILY_EXCLUDE is the shared non-identity list plus the seed;
        # dropping fields from it (or from the config) must not move
        # the identity of existing ledger families.
        config = fixture_generator().sim_config(3)
        assert config_digest(config, exclude=FAMILY_EXCLUDE) == \
            "75b307edada0c519"

    def test_record_from_result_fills_terms_and_cost(self, flow_result):
        record = record_from_result(flow_result, tag="t",
                                    artifacts={"trace": "x.jsonl"})
        metrics = flow_result.metrics()
        assert record["flow"] == "simultaneous"
        assert record["terms"]["T"] == metrics["worst_delay_ns"]
        assert record["final_cost"] == \
            flow_result.extra["trace"].run_end["final_cost"]
        assert record["moves_attempted"] == \
            flow_result.extra["moves_attempted"]
        assert record["artifacts"] == {"trace": "x.jsonl"}
        assert record["tag"] == "t"

    def test_identical_runs_collide_on_identity(self, flow_result):
        netlist = tiny(seed=9, num_cells=24, depth=3)
        arch = architecture_for(netlist, tracks_per_channel=10)
        again = run_simultaneous(netlist, arch, short_config(11, trace=True))
        first = record_from_result(flow_result, tag="one")
        second = record_from_result(again, tag="two")
        # Wall clock and tags differ; trajectories (and digests) must not.
        assert first["record_digest"] == second["record_digest"]

    def test_identity_ignores_where_artifacts_land(self, tmp_path):
        # Runs that differ only in a non-identity knob (here the
        # checkpoint path) share one trajectory, so they must share one
        # record identity; a different seed is a different trajectory.
        netlist = tiny(seed=9, num_cells=24, depth=3)
        arch = architecture_for(netlist, tracks_per_channel=10)

        def record(seed: int, **overrides) -> dict:
            config = dataclasses.replace(short_config(seed), **overrides)
            return record_from_result(run_simultaneous(netlist, arch, config))

        plain = record(11)
        moved = [record(11, checkpoint_path=str(tmp_path / name))
                 for name in ("a.ckpt", "b.ckpt")]
        assert [r["config_digest"] for r in moved] == \
            [plain["config_digest"]] * 2
        assert [r["record_digest"] for r in moved] == \
            [plain["record_digest"]] * 2
        reseeded = record(12)
        assert reseeded["config_digest"] != plain["config_digest"]
        assert reseeded["record_digest"] != plain["record_digest"]

    def test_recording_never_perturbs_the_anneal(self, flow_result, tmp_path):
        netlist = tiny(seed=9, num_cells=24, depth=3)
        arch = architecture_for(netlist, tracks_per_channel=10)
        recorded = run_simultaneous(netlist, arch,
                                    short_config(11, trace=True))
        append_record(tmp_path / "ledger.jsonl",
                      record_from_result(recorded))
        baseline = {k: v for k, v in flow_result.metrics().items()
                    if k != "wall_time_s"}
        after = {k: v for k, v in recorded.metrics().items()
                 if k != "wall_time_s"}
        assert baseline == after


# ----------------------------------------------------------------------
# The runs CLI: typed exit codes and damaged ledgers
# ----------------------------------------------------------------------
class TestRunsCli:
    def test_missing_ledger_exits_4(self, tmp_path, capsys):
        code = runs_main(["list", str(tmp_path / "absent.jsonl")])
        assert code == RUNS_EXIT_LEDGER
        assert "no such ledger" in capsys.readouterr().err

    def test_corrupt_ledger_exits_4(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        append_record(path, basic_record())
        append_record(path, basic_record(seed=4))
        corrupt_file(path, offset=3, flip=0x7B)
        assert runs_main(["list", str(path)]) == RUNS_EXIT_LEDGER

    def test_torn_ledger_warns_and_lists_survivors(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        append_record(path, basic_record())
        append_record(path, basic_record(seed=4))
        truncate_file(path, keep_fraction=0.9)
        assert runs_main(["list", str(path)]) == RUNS_EXIT_OK
        out = capsys.readouterr()
        assert "torn final" in out.err
        assert "1 records" in out.out

    def test_empty_slice_exits_3(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        path.write_text("", encoding="utf-8")
        assert runs_main(["list", str(path)]) == RUNS_EXIT_NO_DATA
        append_record(path, basic_record())
        code = runs_main(["list", str(path), "--design", "nothere"])
        assert code == RUNS_EXIT_NO_DATA

    def test_show_out_of_range_exits_3(self, capsys):
        code = runs_main(["show", str(FIXTURE), "99"])
        assert code == RUNS_EXIT_NO_DATA

    def test_show_dumps_record(self, capsys):
        assert runs_main(["show", str(FIXTURE), "0"]) == RUNS_EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["flow"] == "simultaneous"
        assert record["record_digest"]

    def test_bad_usage_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runs_main(["list"])  # missing ledger argument
        assert excinfo.value.code == RUNS_EXIT_USAGE

    def test_list_and_compare_on_fixture(self, capsys):
        assert runs_main(["list", str(FIXTURE)]) == RUNS_EXIT_OK
        assert "3 records" in capsys.readouterr().out
        assert runs_main(["compare", str(FIXTURE)]) == RUNS_EXIT_OK
        out = capsys.readouterr().out
        assert "2 with traces" in out
        assert "per-seed variance" in out

    def test_records_with_retired_core_field_still_read(
        self, tmp_path, capsys
    ):
        # Ledgers written before the single move core carry a "core"
        # field on run records; they still list, compare, gate, and
        # render exactly as the same records without it.
        old = tmp_path / "old.jsonl"
        for record in read_ledger(FIXTURE).records:
            record = dict(record, core="array")
            record["record_digest"] = record_identity(record)
            append_record(old, record)
        for trace in DATA.glob("ledger_trace_seed*.jsonl"):
            (tmp_path / trace.name).write_bytes(trace.read_bytes())
        assert runs_main(["list", str(old)]) == RUNS_EXIT_OK
        assert "3 records" in capsys.readouterr().out
        assert runs_main(["compare", str(old)]) == RUNS_EXIT_OK
        assert "2 with traces" in capsys.readouterr().out
        assert runs_main(
            ["regress", str(FIXTURE), "--baseline", str(old)]
        ) == RUNS_EXIT_OK
        html = tmp_path / "report.html"
        assert runs_main([
            "report", str(old), "--title", "Ledger fixture",
            "--out", str(html),
        ]) == RUNS_EXIT_OK
        assert html.read_text(encoding="utf-8") == \
            GOLDEN.read_text(encoding="utf-8")

    def test_records_with_retired_profile_block_still_read(
        self, tmp_path, capsys
    ):
        # Records written with the retired in-program profiler carry a
        # "profile" block; their stored digests still verify, and they
        # list and compare like the same records without it.
        profile = {
            "wall_time_s": 1.26, "moves_attempted": 2669,
            "section_s": {"ripup": 0.256, "repair": 0.345},
            "section_calls": {"ripup": 2669, "repair": 2669},
            "counters": {"moves": 2669, "nets_journaled": 13124},
        }
        old = tmp_path / "old.jsonl"
        for record in read_ledger(FIXTURE).records:
            record = dict(record, profile=profile)
            assert record_identity(record) == record["record_digest"]
            append_record(old, record)
        for trace in DATA.glob("ledger_trace_seed*.jsonl"):
            (tmp_path / trace.name).write_bytes(trace.read_bytes())
        assert runs_main(["list", str(old)]) == RUNS_EXIT_OK
        assert "3 records" in capsys.readouterr().out
        assert runs_main(["compare", str(old)]) == RUNS_EXIT_OK
        assert "2 with traces" in capsys.readouterr().out

    def test_regress_requires_a_baseline(self, capsys):
        code = runs_main(["regress", str(FIXTURE)])
        assert code == RUNS_EXIT_USAGE

    def test_regress_self_vs_self_passes(self, capsys):
        code = runs_main([
            "regress", str(FIXTURE), "--baseline", str(FIXTURE),
        ])
        assert code == RUNS_EXIT_OK
        assert "gate: ok" in capsys.readouterr().out

    def test_regress_catches_synthetic_slowdown(self, tmp_path, capsys):
        slowed_path = tmp_path / "slowed.jsonl"
        for record in read_ledger(FIXTURE).records:
            slowed = dict(record)
            if slowed.get("normalized_score"):
                slowed["normalized_score"] = slowed["normalized_score"] / 2
            slowed["worst_delay_ns"] = slowed["worst_delay_ns"] * 2
            append_record(slowed_path, slowed)
        code = runs_main([
            "regress", str(slowed_path), "--baseline", str(FIXTURE),
        ])
        assert code == RUNS_EXIT_REGRESSION
        assert "worst_delay_ns worsened" in capsys.readouterr().err

    def test_regress_empty_baseline_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = runs_main([
            "regress", str(FIXTURE), "--baseline", str(empty),
        ])
        assert code == RUNS_EXIT_NO_DATA


# ----------------------------------------------------------------------
# The HTML observatory: golden byte-identity
# ----------------------------------------------------------------------
class TestReport:
    def test_report_matches_committed_golden(self):
        ledger = read_ledger(FIXTURE)
        from repro.obs.cli import _load_run_traces

        traces = _load_run_traces(ledger)
        assert len(traces) == 2
        html = render_report(ledger.records, traces, title="Ledger fixture")
        assert html == GOLDEN.read_text(encoding="utf-8"), (
            "observatory drifted from the golden file; if intentional, "
            "regenerate with PYTHONPATH=src python "
            "tests/data/make_ledger_fixture.py"
        )

    def test_cli_report_is_byte_identical_across_runs(self, tmp_path,
                                                      capsys):
        out_a = tmp_path / "a.html"
        out_b = tmp_path / "b.html"
        args = ["report", str(FIXTURE), "--title", "Ledger fixture"]
        assert runs_main(args + ["--out", str(out_a)]) == RUNS_EXIT_OK
        assert runs_main(args + ["--out", str(out_b)]) == RUNS_EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_text(encoding="utf-8") == \
            GOLDEN.read_text(encoding="utf-8")

    def test_generator_reproduces_committed_fixtures(self, tmp_path):
        # The golden tests above compare against these files; a stale
        # file (say, a digest the ledger no longer computes) passes
        # them, so regeneration itself must be a no-op.
        fixture_generator().main(tmp_path)
        names = ("ledger_fixture.jsonl", "ledger_report_golden.html",
                 "ledger_trace_seed3.jsonl", "ledger_trace_seed5.jsonl")
        for name in names:
            assert (tmp_path / name).read_bytes() == \
                (DATA / name).read_bytes(), (
                    f"{name} differs from its regeneration; re-baseline with "
                    "PYTHONPATH=src python tests/data/make_ledger_fixture.py"
                )

    def test_report_degrades_without_traces(self, tmp_path):
        html = render_report([basic_record()], {}, title="No traces")
        assert "no trace" in html.lower() or "convergence" in html.lower()
        assert "NaN" not in html

    def test_report_empty_slice_exits_3(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        path.write_text("", encoding="utf-8")
        code = runs_main(["report", str(path), "--out", "-"])
        assert code == RUNS_EXIT_NO_DATA

    def test_svg_helpers_handle_degenerate_series(self):
        assert "svg" in svg_sparkline([1.0])
        assert "svg" in svg_sparkline([2.0, 2.0, 2.0])  # constant
        assert "–" in svg_sparkline([])
        empty = svg_overlay([])
        assert "no convergence data" in empty
        constant = svg_overlay([("run", 0, [0.0, 1.0], [5.0, 5.0])])
        assert "polyline" in constant and "NaN" not in constant
