import json

import numpy as np
import pytest

from embinvert.errors import IoFailure
from embinvert.evaluation import EvaluationCase, cross_model_report
from embinvert.fileio import replace_file
from embinvert.pipeline import AttackSettings, MODE_WHITEBOX, run_attack
from embinvert.records import (
    failure_record,
    format_report,
    read_results,
    read_thresholds,
    result_record,
    write_results,
    write_thresholds,
)
from embinvert.refine import PerturbationBudget
from embinvert.core import TargetSpec


@pytest.fixture()
def one_result(desk_world, quick_pool):
    f = desk_world.embedders[0]
    spec = TargetSpec(f.embed(desk_world.identities[0].images[0]), f.model_id)
    settings = AttackSettings(mode=MODE_WHITEBOX,
                              budget=PerturbationBudget("l2", 35.0),
                              tau_C=0.95, n_top=3, t_max=50)
    return run_attack(spec, quick_pool, settings, desk_world)


class TestResultRecords:
    def test_round_trip_through_file(self, one_result, tmp_path):
        rec = result_record(one_result, target_id="t000",
                            target_model_id="synthetic-embedder-0",
                            identity_id="id000", image_index=0,
                            config_checksum="c" * 64)
        fail = failure_record(target_id="t001",
                              target_model_id="synthetic-embedder-0",
                              identity_id="id001", image_index=1,
                              config_checksum="c" * 64,
                              error="BudgetTooSmall: nope")
        path = tmp_path / "results.ndjson"
        write_results(path, [rec, fail])
        back = read_results(path)
        assert back == [rec, fail]
        assert back[0]["error"] is None
        assert back[1]["error"].startswith("BudgetTooSmall")

    def test_refined_latent_survives_json_exactly(self, one_result, tmp_path):
        rec = result_record(one_result, target_id="t", target_model_id="m",
                            identity_id="i", image_index=0, config_checksum="x")
        path = tmp_path / "r.ndjson"
        write_results(path, [rec])
        back = read_results(path)[0]
        assert np.array_equal(np.array(back["refined_latent"]),
                              one_result.refined_latent.values)

    def test_candidate_summaries_align_with_traces(self, one_result):
        rec = result_record(one_result, target_id="t", target_model_id="m",
                            identity_id="i", image_index=0, config_checksum="x")
        assert len(rec["candidates"]) == len(one_result.candidate_traces)
        for entry, trace in zip(rec["candidates"], one_result.candidate_traces):
            assert entry["queries_used"] == trace.queries_used
            assert entry["stop_reason"] == trace.stop_reason
        assert rec["ledger"]["total"] == one_result.ledger.total

    def test_corrupt_results_line_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"ok": 1}\nnot json at all\n')
        with pytest.raises(IoFailure):
            read_results(path)

    def test_missing_results_file(self, tmp_path):
        with pytest.raises(IoFailure):
            read_results(tmp_path / "absent.ndjson")


class TestReplaceFile:
    def test_rewrite_leaves_only_the_new_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        replace_file(path, b"a much longer first version\n")
        replace_file(path, b"short\n")
        assert path.read_bytes() == b"short\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_rewrite_is_a_new_file_not_a_truncation(self, tmp_path):
        path = tmp_path / "out.csv"
        replace_file(path, b"old\n")
        with open(path, "rb") as held:
            replace_file(path, b"new\n")
            assert held.read() == b"old\n"
        assert path.read_bytes() == b"new\n"

    def test_failure_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "a-directory"
        target.mkdir()
        with pytest.raises(OSError):
            replace_file(target, b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["a-directory"]

    def test_writer_maps_failure_to_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            write_results(tmp_path / "absent-dir" / "r.ndjson", [])


class TestThresholdsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "thresholds.json"
        data = {"model-a": {"tau_F": 0.4, "eer": 0.02, "tau_C": 0.98}}
        write_thresholds(path, data)
        assert read_thresholds(path) == data

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "thresholds.json"
        path.write_text(json.dumps({"schema": "other", "models": {}}))
        with pytest.raises(IoFailure):
            read_thresholds(path)


class TestReportFormatting:
    def test_fixed_column_order_and_average_rows(self, desk_world):
        rec = desk_world.identities[0]
        case = EvaluationCase(
            target_id="t000",
            target_model_id=desk_world.embedders[0].model_id,
            reconstruction=rec.images[1],
            target_image=rec.images[0],
            alt_images=tuple(rec.images[2:]),
            queries=123,
            wall_time=1.5,
        )
        text = format_report(cross_model_report([case], desk_world.embedders))
        lines = text.splitlines()
        assert lines[0] == ("target_id,target_model,eval_model,similarity,"
                            "type1_hit,type2_rate,queries,wall_time")
        detail = [l for l in lines[1:] if not l.startswith(("AVERAGE", "#"))]
        assert len(detail) == 2  # one target x two eval models
        assert all(l.split(",")[6] == "123" for l in detail)
        averages = [l for l in lines if l.startswith("AVERAGE")]
        assert len(averages) == 2
        summary = [l for l in lines if l.startswith("#")]
        assert any("cross_model_type2" in l for l in summary)
