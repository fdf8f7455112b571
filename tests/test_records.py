import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embinvert.errors import EmbinvertError, IoFailure
from embinvert.evaluation import EvaluationCase, cross_model_report
from embinvert.fileio import replace_file
from embinvert.pipeline import AttackSettings, MODE_WHITEBOX, run_attack
from embinvert.records import (
    THRESHOLDS_SCHEMA,
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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


def record_like():
    """Result records with fields dropped, retyped or replaced."""
    base = failure_record(target_id="t", target_model_id="m", identity_id="i",
                          image_index=0, config_checksum="c", error=None)
    base.update(refined_latent=[0.5, -0.25], ledger={"total": 3}, wall_time=0.1)
    return st.builds(
        lambda drop, changes: {**{k: v for k, v in base.items() if k not in drop},
                               **changes},
        st.sets(st.sampled_from(sorted(base))),
        st.dictionaries(st.sampled_from(sorted(base)), json_values, max_size=3))


def thresholds_like():
    entry = st.fixed_dictionaries({}, optional={
        key: json_values for key in ("tau_F", "tau_C", "eer")})
    models = st.dictionaries(st.text(max_size=4), entry | json_values, max_size=3)
    return st.fixed_dictionaries({}, optional={
        "schema": st.just(THRESHOLDS_SCHEMA) | json_values,
        "models": models | json_values}) | json_values


class TestReadersFailClosed:
    """Malformed input ends as an EmbinvertError, never another exception."""

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(record_like() | json_values, min_size=1, max_size=3))
    def test_read_results_json(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("fuzz") / "r.ndjson"
        path.write_text("".join(json.dumps(v) + "\n" for v in lines))
        try:
            records = read_results(path)
        except EmbinvertError:
            return
        for rec in records:
            rec["target_model_id"], rec["identity_id"], rec["image_index"]
            if rec["error"] is None:
                rec["ledger"]["total"], rec["wall_time"], rec["refined_latent"]

    @settings(max_examples=300, deadline=None)
    @given(payload=thresholds_like())
    def test_read_thresholds_json(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("fuzz") / "t.json"
        path.write_text(json.dumps(payload))
        try:
            by_model = read_thresholds(path)
        except EmbinvertError:
            return
        for entry in by_model.values():
            float(entry["tau_F"]) + float(entry["tau_C"]) + float(entry["eer"])

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=64) | st.text(max_size=64).map(str.encode))
    def test_arbitrary_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "f"
        path.write_bytes(data)
        for reader in (read_results, read_thresholds):
            try:
                reader(path)
            except EmbinvertError:
                pass

    def test_deep_nesting(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000 + "\n")
        for reader in (read_results, read_thresholds):
            with pytest.raises(IoFailure):
                reader(path)

    @pytest.mark.parametrize("payload", [
        {"schema": THRESHOLDS_SCHEMA},
        [{"schema": THRESHOLDS_SCHEMA, "models": {}}],
        {"schema": THRESHOLDS_SCHEMA, "models": {"m": {"tau_F": 0.3, "eer": 0.1}}},
        {"schema": THRESHOLDS_SCHEMA,
         "models": {"m": {"tau_F": True, "eer": 0.1, "tau_C": 0.9}}},
    ], ids=["no-models", "json-list", "missing-tau_C", "boolean"])
    def test_malformed_thresholds(self, tmp_path, payload):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(IoFailure):
            read_thresholds(path)

    @pytest.mark.parametrize("rec", [
        "a json string",
        {"schema": "embinvert-result-v1", "target_id": "t", "identity_id": "i",
         "image_index": 0, "error": "x"},
    ], ids=["json-string", "missing-target_model_id"])
    def test_malformed_results(self, tmp_path, rec):
        path = tmp_path / "r.ndjson"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(IoFailure, match="line 1"):
            read_results(path)
