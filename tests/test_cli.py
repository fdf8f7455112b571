import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embinvert import cli, errors, evaluation, registry
from embinvert.cli import main
from embinvert.config import (
    ENV_PREFIX,
    RunConfig,
    apply_env_overrides,
    config_checksum,
    emit_config,
    load_config,
    parse_config,
)
from embinvert.errors import AllCandidatesFailed, ConfigInvalid, EmbinvertError
from embinvert.evaluation import compute_confidence_threshold
from embinvert.models import (
    QueryLedger,
    SyntheticDetector,
    SyntheticEmbedder,
    SyntheticGenerator,
)
from embinvert.records import read_results, read_thresholds


class TestConfigFormat:
    def test_round_trip_identity(self):
        config = RunConfig(volume=42, tau_c="calibrate", mode="blackbox",
                           t_max=None, q_max=2000, epsilon=0.25, norm="linf",
                           adapter_embedders=("a", "b"))
        assert parse_config(emit_config(config)) == config

    def test_unknown_key_is_fatal(self):
        with pytest.raises(ConfigInvalid, match="unknown config key"):
            parse_config("volumee = 100\n")

    def test_duplicate_key_is_fatal(self):
        with pytest.raises(ConfigInvalid, match="duplicate"):
            parse_config("volume = 1\nvolume = 2\n")

    def test_bad_value_is_fatal(self):
        with pytest.raises(ConfigInvalid, match="bad value"):
            parse_config("volume = lots\n")

    def test_comments_and_blanks_ignored(self):
        config = parse_config("# a comment\n\nvolume = 17\n")
        assert config.volume == 17

    def test_env_overrides(self):
        config = RunConfig()
        out = apply_env_overrides(config, env={"EMBINVERT_TAU_C": "0.7",
                                               "EMBINVERT_SEED": "99"})
        assert out.tau_c == 0.7 and out.seed == 99

    def test_validation_requires_mode_consistent_budget(self):
        with pytest.raises(ConfigInvalid):
            RunConfig(mode="whitebox", t_max=None).validate()
        with pytest.raises(ConfigInvalid):
            RunConfig(mode="blackbox", t_max=100, q_max=None).validate()
        with pytest.raises(ConfigInvalid):
            RunConfig(mode="blackbox", t_max=100, q_max=100).validate()
        RunConfig(mode="blackbox", t_max=None, q_max=100).validate()

    def test_checksum_tracks_content(self):
        a = config_checksum(RunConfig())
        b = config_checksum(RunConfig(volume=101))
        assert a != b and len(a) == 64

    def test_bad_image_shape_rejected(self):
        with pytest.raises(ConfigInvalid, match="image_shape"):
            parse_config("image_shape = 3x16\n")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigInvalid, match="seed"):
            RunConfig(seed=-1).validate()

    def test_adapter_embedders_parse_as_tuple(self):
        config = parse_config("adapter_embedders = a, b ,c\n")
        assert config.adapter_embedders == ("a", "b", "c")

    def test_tau_c_accepts_calibrate_keyword(self):
        config = parse_config("tau_c = calibrate\n")
        config_roundtrip = parse_config(emit_config(config))
        assert config_roundtrip.tau_c == "calibrate"


def posix_env_text(raw: bytes) -> str:
    """``raw`` as POSIX hands it to Python in argv or the environment."""
    return raw.decode("utf-8", "surrogateescape")


VALID_CONFIG = emit_config(RunConfig(
    tau_c="calibrate", mode="blackbox", t_max=None, q_max=2000,
    adapter_embedders=("a", "b"), pool_path="pool.lpool")).encode("utf-8")

# Fragments that reach the value parsers' edge cases.
CONFIG_TOKENS = [b"=", b"\n", b"#", b",", b"x", b"-", b"nan", b"inf", b"1e999",
                 b"none", b"calibrate", b"\xff", b"\xc3", b"\x00", b" "]


@st.composite
def mutated_config(draw):
    """The valid config with a few bytes deleted, inserted or replaced."""
    out = bytearray(VALID_CONFIG)
    edits = draw(st.lists(st.tuples(
        st.sampled_from(("delete", "insert", "replace")),
        st.integers(0, len(VALID_CONFIG)),
        st.sampled_from(CONFIG_TOKENS) | st.binary(min_size=1, max_size=4)),
        min_size=1, max_size=6))
    for kind, pos, payload in edits:
        pos = min(pos, len(out))
        if kind == "delete":
            del out[pos:pos + len(payload)]
        elif kind == "insert":
            out[pos:pos] = payload
        else:
            out[pos:pos + len(payload)] = payload
    return bytes(out)


@pytest.fixture(scope="session")
def valid_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "valid.cfg"
    path.write_bytes(VALID_CONFIG)
    return path


def accept_or_reject(read):
    """Validate what ``read()`` returns; only EmbinvertError may escape, and
    a config that validates has a checksum."""
    try:
        config = read().validate()
    except EmbinvertError:
        return
    assert len(config_checksum(config)) == 64


class TestConfigReadersFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=128) | mutated_config())
    def test_config_file_bytes(self, tmp_path_factory, data):
        fd, path = tempfile.mkstemp(suffix=".cfg",
                                    dir=tmp_path_factory.getbasetemp())
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        accept_or_reject(lambda: load_config(path, env={}))

    @settings(max_examples=300, deadline=None)
    @given(data=mutated_config())
    def test_parse_config_text(self, data):
        accept_or_reject(lambda: parse_config(posix_env_text(data)))

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from([f.upper() for f in RunConfig.__dataclass_fields__]),
           raw=st.binary(max_size=16) | st.sampled_from(CONFIG_TOKENS))
    def test_env_values(self, valid_config_path, key, raw):
        env = {ENV_PREFIX + key: posix_env_text(raw)}
        accept_or_reject(lambda: load_config(valid_config_path, env=env))

    def test_non_utf8_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"seed = 7\n\xff\xfe = 1\n")
        assert main(["calibrate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "UTF-8" in err

    def test_non_utf8_env_value_exits_2(self, tmp_path, monkeypatch, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        monkeypatch.setenv("EMBINVERT_REPORT_PATH", posix_env_text(b"r\xff.csv"))
        assert main(["attack", "--config", str(cfg_path)]) == 2
        assert "EMBINVERT_REPORT_PATH is not valid UTF-8" in capsys.readouterr().err

    def test_non_utf8_out_flag_exits_2(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        assert main(["attack", "--config", str(cfg_path),
                     "--out", posix_env_text(b"r\xff.ndjson")]) == 2
        assert "results_path is not valid UTF-8" in capsys.readouterr().err


SMALL = dict(
    d_lat=64,
    n_identities=6,
    volume=20,
    tau_k=0.9,
    tau_d=0.9,
    top_n=3,
    t_max=60,
    tau_c=0.95,
    num_targets=4,
    seed=7,
)


def write_config(tmp_path, **overrides):
    params = dict(SMALL)
    params.update(overrides)
    params.setdefault("pool_path", str(tmp_path / "pool.lpool"))
    params.setdefault("thresholds_path", str(tmp_path / "thresholds.json"))
    params.setdefault("results_path", str(tmp_path / "results.ndjson"))
    params.setdefault("report_path", str(tmp_path / "report.csv"))
    config = RunConfig(**params)
    path = tmp_path / "run.cfg"
    path.write_text(emit_config(config))
    return path, config


def strip_wall_time(records, and_checksum=False):
    out = []
    for rec in records:
        rec = dict(rec)
        rec.pop("wall_time", None)
        if and_checksum:
            rec.pop("config_checksum", None)
        out.append(rec)
    return out


class TestBuildPoolCommand:
    def test_deterministic_pool_file(self, tmp_path):
        cfg_path, config = write_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        first = (tmp_path / "pool.lpool").read_bytes()
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "pool.lpool").read_bytes() == first

    def test_acceptance_rate_reported_near_tail_mass(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, volume=5, tau_k=0.999, tau_d=0.0)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        rate = float(out.split("rate ")[1].split(")")[0])
        assert 0.0001 < rate < 0.01

    def test_missing_output_path_exits_2(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, pool_path="")
        assert main(["build-pool", "--config", str(cfg_path)]) == 2

    def test_out_flag_overrides_path(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        alt = tmp_path / "alt.lpool"
        assert main(["build-pool", "--config", str(cfg_path),
                     "--out", str(alt)]) == 0
        assert alt.exists()


class TestCalibrateCommand:
    def test_thresholds_sane_and_deterministic(self, tmp_path):
        cfg_path, config = write_config(tmp_path)
        assert main(["calibrate", "--config", str(cfg_path)]) == 0
        first = (tmp_path / "thresholds.json").read_text()
        by_model = read_thresholds(config.thresholds_path)
        assert len(by_model) == 2
        for entry in by_model.values():
            assert entry["eer"] <= 0.10
            assert entry["tau_C"] >= entry["tau_F"]
        assert main(["calibrate", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "thresholds.json").read_text() == first

    def test_single_image_identities_exit_3(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, images_per_identity=1)
        assert main(["calibrate", "--config", str(cfg_path)]) == 3


class TestCalibrationOnlyWhereRead:
    def test_calls_per_command(self, tmp_path, monkeypatch, calibration_calls):
        # calibrate calls cli's own reference; a tau_F read looks the
        # function up in evaluation, which the fixture has patched.
        monkeypatch.setattr(cli, "calibration_set_from_images",
                            evaluation.calibration_set_from_images)
        cfg_path, _ = write_config(tmp_path)

        def calibrations(command):
            calibration_calls.clear()
            assert main([command, "--config", str(cfg_path)]) == 0
            return list(calibration_calls)

        models = ["synthetic-embedder-0", "synthetic-embedder-1"]
        assert calibrations("build-pool") == []
        assert calibrations("attack") == []
        assert calibrations("report") == models   # no thresholds file yet
        assert calibrations("calibrate") == models
        assert calibrations("report") == []       # reads the thresholds file

    @pytest.mark.parametrize("seed", [7, 1009])
    def test_tau_f_is_the_worlds_lazy_tau_f(self, tmp_path, seed):
        # calibrate and the world's tau_F draw the same impostor pairs.
        cfg_path, config = write_config(tmp_path, seed=seed)
        assert main(["calibrate", "--config", str(cfg_path)]) == 0
        by_model = read_thresholds(config.thresholds_path)
        backend = cli.build_backend(config)
        assert len(backend.embedders) == 2
        for embedder in backend.embedders:
            assert by_model[embedder.model_id]["tau_F"] == embedder.tau_F

    @pytest.mark.parametrize("seed", [7, 1009])
    def test_tau_c_is_the_confidence_threshold(self, tmp_path, seed):
        cfg_path, config = write_config(tmp_path, seed=seed)
        assert main(["calibrate", "--config", str(cfg_path)]) == 0
        by_model = read_thresholds(config.thresholds_path)
        backend = cli.build_backend(config)
        for embedder in backend.embedders:
            assert by_model[embedder.model_id]["tau_C"] == \
                compute_confidence_threshold(backend.identity_images, embedder)


@pytest.fixture()
def attacked(tmp_path):
    cfg_path, config = write_config(tmp_path)
    assert main(["build-pool", "--config", str(cfg_path)]) == 0
    assert main(["attack", "--config", str(cfg_path)]) == 0
    return cfg_path, config


class TestAttackCommand:
    def test_one_record_per_target(self, attacked):
        _, config = attacked
        records = read_results(config.results_path)
        assert len(records) == config.num_targets
        assert [r["target_id"] for r in records] == [f"t{i:03d}" for i in range(4)]
        for rec in records:
            assert rec["error"] is None
            assert rec["ledger"]["q_topn"] == config.volume
            assert rec["config_checksum"] == config_checksum(config)

    def test_identical_invocations_match_modulo_wall_time(self, attacked, tmp_path):
        cfg_path, config = attacked
        first = strip_wall_time(read_results(config.results_path))
        assert main(["attack", "--config", str(cfg_path)]) == 0
        second = strip_wall_time(read_results(config.results_path))
        assert first == second

    def test_blackbox_budget_respected(self, tmp_path):
        cfg_path, config = write_config(
            tmp_path, mode="blackbox", t_max=None, q_max=500, num_targets=3)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        assert main(["attack", "--config", str(cfg_path)]) == 0
        for rec in read_results(config.results_path):
            assert rec["ledger"]["total"] <= 500

    @pytest.mark.parametrize("source", ["flag", "file", "env"])
    def test_jobs_other_than_one_exits_2(self, tmp_path, monkeypatch, capsys,
                                         source):
        # Targets run one after another; any other jobs value is refused
        # before a target is attacked, wherever it comes from.
        cfg_path, config = write_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        argv = ["attack", "--config", str(cfg_path)]
        if source == "flag":
            argv += ["--jobs", "3"]
        elif source == "file":
            write_config(tmp_path, jobs=2)
        else:
            monkeypatch.setenv("EMBINVERT_JOBS", "4")
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "jobs" in err and "one after another" in err
        assert not os.path.exists(config.results_path)

    def test_perfbench_invocation_matches_default(self, attacked, tmp_path):
        # perfbench writes jobs = 1 into the config and passes --jobs 1.
        cfg_path, config = attacked
        text = cfg_path.read_text()
        assert "jobs = 1\n" in text
        bare = tmp_path / "bare.cfg"
        bare.write_text("".join(line for line in text.splitlines(True)
                                if not line.startswith("jobs ")))
        assert main(["attack", "--config", str(bare)]) == 0
        default = strip_wall_time(read_results(config.results_path))
        assert main(["attack", "--config", str(cfg_path), "--jobs", "1"]) == 0
        assert strip_wall_time(read_results(config.results_path)) == default

    def test_attack_without_pool_exits_4(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)  # pool never built
        assert main(["attack", "--config", str(cfg_path)]) == 4

    def test_every_target_failing_exits_5(self, tmp_path, monkeypatch):
        # every refinement aborting fails every target; each is recorded
        # in-line and the run exits 5
        cfg_path, config = write_config(tmp_path, num_targets=3)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0

        def all_fail(*args, **kwargs):
            raise AllCandidatesFailed("all 3 candidate refinements aborted")

        monkeypatch.setattr(cli, "run_attack", all_fail)
        assert main(["attack", "--config", str(cfg_path)]) == 5
        records = read_results(config.results_path)
        assert len(records) == 3
        assert all(r["error"].startswith("AllCandidatesFailed")
                   for r in records)

    def test_ledger_overrun_becomes_a_failure_record(self, tmp_path,
                                                     monkeypatch):
        # a bookkeeping bug that overruns a ledger fails its target alone
        # instead of killing the run
        cfg_path, config = write_config(tmp_path, num_targets=2)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0

        def overrun(*args, **kwargs):
            QueryLedger(q_max=10).charge_topn(11)

        monkeypatch.setattr(cli, "run_attack", overrun)
        assert main(["attack", "--config", str(cfg_path)]) == 5
        records = read_results(config.results_path)
        assert len(records) == 2
        assert all(r["error"].startswith("LedgerOverrun") for r in records)

    @pytest.mark.parametrize("q_max", [10, 20, 21])
    def test_budget_without_refinement_queries_exits_2(self, tmp_path,
                                                       monkeypatch, q_max):
        # V = 20 and N = 3: below V, exactly V, and V plus fewer than N
        cfg_path, config = write_config(tmp_path, mode="blackbox", t_max=None,
                                        q_max=q_max, num_targets=3)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0

        def trap(*args, **kwargs):
            raise AssertionError("a target was attacked")

        monkeypatch.setattr(cli, "run_attack", trap)
        assert main(["attack", "--config", str(cfg_path)]) == 2
        assert not (tmp_path / "results.ndjson").exists()

    def test_pool_from_other_generator_exits_2(self, tmp_path):
        cfg_path, config = write_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        other_cfg, _ = write_config(tmp_path, seed=8,
                                    pool_path=config.pool_path)
        other_path = tmp_path / "other.cfg"
        assert main(["attack", "--config", str(other_path)]) == 2 \
            if other_path.exists() else True
        # explicit: same pool file, different world seed
        assert main(["attack", "--config", str(other_cfg)]) == 2

    def test_desk_scale_fifty_targets_within_time_budget(self, tmp_path):
        import time
        cfg_path, config = write_config(
            tmp_path, volume=100, tau_k=0.999, tau_d=0.999,
            n_identities=20, num_targets=50, t_max=200, epsilon=35.0)
        started = time.perf_counter()
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        assert main(["attack", "--config", str(cfg_path)]) == 0
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0
        records = read_results(config.results_path)
        assert len(records) == 50
        assert all(r["error"] is None for r in records)

    def test_calibrated_tau_c_flows_from_thresholds_file(self, tmp_path):
        cfg_path, config = write_config(tmp_path, tau_c="calibrate",
                                        num_targets=2)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        assert main(["calibrate", "--config", str(cfg_path)]) == 0
        assert main(["attack", "--config", str(cfg_path)]) == 0
        records = read_results(config.results_path)
        assert all(r["error"] is None for r in records)


class TestReportCommand:
    def test_rows_averages_and_consistency(self, attacked, capsys):
        cfg_path, config = attacked
        assert main(["report", "--config", str(cfg_path)]) == 0
        lines = [l for l in open(config.report_path).read().splitlines() if l]
        header, rest = lines[0], lines[1:]
        assert header.split(",")[:3] == ["target_id", "target_model", "eval_model"]
        detail = [l for l in rest if not l.startswith(("AVERAGE", "#"))]
        averages = [l for l in rest if l.startswith("AVERAGE")]
        assert len(detail) == config.num_targets * 2  # 2 eval models
        assert len(averages) == 2
        # recompute the per-model type2 average from detail rows
        for avg_line in averages:
            cols = avg_line.split(",")
            model = cols[2]
            rows = [l.split(",") for l in detail if l.split(",")[2] == model]
            mean_t2 = sum(float(r[5]) for r in rows) / len(rows)
            assert math.isclose(float(cols[5]), mean_t2, abs_tol=1e-6)

    def test_missing_eval_model_exits_2_naming_it(self, attacked, capsys, tmp_path):
        cfg_path, config = attacked
        records = read_results(config.results_path)
        records[0]["target_model_id"] = "ghost-model"
        with open(config.results_path, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        assert main(["report", "--config", str(cfg_path)]) == 2
        assert "ghost-model" in capsys.readouterr().err

    def test_report_without_results_exits_4(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert main(["report", "--config", str(cfg_path)]) == 4


def toy_generator(config):
    return SyntheticGenerator(config.d_lat, config.image_shape,
                              np.random.SeedSequence([1234, 0]),
                              generator_id="toy-gen")


def register_toy_adapters(calibration_factory):
    """Register adapters that wrap the synthetic machinery under external
    ids, as a real generator/embedder adapter would wrap its model processes.
    """
    def emb_factory(k, model_id):
        def factory(config):
            e = SyntheticEmbedder(24, config.image_shape,
                                  np.random.SeedSequence([1234, k]), model_id)
            e.tau_F = 0.5
            return e
        return factory

    def det_factory(config):
        gen = toy_generator(config)
        return SyntheticDetector(np.tanh(gen.bias), offset=-1.0, slope=50.0,
                                 detector_id="toy-det")

    registry.register_generator("toy-gen", toy_generator)
    registry.register_embedder("toy-emb-a", emb_factory(1, "toy-emb-a"))
    registry.register_embedder("toy-emb-b", emb_factory(2, "toy-emb-b"))
    registry.register_detector("toy-det", det_factory)
    registry.register_calibration_source("toy-cal", calibration_factory)


def write_toy_adapter_config(tmp_path):
    return write_config(
        tmp_path,
        backend="adapter",
        adapter_generator="toy-gen",
        adapter_embedders=("toy-emb-a", "toy-emb-b"),
        adapter_detector="toy-det",
        adapter_calibration="toy-cal",
        target_model="toy-emb-a",
        tau_k=0.5, tau_d=0.5, volume=10, num_targets=2,
    )


class TestAdapterRegistry:
    def test_full_pipeline_through_registered_adapters(self, tmp_path):
        def calibration_factory(config):
            gen = toy_generator(config)
            from embinvert.core import LatentCode
            rng = np.random.default_rng(5)
            groups = []
            for _ in range(4):
                center = rng.standard_normal(config.d_lat)
                groups.append(tuple(
                    gen.generate(LatentCode(center + 0.3 * rng.standard_normal(config.d_lat)))
                    for _ in range(3)))
            return groups

        register_toy_adapters(calibration_factory)
        cfg_path, config = write_toy_adapter_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        assert main(["calibrate", "--config", str(cfg_path)]) == 0
        assert main(["attack", "--config", str(cfg_path)]) == 0
        assert main(["report", "--config", str(cfg_path)]) == 0
        by_model = read_thresholds(config.thresholds_path)
        assert set(by_model) == {"toy-emb-a", "toy-emb-b"}

    @pytest.mark.parametrize("groups, message", [
        ([], "backend provides no identities"),
        ([(), ()], "identity id000 has no images"),
    ], ids=["no-identities", "empty-identity"])
    def test_attack_without_identity_images_exits_3(self, tmp_path, capsys,
                                                    groups, message):
        register_toy_adapters(lambda config: groups)
        cfg_path, config = write_toy_adapter_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        assert main(["attack", "--config", str(cfg_path)]) == 3
        assert f"error: {message}" in capsys.readouterr().err
        assert not os.path.exists(config.results_path)

    def test_unregistered_adapter_exits_2(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, backend="adapter",
                                   adapter_generator="nobody-home",
                                   adapter_embedders=("toy-emb-a",))
        assert main(["build-pool", "--config", str(cfg_path)]) == 2


def documented_exit_codes():
    """{error class name: exit code} from README.md's exit-code table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].isdigit():
            for name in re.findall(r"`(\w+)`", cells[2]):
                assert name not in documented, f"{name} documented twice"
                documented[name] = int(cells[0])
    return documented


class TestExitCodes:
    def test_every_error_class_has_its_documented_code(self):
        documented = documented_exit_codes()
        classes = [obj for obj in vars(errors).values()
                   if isinstance(obj, type) and issubclass(obj, errors.EmbinvertError)]
        assert {cls.__name__ for cls in classes} == set(documented)
        for cls in classes:
            assert (cls.__name__, cli._exit_code(cls("x"))) == \
                (cls.__name__, documented[cls.__name__])


THRESHOLDS_OK = {"schema": "embinvert-thresholds-v1",
                 "models": {"synthetic-embedder-0":
                            {"tau_F": 0.3, "eer": 0.01, "tau_C": 0.95}}}


class TestMalformedInputsExit4:
    @pytest.mark.parametrize("payload", [
        {"schema": "embinvert-thresholds-v1"},
        [THRESHOLDS_OK],
        {"schema": "embinvert-thresholds-v1", "models": {"m": {"tau_F": "high"}}},
    ], ids=["no-models", "json-list", "non-numeric"])
    def test_thresholds(self, attacked, capsys, payload):
        cfg_path, config = attacked
        with open(config.thresholds_path, "w") as fh:
            json.dump(payload, fh)
        assert main(["report", "--config", str(cfg_path)]) == 4
        tau_cfg, _ = write_config(Path(config.pool_path).parent,
                                  tau_c="calibrate", num_targets=1)
        assert main(["attack", "--config", str(tau_cfg)]) == 4
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "missing-target-model", '"a json string"', "[1, 2]", "negative-index",
    ], ids=["missing-target-model", "json-string", "json-list", "negative-index"])
    def test_results(self, attacked, capsys, line):
        cfg_path, config = attacked
        records = read_results(config.results_path)
        if line == "missing-target-model":
            del records[1]["target_model_id"]
        elif line == "negative-index":
            records[1]["image_index"] = -1
        lines = [json.dumps(rec) for rec in records]
        if line.startswith(('"', "[")):
            lines[1] = line
        Path(config.results_path).write_text("\n".join(lines) + "\n")
        assert main(["report", "--config", str(cfg_path)]) == 4
        assert "line 2" in capsys.readouterr().err

    def test_image_index_beyond_the_identity_exits_2(self, attacked, capsys):
        cfg_path, config = attacked
        records = read_results(config.results_path)
        records[0]["image_index"] = config.images_per_identity
        Path(config.results_path).write_text(
            "".join(json.dumps(rec) + "\n" for rec in records))
        assert main(["report", "--config", str(cfg_path)]) == 2
        assert "has 4 images" in capsys.readouterr().err
