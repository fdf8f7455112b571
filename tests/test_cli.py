import dataclasses
import hashlib
import json
import math
import os
import re
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embinvert import cli, errors, evaluation, models, registry
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
from embinvert.models import (
    DetectorHandle,
    EmbedderHandle,
    QueryLedger,
    SyntheticDetector,
    SyntheticEmbedder,
    SyntheticGenerator,
    impostor_stream,
)
from embinvert.records import read_results, read_thresholds, write_thresholds

from conftest import forward
from test_evaluation import confidence_loop_reference
from test_models import NormalisingEmbedder, PlainEmbedder, PlainGenerator
from test_pool import reseal


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

    def test_default_config_text_and_checksum_are_pinned(self):
        assert emit_config(RunConfig()) == DEFAULT_CONFIG_TEXT
        assert config_checksum(RunConfig()) == (
            "3f1413045052da907c83ae33fd113aa6f748c6041061a12b3ecedc3016ff8eff")

    def test_adapter_config_text_and_checksum_are_pinned(self):
        config = RunConfig(
            backend="adapter", target_model="emb-a", mode="blackbox",
            t_max=None, q_max=20000, tau_c="calibrate", epsilon=0.25,
            norm="linf", image_shape=(1, 8, 8), adapter_generator="gen",
            adapter_embedders=("emb-a", "emb-b"), adapter_detector="det",
            adapter_calibration="cal", pool_path="pool.lpool")
        text = emit_config(config)
        for line in ("backend = adapter", "image_shape = 1x8x8",
                     "epsilon = 0.25", "tau_c = calibrate", "t_max = ",
                     "q_max = 20000", "adapter_embedders = emb-a,emb-b",
                     "pool_path = pool.lpool"):
            assert line + "\n" in text
        assert parse_config(text) == config
        assert config_checksum(config) == (
            "b9916b9f0c60458c2e0e9a65f7ae05a6f728569b50197adfd3cb7323f114da05")

    def test_tau_c_accepts_calibrate_keyword(self):
        config = parse_config("tau_c = calibrate\n")
        config_roundtrip = parse_config(emit_config(config))
        assert config_roundtrip.tau_c == "calibrate"


DEFAULT_CONFIG_TEXT = """\
backend = synthetic
target_model = synthetic-embedder-0
d_lat = 64
image_shape = 3x16x16
embedder_dims = 32,32
n_identities = 20
images_per_identity = 4
identity_noise = 0.35
volume = 100
tau_k = 0.999
tau_d = 0.999
max_draw_factor = 10000
top_n = 3
mode = whitebox
norm = l2
epsilon = 35.0
tau_c = 0.95
t_max = 200
q_max = 
num_targets = 50
seed = 7
jobs = 1
adapter_generator = 
adapter_embedders = 
adapter_detector = 
adapter_calibration = 
pool_path = 
thresholds_path = 
results_path = 
report_path = 
"""


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

    @pytest.mark.parametrize("command, key", [
        ("build-pool", "pool_path"), ("calibrate", "thresholds_path"),
        ("attack", "results_path"), ("attack", "pool_path"),
        ("report", "report_path"), ("report", "results_path"),
    ])
    def test_each_required_path_left_empty_exits_2(self, tmp_path, capsys,
                                                    command, key):
        cfg_path, _ = write_config(tmp_path, **{key: ""})
        assert main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: {key} is required for {command}" in err

    @pytest.mark.parametrize("seed", ["9223372036854775807",
                                      "18446744073709551616"])
    def test_seed_beyond_the_pool_file_field_exits_2(self, tmp_path, capsys,
                                                      seed):
        cfg_path, config = write_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path),
                     "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "build seed" in err
        assert not os.path.exists(config.pool_path)

    @pytest.mark.parametrize("command, key, message", [
        ("attack", "epsilon", "epsilon must be finite"),
        ("build-pool", "identity_noise", "identity_noise must be finite"),
        ("calibrate", "identity_noise", "identity_noise must be finite"),
    ])
    def test_infinite_value_exits_2(self, tmp_path, capsys, command, key,
                                    message):
        cfg_path, config = write_config(tmp_path, **{key: math.inf})
        assert main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: {message}" in err
        assert not os.path.exists(config.pool_path)
        assert not os.path.exists(config.thresholds_path)

    @pytest.mark.parametrize("factor", [0, -5])
    def test_max_draw_factor_below_one_exits_2(self, tmp_path, capsys, factor):
        cfg_path, config = write_config(tmp_path, max_draw_factor=factor)
        assert main(["build-pool", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "max_draw_factor must be >= 1" in err
        assert not os.path.exists(config.pool_path)

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

    def test_bytes_pinned_across_code_versions(self, tmp_path):
        # The desk world's thresholds.  Its identity images come from
        # generate_batch, whose rows must equal generate's bit for bit; a
        # GEMM in the world build moves their last bits and this file.
        cfg_path, config = write_config(tmp_path, n_identities=20)
        assert main(["calibrate", "--config", str(cfg_path)]) == 0
        data = Path(config.thresholds_path).read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "47bb9f191ff4febf41f067a1860f4b9ad59b06462a705e9ab8c1fa3434b10147")

    def test_single_image_identities_exit_3(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, images_per_identity=1)
        assert main(["calibrate", "--config", str(cfg_path)]) == 3


class TestCalibrationOnlyWhereRead:
    def test_calls_per_command(self, tmp_path, monkeypatch, calibration_calls):
        # calibrate and report call cli's own reference; point it at the
        # function the fixture has patched.
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

    def test_detector_calibrated_only_by_build_pool(self, tmp_path, monkeypatch):
        calls = []
        calibrate_detector = models._calibrate_detector

        def counting(*args):
            calls.append(args)
            return calibrate_detector(*args)

        def refusing(*args):
            raise AssertionError("the detector was calibrated")

        cfg_path, _ = write_config(tmp_path)
        monkeypatch.setattr(models, "_calibrate_detector", counting)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        assert len(calls) == 1
        monkeypatch.setattr(models, "_calibrate_detector", refusing)
        for command in ("calibrate", "attack", "report"):
            assert main([command, "--config", str(cfg_path)]) == 0

    @pytest.mark.parametrize("seed", [7, 1009])
    def test_report_without_thresholds_matches_report_after_calibrate(
            self, tmp_path, seed):
        # report calibrates as calibrate does, so the thresholds, and with
        # them the report's bytes, are the same either way.
        cfg_path, config = write_config(tmp_path, seed=seed)
        for command in ("build-pool", "attack", "report"):
            assert main([command, "--config", str(cfg_path)]) == 0
        assert not os.path.exists(config.thresholds_path)
        without = Path(config.report_path).read_bytes()
        assert main(["calibrate", "--config", str(cfg_path)]) == 0
        assert main(["report", "--config", str(cfg_path)]) == 0
        assert Path(config.report_path).read_bytes() == without

    @pytest.mark.parametrize("seed", [7, 1009])
    def test_tau_f_is_the_worlds_lazy_tau_f(self, tmp_path, seed):
        # calibrate's tau_F is the EER threshold of the world's images on
        # embedder k's impostor stream, the calibration the world's tau_F
        # once ran on first read.
        cfg_path, config = write_config(tmp_path, seed=seed)
        assert main(["calibrate", "--config", str(cfg_path)]) == 0
        by_model = read_thresholds(config.thresholds_path)
        backend = cli.build_backend(config)
        assert len(backend.embedders) == 2
        for k, embedder in enumerate(backend.embedders):
            assert embedder.tau_F is None
            cal = evaluation.calibration_set_from_images(
                backend.identity_images, embedder,
                seed=impostor_stream(config.seed, k))
            assert by_model[embedder.model_id]["tau_F"] == \
                evaluation.compute_eer_threshold(cal)[0]

    @pytest.mark.parametrize("seed", [7, 1009])
    def test_tau_c_is_the_confidence_threshold(self, tmp_path, seed):
        cfg_path, config = write_config(tmp_path, seed=seed)
        assert main(["calibrate", "--config", str(cfg_path)]) == 0
        by_model = read_thresholds(config.thresholds_path)
        backend = cli.build_backend(config)
        for embedder in backend.embedders:
            assert abs(by_model[embedder.model_id]["tau_C"] - confidence_loop_reference(
                backend.identity_images, embedder)) <= 1e-12


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

    @pytest.mark.parametrize("mode, norm, digest", [
        ("whitebox", "l2",
         "a49a90abfa9f4ef446e6484e4f3d42ec6e89b1975b089a7923a61bbe2d6c6a16"),
        ("whitebox", "linf",
         "627cec09d30c36d2ca7b849f9aa378d121e5a0a8a44d9da3004a902d40f77be0"),
        ("blackbox", "l2",
         "376b17c43d11d89c1a35a0c089b1eb9329f858f7919a5b02ba7a96f06d4e0274"),
        ("blackbox", "linf",
         "4af88025618bfe2e63d41f0795ab02e148722318a628df7cb5e6f2420f576d42"),
    ])
    def test_records_pinned_across_code_versions(self, tmp_path, mode, norm, digest):
        # The desk world's attack records without wall_time and the config
        # checksum (it covers the temporary paths): refined latents,
        # similarities and ledgers.  A refactor of the refine loop, the
        # session's forward pass or the handles' arithmetic that moves a
        # single bit of any query changes this digest.
        budget = (dict(t_max=40) if mode == "whitebox"
                  else dict(t_max=None, q_max=400))
        cfg_path, config = write_config(
            tmp_path, n_identities=20, num_targets=3, tau_c=0.9999, mode=mode,
            norm=norm, epsilon=35.0 if norm == "l2" else 0.5, **budget)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        assert main(["attack", "--config", str(cfg_path)]) == 0
        records = strip_wall_time(read_results(config.results_path),
                                  and_checksum=True)
        data = json.dumps(records, sort_keys=True).encode("utf-8")
        assert hashlib.sha256(data).hexdigest() == digest

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

    def test_empty_pool_file_exits_4(self, tmp_path, capsys):
        # The header of a built pool with V = 0, no entries and a valid
        # checksum: a malformed pool file, not a pool to attack with.
        cfg_path, config = write_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        data = (tmp_path / "pool.lpool").read_bytes()
        (id_len,) = struct.unpack_from("<H", data, 56)
        header = bytearray(data[:58 + id_len])
        struct.pack_into("<I", header, 24, 0)  # V
        struct.pack_into("<I", header, 52, 0)  # entry count
        header += struct.pack("<I", zlib.crc32(bytes(header)))
        (tmp_path / "pool.lpool").write_bytes(bytes(header))
        capsys.readouterr()
        assert main(["attack", "--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "malformed" in err
        assert not os.path.exists(config.results_path)

    @pytest.mark.parametrize("craft", [
        "count-other-than-v", "entry-below-tau-k", "bytes-after-last-entry",
        "nan-latent"])
    def test_malformed_pool_file_exits_4(self, tmp_path, capsys, craft):
        cfg_path, config = write_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        data = bytearray((tmp_path / "pool.lpool").read_bytes())
        (id_len,) = struct.unpack_from("<H", data, 56)
        if craft == "count-other-than-v":
            struct.pack_into("<I", data, 24, config.volume - 1)  # V
        elif craft == "entry-below-tau-k":
            struct.pack_into("<d", data, 58 + id_len + 8, config.tau_k / 2)
        elif craft == "nan-latent":
            struct.pack_into("<f", data, 58 + id_len + 24, float("nan"))
        else:
            data[-4:] = bytes(8)
        (tmp_path / "pool.lpool").write_bytes(reseal(data))
        capsys.readouterr()
        assert main(["attack", "--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "malformed pool file" in err
        assert not os.path.exists(config.results_path)

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

    @pytest.mark.parametrize("tau_c", [-0.5, 0.0, 1.5])
    def test_calibrated_tau_c_outside_unit_interval_exits_2(self, tmp_path,
                                                           capsys, tau_c):
        cfg_path, config = write_config(tmp_path, tau_c="calibrate",
                                        num_targets=2)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        write_thresholds(config.thresholds_path, {
            config.target_model: {"tau_F": 0.5, "eer": 0.0, "tau_C": tau_c}})
        assert main(["attack", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: tau_c must be in (0, 1], got {tau_c}" in err
        assert not os.path.exists(config.results_path)


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

    def test_latent_of_the_wrong_length_exits_1(self, attacked, capsys):
        # Checked with the other record fields, before the one
        # generate_batch call over every successful record.
        cfg_path, config = attacked
        records = read_results(config.results_path)
        records[-1]["refined_latent"] = records[-1]["refined_latent"][:-1]
        with open(config.results_path, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        capsys.readouterr()
        assert main(["report", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: results hold a latent of length 63" in err
        assert not os.path.exists(config.report_path)

    def test_without_genuine_pairs_exits_2(self, tmp_path, capsys):
        # One image per identity leaves nothing to calibrate tau_F on.
        cfg_path, config = write_config(tmp_path, images_per_identity=1)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        assert main(["attack", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["report", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: no tau_F for eval model 'synthetic-embedder-0'" in err
        assert not os.path.exists(config.report_path)

    def test_results_of_another_seed_exit_2_naming_the_target(self, attacked, capsys):
        # Seed 8 builds another world, whose generator maps each recorded
        # latent to an image attack never scored.
        cfg_path, config = attacked
        capsys.readouterr()
        assert main(["report", "--config", str(cfg_path), "--seed", "8"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: target t000: report's similarity on synthetic-embedder-0" in err
        assert "another world or seed" in err
        assert not os.path.exists(config.report_path)

    def test_report_without_results_exits_4(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert main(["report", "--config", str(cfg_path)]) == 4


def toy_generator(config):
    return SyntheticGenerator(config.d_lat, config.image_shape,
                              np.random.SeedSequence([1234, 0]),
                              generator_id="toy-gen")


def toy_identity_images(config):
    gen = toy_generator(config)
    from embinvert.core import LatentCode
    rng = np.random.default_rng(5)
    groups = []
    for _ in range(4):
        center = rng.standard_normal(config.d_lat)
        groups.append(tuple(
            forward(gen, LatentCode(center + 0.3 * rng.standard_normal(config.d_lat)))
            for _ in range(3)))
    return groups


def register_toy_adapters(calibration_factory, forward_only=False):
    """Register adapters that wrap the synthetic machinery under external
    ids, as a real generator/embedder adapter would wrap its model processes.
    With ``forward_only`` the generator and embedders have no gradients.
    """
    def gen_factory(config):
        gen = toy_generator(config)
        return PlainGenerator(gen) if forward_only else gen

    def emb_factory(k, model_id):
        def factory(config):
            e = SyntheticEmbedder(24, config.image_shape,
                                  np.random.SeedSequence([1234, k]), model_id)
            e.tau_F = 0.5
            return PlainEmbedder(e) if forward_only else e
        return factory

    def det_factory(config):
        gen = toy_generator(config)
        return SyntheticDetector(np.tanh(gen.bias), offset=-1.0, slope=50.0,
                                 input_shape=gen.output_shape, detector_id="toy-det")

    registry.register_generator("toy-gen", gen_factory)
    registry.register_embedder("toy-emb-a", emb_factory(1, "toy-emb-a"))
    registry.register_embedder("toy-emb-b", emb_factory(2, "toy-emb-b"))
    registry.register_detector("toy-det", det_factory)
    registry.register_calibration_source("toy-cal", calibration_factory)


def write_toy_adapter_config(tmp_path, **overrides):
    params = dict(
        backend="adapter",
        adapter_generator="toy-gen",
        adapter_embedders=("toy-emb-a", "toy-emb-b"),
        adapter_detector="toy-det",
        adapter_calibration="toy-cal",
        target_model="toy-emb-a",
        tau_k=0.5, tau_d=0.5, volume=10, num_targets=2,
    )
    params.update(overrides)
    return write_config(tmp_path, **params)


class TestAdapterRegistry:
    def test_full_pipeline_through_registered_adapters(self, tmp_path):
        register_toy_adapters(toy_identity_images)
        cfg_path, config = write_toy_adapter_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        assert main(["calibrate", "--config", str(cfg_path)]) == 0
        assert main(["attack", "--config", str(cfg_path)]) == 0
        assert main(["report", "--config", str(cfg_path)]) == 0
        by_model = read_thresholds(config.thresholds_path)
        assert set(by_model) == {"toy-emb-a", "toy-emb-b"}

    def test_two_embedders_sharing_a_model_id_exit_2(self, tmp_path, capsys):
        # Counted twice, the model would be calibrated twice into one
        # thresholds entry and weigh twice in the cross-model averages.
        register_toy_adapters(toy_identity_images)
        cfg_path, config = write_toy_adapter_config(tmp_path)
        for command in ("build-pool", "attack"):
            assert main([command, "--config", str(cfg_path)]) == 0
        dup_path = tmp_path / "dup.cfg"
        dup_path.write_text(emit_config(dataclasses.replace(
            config, adapter_embedders=("toy-emb-a", "toy-emb-a", "toy-emb-b"))))
        capsys.readouterr()
        for command in ("build-pool", "calibrate", "attack", "report"):
            assert main([command, "--config", str(dup_path)]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert "error: two embedders share model_id 'toy-emb-a'" in err
        assert not os.path.exists(config.thresholds_path)
        assert not os.path.exists(config.report_path)

    def test_unnormalised_embedder_exits_2_in_white_box_only(self, tmp_path,
                                                             capsys):
        # Its cosine is the unit model's everywhere, but white-box refinement
        # pulls back t/||t||, the cosine's gradient only for a unit
        # embedding: the attack stops before selection charges a query.
        class TripledEmbedder(SyntheticEmbedder):
            embedded = 0

            def embed_batch(self, images):
                TripledEmbedder.embedded += len(images)
                return 3.0 * super().embed_batch(images)

            def embed_vjp(self, image):
                unit, pullback = super().embed_vjp(image)
                return 3.0 * unit, lambda cotangent: 3.0 * pullback(cotangent)

        register_toy_adapters(toy_identity_images)
        registry.register_embedder("toy-emb-a", lambda config: TripledEmbedder(
            24, config.image_shape, np.random.SeedSequence([1234, 1]),
            "toy-emb-a"))
        cfg_path, config = write_toy_adapter_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        TripledEmbedder.embedded = 0
        assert main(["attack", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: embedder 'toy-emb-a'" in err and "unit-norm" in err
        assert TripledEmbedder.embedded == 0
        assert not os.path.exists(config.results_path)
        cfg_path, config = write_toy_adapter_config(
            tmp_path, mode="blackbox", t_max=None, q_max=100)
        assert main(["attack", "--config", str(cfg_path)]) == 0
        assert all(r["error"] is None for r in read_results(config.results_path))

    def test_embedder_normalising_inside_its_vjp_attacks_white_box(self, tmp_path):
        # README's rule for a model whose features are not unit-norm: its
        # embed_batch returns them as they are, and embed_vjp normalises
        # inside itself and its pullback.
        register_toy_adapters(toy_identity_images)
        registry.register_embedder("toy-emb-a", lambda config: NormalisingEmbedder(
            SyntheticEmbedder(24, config.image_shape,
                              np.random.SeedSequence([1234, 1]), "toy-emb-a")))
        cfg_path, config = write_toy_adapter_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        assert main(["attack", "--config", str(cfg_path)]) == 0
        records = read_results(config.results_path)
        assert len(records) == config.num_targets
        assert all(r["error"] is None for r in records)
        assert main(["report", "--config", str(cfg_path)]) == 0

    def test_forward_only_adapters(self, tmp_path, capsys):
        # Calibration, reporting and black-box need no gradient; white-box
        # fails each target with GradientUnavailable in its record.
        register_toy_adapters(toy_identity_images, forward_only=True)
        cfg_path, config = write_toy_adapter_config(
            tmp_path, mode="blackbox", t_max=None, q_max=100)
        for command in ("build-pool", "calibrate", "attack", "report"):
            assert main([command, "--config", str(cfg_path)]) == 0
        assert all(r.get("error") is None
                   for r in read_results(config.results_path))
        assert set(read_thresholds(config.thresholds_path)) == {"toy-emb-a", "toy-emb-b"}
        assert os.path.exists(config.report_path)
        cfg_path, config = write_toy_adapter_config(tmp_path)
        capsys.readouterr()
        assert main(["attack", "--config", str(cfg_path)]) == 5
        assert "Traceback" not in capsys.readouterr().err
        records = read_results(config.results_path)
        assert len(records) == config.num_targets
        assert all(r["error"].startswith("GradientUnavailable") for r in records)

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

    def test_detector_of_the_wrong_type_exits_2(self, tmp_path, capsys):
        register_toy_adapters(toy_identity_images)
        registry.register_detector("toy-det", lambda config: "not a detector")
        cfg_path, config = write_toy_adapter_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: detector factory 'toy-det' returned a str" in err
        assert not os.path.exists(config.pool_path)

    def test_adapter_without_its_batch_method_exits_2(self, tmp_path, capsys):
        class SingleImageEmbedder(EmbedderHandle):
            """Written to the older contract: ``embed`` without ``embed_batch``."""

            model_id, d_emb, tau_F = "toy-emb-b", 24, 0.5

            def embed(self, image):
                raise AssertionError("never reached")

        register_toy_adapters(toy_identity_images)
        registry.register_embedder("toy-emb-b", lambda config: SingleImageEmbedder())
        cfg_path, config = write_toy_adapter_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ("error: embedder factory 'toy-emb-b' returned a SingleImageEmbedder "
                "that does not implement embed_batch") in err
        assert not os.path.exists(config.pool_path)

    @pytest.mark.parametrize("score", [1.0000001, -1e-9, float("nan"), None, "1"])
    def test_detector_score_outside_the_unit_interval_exits_2(
            self, tmp_path, capsys, score):
        class OverconfidentDetector(DetectorHandle):
            detector_id = "toy-det"

            def detect_batch(self, images):
                return [score] * len(images)

        register_toy_adapters(toy_identity_images)
        registry.register_detector("toy-det", lambda config: OverconfidentDetector())
        cfg_path, config = write_toy_adapter_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: detector 'toy-det' returned {score!r}" in err
        assert not os.path.exists(config.pool_path)

    @pytest.mark.parametrize("command", ["build-pool", "report"])
    def test_generate_batch_of_the_wrong_shape_exits_2(
            self, tmp_path, capsys, command):
        class NarrowGenerator(SyntheticGenerator):
            def generate_batch(self, latents):
                return super().generate_batch(latents)[..., :-1]

        register_toy_adapters(toy_identity_images)
        cfg_path, config = write_toy_adapter_config(tmp_path)
        out_path = config.pool_path if command == "build-pool" else config.report_path
        if command == "report":
            for setup in ("build-pool", "attack"):
                assert main([setup, "--config", str(cfg_path)]) == 0
        registry.register_generator("toy-gen", lambda config: NarrowGenerator(
            config.d_lat, config.image_shape, np.random.SeedSequence([1234, 0]),
            generator_id="toy-gen"))
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: generator 'toy-gen' returned images of shape" in err
        assert not os.path.exists(out_path)

    def test_detect_batch_with_the_wrong_count_exits_2(self, tmp_path, capsys):
        class ShortDetector(DetectorHandle):
            detector_id = "toy-det"

            def detect_batch(self, images):
                return [1.0] * (len(images) - 1)

        register_toy_adapters(toy_identity_images)
        registry.register_detector("toy-det", lambda config: ShortDetector())
        cfg_path, config = write_toy_adapter_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: detector 'toy-det' returned scores of shape" in err
        assert not os.path.exists(config.pool_path)

    @pytest.mark.parametrize("tau_F", ["high", float("nan"), float("inf"), True, 10**400],
                             ids=["string", "nan", "inf", "bool", "int-beyond-float"])
    def test_adapter_tau_f_other_than_a_finite_number_exits_2(
            self, tmp_path, capsys, tau_F):
        register_toy_adapters(toy_identity_images)
        cfg_path, config = write_toy_adapter_config(tmp_path)
        for command in ("build-pool", "attack"):
            assert main([command, "--config", str(cfg_path)]) == 0
        tuned = registry._embedder_factories["toy-emb-b"]

        def bad_threshold(config):
            embedder = tuned(config)
            embedder.tau_F = tau_F
            return embedder

        registry.register_embedder("toy-emb-b", bad_threshold)
        capsys.readouterr()
        assert main(["report", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: embedder 'toy-emb-b' has tau_F {tau_F!r}" in err
        assert not os.path.exists(config.report_path)

    def test_adapter_tau_f_as_a_numpy_scalar_is_read_as_its_value(self, tmp_path):
        register_toy_adapters(toy_identity_images)
        cfg_path, config = write_toy_adapter_config(tmp_path)
        for command in ("build-pool", "attack", "report"):
            assert main([command, "--config", str(cfg_path)]) == 0
        plain = Path(config.report_path).read_bytes()
        for model_id in ("toy-emb-a", "toy-emb-b"):
            tuned = registry._embedder_factories[model_id]

            def numpy_threshold(config, tuned=tuned):
                embedder = tuned(config)
                embedder.tau_F = np.float32(embedder.tau_F)
                return embedder

            registry.register_embedder(model_id, numpy_threshold)
        assert main(["report", "--config", str(cfg_path)]) == 0
        assert Path(config.report_path).read_bytes() == plain

    def test_calibration_images_other_than_image_samples_exit_2(
            self, tmp_path, capsys):
        def array_groups(config):
            return [tuple(image.values for image in group)
                    for group in toy_identity_images(config)]

        for name, source, message in [
            ("arrays", array_groups, "identity id000 holds a ndarray"),
            ("int-groups", lambda config: [1, 2], "identity id000 is a int"),
            ("int-source", lambda config: 5,
             "the calibration source's output is a int"),
        ]:
            register_toy_adapters(source)
            (tmp_path / name).mkdir()
            cfg_path, config = write_toy_adapter_config(tmp_path / name)
            assert main(["calibrate", "--config", str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert f"error: {message}" in err
            assert not os.path.exists(config.thresholds_path)

    def test_report_calibrates_an_adapter_model_without_tau_f(self, tmp_path):
        # report calibrates a model whose tau_F is None as calibrate
        # would, and reads a set tau_F as it is.
        register_toy_adapters(toy_identity_images)
        cfg_path, config = write_toy_adapter_config(tmp_path)
        untuned = registry._embedder_factories["toy-emb-b"]

        def no_threshold(config):
            embedder = untuned(config)
            embedder.tau_F = None
            return embedder

        registry.register_embedder("toy-emb-b", no_threshold)
        for command in ("build-pool", "attack", "report"):
            assert main([command, "--config", str(cfg_path)]) == 0
        without = Path(config.report_path).read_bytes()
        assert main(["calibrate", "--config", str(cfg_path)]) == 0
        by_model = read_thresholds(config.thresholds_path)
        write_thresholds(config.thresholds_path, {
            "toy-emb-a": dict(by_model["toy-emb-a"], tau_F=0.5),
            "toy-emb-b": by_model["toy-emb-b"]})
        assert main(["report", "--config", str(cfg_path)]) == 0
        assert Path(config.report_path).read_bytes() == without

    @pytest.mark.parametrize("command, fault", [
        *[(command, fault) for fault in ("pixel-1.5", "pixel-nan")
          for command in ("build-pool", "attack", "report")],
        *[(command, "embedding-nan") for command in ("calibrate", "attack", "report")],
    ])
    def test_forward_only_adapter_fault_matrix(self, tmp_path, capsys, command, fault):
        # A forward-only adapter's bad output ends each command that reads
        # it in a documented exit code, with an error naming the handle.
        # calibrate reads no generated image and build-pool no embedding.
        class BadPixelGenerator(PlainGenerator):
            def generate_batch(self, latents):
                images = super().generate_batch(latents)
                images[:, 0, 0, 0] = 1.5 if fault == "pixel-1.5" else np.nan
                return images

        class NaNRowEmbedder(PlainEmbedder):
            def embed_batch(self, images):
                rows = super().embed_batch(images)
                rows[:, 0] = np.nan
                return rows

        register_toy_adapters(toy_identity_images, forward_only=True)
        cfg_path, config = write_toy_adapter_config(
            tmp_path, mode="blackbox", t_max=None, q_max=100)
        setup = {"build-pool": [], "calibrate": [], "attack": ["build-pool"],
                 "report": ["build-pool", "attack"]}[command]
        for step in setup:
            assert main([step, "--config", str(cfg_path)]) == 0
        if fault == "embedding-nan":
            plain = registry._embedder_factories["toy-emb-a"]
            registry.register_embedder(
                "toy-emb-a", lambda config: NaNRowEmbedder(plain(config).inner))
            message = "embedder 'toy-emb-a' returned a non-finite row"
        else:
            registry.register_generator(
                "toy-gen", lambda config: BadPixelGenerator(toy_generator(config)))
            message = "generator 'toy-gen' returned a pixel outside [-1, 1] or NaN"
        out_path = getattr(config, cli._COMMANDS[command][1])
        capsys.readouterr()
        code = main([command, "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if command == "attack" and fault != "embedding-nan":
            # Refinement's first query fails each target on its own.
            assert code == 5
            records = read_results(out_path)
            assert len(records) == config.num_targets
            assert all(r["error"] == f"ConfigInvalid: {message}" for r in records)
        else:
            assert code == 2
            assert f"error: {message}" in err
            assert not os.path.exists(out_path)

    def test_gradient_adapter_nan_target_embedding_exits_2(self, tmp_path, capsys):
        # A gradient-capable embedder's embed_vjp makes the target
        # embeddings; a NaN there is the adapter's fault, not a traceback.
        class NaNTargetEmbedder(SyntheticEmbedder):
            def embed_vjp(self, image):
                unit, pullback = super().embed_vjp(image)
                return np.full_like(unit, np.nan), pullback

        register_toy_adapters(toy_identity_images)
        cfg_path, config = write_toy_adapter_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        registry.register_embedder("toy-emb-a", lambda config: NaNTargetEmbedder(
            24, config.image_shape, np.random.SeedSequence([1234, 1]), "toy-emb-a"))
        capsys.readouterr()
        assert main(["attack", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: embedder 'toy-emb-a' returned a non-finite target embedding" in err
        assert not os.path.exists(config.results_path)

    @pytest.mark.parametrize("mode", ["whitebox", "blackbox"])
    def test_gradient_adapter_nan_vjp_pixel_fails_each_target(self, tmp_path,
                                                             capsys, mode):
        # Refinement alone reads generate_vjp; its NaN image embeds to a NaN
        # similarity, which aborts each candidate with NonFiniteLoss.
        class NaNPixelGenerator(SyntheticGenerator):
            def generate_vjp(self, latent):
                image, pullback = super().generate_vjp(latent)
                image[0, 0, 0] = np.nan
                return image, pullback

        register_toy_adapters(toy_identity_images)
        budget = dict(t_max=10) if mode == "whitebox" else dict(t_max=None, q_max=100)
        cfg_path, config = write_toy_adapter_config(tmp_path, mode=mode, **budget)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        registry.register_generator("toy-gen", lambda config: NaNPixelGenerator(
            config.d_lat, config.image_shape, np.random.SeedSequence([1234, 0]),
            generator_id="toy-gen"))
        capsys.readouterr()
        assert main(["attack", "--config", str(cfg_path)]) == 5
        assert "Traceback" not in capsys.readouterr().err
        records = read_results(config.results_path)
        assert len(records) == config.num_targets
        assert all(r["error"] == f"AllCandidatesFailed: all {config.top_n} "
                   "candidate refinements aborted" for r in records)

    def test_vjp_image_unlike_its_batch_row_fails_report(self, tmp_path, capsys):
        # Refinement scores generate_vjp's images and report generate_batch's.
        # A uniform scale of the whole image would embed to the same unit
        # row, so the first channel alone is scaled.
        class ScaledVjpGenerator(SyntheticGenerator):
            def generate_vjp(self, latent):
                image, pullback = super().generate_vjp(latent)
                image = image.copy()
                image[0] *= 1.5
                return image, pullback

        register_toy_adapters(toy_identity_images)
        cfg_path, config = write_toy_adapter_config(tmp_path)
        assert main(["build-pool", "--config", str(cfg_path)]) == 0
        registry.register_generator("toy-gen", lambda config: ScaledVjpGenerator(
            config.d_lat, config.image_shape, np.random.SeedSequence([1234, 0]),
            generator_id="toy-gen"))
        assert main(["attack", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["report", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: target t000: report's similarity on toy-emb-a" in err
        assert "generate_vjp and generate_batch disagree" in err
        assert not os.path.exists(config.report_path)

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


class TestReadme:
    def test_library_use_block_runs(self, capsys):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("```python\n")[-1].split("```", 1)[0]
        assert "run_attack" in block
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.strip()


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
        "edited-ledger", "edited-chosen-rank",
    ], ids=["missing-target-model", "json-string", "json-list", "negative-index",
            "edited-ledger", "edited-chosen-rank"])
    def test_results(self, attacked, capsys, line):
        cfg_path, config = attacked
        records = read_results(config.results_path)
        assert records[1]["error"] is None
        if line == "missing-target-model":
            del records[1]["target_model_id"]
        elif line == "negative-index":
            records[1]["image_index"] = -1
        elif line == "edited-ledger":
            records[1]["ledger"]["q_adv"] -= 1
        elif line == "edited-chosen-rank":
            records[1]["chosen_rank"] += 1
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

    def test_thresholds_not_in_utf8(self, attacked, capsys):
        # Valid JSON in UTF-16 with a byte-order mark: json.loads would take
        # it from bytes, so the reader must decode UTF-8 itself.
        cfg_path, config = attacked
        Path(config.thresholds_path).write_bytes(
            json.dumps(THRESHOLDS_OK).encode("utf-16"))
        assert main(["report", "--config", str(cfg_path)]) == 4
        assert "corrupt thresholds file" in capsys.readouterr().err
        tau_cfg, _ = write_config(Path(config.pool_path).parent,
                                  tau_c="calibrate", num_targets=1)
        assert main(["attack", "--config", str(tau_cfg)]) == 4
        err = capsys.readouterr().err
        assert "corrupt thresholds file" in err and "Traceback" not in err

    def test_results_not_in_utf8(self, attacked, capsys):
        cfg_path, config = attacked
        with open(config.results_path, "ab") as fh:
            fh.write(b"\xff\n")
        assert main(["report", "--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert "is not UTF-8 text" in err and "Traceback" not in err


OUTPUT_KINDS = [("build-pool", "pool file"), ("calibrate", "thresholds"),
                ("attack", "results"), ("report", "report")]


class TestUnusablePathExits4:
    @pytest.mark.parametrize("command, kind", OUTPUT_KINDS)
    def test_output_path_that_is_a_directory(self, attacked, capsys, command, kind):
        cfg_path, _ = attacked
        out = cfg_path.parent / "out"
        out.mkdir()
        (out / "kept").write_bytes(b"kept\n")
        siblings = sorted(p.name for p in cfg_path.parent.iterdir())
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"error: cannot write {kind} {out}: " in err
        assert "Traceback" not in err
        assert sorted(p.name for p in cfg_path.parent.iterdir()) == siblings
        assert not list(cfg_path.parent.glob("*.tmp"))
        assert [p.name for p in out.iterdir()] == ["kept"]
        assert (out / "kept").read_bytes() == b"kept\n"

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    @pytest.mark.parametrize("command, kind, work", [
        ("attack", "results", "run_attack"), ("report", "report", "cross_model_report")])
    def test_unwritable_output_fails_before_any_work(self, attacked, capsys,
                                                     monkeypatch, where, command,
                                                     kind, work):
        cfg_path, _ = attacked
        out = cfg_path.parent / "out"
        if where == "directory":
            out.mkdir()
        else:
            out = out / kind
        calls = []
        monkeypatch.setattr(cli, work, lambda *args, **kwargs: calls.append(args))
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"error: cannot write {kind} {out}: " in err
        assert "[attack]" not in err and "Traceback" not in err
        assert calls == []
        assert not list(cfg_path.parent.glob("*.tmp"))

    @pytest.mark.parametrize("command, kind", OUTPUT_KINDS)
    def test_output_path_holding_a_nul_byte(self, attacked, capsys, command, kind):
        cfg_path, _ = attacked
        siblings = sorted(p.name for p in cfg_path.parent.iterdir())
        capsys.readouterr()
        out = str(cfg_path.parent / "out\0")
        assert main([command, "--config", str(cfg_path), "--out", out]) == 4
        err = capsys.readouterr().err
        assert f"error: cannot write {kind} " in err and "Traceback" not in err
        assert sorted(p.name for p in cfg_path.parent.iterdir()) == siblings

    @pytest.mark.parametrize("command, key, kind", [
        ("attack", "pool_path", "pool file"), ("report", "results_path", "results")])
    def test_input_path_holding_a_nul_byte(self, tmp_path, capsys, command, key, kind):
        cfg_path, _ = write_config(tmp_path, **{key: str(tmp_path / "in\0put")})
        assert main([command, "--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert f"error: cannot read {kind} " in err and "Traceback" not in err
