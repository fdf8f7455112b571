"""Run configuration: a flat, fail-closed key = value file format.

Every key is documented in _FIELDS; unknown keys are errors because a
typo'd threshold silently falling back to a default is the classic way
attack experiments go wrong.  Every key can be overridden through an
environment variable named EMBINVERT_<KEY> (upper case).
"""
import hashlib
import os
from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple, Union

from .errors import ConfigInvalid
from .pipeline import MODE_WHITEBOX, check_mode_budget
from .refine import NORM_L2, PerturbationBudget

ENV_PREFIX = "EMBINVERT_"


def _require_utf8(text: str, where: str) -> str:
    """``text``, or ConfigInvalid naming ``where`` if it has no UTF-8 form.

    POSIX hands undecodable bytes in argv and the environment over as lone
    surrogates, which the config checksum cannot encode.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ConfigInvalid(f"{where} is not valid UTF-8") from exc
    return text


def _parse_shape(text: str) -> Tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ConfigInvalid(f"image_shape must look like CxHxW, got {text!r}")
    return tuple(int(p) for p in parts)


def _parse_int_tuple(text: str) -> Tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _parse_str_tuple(text: str) -> Tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _parse_tau_c(text: str) -> Union[float, str]:
    if text == "calibrate":
        return "calibrate"
    return float(text)


def _parse_optional_int(text: str) -> Optional[int]:
    if text in ("", "none"):
        return None
    return int(text)


@dataclass(frozen=True)
class RunConfig:
    backend: str = "synthetic"
    target_model: str = "synthetic-embedder-0"

    # synthetic world geometry
    d_lat: int = 64
    image_shape: Tuple[int, int, int] = (3, 16, 16)
    embedder_dims: Tuple[int, ...] = (32, 32)
    n_identities: int = 20
    images_per_identity: int = 4
    identity_noise: float = 0.35

    # pool building
    volume: int = 100
    tau_k: float = 0.999
    tau_d: float = 0.999
    max_draw_factor: int = 10_000

    # attack
    top_n: int = 3
    mode: str = MODE_WHITEBOX
    norm: str = NORM_L2
    epsilon: float = 35.0
    tau_c: Union[float, str] = 0.95
    t_max: Optional[int] = 200
    q_max: Optional[int] = None
    num_targets: int = 50
    seed: int = 7
    jobs: int = 1  # only 1 is valid: targets run one after another

    # adapter wiring (used when backend != "synthetic")
    adapter_generator: str = ""
    adapter_embedders: Tuple[str, ...] = ()
    adapter_detector: str = ""
    adapter_calibration: str = ""

    # artifact paths
    pool_path: str = ""
    thresholds_path: str = ""
    results_path: str = ""
    report_path: str = ""

    def validate(self) -> "RunConfig":
        check_mode_budget(self.mode, self.t_max, self.q_max, self.top_n)
        PerturbationBudget(norm=self.norm, epsilon=self.epsilon)
        for name in ("tau_k", "tau_d"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigInvalid(f"{name} must be in [0, 1], got {v}")
        if isinstance(self.tau_c, str):
            if self.tau_c != "calibrate":
                raise ConfigInvalid(f"tau_c must be a number or 'calibrate', got {self.tau_c!r}")
        elif not 0.0 < self.tau_c <= 1.0:
            raise ConfigInvalid(f"tau_c must be in (0, 1], got {self.tau_c}")
        if self.volume < 1:
            raise ConfigInvalid("volume must be >= 1")
        if self.num_targets < 1:
            raise ConfigInvalid("num_targets must be >= 1")
        if self.jobs != 1:
            raise ConfigInvalid(
                f"jobs must be 1, got {self.jobs}: targets run one after another")
        if self.seed < 0:
            raise ConfigInvalid("seed must be >= 0")
        for f in fields(self):
            value = getattr(self, f.name)
            for text in value if isinstance(value, tuple) else (value,):
                if isinstance(text, str):
                    _require_utf8(text, f.name)
        return self


# key -> (parse from string, emit to string)
_FIELDS = {
    "backend": (str, str),
    "target_model": (str, str),
    "d_lat": (int, str),
    "image_shape": (_parse_shape, lambda v: "x".join(str(x) for x in v)),
    "embedder_dims": (_parse_int_tuple, lambda v: ",".join(str(x) for x in v)),
    "n_identities": (int, str),
    "images_per_identity": (int, str),
    "identity_noise": (float, repr),
    "volume": (int, str),
    "tau_k": (float, repr),
    "tau_d": (float, repr),
    "max_draw_factor": (int, str),
    "top_n": (int, str),
    "mode": (str, str),
    "norm": (str, str),
    "epsilon": (float, repr),
    "tau_c": (_parse_tau_c, lambda v: v if isinstance(v, str) else repr(v)),
    "t_max": (_parse_optional_int, lambda v: "" if v is None else str(v)),
    "q_max": (_parse_optional_int, lambda v: "" if v is None else str(v)),
    "num_targets": (int, str),
    "seed": (int, str),
    "jobs": (int, str),
    "adapter_generator": (str, str),
    "adapter_embedders": (_parse_str_tuple, lambda v: ",".join(v)),
    "adapter_detector": (str, str),
    "adapter_calibration": (str, str),
    "pool_path": (str, str),
    "thresholds_path": (str, str),
    "results_path": (str, str),
    "report_path": (str, str),
}


def parse_config(text: str) -> RunConfig:
    """Parse the key = value format; unknown keys and bad values are errors."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise ConfigInvalid(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigInvalid(f"line {lineno}: duplicate config key {key!r}")
        parser, _ = _FIELDS[key]
        try:
            values[key] = parser(value)
        except (ValueError, TypeError) as exc:
            raise ConfigInvalid(f"line {lineno}: bad value for {key}: {exc}") from exc
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigInvalid(str(exc)) from exc


def emit_config(config: RunConfig) -> str:
    """Canonical text form; parse(emit(c)) == c."""
    lines = []
    for f in fields(RunConfig):
        _, emitter = _FIELDS[f.name]
        lines.append(f"{f.name} = {emitter(getattr(config, f.name))}")
    return "\n".join(lines) + "\n"


def apply_env_overrides(config: RunConfig, env=None) -> RunConfig:
    """Override any key from EMBINVERT_<KEY>; same parsing as the file."""
    env = os.environ if env is None else env
    updates = {}
    for name, (parser, _) in _FIELDS.items():
        var = ENV_PREFIX + name.upper()
        if var in env:
            value = _require_utf8(env[var], var)
            try:
                updates[name] = parser(value)
            except (ValueError, TypeError) as exc:
                raise ConfigInvalid(f"bad value in {var}: {exc}") from exc
    return replace(config, **updates) if updates else config


def load_config(path, env=None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"config {path} is not valid UTF-8: {exc}") from exc
    return apply_env_overrides(parse_config(text), env=env)


def config_checksum(config: RunConfig) -> str:
    return hashlib.sha256(emit_config(config).encode("utf-8")).hexdigest()
