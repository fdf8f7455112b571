"""Command-line entry points: build-pool | calibrate | attack | report.

Every command is driven by one config file (see config.py) plus a few
overriding flags, and is deterministic given (config, seed) apart from
wall-clock fields.  ``report`` judges each model at the thresholds file's
tau_F, else the model's own, else one calibrated as ``calibrate`` would.
Exit codes (README.md lists the error class behind each): 0 success, 1 any
other error (empty calibration, zero-norm embedding, target leak, ...),
2 invalid configuration (also an empty path key the command needs, two
embedders sharing a model_id, a calibrated tau_C outside (0, 1], a
detector score outside [0, 1], an adapter tau_F that is neither None
nor a finite number, and a success whose target-model similarity
``report`` does not reproduce) or unknown model, 3 pool exhaustion or
too few calibration images, 4 file I/O or a corrupt pool, results or
thresholds file, 5 all attack targets failed.
"""
import argparse
import os
import sys
import time
from dataclasses import fields, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import RunConfig, config_checksum, load_config
from .core import EmbeddingVector, ImageSample, TargetSpec, _norm
from .errors import (
    BudgetTooSmall,
    ChecksumMismatch,
    ConfigInvalid,
    DimensionMismatch,
    EmbinvertError,
    FormatVersionMismatch,
    InsufficientImages,
    IoFailure,
    PoolExhausted,
    UnknownModel,
)
from .evaluation import (
    EvaluationCase,
    calibration_set_from_images,
    compute_eer_threshold,
    cross_model_report,
)
from .fileio import check_writable
from .models import (EmbedderHandle, WorldConfig, _generated_images, _overrides,
                     impostor_stream, make_synthetic_world)
from .pipeline import (MODE_BLACKBOX, MODE_WHITEBOX, AttackSettings,
                       compute_tmax, run_attack)
from .pool import build_pool, load_pool, save_pool
from .records import (
    _is_real,
    failure_record,
    read_results,
    read_thresholds,
    result_record,
    write_report,
    write_results,
    write_thresholds,
)
from .refine import PerturbationBudget
from . import registry


def _log(message: str):
    print(message, file=sys.stderr)


def build_backend(config: RunConfig):
    if config.backend == "synthetic":
        world_config = WorldConfig(**{f.name: getattr(config, f.name)
                                      for f in fields(WorldConfig)})
        return make_synthetic_world(world_config, config.seed)
    return registry.build_adapter_backend(config)


def _items(value, what: str) -> tuple:
    """``tuple(value)``; ConfigInvalid naming ``what`` if it is not iterable."""
    try:
        return tuple(value)
    except TypeError as exc:
        raise ConfigInvalid(
            f"{what} is a {type(value).__name__}, not a sequence") from exc


def _identity_groups(backend) -> List[Tuple[str, tuple]]:
    """The backend's identities as (id, images), each with at least one
    image and nothing but ImageSample values."""
    if backend.identity_images is None:
        raise ConfigInvalid(
            "backend provides no identity images (configure adapter_calibration)")
    groups = [(f"id{i:03d}", _items(group, f"identity id{i:03d}"))
              for i, group in enumerate(
                  _items(backend.identity_images, "the calibration source's output"))]
    if not groups:
        raise InsufficientImages("backend provides no identities")
    for identity_id, images in groups:
        if not images:
            raise InsufficientImages(f"identity {identity_id} has no images")
        for image in images:
            if not isinstance(image, ImageSample):
                raise ConfigInvalid(
                    f"identity {identity_id} holds a {type(image).__name__}; "
                    "calibration images must be ImageSample")
    return groups


def _has_genuine_pairs(images_by_identity) -> bool:
    return any(len(images) >= 2 for images in images_by_identity)


def _eer_calibration(images_by_identity, embedder, seed: int, k: int):
    """``(CalibrationSet, tau_F, eer)`` for embedder ``k`` of the backend
    built with ``seed``; ``calibrate`` and ``report`` share it, so their
    thresholds are the same float."""
    cal = calibration_set_from_images(images_by_identity, embedder,
                                      seed=impostor_stream(seed, k))
    tau_f, eer = compute_eer_threshold(cal)
    return cal, tau_f, eer


def cmd_build_pool(config: RunConfig, backend) -> int:
    detector = backend.detector
    if detector is None:
        raise ConfigInvalid("backend has no face detector; cannot screen candidates")
    t0 = time.perf_counter()
    pool = build_pool(
        backend.generator, detector, config.volume, config.tau_k, config.tau_d,
        build_seed=config.seed, max_draw_factor=config.max_draw_factor,
        progress=lambda drawn, kept: _log(
            f"[build-pool] drawn={drawn} accepted={kept}/{config.volume}"),
    )
    save_pool(pool, config.pool_path)
    stats = pool.stats
    print(f"pool: {pool.V} entries -> {config.pool_path}")
    print(f"candidates drawn:    {stats.drawn}")
    print(f"normality accepted:  {stats.normality_accepted} "
          f"(rate {stats.normality_rate:.6f})")
    print(f"detector accepted:   {stats.detector_accepted}")
    print(f"build time:          {time.perf_counter() - t0:.1f}s")
    return 0


def cmd_calibrate(config: RunConfig, backend) -> int:
    images_by_identity = [images for _, images in _identity_groups(backend)]
    if not _has_genuine_pairs(images_by_identity):
        raise InsufficientImages(
            "calibration needs at least one identity with two images")
    by_model = {}
    for k, embedder in enumerate(backend.embedders):
        cal, tau_f, eer = _eer_calibration(images_by_identity, embedder,
                                           config.seed, k)
        tau_c = cal.tau_C
        by_model[embedder.model_id] = {"tau_F": tau_f, "eer": eer, "tau_C": tau_c}
        _log(f"[calibrate] {embedder.model_id}: tau_F={tau_f:.4f} "
             f"eer={eer:.4f} tau_C={tau_c:.4f}")
        if tau_c < tau_f:
            # A confidence bar below the decision bar makes early stopping
            # vacuous; report it rather than silently proceeding.
            _log(f"[calibrate] WARNING {embedder.model_id}: tau_C {tau_c:.4f} "
                 f"sits below tau_F {tau_f:.4f}")
    write_thresholds(config.thresholds_path, by_model)
    print(f"thresholds for {len(by_model)} models -> {config.thresholds_path}")
    return 0


def _resolve_tau_c(config: RunConfig) -> float:
    if not isinstance(config.tau_c, str):
        return config.tau_c
    if not config.thresholds_path:
        raise ConfigInvalid("tau_c = calibrate needs thresholds_path")
    by_model = read_thresholds(config.thresholds_path)
    if config.target_model not in by_model:
        raise ConfigInvalid(
            f"thresholds file has no entry for model {config.target_model!r}")
    return float(by_model[config.target_model]["tau_C"])


# White-box refinement pulls back t/||t||, the cosine's gradient only for a
# unit embedding, so a gradient-capable embedder's embed_vjp must return one.
_UNIT_NORM_TOLERANCE = 1e-9


def _make_targets(config: RunConfig, backend, embedder):
    groups = _identity_groups(backend)
    n_id = len(groups)
    check_unit = (config.mode == MODE_WHITEBOX
                  and _overrides(embedder, EmbedderHandle, "embed_vjp"))
    targets = []
    for idx in range(config.num_targets):
        identity_id, images = groups[idx % n_id]
        image_index = (idx // n_id) % len(images)
        # The attack's own matrix-vector product: embed_batch's could move bits.
        embedding, _ = embedder.embed_vjp(images[image_index].values)
        if not np.isfinite(embedding).all():
            raise ConfigInvalid(f"embedder {embedder.model_id!r} returned a "
                                "non-finite target embedding")
        if check_unit:
            norm = _norm(embedding)
            if abs(norm - 1.0) > _UNIT_NORM_TOLERANCE:
                raise ConfigInvalid(
                    f"embedder {embedder.model_id!r}: embed_vjp returned an "
                    f"embedding of norm {norm!r}; white-box refinement needs a "
                    "unit-norm embedding")
        spec = TargetSpec(
            target_embedding=EmbeddingVector(embedding),
            target_model_id=config.target_model,
            identity_id=identity_id,
        )
        targets.append((f"t{idx:03d}", identity_id, image_index, spec))
    return targets


def cmd_attack(config: RunConfig, backend) -> int:
    pool = load_pool(config.pool_path)
    if pool.generator_id != backend.generator.generator_id:
        raise ConfigInvalid(
            f"pool was built for generator {pool.generator_id!r}, "
            f"backend has {backend.generator.generator_id!r}")
    if pool.d_lat != backend.generator.d_lat:
        raise ConfigInvalid("pool latent size does not match the generator")
    embedder = backend.embedder_by_id(config.target_model)
    tau_c = _resolve_tau_c(config)
    settings = AttackSettings(
        mode=config.mode,
        budget=PerturbationBudget(norm=config.norm, epsilon=config.epsilon),
        tau_C=tau_c,
        n_top=config.top_n,
        t_max=config.t_max,
        q_max=config.q_max,
    )
    if settings.mode == MODE_BLACKBOX:
        # Fail before the first target is charged its V selection queries.
        compute_tmax(settings.q_max, pool.V, min(settings.n_top, pool.V))
    checksum = config_checksum(config)
    targets = _make_targets(config, backend, embedder)

    records = []
    for i, (target_id, identity_id, image_index, spec) in enumerate(targets):
        header = dict(target_id=target_id, target_model_id=config.target_model,
                      identity_id=identity_id, image_index=image_index,
                      config_checksum=checksum)
        try:
            rec = result_record(run_attack(spec, pool, settings, backend), **header)
            _log(f"[attack] {i + 1}/{len(targets)} {target_id} "
                 f"sim={rec['final_similarity']:.4f}")
        except EmbinvertError as exc:
            rec = failure_record(**header, error=f"{type(exc).__name__}: {exc}")
            _log(f"[attack] {i + 1}/{len(targets)} {target_id} FAILED")
        records.append(rec)
    write_results(config.results_path, records)
    failures = sum(1 for r in records if r.get("error") is not None)
    print(f"{len(records) - failures}/{len(records)} targets attacked -> "
          f"{config.results_path}")
    if failures == len(records):
        _log("[attack] every target failed")
        return 5
    return 0


# attack scores a reconstruction with embed_vjp's gemv and report with one
# embed_batch matmul, so the two similarities differ by float rounding only
# (2.2e-16 at most on the desk config); past this bound, they scored
# different images.
_REPRODUCE_TOLERANCE = 1e-9


def _check_reproduced(successes, rows, n_models: int):
    """ConfigInvalid unless each success's target-model row (rows run case
    by case, one per model) reproduces its recorded ``final_similarity``."""
    for i, rec in enumerate(successes):
        for row in rows[i * n_models:(i + 1) * n_models]:
            if (row.eval_model_id == rec["target_model_id"] and abs(
                    row.similarity - rec["final_similarity"]) > _REPRODUCE_TOLERANCE):
                raise ConfigInvalid(
                    f"target {rec['target_id']}: report's similarity on "
                    f"{row.eval_model_id} is {row.similarity!r}, but attack "
                    f"recorded {rec['final_similarity']!r}; the results come "
                    "from another world or seed than this config's, or the "
                    "generator's generate_vjp and generate_batch disagree")


def cmd_report(config: RunConfig, backend) -> int:
    records = read_results(config.results_path)
    groups = dict(_identity_groups(backend))
    from_file = {}
    if config.thresholds_path and os.path.exists(config.thresholds_path):
        from_file = read_thresholds(config.thresholds_path)

    successes = [rec for rec in records if rec.get("error") is None]
    for rec in successes:
        backend.embedder_by_id(rec["target_model_id"])  # fail fast if missing
        if rec["identity_id"] not in groups:
            raise ConfigInvalid(
                f"results reference unknown identity {rec['identity_id']!r}")
        images = groups[rec["identity_id"]]
        if rec["image_index"] >= len(images):
            raise ConfigInvalid(
                f"results reference image {rec['image_index']} of identity "
                f"{rec['identity_id']!r}, which has {len(images)} images")
        if len(rec["refined_latent"]) != backend.generator.d_lat:
            raise DimensionMismatch(
                f"results hold a latent of length {len(rec['refined_latent'])}"
                f"; the generator takes {backend.generator.d_lat}")
    if not successes:
        raise ConfigInvalid("no successful results to report on")
    reconstructions = ImageSample.stack(_generated_images(
        backend.generator, [rec["refined_latent"] for rec in successes]))
    cases = []
    for rec, reconstruction in zip(successes, reconstructions):
        images, image_index = groups[rec["identity_id"]], rec["image_index"]
        cases.append(EvaluationCase(
            target_id=rec["target_id"],
            target_model_id=rec["target_model_id"],
            reconstruction=reconstruction,
            target_image=images[image_index],
            alt_images=tuple(img for j, img in enumerate(images) if j != image_index),
            queries=rec["ledger"]["total"],
            wall_time=rec["wall_time"],
        ))
    # Without genuine pairs nothing is calibrated, and cross_model_report
    # names the model left out.
    images_by_identity = list(groups.values())
    thresholds = {}
    for k, model in enumerate(backend.embedders):
        if model.model_id in from_file:
            thresholds[model.model_id] = float(from_file[model.model_id]["tau_F"])
        elif model.tau_F is not None:
            if not _is_real(model.tau_F):
                raise ConfigInvalid(
                    f"embedder {model.model_id!r} has tau_F {model.tau_F!r}; "
                    "expected None or a finite number")
            thresholds[model.model_id] = float(model.tau_F)
        elif _has_genuine_pairs(images_by_identity):
            thresholds[model.model_id] = _eer_calibration(
                images_by_identity, model, config.seed, k)[1]
    report = cross_model_report(cases, backend.embedders, thresholds)
    _check_reproduced(successes, report.rows, len(backend.embedders))
    write_report(config.report_path, report)
    print(f"{len(report.rows)} rows -> {config.report_path}")
    print(f"cross-model type1 = {report.cross_model_type1:.4f}  "
          f"type2 = {report.cross_model_type2:.4f}  "
          f"similarity = {report.cross_model_similarity:.4f}")
    return 0


# command: (function, output path key, output file kind, other path keys
# it requires)
_COMMANDS = {
    "build-pool": (cmd_build_pool, "pool_path", "pool file", ()),
    "calibrate": (cmd_calibrate, "thresholds_path", "thresholds", ()),
    "attack": (cmd_attack, "results_path", "results", ("pool_path",)),
    "report": (cmd_report, "report_path", "report", ("results_path",)),
}


def _exit_code(exc: EmbinvertError) -> int:
    if isinstance(exc, (ConfigInvalid, UnknownModel, BudgetTooSmall)):
        return 2
    if isinstance(exc, (PoolExhausted, InsufficientImages)):
        return 3
    if isinstance(exc, (IoFailure, ChecksumMismatch, FormatVersionMismatch)):
        return 4
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="embinvert",
        description="Reconstruct identity-matching images from embeddings by "
                    "screening, ranking, and refining generator latents.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--jobs", type=int, default=None,
                       help="only 1: targets run one after another")
        p.add_argument("--out", default=None,
                       help="override this command's output path")
    args = parser.parse_args(argv)

    command, out_key, out_kind, in_keys = _COMMANDS[args.command]
    overrides = {"seed": args.seed, "jobs": args.jobs, out_key: args.out}
    try:
        config = replace(load_config(args.config), **{
            key: value for key, value in overrides.items()
            if value is not None}).validate()
        for key in (out_key, *in_keys):
            if not getattr(config, key):
                raise ConfigInvalid(f"{key} is required for {args.command}")
        # An output path that cannot be written fails before any work.
        check_writable(getattr(config, out_key), out_kind)
        return command(config, build_backend(config))
    except EmbinvertError as exc:
        _log(f"error: {exc}")
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
