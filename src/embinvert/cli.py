"""Command-line entry points: build-pool | calibrate | attack | report.

Every command is driven by one config file (see config.py) plus a few
overriding flags, and is deterministic given (config, seed) apart from
wall-clock fields.  Exit codes (README.md lists the error class behind
each): 0 success, 1 any other error (empty calibration, zero-norm
embedding, target leak, non-finite objective, ...), 2 invalid
configuration or unknown model, 3 pool exhaustion or insufficient
calibration images, 4 file I/O, corruption or a malformed results or
thresholds file, 5 all attack targets failed.
"""
import argparse
import os
import sys
import time
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from .config import RunConfig, config_checksum, load_config
from .core import LatentCode, TargetSpec
from .errors import (
    BudgetTooSmall,
    ChecksumMismatch,
    ConfigInvalid,
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
from .models import WorldConfig, impostor_stream, make_synthetic_world
from .pipeline import MODE_BLACKBOX, AttackSettings, compute_tmax, run_attack
from .pool import build_pool, load_pool, save_pool
from .records import (
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
        world_config = WorldConfig(
            d_lat=config.d_lat,
            image_shape=config.image_shape,
            embedder_dims=config.embedder_dims,
            n_identities=config.n_identities,
            images_per_identity=config.images_per_identity,
            identity_noise=config.identity_noise,
        )
        return make_synthetic_world(world_config, config.seed)
    if not config.adapter_generator or not config.adapter_embedders:
        raise ConfigInvalid(
            f"backend {config.backend!r} needs adapter_generator and "
            "adapter_embedders")
    return registry.build_adapter_backend(
        config,
        generator_id=config.adapter_generator,
        embedder_ids=config.adapter_embedders,
        detector_id=config.adapter_detector or None,
        calibration_id=config.adapter_calibration or None,
    )


def _identity_groups(backend) -> List[Tuple[str, tuple]]:
    """The backend's identities as (id, images), each with at least one image."""
    if backend.identity_images is None:
        raise ConfigInvalid(
            "backend provides no identity images (configure adapter_calibration)")
    groups = [(f"id{i:03d}", tuple(group))
              for i, group in enumerate(backend.identity_images)]
    if not groups:
        raise InsufficientImages("backend provides no identities")
    for identity_id, images in groups:
        if not images:
            raise InsufficientImages(f"identity {identity_id} has no images")
    return groups


def cmd_build_pool(config: RunConfig) -> int:
    if not config.pool_path:
        raise ConfigInvalid("pool_path is required for build-pool")
    backend = build_backend(config)
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


def cmd_calibrate(config: RunConfig) -> int:
    if not config.thresholds_path:
        raise ConfigInvalid("thresholds_path is required for calibrate")
    backend = build_backend(config)
    groups = _identity_groups(backend)
    if all(len(images) < 2 for _, images in groups):
        raise InsufficientImages(
            "calibration needs at least one identity with two images")
    images_by_identity = [images for _, images in groups]
    by_model = {}
    for k, embedder in enumerate(backend.embedders):
        cal = calibration_set_from_images(
            images_by_identity, embedder, seed=impostor_stream(config.seed, k))
        tau_f, eer = compute_eer_threshold(cal)
        # tau_C is compute_confidence_threshold's maximum over the same
        # same-identity pairs, which the calibration set already scored.
        tau_c = max(cal.genuine_scores)
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


def _make_targets(config: RunConfig, backend, embedder):
    groups = _identity_groups(backend)
    n_id = len(groups)
    targets = []
    for idx in range(config.num_targets):
        identity_id, images = groups[idx % n_id]
        image_index = (idx // n_id) % len(images)
        spec = TargetSpec(
            target_embedding=embedder.embed(images[image_index]),
            target_model_id=config.target_model,
            identity_id=identity_id,
        )
        targets.append((f"t{idx:03d}", identity_id, image_index, spec))
    return targets


def cmd_attack(config: RunConfig) -> int:
    if not config.results_path:
        raise ConfigInvalid("results_path is required for attack")
    if not config.pool_path:
        raise ConfigInvalid("pool_path is required for attack")
    backend = build_backend(config)
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
        try:
            result = run_attack(spec, pool, settings, backend)
            rec = result_record(
                result, target_id=target_id, target_model_id=config.target_model,
                identity_id=identity_id, image_index=image_index,
                config_checksum=checksum)
            _log(f"[attack] {i + 1}/{len(targets)} {target_id} "
                 f"sim={rec['final_similarity']:.4f}")
        except EmbinvertError as exc:
            rec = failure_record(
                target_id=target_id, target_model_id=config.target_model,
                identity_id=identity_id, image_index=image_index,
                config_checksum=checksum, error=f"{type(exc).__name__}: {exc}")
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


def cmd_report(config: RunConfig) -> int:
    if not config.report_path:
        raise ConfigInvalid("report_path is required for report")
    if not config.results_path:
        raise ConfigInvalid("results_path is required for report")
    backend = build_backend(config)
    records = read_results(config.results_path)
    groups = dict(_identity_groups(backend))
    # Decision thresholds come from a calibrate run when one happened;
    # otherwise each backend handle's tau_F is read, which calibrates a
    # synthetic embedder on that first read.
    tau_overrides = None
    if config.thresholds_path and os.path.exists(config.thresholds_path):
        by_model = read_thresholds(config.thresholds_path)
        tau_overrides = {mid: float(entry["tau_F"])
                         for mid, entry in by_model.items()}

    cases = []
    for rec in records:
        if rec.get("error") is not None:
            continue
        backend.embedder_by_id(rec["target_model_id"])  # fail fast if missing
        if rec["identity_id"] not in groups:
            raise ConfigInvalid(
                f"results reference unknown identity {rec['identity_id']!r}")
        images = groups[rec["identity_id"]]
        image_index = rec["image_index"]
        if image_index >= len(images):
            raise ConfigInvalid(
                f"results reference image {image_index} of identity "
                f"{rec['identity_id']!r}, which has {len(images)} images")
        reconstruction = backend.generator.generate(
            LatentCode(rec["refined_latent"]))
        alternates = tuple(img for j, img in enumerate(images) if j != image_index)
        cases.append(EvaluationCase(
            target_id=rec["target_id"],
            target_model_id=rec["target_model_id"],
            reconstruction=reconstruction,
            target_image=images[image_index],
            alt_images=alternates,
            queries=rec["ledger"]["total"],
            wall_time=rec["wall_time"],
        ))
    if not cases:
        raise ConfigInvalid("no successful results to report on")
    report = cross_model_report(cases, backend.embedders, tau_overrides)
    write_report(config.report_path, report)
    print(f"{len(report.rows)} rows -> {config.report_path}")
    print(f"cross-model type1 = {report.cross_model_type1:.4f}  "
          f"type2 = {report.cross_model_type2:.4f}  "
          f"similarity = {report.cross_model_similarity:.4f}")
    return 0


_COMMANDS = {
    "build-pool": (cmd_build_pool, "pool_path"),
    "calibrate": (cmd_calibrate, "thresholds_path"),
    "attack": (cmd_attack, "results_path"),
    "report": (cmd_report, "report_path"),
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

    command, out_field = _COMMANDS[args.command]
    try:
        config = load_config(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.jobs is not None:
            overrides["jobs"] = args.jobs
        if args.out is not None:
            overrides[out_field] = args.out
        if overrides:
            config = replace(config, **overrides)
        config.validate()
        return command(config)
    except EmbinvertError as exc:
        _log(f"error: {exc}")
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
