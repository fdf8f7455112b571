"""Adapter registry: plug external generators, embedders, and detectors in
behind the same contracts the synthetic world implements.

Factories are keyed by id and receive the run configuration, so heavyweight
backends (a real diffusion generator, a production face embedder) stay out
of this package; they register themselves at import time and the CLI wires
them up from config keys.  A calibration source provides identity-grouped
images for threshold calibration when a backend has no built-in identities.
"""
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from .errors import ConfigInvalid, UnknownModel
from .models import Backend, DetectorHandle, EmbedderHandle, GeneratorHandle

_generator_factories: Dict[str, Callable] = {}
_embedder_factories: Dict[str, Callable] = {}
_detector_factories: Dict[str, Callable] = {}
_calibration_sources: Dict[str, Callable] = {}


def register_generator(generator_id: str, factory: Callable):
    _generator_factories[generator_id] = factory


def register_embedder(model_id: str, factory: Callable):
    _embedder_factories[model_id] = factory


def register_detector(detector_id: str, factory: Callable):
    _detector_factories[detector_id] = factory


def register_calibration_source(source_id: str, factory: Callable):
    """Factory returning images grouped by identity for calibration."""
    _calibration_sources[source_id] = factory


def _create(table, kind, key, config):
    if key not in table:
        raise UnknownModel(f"no {kind} registered under id {key!r}")
    return table[key](config)


def create_generator(generator_id: str, config) -> GeneratorHandle:
    generator = _create(_generator_factories, "generator", generator_id, config)
    if not isinstance(generator, GeneratorHandle):
        raise ConfigInvalid(
            f"generator factory {generator_id!r} returned a "
            f"{type(generator).__name__}, not a GeneratorHandle")
    return generator


def create_embedder(model_id: str, config) -> EmbedderHandle:
    embedder = _create(_embedder_factories, "embedder", model_id, config)
    if not isinstance(embedder, EmbedderHandle):
        raise ConfigInvalid(
            f"embedder factory {model_id!r} returned a {type(embedder).__name__}, "
            "not an EmbedderHandle")
    return embedder


def create_detector(detector_id: str, config) -> DetectorHandle:
    return _create(_detector_factories, "detector", detector_id, config)


def create_calibration_source(source_id: str, config):
    return _create(_calibration_sources, "calibration source", source_id, config)


@dataclass(frozen=True)
class AdapterBackend(Backend):
    """Backend assembled from registered components.

    ``identity_images`` is the calibration source's output (images grouped
    by identity) or None when no source is configured.
    """

    generator: GeneratorHandle
    embedders: Tuple[EmbedderHandle, ...]
    detector: Optional[DetectorHandle]
    identity_images: Optional[Sequence[Sequence]] = None


def build_adapter_backend(config, generator_id: str,
                          embedder_ids: Sequence[str],
                          detector_id: Optional[str] = None,
                          calibration_id: Optional[str] = None) -> AdapterBackend:
    generator = create_generator(generator_id, config)
    embedders = tuple(create_embedder(mid, config) for mid in embedder_ids)
    detector = create_detector(detector_id, config) if detector_id else None
    images = (create_calibration_source(calibration_id, config)
              if calibration_id else None)
    return AdapterBackend(generator=generator, embedders=embedders,
                          detector=detector, identity_images=images)
