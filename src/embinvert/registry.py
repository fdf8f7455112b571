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
from .models import Backend, DetectorHandle, EmbedderHandle, GeneratorHandle, _overrides

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


def _create(table, kind, key, config, base, forward=None):
    """``table[key](config)``; ConfigInvalid unless it is a ``base`` whose
    class implements the ``forward`` method, if one is named."""
    if key not in table:
        raise UnknownModel(f"no {kind} registered under id {key!r}")
    created = table[key](config)
    if not isinstance(created, base):
        raise ConfigInvalid(
            f"{kind} factory {key!r} returned a {type(created).__name__}; "
            f"expected {base.__name__}")
    if forward and not _overrides(created, base, forward):
        raise ConfigInvalid(
            f"{kind} factory {key!r} returned a {type(created).__name__} "
            f"that does not implement {forward}")
    return created


def create_generator(generator_id: str, config) -> GeneratorHandle:
    return _create(_generator_factories, "generator", generator_id, config,
                   GeneratorHandle, "generate_batch")


def create_embedder(model_id: str, config) -> EmbedderHandle:
    return _create(_embedder_factories, "embedder", model_id, config,
                   EmbedderHandle, "embed_batch")


def create_detector(detector_id: str, config) -> DetectorHandle:
    return _create(_detector_factories, "detector", detector_id, config,
                   DetectorHandle, "detect_batch")


def create_calibration_source(source_id: str, config):
    """The source's images grouped by identity; ``cli`` checks the images."""
    return _create(_calibration_sources, "calibration source", source_id,
                   config, object)


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


def build_adapter_backend(config) -> AdapterBackend:
    """The backend the config's ``adapter_*`` keys name; ConfigInvalid if
    it names no generator or no embedders, or two embedders share a model_id."""
    if not config.adapter_generator or not config.adapter_embedders:
        raise ConfigInvalid(
            f"backend {config.backend!r} needs adapter_generator and "
            "adapter_embedders")
    generator = create_generator(config.adapter_generator, config)
    embedders = tuple(create_embedder(mid, config) for mid in config.adapter_embedders)
    model_ids = [e.model_id for e in embedders]
    for model_id in model_ids:
        if model_ids.count(model_id) > 1:
            raise ConfigInvalid(f"two embedders share model_id {model_id!r}")
    detector = (create_detector(config.adapter_detector, config)
                if config.adapter_detector else None)
    images = (create_calibration_source(config.adapter_calibration, config)
              if config.adapter_calibration else None)
    return AdapterBackend(generator=generator, embedders=embedders,
                          detector=detector, identity_images=images)
