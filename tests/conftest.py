import numpy as np
import pytest
from hypothesis import settings

from embinvert import cli, evaluation, registry
from embinvert.core import EmbeddingVector, ImageSample
from embinvert.models import WorldConfig, make_synthetic_world
from embinvert.pool import build_pool

# The whole project is seed-deterministic; keep the property tests that way
# too so a green suite means the same thing on every machine.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

DESK_SEED = 7


def forward(handle, x):
    """``handle`` on one sample ``x`` (a LatentCode, an ImageSample or an
    array): a generator's image as an ImageSample and an embedder's
    embedding as an EmbeddingVector, each from its ``*_vjp``, the attack's
    own arithmetic; a detector's score from a batch of one."""
    values = np.asarray(getattr(x, "values", x))
    if hasattr(handle, "generate_vjp"):
        return ImageSample(handle.generate_vjp(values)[0])
    if hasattr(handle, "embed_vjp"):
        return EmbeddingVector(handle.embed_vjp(values)[0])
    return handle.detect_batch(values[None])[0]


def world_tau_F(world):
    """{model id: tau_F} for ``world``'s embedders, calibrated on its
    identity images the way the ``calibrate`` command does."""
    return {emb.model_id: cli._eer_calibration(
                world.identity_images, emb, world.master_seed, k)[1]
            for k, emb in enumerate(world.embedders)}


@pytest.fixture(autouse=True)
def restore_registry():
    """Drop the adapters a test registers once it ends."""
    tables = (registry._generator_factories, registry._embedder_factories,
              registry._detector_factories, registry._calibration_sources)
    saved = [dict(table) for table in tables]
    yield
    for table, before in zip(tables, saved):
        table.clear()
        table.update(before)


@pytest.fixture(scope="session")
def desk_world():
    """The default desk-scale world used across the suite."""
    return make_synthetic_world(WorldConfig(), DESK_SEED)


@pytest.fixture(scope="session")
def desk_pool(desk_world):
    """Paper-strength screening thresholds at desk volume."""
    return build_pool(desk_world.generator, desk_world.detector,
                      V=100, tau_K=0.999, tau_D=0.999, build_seed=DESK_SEED)


@pytest.fixture(scope="session")
def quick_pool(desk_world):
    """Loose thresholds; builds in milliseconds for plumbing tests."""
    return build_pool(desk_world.generator, desk_world.detector,
                      V=40, tau_K=0.5, tau_D=0.5, build_seed=11)


@pytest.fixture()
def calibration_calls(monkeypatch):
    """The model id of each ``evaluation.calibration_set_from_images`` call."""
    calls = []
    original = evaluation.calibration_set_from_images

    def counting(*args, **kwargs):
        calls.append(args[1].model_id)
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluation, "calibration_set_from_images", counting)
    return calls
