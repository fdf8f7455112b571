import pytest
from hypothesis import settings

from embinvert import evaluation
from embinvert.models import WorldConfig, make_synthetic_world
from embinvert.pool import build_pool

# The whole project is seed-deterministic; keep the property tests that way
# too so a green suite means the same thing on every machine.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

DESK_SEED = 7


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
