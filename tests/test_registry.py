import numpy as np
import pytest

from embinvert import registry
from embinvert.config import RunConfig
from embinvert.errors import ConfigInvalid, UnknownModel
from embinvert.models import (
    DetectorHandle,
    EmbedderHandle,
    GeneratorHandle,
    SyntheticEmbedder,
    SyntheticGenerator,
)


def gen_factory(config):
    return SyntheticGenerator(8, (1, 2, 2), np.random.SeedSequence([1]),
                              generator_id="unit-gen")


def emb_factory(config):
    return SyntheticEmbedder(4, (1, 2, 2), np.random.SeedSequence([2]),
                             model_id="unit-emb")


class SingleImageDetector(DetectorHandle):
    """Written to the older contract: ``detect`` without ``detect_batch``."""

    detector_id = "old-det"

    def detect(self, image):
        raise AssertionError("never reached")


class TestRegistry:
    def test_create_round_trip(self):
        registry.register_generator("unit-gen", gen_factory)
        registry.register_embedder("unit-emb", emb_factory)
        g = registry.create_generator("unit-gen", config=None)
        f = registry.create_embedder("unit-emb", config=None)
        assert g.generator_id == "unit-gen"
        assert f.model_id == "unit-emb"

    def test_unknown_ids_raise_with_name(self):
        with pytest.raises(UnknownModel, match="missing-gen"):
            registry.create_generator("missing-gen", config=None)
        with pytest.raises(UnknownModel, match="missing-emb"):
            registry.create_embedder("missing-emb", config=None)
        with pytest.raises(UnknownModel, match="missing-det"):
            registry.create_detector("missing-det", config=None)
        with pytest.raises(UnknownModel, match="missing-cal"):
            registry.create_calibration_source("missing-cal", config=None)

    def test_backend_assembly_and_lookup(self):
        registry.register_generator("unit-gen", gen_factory)
        registry.register_embedder("unit-emb", emb_factory)
        backend = registry.build_adapter_backend(RunConfig(
            backend="adapter", adapter_generator="unit-gen",
            adapter_embedders=("unit-emb",)))
        assert backend.detector is None
        assert backend.identity_images is None
        assert backend.embedder_by_id("unit-emb").model_id == "unit-emb"
        with pytest.raises(UnknownModel, match="ghost"):
            backend.embedder_by_id("ghost")

    def test_embedder_factory_must_return_a_handle(self):
        class DuckEmbedder:
            model_id = "duck-emb"

            def embed_batch(self, images):
                raise AssertionError("never reached")

        class SingleImageEmbedder(EmbedderHandle):
            model_id = "old-emb"

            def embed(self, image):
                raise AssertionError("never reached")

        for factory_id, handle, message in [
                ("duck-emb", DuckEmbedder, "expected EmbedderHandle"),
                ("old-emb", SingleImageEmbedder, "does not implement embed_batch")]:
            registry.register_embedder(factory_id, lambda config, h=handle: h())
            with pytest.raises(ConfigInvalid, match=f"'{factory_id}'.*{message}"):
                registry.create_embedder(factory_id, config=None)

    def test_generator_factory_must_return_a_handle(self):
        class DuckGenerator:
            generator_id = "duck-gen"

            def generate_batch(self, latents):
                raise AssertionError("never reached")

        class SingleLatentGenerator(GeneratorHandle):
            generator_id = "old-gen"

            def generate(self, latent):
                raise AssertionError("never reached")

        for factory_id, handle, message in [
                ("duck-gen", DuckGenerator, "expected GeneratorHandle"),
                ("old-gen", SingleLatentGenerator, "does not implement generate_batch")]:
            registry.register_generator(factory_id, lambda config, h=handle: h())
            with pytest.raises(ConfigInvalid, match=f"'{factory_id}'.*{message}"):
                registry.create_generator(factory_id, config=None)

    @pytest.mark.parametrize("returned, message", [
        pytest.param("a detector's name", "expected DetectorHandle",
                     id="a detector's name"),
        pytest.param(None, "expected DetectorHandle", id="None"),
        pytest.param(DetectorHandle(), "does not implement detect_batch",
                     id="bare-handle"),
        pytest.param(SingleImageDetector(), "does not implement detect_batch",
                     id="single-image"),
    ])
    def test_detector_factory_must_return_a_handle(self, returned, message):
        registry.register_detector("duck-det", lambda config: returned)
        with pytest.raises(ConfigInvalid, match=f"'duck-det'.*{message}"):
            registry.create_detector("duck-det", config=None)

    def test_factory_receives_the_config(self):
        seen = []

        def probe(config):
            seen.append(config)
            return gen_factory(config)

        registry.register_generator("probe-gen", probe)
        marker = object()
        registry.create_generator("probe-gen", marker)
        assert seen == [marker]


class TestRegistrationsEndWithTheirTest:
    # The conftest fixture restores the factory tables after every test;
    # these two run in this order.
    def test_register_probe_adapters(self):
        registry.register_generator("probe-leak", gen_factory)
        registry.register_embedder("probe-leak", emb_factory)
        registry.register_detector("probe-leak", lambda config: None)
        registry.register_calibration_source("probe-leak", lambda config: [])
        assert registry.create_generator("probe-leak", None).generator_id == "unit-gen"

    def test_probe_adapters_are_gone(self):
        for create in (registry.create_generator, registry.create_embedder,
                       registry.create_detector,
                       registry.create_calibration_source):
            with pytest.raises(UnknownModel, match="probe-leak"):
                create("probe-leak", None)
