import numpy as np
import pytest

from embinvert import registry
from embinvert.errors import ConfigInvalid, UnknownModel
from embinvert.models import SyntheticEmbedder, SyntheticGenerator


def gen_factory(config):
    return SyntheticGenerator(8, (1, 2, 2), np.random.SeedSequence([1]),
                              generator_id="unit-gen")


def emb_factory(config):
    return SyntheticEmbedder(4, (1, 2, 2), np.random.SeedSequence([2]),
                             model_id="unit-emb")


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
        backend = registry.build_adapter_backend(
            None, generator_id="unit-gen", embedder_ids=["unit-emb"])
        assert backend.detector is None
        assert backend.identity_images is None
        assert backend.embedder_by_id("unit-emb").model_id == "unit-emb"
        with pytest.raises(UnknownModel, match="ghost"):
            backend.embedder_by_id("ghost")

    def test_embedder_factory_must_return_a_handle(self):
        class DuckEmbedder:
            model_id = "duck-emb"

            def embed(self, image):
                raise AssertionError("never reached")

        registry.register_embedder("duck-emb", lambda config: DuckEmbedder())
        with pytest.raises(ConfigInvalid, match="duck-emb"):
            registry.create_embedder("duck-emb", config=None)

    def test_generator_factory_must_return_a_handle(self):
        class DuckGenerator:
            generator_id = "duck-gen"

            def generate(self, latent):
                raise AssertionError("never reached")

        registry.register_generator("duck-gen", lambda config: DuckGenerator())
        with pytest.raises(ConfigInvalid, match="duck-gen"):
            registry.create_generator("duck-gen", config=None)

    def test_factory_receives_the_config(self):
        seen = []

        def probe(config):
            seen.append(config)
            return gen_factory(config)

        registry.register_generator("probe-gen", probe)
        marker = object()
        registry.create_generator("probe-gen", marker)
        assert seen == [marker]
