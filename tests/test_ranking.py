import hashlib

import numpy as np
import pytest

from embinvert.core import EmbeddingVector, cosine_similarity
from embinvert.errors import ConfigInvalid, DimensionMismatch, ZeroNormEmbedding
from embinvert.models import EmbedderHandle, QueryLedger
from embinvert.ranking import rank_candidates, top_n


class ScriptedEmbedder(EmbedderHandle):
    """Maps images to prescribed embeddings keyed by image bytes.

    Implements only ``embed``; selection reaches it through the inherited
    per-image ``embed_batch``.
    """

    model_id = "scripted"
    tau_F = 0.5
    supports_gradient = False

    def __init__(self, table, d_emb=3):
        self.table = table
        self.d_emb = d_emb
        self.embed_calls = 0

    def embed(self, image):
        self.embed_calls += 1
        digest = hashlib.sha256(image.values.tobytes()).hexdigest()
        return EmbeddingVector(self.table[digest])


def scripted_for(pool, sims):
    """Embedder assigning entry i an embedding with cosine sims[i] to e1."""
    table = {}
    for entry, s in zip(pool.entries, sims):
        digest = hashlib.sha256(entry.image.values.tobytes()).hexdigest()
        table[digest] = np.array([s, np.sqrt(1.0 - s * s), 0.0])
    return ScriptedEmbedder(table)


TARGET = EmbeddingVector(np.array([1.0, 0.0, 0.0]))


def looped_ranking(pool, target, embedder):
    """Reference: one embed and one cosine_similarity per pool entry."""
    sims = np.array([cosine_similarity(embedder.embed(entry.image), target)
                     for entry in pool.entries])
    order = np.lexsort((np.arange(len(sims)), -sims))
    return [int(j) for j in order], sims


class TestRankCandidates:
    def test_spec_ordering_example(self, quick_pool):
        sims = [0.2, 0.9, 0.5] + [0.0] * (len(quick_pool.entries) - 3)
        embedder = scripted_for(quick_pool, sims)
        ranked = rank_candidates(quick_pool, TARGET, embedder)
        by_rank = [c.pool_index for c in ranked[:3]]
        assert by_rank == [1, 2, 0]
        assert [c.rank for c in ranked[:3]] == [1, 2, 3]

    def test_charges_exactly_v_queries(self, quick_pool):
        embedder = scripted_for(quick_pool, np.linspace(0.9, -0.9,
                                                        len(quick_pool.entries)))
        ledger = QueryLedger()
        rank_candidates(quick_pool, TARGET, embedder, ledger)
        assert ledger.q_topn == len(quick_pool.entries)
        assert ledger.q_adv == 0

    def test_embed_called_once_per_entry(self, quick_pool):
        embedder = scripted_for(quick_pool, np.zeros(len(quick_pool.entries)))
        rank_candidates(quick_pool, TARGET, embedder)
        assert embedder.embed_calls == len(quick_pool.entries)

    def test_ties_break_by_ascending_pool_index(self, quick_pool):
        embedder = scripted_for(quick_pool, np.zeros(len(quick_pool.entries)))
        ranked = rank_candidates(quick_pool, TARGET, embedder)
        assert [c.pool_index for c in ranked] == list(range(len(quick_pool.entries)))

    def test_similarity_non_increasing_in_rank(self, quick_pool, desk_world):
        embedder = desk_world.embedders[0]
        target = embedder.embed(desk_world.identities[2].images[0])
        ranked = rank_candidates(quick_pool, target, embedder)
        sims = [c.initial_similarity for c in ranked]
        assert all(a >= b for a, b in zip(sims, sims[1:]))
        assert sorted(c.rank for c in ranked) == list(range(1, len(ranked) + 1))

    def test_dimension_mismatch(self, quick_pool, desk_world):
        embedder = desk_world.embedders[0]
        with pytest.raises(DimensionMismatch):
            rank_candidates(quick_pool, EmbeddingVector(np.ones(5)), embedder)

    def test_zero_norm_target_rejected(self, quick_pool, desk_world):
        embedder = desk_world.embedders[0]
        with pytest.raises(ZeroNormEmbedding):
            rank_candidates(quick_pool, EmbeddingVector(np.zeros(embedder.d_emb)),
                            embedder)

    def test_zero_norm_embedding_rejected(self, quick_pool):
        sims = np.zeros(len(quick_pool.entries))
        embedder = scripted_for(quick_pool, sims)
        digest = hashlib.sha256(
            quick_pool.entries[3].image.values.tobytes()).hexdigest()
        embedder.table[digest] = np.zeros(3)
        with pytest.raises(ZeroNormEmbedding):
            rank_candidates(quick_pool, TARGET, embedder)

    def test_non_unit_embeddings_match_looped_reference(self, quick_pool):
        sims = np.linspace(0.9, -0.9, len(quick_pool.entries))
        embedder = scripted_for(quick_pool, sims)
        for k, digest in enumerate(embedder.table):
            embedder.table[digest] = embedder.table[digest] * (k % 5 + 0.5)
        ranked = rank_candidates(quick_pool, TARGET, embedder)
        order, ref = looped_ranking(quick_pool, TARGET, embedder)
        assert [c.pool_index for c in ranked] == order
        np.testing.assert_allclose([c.initial_similarity for c in ranked],
                                   ref[order], rtol=0, atol=1e-12)

    def test_matches_looped_reference(self, desk_pool, desk_world):
        for embedder in desk_world.embedders:
            for rec in desk_world.identities[:5]:
                target = embedder.embed(rec.images[1])
                ranked = rank_candidates(desk_pool, target, embedder)
                order, sims = looped_ranking(desk_pool, target, embedder)
                assert [c.pool_index for c in ranked] == order
                np.testing.assert_allclose(
                    [c.initial_similarity for c in ranked], sims[order],
                    rtol=0, atol=1e-12)


class TestTopN:
    @pytest.fixture()
    def ranked(self, quick_pool, desk_world):
        embedder = desk_world.embedders[0]
        target = embedder.embed(desk_world.identities[0].images[0])
        return rank_candidates(quick_pool, target, embedder)

    def test_first_three(self, ranked):
        assert [c.rank for c in top_n(ranked, 3)] == [1, 2, 3]

    def test_whole_list(self, ranked):
        assert top_n(ranked, len(ranked)) == ranked

    def test_single_best(self, ranked):
        best = top_n(ranked, 1)
        assert len(best) == 1 and best[0].rank == 1

    def test_prefix_property(self, ranked):
        for n in range(1, len(ranked)):
            assert top_n(ranked, n) == top_n(ranked, n + 1)[:n]

    def test_clamps_with_warning(self, ranked):
        with pytest.warns(UserWarning):
            clamped = top_n(ranked, len(ranked) + 5)
        assert len(clamped) == len(ranked)

    def test_zero_rejected(self, ranked):
        with pytest.raises(ConfigInvalid):
            top_n(ranked, 0)
