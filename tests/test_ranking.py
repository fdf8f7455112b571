import dataclasses
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embinvert.core import EmbeddingVector, cosine_similarity
from embinvert.errors import ConfigInvalid, DimensionMismatch, ZeroNormEmbedding
from embinvert.models import EmbedderHandle, QueryLedger, SyntheticEmbedder
from embinvert.ranking import rank_candidates


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


class RowsEmbedder(EmbedderHandle):
    """Returns prescribed rows from ``embed_batch``; unlike ``embed``, that
    path has no finiteness check, so an adapter may return NaN there."""

    model_id = "rows"
    tau_F = 0.5
    supports_gradient = False
    d_emb = 3

    def __init__(self, rows):
        self.rows = rows

    def embed_batch(self, images):
        return self.rows


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
        ranked = rank_candidates(quick_pool, TARGET, embedder, len(quick_pool.entries))
        by_rank = [c.pool_index for c in ranked[:3]]
        assert by_rank == [1, 2, 0]
        assert [c.rank for c in ranked[:3]] == [1, 2, 3]

    def test_charges_exactly_v_queries(self, quick_pool):
        embedder = scripted_for(quick_pool, np.linspace(0.9, -0.9,
                                                        len(quick_pool.entries)))
        ledger = QueryLedger()
        rank_candidates(quick_pool, TARGET, embedder, len(quick_pool.entries), ledger)
        assert ledger.q_topn == len(quick_pool.entries)
        assert ledger.q_adv == 0

    def test_embed_called_once_per_entry(self, quick_pool):
        embedder = scripted_for(quick_pool, np.zeros(len(quick_pool.entries)))
        rank_candidates(quick_pool, TARGET, embedder, len(quick_pool.entries))
        assert embedder.embed_calls == len(quick_pool.entries)

    def test_ties_break_by_ascending_pool_index(self, quick_pool):
        embedder = scripted_for(quick_pool, np.zeros(len(quick_pool.entries)))
        ranked = rank_candidates(quick_pool, TARGET, embedder, len(quick_pool.entries))
        assert [c.pool_index for c in ranked] == list(range(len(quick_pool.entries)))

    def test_similarity_non_increasing_in_rank(self, quick_pool, desk_world):
        embedder = desk_world.embedders[0]
        target = embedder.embed(desk_world.identities[2].images[0])
        ranked = rank_candidates(quick_pool, target, embedder, len(quick_pool.entries))
        sims = [c.initial_similarity for c in ranked]
        assert all(a >= b for a, b in zip(sims, sims[1:]))
        assert sorted(c.rank for c in ranked) == list(range(1, len(ranked) + 1))

    def test_dimension_mismatch(self, quick_pool, desk_world):
        embedder = desk_world.embedders[0]
        with pytest.raises(DimensionMismatch):
            rank_candidates(quick_pool, EmbeddingVector(np.ones(5)), embedder, 3)

    def test_zero_norm_target_rejected(self, quick_pool, desk_world):
        embedder = desk_world.embedders[0]
        with pytest.raises(ZeroNormEmbedding):
            rank_candidates(quick_pool, EmbeddingVector(np.zeros(embedder.d_emb)),
                            embedder, 3)

    def test_zero_norm_embedding_rejected(self, quick_pool):
        sims = np.zeros(len(quick_pool.entries))
        embedder = scripted_for(quick_pool, sims)
        digest = hashlib.sha256(
            quick_pool.entries[3].image.values.tobytes()).hexdigest()
        embedder.table[digest] = np.zeros(3)
        with pytest.raises(ZeroNormEmbedding):
            rank_candidates(quick_pool, TARGET, embedder, len(quick_pool.entries))

    def test_non_unit_embeddings_match_looped_reference(self, quick_pool):
        sims = np.linspace(0.9, -0.9, len(quick_pool.entries))
        embedder = scripted_for(quick_pool, sims)
        for k, digest in enumerate(embedder.table):
            embedder.table[digest] = embedder.table[digest] * (k % 5 + 0.5)
        ranked = rank_candidates(quick_pool, TARGET, embedder, len(quick_pool.entries))
        order, ref = looped_ranking(quick_pool, TARGET, embedder)
        assert [c.pool_index for c in ranked] == order
        np.testing.assert_allclose([c.initial_similarity for c in ranked],
                                   ref[order], rtol=0, atol=1e-12)

    def test_matches_looped_reference(self, desk_pool, desk_world):
        for embedder in desk_world.embedders:
            for rec in desk_world.identities[:5]:
                target = embedder.embed(rec.images[1])
                ranked = rank_candidates(desk_pool, target, embedder, len(desk_pool.entries))
                order, sims = looped_ranking(desk_pool, target, embedder)
                assert [c.pool_index for c in ranked] == order
                np.testing.assert_allclose(
                    [c.initial_similarity for c in ranked], sims[order],
                    rtol=0, atol=1e-12)


class TestTopN:
    """Selection returns only the n best; these are the clamp and prefix rules."""

    @pytest.fixture()
    def select(self, quick_pool, desk_world):
        embedder = desk_world.embedders[0]
        target = embedder.embed(desk_world.identities[0].images[0])
        return lambda n: rank_candidates(quick_pool, target, embedder, n)

    def test_first_three(self, select):
        assert [c.rank for c in select(3)] == [1, 2, 3]

    def test_whole_list(self, select, quick_pool):
        ranked = select(len(quick_pool.entries))
        assert len(ranked) == len(quick_pool.entries)
        assert [c.rank for c in ranked] == list(range(1, len(ranked) + 1))

    def test_single_best(self, select):
        best = select(1)
        assert len(best) == 1 and best[0].rank == 1

    def test_prefix_property(self, select, quick_pool):
        for n in range(1, len(quick_pool.entries)):
            assert select(n) == select(n + 1)[:n]

    def test_clamps_with_warning(self, select, quick_pool):
        v = len(quick_pool.entries)
        with pytest.warns(UserWarning):
            clamped = select(v + 5)
        assert clamped == select(v)

    def test_zero_rejected(self, select):
        with pytest.raises(ConfigInvalid):
            select(0)

    def test_zero_rejected_before_any_charge(self, quick_pool):
        embedder = scripted_for(quick_pool, np.zeros(len(quick_pool.entries)))
        ledger = QueryLedger()
        with pytest.raises(ConfigInvalid):
            rank_candidates(quick_pool, TARGET, embedder, 0, ledger)
        assert ledger.q_topn == 0 and embedder.embed_calls == 0

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_top_n_is_prefix_of_full_lexsort(self, quick_pool, data):
        v = len(quick_pool.entries)
        n, sims = data.draw(boundary_ties(v))
        pool = dataclasses.replace(quick_pool)  # a cache per example
        embedder = scripted_for(pool, sims)
        full = rank_candidates(pool, TARGET, embedder, v)
        order, _ = looped_ranking(pool, TARGET, embedder)
        assert [c.pool_index for c in full] == order
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # n = V + 5 clamps with a warning
            top = rank_candidates(pool, TARGET, embedder, n)
        assert top == full[:n]

    def test_nan_similarities_rank_last_at_every_n(self, quick_pool):
        v = len(quick_pool.entries)
        sims = np.linspace(0.9, -0.9, v)
        sims[[0, 5, 6]] = np.nan
        embedder = RowsEmbedder(
            np.stack([sims, np.sqrt(1.0 - sims * sims), np.zeros(v)], axis=1))
        full = [c.pool_index for c in rank_candidates(quick_pool, TARGET, embedder, v)]
        assert full[-3:] == [0, 5, 6]
        for n in range(1, v):
            top = rank_candidates(quick_pool, TARGET, embedder, n)
            assert [c.pool_index for c in top] == full[:n]


@st.composite
def boundary_ties(draw, v):
    """``(n, sims)`` with n in {1, 3, V-1, V, V+5} and tied similarities
    straddling the n-th place whenever the pool has room for them."""
    n = draw(st.sampled_from([1, 3, v - 1, v, v + 5]))
    m = min(n, v)
    above = draw(st.integers(0, m - 1))
    tied = draw(st.integers(min(m - above + 1, v - above), v - above))
    below = v - above - tied
    values = (draw(st.lists(st.sampled_from([0.9, 0.7, 0.5]),
                            min_size=above, max_size=above))
              + [0.25] * tied
              + draw(st.lists(st.sampled_from([0.0, -0.3, -0.8]),
                              min_size=below, max_size=below)))
    sims = np.empty(v)
    sims[draw(st.permutations(range(v)))] = values
    return n, sims


class TestCachedSelection:
    def test_same_model_id_different_weights_rank_differently(self, desk_pool,
                                                              desk_world):
        shape = desk_world.config.image_shape
        a, b = (SyntheticEmbedder(32, shape, seed, model_id="shared")
                for seed in (101, 202))
        target = a.embed(desk_world.identities[3].images[1])
        v = len(desk_pool.entries)
        ranked_a = rank_candidates(desk_pool, target, a, v)
        ranked_b = rank_candidates(desk_pool, target, b, v)
        assert [c.pool_index for c in ranked_a] != [c.pool_index for c in ranked_b]
        for embedder, ranked in ((a, ranked_a), (b, ranked_b)):
            order, _ = looped_ranking(desk_pool, target, embedder)
            assert [c.pool_index for c in ranked] == order

    def test_failed_selection_charges_nothing_and_retries(self, quick_pool):
        sims = np.zeros(len(quick_pool.entries))
        embedder = scripted_for(quick_pool, sims)
        digest = hashlib.sha256(
            quick_pool.entries[3].image.values.tobytes()).hexdigest()
        embedder.table[digest] = np.zeros(3)
        ledger = QueryLedger()
        for calls in (1, 2):
            with pytest.raises(ZeroNormEmbedding):
                rank_candidates(quick_pool, TARGET, embedder, 3, ledger)
            assert embedder.embed_calls == calls * len(quick_pool.entries)
        assert ledger.q_topn == 0
