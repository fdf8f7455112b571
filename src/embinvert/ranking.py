"""Selection stage: score every pool entry against the target, keep the best N.

Scoring reuses the generations cached at pool-build time: the V cached
images go to the embedder as one batched evaluation, and the stage is still
charged as V queries regardless of N.  Nothing is cached across targets, so
every charged query is real embedder work.  Ties in similarity break by
ascending pool index to keep runs reproducible.
"""
import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import EmbeddingVector
from .errors import ConfigInvalid, DimensionMismatch, ZeroNormEmbedding
from .models import EmbedderHandle, QueryLedger
from .pool import LatentPool


@dataclass(frozen=True)
class RankedCandidate:
    pool_index: int
    initial_similarity: float
    rank: int  # 1-based, 1 = most similar


def rank_candidates(pool: LatentPool, target: EmbeddingVector,
                    embedder: EmbedderHandle,
                    ledger: Optional[QueryLedger] = None) -> List[RankedCandidate]:
    """Embed every cached image exactly once and sort by similarity.

    Similarities are cosines clamped to [-1, 1] and raise the same errors as
    ``cosine_similarity``.  Charges V selection queries to the ledger when
    one is supplied.
    """
    embeddings = embedder.embed_batch(pool.image_stack)
    t = target.values
    if embeddings.shape != (len(pool.entries), t.size):
        raise DimensionMismatch(
            f"embeddings of shape {embeddings.shape} for {len(pool.entries)} "
            f"images do not match a length-{t.size} target")
    norms = np.linalg.norm(embeddings, axis=1)
    t_norm = np.linalg.norm(t)
    if t_norm == 0.0 or np.any(norms == 0.0):
        raise ZeroNormEmbedding("cosine similarity undefined for zero-norm embedding")
    sims = np.clip(embeddings @ t / (norms * t_norm), -1.0, 1.0)
    if ledger is not None:
        ledger.charge_topn(len(pool.entries))
    indices = np.arange(len(pool.entries))
    order = np.lexsort((indices, -sims))
    return [
        RankedCandidate(pool_index=j, initial_similarity=s, rank=r)
        for r, (j, s) in enumerate(zip(order.tolist(), sims[order].tolist()), 1)
    ]


def top_n(ranked: List[RankedCandidate], n: int) -> List[RankedCandidate]:
    """First n candidates by rank; clamps (with a warning) when n exceeds V."""
    if n < 1:
        raise ConfigInvalid(f"top-N must be >= 1, got {n}")
    if n > len(ranked):
        warnings.warn(
            f"top-N {n} exceeds the pool volume {len(ranked)}; clamping",
            stacklevel=2)
        n = len(ranked)
    return list(ranked[:n])
