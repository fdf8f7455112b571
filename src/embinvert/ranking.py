"""Selection stage: score every pool entry against the target, keep the best N.

Scoring reuses the generations cached at pool-build time, and the stage is
charged as V queries per target regardless of N: that is the paper's
selection cost.  The real embedder work happens once per (pool, embedder
handle): ``LatentPool.embeddings`` embeds the V cached images in one batched
call and keeps the rows, so each target costs one matrix-vector product.
Ties in similarity break by ascending pool index to keep runs reproducible.
The V similarities are the answers to the V charged queries.  A caller that
passes ``out`` keeps them, and black-box refinement reuses them at no
further query cost (``LatentPool.similarity_slope``).
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
                    embedder: EmbedderHandle, n: int,
                    ledger: Optional[QueryLedger] = None,
                    out: Optional[np.ndarray] = None) -> List[RankedCandidate]:
    """The n pool entries most similar to the target, best first.

    Similarities are cosines clamped to [-1, 1] and raise the same errors as
    ``cosine_similarity``.  Raises ConfigInvalid when n < 1 and clamps (with
    a warning) when n exceeds V.  Charges V selection queries to the ledger
    when one is supplied, once the rows pass ``models._embedding_rows``.
    ``out``, a float64 array of length V, receives every entry's similarity
    in pool order.
    """
    v = len(pool.entries)
    if n < 1:
        raise ConfigInvalid(f"top-N must be >= 1, got {n}")
    if n > v:
        warnings.warn(f"top-N {n} exceeds the pool volume {v}; clamping",
                      stacklevel=2)
        n = v
    rows, norms = pool.embeddings(embedder)
    t = target.values
    if rows.shape[1] != t.size:
        raise DimensionMismatch(
            f"embeddings of shape {rows.shape} for {v} images do not match "
            f"a length-{t.size} target")
    t_norm = np.linalg.norm(t)
    if t_norm == 0.0:
        raise ZeroNormEmbedding("cosine similarity undefined for zero-norm embedding")
    sims = np.clip(rows @ t / (norms * t_norm), -1.0, 1.0, out=out)
    if ledger is not None:
        ledger.charge_topn(v)
    # Keep the whole tie at the n-th best for the index tie-break below.
    neg = -sims
    bound = np.partition(neg, n - 1)[n - 1]
    keep = np.flatnonzero(neg <= bound)
    order = keep[np.lexsort((keep, -sims[keep]))][:n]
    return [
        RankedCandidate(pool_index=j, initial_similarity=s, rank=r)
        for r, (j, s) in enumerate(zip(order.tolist(), sims[order].tolist()), 1)
    ]
