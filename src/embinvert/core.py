"""Shared domain types and the similarity primitive.

Everything downstream (screening, ranking, refinement, evaluation) compares
identities through one function: cosine similarity of embedding vectors.
The types here are immutable value objects.
"""
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, ZeroNormEmbedding


def _as_float_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class LatentCode:
    """A point in the generator's input space plus screening metadata.

    ``p_K`` is the Gaussian-normality p-value and ``p_D`` the face-detection
    confidence; both are unset until the corresponding screen has run.
    """

    values: np.ndarray
    seed: int = 0
    p_K: Optional[float] = None
    p_D: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float_vector(self.values))
        for name in ("p_K", "p_D"):
            v = getattr(self, name)
            if v is not None and not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")

    def __eq__(self, other):
        if not isinstance(other, LatentCode):
            return NotImplemented
        return (self.seed == other.seed and self.p_K == other.p_K
                and self.p_D == other.p_D
                and np.array_equal(self.values, other.values))

    def __len__(self) -> int:
        return self.values.size

    def with_screening(self, p_K=None, p_D=None) -> "LatentCode":
        """Copy with screening metadata filled in (fields are immutable)."""
        return LatentCode(
            values=self.values,
            seed=self.seed,
            p_K=self.p_K if p_K is None else p_K,
            p_D=self.p_D if p_D is None else p_D,
        )


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    """Fixed-dimension identity representation; compared by cosine similarity."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float_vector(self.values))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("embedding entries must be finite")

    def __eq__(self, other):
        if not isinstance(other, EmbeddingVector):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __len__(self) -> int:
        return self.values.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True, eq=False)
class ImageSample:
    """A (channels, height, width) tensor with pixel values in [-1, 1].

    The pixel range is fixed at this boundary; adapters convert to and
    from whatever their backends use.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 3:
            raise DimensionMismatch(f"expected (C, H, W), got shape {arr.shape}")
        if arr.size and (np.min(arr) < -1.0 or np.max(arr) > 1.0):
            raise ValueError("pixel values must lie in [-1, 1]")
        object.__setattr__(self, "values", arr)

    def __eq__(self, other):
        if not isinstance(other, ImageSample):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    @property
    def shape(self) -> Tuple[int, int, int]:
        return tuple(self.values.shape)

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


@dataclass(frozen=True)
class TargetSpec:
    """What the attacker is given: an embedding and the id of the model
    that produced it.

    ``identity_id`` exists purely for evaluation bookkeeping.  No attack
    operation may read it; the test harness audits this with an
    access-trapping wrapper.
    """

    target_embedding: EmbeddingVector
    target_model_id: str
    identity_id: Optional[str] = field(default=None, compare=False)


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine of the angle between two embeddings, in [-1, 1].

    Raises DimensionMismatch on length disagreement and ZeroNormEmbedding
    if either argument has zero norm.
    """
    va, vb = a.values, b.values
    if va.size != vb.size:
        raise DimensionMismatch(f"embedding lengths differ: {va.size} vs {vb.size}")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ZeroNormEmbedding("cosine similarity undefined for zero-norm embedding")
    s = float(np.dot(va, vb) / (na * nb))
    # Clamp floating spill so downstream threshold logic sees a valid cosine.
    return min(1.0, max(-1.0, s))


def decide_match(s: float, tau_F: float) -> bool:
    """Identity decision rule: similarity at or above the threshold matches.

    Boundary equality counts as a match.
    """
    return s >= tau_F
