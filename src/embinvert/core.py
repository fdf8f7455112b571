"""Shared domain types and the similarity primitive.

Identities are compared by the cosine similarity of embedding vectors.
``cosine_similarity`` defines it for one pair: lengths must agree, a
zero-norm embedding raises, and [-1, 1] clamps the result (NaN passes).
``AttackSession`` shares its code; ranking and evaluation compute the
same cosine inline over arrays and follow the same rules.  The types here
are immutable value objects; a ``LatentCode`` is the vector alone, and
what the pool's screens found out about it lives in ``pool.PoolEntry``.
"""
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, ZeroNormEmbedding


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a 1-D float64 vector, bit for bit and without
    its dispatch: numpy computes it as this same ravel, dot and sqrt."""
    v = v.ravel()
    return math.sqrt(v.dot(v))


def _as_float_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class _Vector:
    """A 1-D float64 vector, equal only to a vector of its own kind."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float_vector(self.values))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __len__(self) -> int:
        return self.values.size


class LatentCode(_Vector):
    """A point in the generator's input space: the 1-D float64 vector alone."""


class EmbeddingVector(_Vector):
    """Fixed-dimension identity representation; compared by cosine similarity."""

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isfinite(self.values)):
            raise ValueError("embedding entries must be finite")

    @property
    def norm(self) -> float:
        return _norm(self.values)


def _checked_pixels(arr: np.ndarray, ndim: int, layout: str) -> np.ndarray:
    if arr.ndim != ndim:
        raise DimensionMismatch(f"expected {layout}, got shape {arr.shape}")
    # Written so that a NaN pixel fails it too.
    if arr.size and not (-1.0 <= arr.min() and arr.max() <= 1.0):
        raise ValueError("pixel values must lie in [-1, 1]")
    return arr


@dataclass(frozen=True, eq=False)
class ImageSample:
    """A (channels, height, width) tensor with pixel values in [-1, 1].

    The pixel range is fixed at this boundary; adapters convert to and
    from whatever their backends use.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", _checked_pixels(arr, 3, "(C, H, W)"))

    @classmethod
    def stack(cls, images) -> Tuple["ImageSample", ...]:
        """One sample per slice of a (B, C, H, W) array, checked as a whole:
        views of a float64 stack, float64 copies of any other."""
        samples = []
        for image in _checked_pixels(np.asarray(images), 4, "(B, C, H, W)"):
            samples.append(cls.__new__(cls))
            object.__setattr__(samples[-1], "values", image.astype(np.float64, copy=False))
        return tuple(samples)

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
    """Cosine of the angle between two embeddings, in [-1, 1] or NaN.

    Raises DimensionMismatch on length disagreement and ZeroNormEmbedding
    if either argument has zero norm.
    """
    return _cosine(a.values, b.values)[0]


def _cosine(va: np.ndarray, vb: np.ndarray) -> Tuple[float, float]:
    """``cosine_similarity`` of two float vectors, and the norm of ``vb``."""
    if va.size != vb.size:
        raise DimensionMismatch(f"embedding lengths differ: {va.size} vs {vb.size}")
    na = _norm(va)
    nb = _norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ZeroNormEmbedding("cosine similarity undefined for zero-norm embedding")
    s = float(va.dot(vb) / (na * nb))
    # Clamp floating spill so threshold logic sees a valid cosine; NaN passes.
    return (1.0 if s > 1.0 else -1.0 if s < -1.0 else s), nb


def decide_match(s: float, tau_F: float) -> bool:
    """Identity decision rule: similarity at or above the threshold matches.

    Boundary equality counts as a match.
    """
    return s >= tau_F
