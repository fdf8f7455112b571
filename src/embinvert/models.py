"""Backend contracts plus seeded desk-scale synthetic implementations.

Three capabilities make up a backend, each with one forward method over
a stack of array rows: a generator (``generate_batch``, latents to
images), one or more embedders (``embed_batch``, images to identity
embeddings, each model with its own decision threshold), and a face
detector (``detect_batch``, images to confidences).  Real generative or
recognition models plug in through these same contracts via the adapter
registry; the synthetic versions below are small, smooth, fully seeded
stand-ins that keep the whole pipeline's geometry (latent -> image ->
embedding -> cosine) while running in milliseconds.  A synthetic world
generates its identity images in one ``generate_batch`` call and
calibrates its detector on first use, so only ``build-pool`` pays for it.

Gradients compose through one forward pass per handle:

    image, G_pullback = G.generate_vjp(latent)
    embedding, F_pullback = F.embed_vjp(image)
    d loss / d latent = G_pullback(F_pullback(d cos / d embedding))

Each pullback runs the backward pass on the activations its forward pass
kept.  The base-class ``*_vjp`` defaults run the batch method on a batch
of one and return a pullback that raises GradientUnavailable, so a
forward-only adapter implements just the batch methods; two handles have
gradients when both classes override their ``*_vjp``.
``AttackSession.value_and_grad`` makes the composition one charged
evaluation whose gradient comes free.  At batch 1 most of its cost is
the matrix-vector products: the synthetic vjps and pullbacks call
``ndarray.dot`` (the dgemv ``@`` reaches) and take norms with
``core._norm``, so every value and gradient keeps its bits.
``_generated_images`` checks every ``generate_batch`` result and
``_embedding_rows`` every ``embed_batch`` one (ConfigInvalid names the
handle); ``pool.build_pool`` checks the ``detect_batch`` scores.
"""
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import EmbeddingVector, ImageSample, _as_float_vector, _cosine, _norm
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    GradientUnavailable,
    LedgerOverrun,
    ShapeMismatch,
    UnknownModel,
    ZeroNormEmbedding,
)


def _overrides(handle, base, method: str) -> bool:
    """Whether ``handle``'s class replaces ``base``'s ``method``."""
    return getattr(type(handle), method) is not getattr(base, method)


def _scaled_normal(rng, shape: Tuple[int, int], scale: float) -> np.ndarray:
    """``rng.standard_normal(shape) / scale``, bit for bit, drawn in place on a
    64-byte boundary; OpenBLAS's gemv runs up to 1.6x slower on a 16-byte one."""
    size = shape[0] * shape[1]
    buf = np.empty(size + 8)
    out = buf[-buf.ctypes.data % 64 // 8:][:size].reshape(shape)
    rng.standard_normal(out=out)
    out /= scale
    return out


def _no_gradient(handle: str):
    """The pullback of a forward-only ``*_vjp``: it raises GradientUnavailable."""
    def pullback(cotangent: np.ndarray) -> np.ndarray:
        raise GradientUnavailable(f"{handle} has no gradient")
    return pullback


class GeneratorHandle:
    """Maps any length-d_lat vector deterministically to an image."""

    d_lat: int
    output_shape: Tuple[int, int, int]
    generator_id: str

    def generate_batch(self, latents: np.ndarray) -> np.ndarray:
        """Map (B, d_lat) latents to (B, C, H, W) images."""
        raise NotImplementedError

    def generate_vjp(self, latent_values: np.ndarray):
        """One forward pass: ``(image array, pullback)``.

        ``pullback(image_cotangent)`` returns the latent-space cotangent.
        This default generates a batch of one, and its pullback raises
        GradientUnavailable; a generator with gradients overrides it.
        """
        image = _generated_images(self, _as_float_vector(latent_values)[None])[0]
        return image, _no_gradient(f"generator {self.generator_id!r}")


class EmbedderHandle:
    """Maps images deterministically to unit-comparable embeddings."""

    d_emb: int
    tau_F: Optional[float]
    model_id: str

    def embed_batch(self, images: np.ndarray) -> np.ndarray:
        """Embed a (B, C, H, W) stack of images as (B, d_emb) rows."""
        raise NotImplementedError

    def embed_vjp(self, image: np.ndarray):
        """One forward pass: ``(embedding, pullback)``.

        ``pullback(embedding_cotangent)`` returns the image-space cotangent.
        This default embeds a batch of one, and its pullback raises
        GradientUnavailable; an embedder with gradients overrides it.
        """
        rows, _ = _embedding_rows(self, np.asarray(image, dtype=np.float64)[None])
        return rows[0], _no_gradient(f"embedder {self.model_id!r}")


def _embedding_rows(embedder: EmbedderHandle,
                    images: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``embedder.embed_batch(images)`` as float64 rows, and their L2 norms.

    Raises DimensionMismatch unless there is one row per image, and
    ZeroNormEmbedding for a zero row, ConfigInvalid for a non-finite one.
    """
    rows = np.asarray(embedder.embed_batch(images), dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] != len(images):
        raise DimensionMismatch(
            f"embeddings of shape {rows.shape} for {len(images)} images; "
            "expected one row per image")
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        raise ZeroNormEmbedding("cosine similarity undefined for zero-norm embedding")
    if not np.all(np.isfinite(norms)):
        raise ConfigInvalid(f"embedder {embedder.model_id!r} returned a non-finite row")
    return rows, norms


class DetectorHandle:
    """Returns a confidence in [0, 1] that an image contains a face."""

    detector_id: str

    def detect_batch(self, images: np.ndarray) -> list:
        """Score a (B, C, H, W) stack of images: B confidences in [0, 1]."""
        raise NotImplementedError


def _generated_images(generator: GeneratorHandle, latents: np.ndarray) -> np.ndarray:
    """``generator.generate_batch(latents)`` as a float64 array; ConfigInvalid
    naming the generator unless it holds one image per latent in [-1, 1]."""
    latents = np.asarray(latents, dtype=np.float64)
    images = np.asarray(generator.generate_batch(latents), dtype=np.float64)
    expected = (len(latents),) + tuple(generator.output_shape)
    if images.shape != expected:
        raise ConfigInvalid(
            f"generator {generator.generator_id!r} returned images of shape "
            f"{images.shape} for {len(latents)} latents; expected {expected}")
    if images.size and not (-1.0 <= images.min() and images.max() <= 1.0):
        raise ConfigInvalid(f"generator {generator.generator_id!r} returned "
                            "a pixel outside [-1, 1] or NaN")
    return images


class SyntheticGenerator(GeneratorHandle):
    """image = tanh(W @ latent + b) with seeded dense W.

    Smooth and differentiable; the bias field gives all outputs a common
    "prototype" component that the synthetic detector keys on.
    """

    def __init__(self, d_lat: int, output_shape: Tuple[int, int, int], seed_seq,
                 generator_id: str = "synthetic-generator"):
        self.d_lat = int(d_lat)
        self.output_shape = tuple(int(v) for v in output_shape)
        self.generator_id = generator_id
        d_pix = int(np.prod(self.output_shape))
        rng = np.random.default_rng(seed_seq)
        self.weight = _scaled_normal(rng, (d_pix, self.d_lat), math.sqrt(self.d_lat))
        self.bias = 0.5 * rng.standard_normal(d_pix)

    def generate_vjp(self, latent_values: np.ndarray):
        """The image and a pullback that reuses its tanh activation."""
        if latent_values.size != self.d_lat:
            raise DimensionMismatch(
                f"latent length {latent_values.size} != generator d_lat {self.d_lat}")
        act = self.weight.dot(latent_values)
        act += self.bias
        np.tanh(act, out=act)

        def pullback(image_cotangent: np.ndarray) -> np.ndarray:
            return self.weight.T.dot((1.0 - act * act) * image_cotangent.reshape(-1))

        return act.reshape(self.output_shape), pullback

    def generate_batch(self, latents: np.ndarray) -> np.ndarray:
        """One gemv per row, so row i equals ``generate_vjp(latents[i])``'s
        image bit for bit; ``latents @ weight.T`` is a GEMM, which can differ
        in the last bits."""
        x = np.asarray(latents, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.d_lat:
            raise DimensionMismatch(f"latent stack shape {x.shape} != (B, {self.d_lat})")
        act = np.matmul(self.weight, x[:, :, None])[..., 0]
        act += self.bias
        return np.tanh(act, out=act).reshape((len(x),) + self.output_shape)


class SyntheticEmbedder(EmbedderHandle):
    """Unit-normalized seeded linear map of the flattened image.

    Distinct seeds give genuinely different models, which is what makes
    cross-model evaluation informative.  ``tau_F`` is None, as for any
    handle without a threshold of its own; ``calibrate`` computes the
    model's threshold from the world's identity images.
    """

    def __init__(self, d_emb: int, input_shape: Tuple[int, int, int], seed_seq,
                 model_id: str):
        self.d_emb = int(d_emb)
        self.input_shape = tuple(int(v) for v in input_shape)
        self.model_id = model_id
        self.tau_F = None
        d_pix = int(np.prod(self.input_shape))
        rng = np.random.default_rng(seed_seq)
        self.weight = _scaled_normal(rng, (self.d_emb, d_pix), math.sqrt(d_pix))

    def embed_batch(self, images: np.ndarray) -> np.ndarray:
        """One matmul for the stack, with ``embed_vjp``'s shape and zero checks."""
        if images.ndim != 4 or images.shape[1:] != self.input_shape:
            raise ShapeMismatch(
                f"embedder {self.model_id}: image stack shape {images.shape} != "
                f"(B,) + {self.input_shape}")
        raw = images.reshape(len(images), -1) @ self.weight.T
        norms = np.linalg.norm(raw, axis=1)
        if np.any(norms == 0.0):
            raise ZeroNormEmbedding(f"embedder {self.model_id}: raw embedding is zero")
        return raw / norms[:, None]

    def embed_vjp(self, image: np.ndarray):
        """The unit embedding and a pullback that reuses its raw embedding and
        norm.  A NaN image embeds to NaN; refinement raises NonFiniteLoss."""
        if image.shape != self.input_shape:
            raise ShapeMismatch(f"embedder {self.model_id}: image shape "
                                f"{image.shape} != expected {self.input_shape}")
        raw = self.weight.dot(image.reshape(-1))
        norm = _norm(raw)
        if norm == 0.0:
            raise ZeroNormEmbedding(f"embedder {self.model_id}: raw embedding is zero")
        unit = raw / norm

        def pullback(embedding_cotangent: np.ndarray) -> np.ndarray:
            # Backprop through v / ||v||.
            cot_raw = (embedding_cotangent
                       - unit.dot(embedding_cotangent) * unit) / norm
            return self.weight.T.dot(cot_raw).reshape(self.input_shape)

        return unit, pullback


class SyntheticDetector(DetectorHandle):
    """Sigmoid of the image's correlation with a fixed template direction.

    The template is the generator's bias-field prototype, so on-manifold
    generations correlate strongly while degenerate images do not.  The
    (offset, slope) pair is calibrated on first use of the world's
    ``detector`` so that every identity-derived image scores at least 0.999.
    """

    def __init__(self, template: np.ndarray, offset: float, slope: float,
                 input_shape: Tuple[int, int, int],
                 detector_id: str = "synthetic-detector"):
        t = np.asarray(template, dtype=np.float64).reshape(-1)
        self.input_shape = tuple(int(v) for v in input_shape)
        if int(np.prod(self.input_shape)) != t.size:
            raise ShapeMismatch(
                f"detector {detector_id}: input shape {self.input_shape} does "
                f"not hold the {t.size}-value template")
        self.template = t / np.linalg.norm(t)
        self.offset = float(offset)
        self.slope = float(slope)
        self.detector_id = detector_id

    def correlations(self, images: np.ndarray) -> list:
        """Each image's cosine with the template (0 for a zero image), one
        dot product per image: a matrix product could move the last bits."""
        images = np.asarray(images, dtype=np.float64)
        if images.shape[1:] != self.input_shape:
            raise ShapeMismatch(
                f"detector {self.detector_id}: image stack shape {images.shape} "
                f"!= (B,) + {self.input_shape}")
        corrs = []
        for flat in images.reshape(-1, self.template.size):
            norm = _norm(flat)
            corrs.append(0.0 if norm == 0.0 else float(flat.dot(self.template) / norm))
        return corrs

    def detect_batch(self, images: np.ndarray) -> list:
        scores = []
        for corr in self.correlations(images):
            score = 1.0 / (1.0 + math.exp(-self.slope * (corr - self.offset)))
            scores.append(min(1.0, max(0.0, score)))
        return scores


@dataclass(frozen=True, eq=False)
class IdentityRecord:
    identity_id: str
    latents: np.ndarray          # (images_per_identity, d_lat)
    images: Tuple[ImageSample, ...]


@dataclass(frozen=True)
class WorldConfig:
    d_lat: int = 64
    image_shape: Tuple[int, int, int] = (3, 16, 16)
    embedder_dims: Tuple[int, ...] = (32, 32)
    n_identities: int = 20
    images_per_identity: int = 4   # the target image plus J alternates
    identity_noise: float = 0.35

    def validate(self):
        if self.d_lat <= 0:
            raise ConfigInvalid("d_lat must be positive")
        if len(self.image_shape) != 3 or any(v <= 0 for v in self.image_shape):
            raise ConfigInvalid(f"bad image_shape {self.image_shape}")
        if len(self.embedder_dims) < 2:
            raise ConfigInvalid(
                "at least 2 embedders required (cross-model evaluation needs a "
                "non-target model)"
            )
        if any(d <= 0 for d in self.embedder_dims):
            raise ConfigInvalid("embedder dims must be positive")
        if self.n_identities < 2:
            raise ConfigInvalid("need at least 2 identities")
        if self.images_per_identity < 1:
            raise ConfigInvalid("need at least 1 image per identity")
        if not 0 < self.identity_noise < math.inf:
            raise ConfigInvalid(
                f"identity_noise must be finite and > 0, got {self.identity_noise}")


class Backend:
    """What the pipeline and the CLI use of a backend.

    ``generator``, ``embedders`` and ``detector`` (None when there is none)
    are the handles; ``identity_images`` holds images grouped by identity
    for calibration and evaluation, or None when there are none.
    """

    generator: GeneratorHandle
    embedders: Tuple[EmbedderHandle, ...]
    detector: Optional[DetectorHandle]
    identity_images: Optional[Sequence[Sequence[ImageSample]]]

    def embedder_by_id(self, model_id: str) -> EmbedderHandle:
        for e in self.embedders:
            if e.model_id == model_id:
                return e
        raise UnknownModel(f"no embedder with model_id {model_id!r}")


@dataclass(frozen=True, eq=False)
class SyntheticWorld(Backend):
    config: WorldConfig
    master_seed: int
    generator: SyntheticGenerator
    embedders: Tuple[SyntheticEmbedder, ...]
    identities: Tuple[IdentityRecord, ...]

    @property
    def identity_images(self) -> Tuple[Tuple[ImageSample, ...], ...]:
        return tuple(rec.images for rec in self.identities)

    @functools.cached_property
    def detector(self) -> SyntheticDetector:
        """Calibrated on every identity image on first use; of the CLI
        commands only ``build-pool`` reads it."""
        return _calibrate_detector(self.generator, np.stack(
            [img.values for rec in self.identities for img in rec.images]))


# Stream ids for deriving independent RNGs from the master seed.
_STREAM_GENERATOR = 0
_STREAM_EMBEDDER = 1
_STREAM_IDENTITIES = 3
_STREAM_IMPOSTORS = 4


def impostor_stream(master_seed: int, k: int) -> list:
    """Seed of the impostor pairs that calibrate embedder ``k``'s ``tau_F``.

    ``calibrate`` and ``report`` without a thresholds file both draw from
    it, so the two thresholds are the same float.
    """
    return [master_seed, _STREAM_IMPOSTORS, k]


_DETECTOR_MARGIN = 0.05
_DETECTOR_SLOPE = 200.0


def make_synthetic_world(config: WorldConfig, master_seed: int) -> SyntheticWorld:
    """Build a fully deterministic desk-scale world.

    All parameters derive from (config, master_seed).  Building calibrates
    no decision threshold: each embedder's ``tau_F`` is None, and
    ``calibrate`` computes the thresholds at minimum EER on the world's
    identity images with impostor pairs drawn from ``impostor_stream``.
    The identity latents are drawn identity by identity and their images
    generated in one ``generate_batch`` call, one gemv per row, so each
    image keeps its bits; each ``IdentityRecord`` holds slices of the two
    blocks.  The detector is calibrated on first use of ``world.detector``,
    so every identity image clears 0.999.
    """
    config.validate()
    shape_tag = "x".join(str(v) for v in config.image_shape)
    gen = SyntheticGenerator(
        config.d_lat, config.image_shape,
        np.random.SeedSequence([master_seed, _STREAM_GENERATOR]),
        generator_id=f"synthetic-seed{master_seed}-{config.d_lat}to{shape_tag}",
    )
    embedders = tuple(
        SyntheticEmbedder(
            d_emb, config.image_shape,
            np.random.SeedSequence([master_seed, _STREAM_EMBEDDER, k]),
            model_id=f"synthetic-embedder-{k}",
        )
        for k, d_emb in enumerate(config.embedder_dims)
    )

    rng_id = np.random.default_rng(
        np.random.SeedSequence([master_seed, _STREAM_IDENTITIES]))
    per = config.images_per_identity
    latents = np.empty((config.n_identities * per, config.d_lat))
    for k in range(config.n_identities):
        center = rng_id.standard_normal(config.d_lat)
        noise = rng_id.standard_normal((per, config.d_lat))
        latents[k * per:(k + 1) * per] = center[None, :] + config.identity_noise * noise
    images = ImageSample.stack(gen.generate_batch(latents))
    identities = tuple(
        IdentityRecord(f"id{k:03d}", latents[k * per:(k + 1) * per],
                       images[k * per:(k + 1) * per])
        for k in range(config.n_identities))
    return SyntheticWorld(
        config=config,
        master_seed=master_seed,
        generator=gen,
        embedders=embedders,
        identities=identities,
    )


def _calibrate_detector(gen: SyntheticGenerator, images: np.ndarray) -> SyntheticDetector:
    """The detector whose offset puts the lowest correlation of the (B, C, H, W)
    ``images`` _DETECTOR_MARGIN above it, computed with its own template and
    ``correlations``."""
    detector = SyntheticDetector(np.tanh(gen.bias), 0.0, _DETECTOR_SLOPE, gen.output_shape)
    detector.offset = min(detector.correlations(images)) - _DETECTOR_MARGIN
    return detector


class QueryLedger:
    """Exact count of target-model evaluations, split into the selection
    phase (q_topn) and the refinement phase (q_adv).

    When ``q_max`` is set the ledger refuses to overrun it.  The attack
    sizes its refinement budget beforehand (``pipeline.compute_tmax``), so
    a raise here indicates a bookkeeping bug rather than a user error.
    """

    def __init__(self, q_max: Optional[int] = None):
        self.q_topn = 0
        self.q_adv = 0
        self.q_max = q_max

    @property
    def total(self) -> int:
        return self.q_topn + self.q_adv

    def charge_topn(self, n: int = 1):
        self._check(n)
        self.q_topn += n

    def charge_adv(self, n: int = 1):
        self._check(n)
        self.q_adv += n

    def _check(self, n: int):
        if self.q_max is not None and self.total + n > self.q_max:
            raise LedgerOverrun(
                f"query ledger overrun: {self.total} + {n} > q_max {self.q_max}"
            )

    def __repr__(self):
        return (f"QueryLedger(q_topn={self.q_topn}, q_adv={self.q_adv}, "
                f"q_max={self.q_max})")


class AttackSession:
    """Capability-scoped access to one (generator, embedder) pair for one
    attack, with every objective evaluation charged to the ledger.

    Black-box sessions (allow_gradient=False) raise GradientUnavailable on
    any gradient request, and so do sessions over a forward-only handle.
    Gradients in white-box sessions are not charged; queries count
    objective evaluations only.
    """

    def __init__(self, generator: GeneratorHandle, embedder: EmbedderHandle,
                 ledger: QueryLedger, allow_gradient: bool):
        self.generator = generator
        self.embedder = embedder
        self.ledger = ledger
        self.allow_gradient = allow_gradient
        self._has_gradient = (_overrides(generator, GeneratorHandle, "generate_vjp")
                              and _overrides(embedder, EmbedderHandle, "embed_vjp"))

    def loss(self, latent_values: np.ndarray, target: EmbeddingVector) -> float:
        """The objective at one point (one query)."""
        return self._forward(latent_values, target)[0]

    def value_and_grad(self, latent_values: np.ndarray, target: EmbeddingVector):
        """``(objective, grad_fn)`` from one forward pass (one query).

        ``grad_fn()`` returns the gradient with respect to the latent values
        from the kept activations; it is not charged and equals the
        reference ``loss_gradient`` (tests/oracle_loss.py) at the same point.
        """
        if not self.allow_gradient:
            raise GradientUnavailable("black-box session: gradients are out of reach")
        if not self._has_gradient:
            raise GradientUnavailable("generator or embedder does not expose gradients")
        return self._forward(latent_values, target)

    def _forward(self, latent_values, target: EmbeddingVector):
        # The value is cosine_similarity's code and the gradient the same
        # composition of pullbacks, so results match the two-pass reference
        # (tests/oracle_loss.py: loss_eval, loss_gradient) bit for bit.
        self.ledger.charge_adv(1)
        x = _as_float_vector(latent_values)
        image, generator_pullback = self.generator.generate_vjp(x)
        e, embedder_pullback = self.embedder.embed_vjp(image)
        t = target.values
        s, t_norm = _cosine(e, t)

        def grad_fn() -> np.ndarray:
            return generator_pullback(embedder_pullback(t / t_norm))

        return s, grad_fn
