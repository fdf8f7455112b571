"""Backend contracts plus seeded desk-scale synthetic implementations.

Three capabilities make up a backend: a generator (latent vector to image),
one or more embedders (image to identity embedding, each with its own
decision threshold), and a face detector (image to confidence).  Real
generative or recognition models plug in through these same contracts via
the adapter registry; the synthetic versions below are small, smooth,
fully seeded stand-ins that keep the whole pipeline's geometry (latent ->
image -> embedding -> cosine) while running in milliseconds.

Gradient support is expressed through vector-Jacobian products so that the
white-box loss gradient composes generically:

    d loss / d latent = G.vjp(latent, F.vjp(image, d cos / d embedding))

The attack loop runs each forward pass once: ``generate_vjp`` and
``embed_vjp`` return the forward output together with a pullback that
runs the backward pass on the kept activations.  Their base-class
defaults are built from ``generate``/``embed`` and ``vjp``, so an adapter
that implements only those works unchanged; the synthetic handles
override them to keep their activations and skip the value-object
wrappers.  ``AttackSession.value_and_grad`` composes the two into one
charged evaluation whose gradient comes free; ``loss_eval`` and
``loss_gradient`` stay as the plain reference composition.
"""
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    EmbeddingVector,
    ImageSample,
    LatentCode,
    _as_float_vector,
    cosine_similarity,
)
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    GradientUnavailable,
    LedgerOverrun,
    ShapeMismatch,
    UnknownModel,
    ZeroNormEmbedding,
)


class GeneratorHandle:
    """Maps any length-d_lat vector deterministically to an image."""

    d_lat: int
    output_shape: Tuple[int, int, int]
    supports_gradient: bool
    generator_id: str

    def generate(self, latent: LatentCode) -> ImageSample:
        raise NotImplementedError

    def vjp(self, latent_values: np.ndarray, image_cotangent: np.ndarray) -> np.ndarray:
        """Pull an image-space cotangent back to latent space."""
        raise GradientUnavailable(f"generator {self.generator_id!r} has no gradient")

    def generate_vjp(self, latent_values: np.ndarray):
        """One forward pass: ``(image array, pullback)``.

        ``pullback(image_cotangent)`` returns the latent-space cotangent.
        This default calls ``generate`` and ``vjp``, so the pullback redoes
        the forward pass; override it to keep the activations instead.
        """
        image = self.generate(LatentCode(latent_values)).values
        return image, lambda image_cotangent: self.vjp(latent_values, image_cotangent)


class EmbedderHandle:
    """Maps images deterministically to unit-comparable embeddings."""

    d_emb: int
    tau_F: Optional[float]
    supports_gradient: bool
    model_id: str

    def embed(self, image: ImageSample) -> EmbeddingVector:
        raise NotImplementedError

    def embed_batch(self, images: np.ndarray) -> np.ndarray:
        """Embed a (B, C, H, W) stack of images; row i is ``embed(images[i])``.

        This default calls ``embed`` once per image, so an adapter that
        implements only ``embed`` works unchanged; override it to batch.
        """
        return np.stack([self.embed(ImageSample(image)).values for image in images])

    def vjp(self, image: ImageSample, embedding_cotangent: np.ndarray) -> np.ndarray:
        raise GradientUnavailable(f"embedder {self.model_id!r} has no gradient")

    def embed_vjp(self, image: np.ndarray):
        """One forward pass: ``(unit embedding, pullback)``.

        ``pullback(embedding_cotangent)`` returns the image-space cotangent.
        This default calls ``embed`` and ``vjp``, so the pullback redoes the
        forward pass; override it to keep the activations instead.
        """
        sample = ImageSample(image)
        embedding = self.embed(sample).values
        return embedding, lambda embedding_cotangent: self.vjp(sample, embedding_cotangent)


class DetectorHandle:
    """Returns a confidence in [0, 1] that an image contains a face."""

    detector_id: str

    def detect(self, image: ImageSample) -> float:
        raise NotImplementedError


def _check_latent(g: GeneratorHandle, latent_values: np.ndarray):
    if latent_values.size != g.d_lat:
        raise DimensionMismatch(
            f"latent length {latent_values.size} != generator d_lat {g.d_lat}"
        )


def _check_image(expected_shape, image: np.ndarray, who: str):
    if image.shape != tuple(expected_shape):
        raise ShapeMismatch(
            f"{who}: image shape {image.shape} != expected {tuple(expected_shape)}"
        )


class SyntheticGenerator(GeneratorHandle):
    """image = tanh(W @ latent + b) with seeded dense W.

    Smooth and differentiable; the bias field gives all outputs a common
    "prototype" component that the synthetic detector keys on.
    """

    supports_gradient = True

    def __init__(self, d_lat: int, output_shape: Tuple[int, int, int], seed_seq,
                 generator_id: str = "synthetic-generator"):
        self.d_lat = int(d_lat)
        self.output_shape = tuple(int(v) for v in output_shape)
        self.generator_id = generator_id
        d_pix = int(np.prod(self.output_shape))
        rng = np.random.default_rng(seed_seq)
        self.weight = rng.standard_normal((d_pix, self.d_lat)) / math.sqrt(self.d_lat)
        self.bias = 0.5 * rng.standard_normal(d_pix)

    def generate(self, latent: LatentCode) -> ImageSample:
        return ImageSample(self.generate_vjp(latent.values)[0])

    def vjp(self, latent_values: np.ndarray, image_cotangent: np.ndarray) -> np.ndarray:
        return self.generate_vjp(latent_values)[1](image_cotangent)

    def generate_vjp(self, latent_values: np.ndarray):
        """The image and a pullback that reuses its tanh activation."""
        _check_latent(self, latent_values)
        act = np.tanh(self.weight @ latent_values + self.bias)

        def pullback(image_cotangent: np.ndarray) -> np.ndarray:
            return self.weight.T @ ((1.0 - act * act) * image_cotangent.reshape(-1))

        return act.reshape(self.output_shape), pullback


class SyntheticEmbedder(EmbedderHandle):
    """Unit-normalized seeded linear map of the flattened image.

    Distinct seeds give genuinely different models, which is what makes
    cross-model evaluation informative.  ``tau_F`` is None at construction.
    World building attaches an EER calibration to it, which runs on the
    first read and is cached; assigning ``tau_F`` sets the value and drops
    any calibration not yet run.
    """

    supports_gradient = True

    def __init__(self, d_emb: int, input_shape: Tuple[int, int, int], seed_seq,
                 model_id: str):
        self.d_emb = int(d_emb)
        self.input_shape = tuple(int(v) for v in input_shape)
        self.model_id = model_id
        self.tau_F = None
        d_pix = int(np.prod(self.input_shape))
        rng = np.random.default_rng(seed_seq)
        self.weight = rng.standard_normal((self.d_emb, d_pix)) / math.sqrt(d_pix)

    @property
    def tau_F(self) -> Optional[float]:
        """The decision threshold, calibrated at minimum EER on first read
        when a calibration is attached."""
        if self._tau_F_calibration is not None:
            # Looked up at call time so that patched evaluation functions
            # (counters, tracers) see the call.
            from . import evaluation
            images_by_identity, seed = self._tau_F_calibration
            cal = evaluation.calibration_set_from_images(
                images_by_identity, self, seed=seed)
            self._tau_F, _eer = evaluation.compute_eer_threshold(cal)
            self._tau_F_calibration = None
        return self._tau_F

    @tau_F.setter
    def tau_F(self, value: Optional[float]):
        self._tau_F = value
        self._tau_F_calibration = None

    def _attach_tau_F_calibration(self, images_by_identity, seed):
        """Calibrate ``tau_F`` on these images when it is first read."""
        self._tau_F_calibration = (images_by_identity, seed)

    def embed(self, image: ImageSample) -> EmbeddingVector:
        return EmbeddingVector(self.embed_vjp(image.values)[0])

    def embed_batch(self, images: np.ndarray) -> np.ndarray:
        """One matmul for the whole stack; the same checks as ``embed``."""
        if images.ndim != 4 or images.shape[1:] != self.input_shape:
            raise ShapeMismatch(
                f"embedder {self.model_id}: image stack shape {images.shape} != "
                f"(B,) + {self.input_shape}")
        raw = images.reshape(len(images), -1) @ self.weight.T
        norms = np.linalg.norm(raw, axis=1)
        if np.any(norms == 0.0):
            raise ZeroNormEmbedding(f"embedder {self.model_id}: raw embedding is zero")
        if not np.all(np.isfinite(norms)):
            raise ValueError("embedding entries must be finite")
        return raw / norms[:, None]

    def vjp(self, image: ImageSample, embedding_cotangent: np.ndarray) -> np.ndarray:
        return self.embed_vjp(image.values)[1](embedding_cotangent)

    def embed_vjp(self, image: np.ndarray):
        """The unit embedding and a pullback that reuses its raw embedding
        and norm."""
        _check_image(self.input_shape, image, f"embedder {self.model_id}")
        raw = self.weight @ image.reshape(-1)
        norm = np.linalg.norm(raw)
        if norm == 0.0:
            raise ZeroNormEmbedding(f"embedder {self.model_id}: raw embedding is zero")
        if not math.isfinite(norm):
            # A finite norm means every entry of raw, and so of unit, is finite.
            raise ValueError("embedding entries must be finite")
        unit = raw / norm

        def pullback(embedding_cotangent: np.ndarray) -> np.ndarray:
            # Backprop through v / ||v||.
            cot_raw = (embedding_cotangent
                       - np.dot(unit, embedding_cotangent) * unit) / norm
            return (self.weight.T @ cot_raw).reshape(self.input_shape)

        return unit, pullback


class SyntheticDetector(DetectorHandle):
    """Sigmoid of the image's correlation with a fixed template direction.

    The template is the generator's bias-field prototype, so on-manifold
    generations correlate strongly while degenerate images do not.  The
    (offset, slope) pair is calibrated by the world builder so that every
    identity-derived image scores at least 0.999.
    """

    def __init__(self, template: np.ndarray, offset: float, slope: float,
                 detector_id: str = "synthetic-detector",
                 input_shape: Optional[Tuple[int, int, int]] = None):
        t = np.asarray(template, dtype=np.float64).reshape(-1)
        self.template = t / np.linalg.norm(t)
        self.offset = float(offset)
        self.slope = float(slope)
        self.detector_id = detector_id
        self.input_shape = tuple(input_shape) if input_shape is not None else None
        self.input_size = t.size

    def detect(self, image: ImageSample) -> float:
        if self.input_shape is not None and image.shape != self.input_shape:
            raise ShapeMismatch(
                f"detector {self.detector_id}: image shape {image.shape} != "
                f"{self.input_shape}")
        flat = image.flat()
        if flat.size != self.input_size:
            raise ShapeMismatch(
                f"detector {self.detector_id}: image size {flat.size} != {self.input_size}"
            )
        norm = np.linalg.norm(flat)
        corr = 0.0 if norm == 0.0 else float(flat @ self.template / norm)
        score = 1.0 / (1.0 + math.exp(-self.slope * (corr - self.offset)))
        return min(1.0, max(0.0, score))


@dataclass(frozen=True, eq=False)
class IdentityRecord:
    identity_id: str
    center: np.ndarray
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
        if not self.identity_noise > 0:
            raise ConfigInvalid("identity_noise must be > 0")


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
    detector: SyntheticDetector
    identities: Tuple[IdentityRecord, ...]

    @property
    def identity_images(self) -> Tuple[Tuple[ImageSample, ...], ...]:
        return tuple(rec.images for rec in self.identities)


# Stream ids for deriving independent RNGs from the master seed.
_STREAM_GENERATOR = 0
_STREAM_EMBEDDER = 1
_STREAM_IDENTITIES = 3
_STREAM_IMPOSTORS = 4


def impostor_stream(master_seed: int, k: int) -> list:
    """Seed of the impostor pairs that calibrate embedder ``k``'s ``tau_F``.

    The world's lazy ``tau_F`` and the ``calibrate`` command both draw from
    it, so the two thresholds are the same float.
    """
    return [master_seed, _STREAM_IMPOSTORS, k]


_DETECTOR_MARGIN = 0.05
_DETECTOR_SLOPE = 200.0


def make_synthetic_world(config: WorldConfig, master_seed: int) -> SyntheticWorld:
    """Build a fully deterministic desk-scale world.

    All parameters derive from (config, master_seed).  Each embedder's
    decision threshold ``tau_F`` is calibrated at minimum EER on the
    world's own genuine/impostor pairs when it is first read, so a command
    that never reads it never pays for it; the calibration draws its
    impostor pairs from its own seed, so the value does not depend on when
    it is read.  A world without genuine pairs leaves ``tau_F`` None.  The
    detector is calibrated so every identity image clears 0.999.
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
    identities = []
    for k in range(config.n_identities):
        center = rng_id.standard_normal(config.d_lat)
        noise = rng_id.standard_normal((config.images_per_identity, config.d_lat))
        latents = center[None, :] + config.identity_noise * noise
        images = tuple(
            gen.generate(LatentCode(latents[j], seed=-1))
            for j in range(config.images_per_identity)
        )
        identities.append(IdentityRecord(f"id{k:03d}", center, latents, images))
    identities = tuple(identities)

    detector = _calibrate_detector(gen, identities)
    images_by_identity = [rec.images for rec in identities]
    if any(len(images) >= 2 for images in images_by_identity):
        for k, emb in enumerate(embedders):
            emb._attach_tau_F_calibration(
                images_by_identity, impostor_stream(master_seed, k))

    return SyntheticWorld(
        config=config,
        master_seed=master_seed,
        generator=gen,
        embedders=embedders,
        detector=detector,
        identities=identities,
    )


def _calibrate_detector(gen: SyntheticGenerator, identities) -> SyntheticDetector:
    template = np.tanh(gen.bias)
    template = template / np.linalg.norm(template)
    corrs = [
        float(img.flat() @ template / np.linalg.norm(img.flat()))
        for rec in identities for img in rec.images
    ]
    offset = min(corrs) - _DETECTOR_MARGIN
    return SyntheticDetector(template, offset, _DETECTOR_SLOPE,
                             input_shape=gen.output_shape)


def loss_eval(g: GeneratorHandle, f: EmbedderHandle, latent: LatentCode,
              target: EmbeddingVector) -> float:
    """Objective value: cosine similarity of the generated image's embedding
    with the target embedding."""
    return cosine_similarity(f.embed(g.generate(latent)), target)


def loss_gradient(g: GeneratorHandle, f: EmbedderHandle, latent: LatentCode,
                  target: EmbeddingVector) -> np.ndarray:
    """Gradient of loss_eval with respect to the latent values."""
    if not (g.supports_gradient and f.supports_gradient):
        raise GradientUnavailable("generator or embedder does not expose gradients")
    x = latent.values
    image = g.generate(latent)
    t = target.values
    t_norm = np.linalg.norm(t)
    if t_norm == 0.0:
        raise ZeroNormEmbedding("target embedding has zero norm")
    t_hat = t / t_norm
    # loss = e . t_hat with e already unit-norm; the normalization
    # Jacobian lives inside the embedder's vjp.
    cot_embedding = t_hat
    cot_image = f.vjp(image, cot_embedding)
    return g.vjp(x, cot_image)


class QueryLedger:
    """Exact count of target-model evaluations, split into the selection
    phase (q_topn) and the refinement phase (q_adv).

    When ``q_max`` is set the ledger refuses to overrun it; refiners are
    expected to check ``remaining_adv()`` first, so a raise here indicates
    a bookkeeping bug rather than a user error.
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

    def remaining(self) -> Optional[int]:
        if self.q_max is None:
            return None
        return self.q_max - self.total

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
    any gradient request regardless of what the handles could provide.
    Gradients in white-box sessions are not charged; queries count
    objective evaluations only.
    """

    def __init__(self, generator: GeneratorHandle, embedder: EmbedderHandle,
                 ledger: QueryLedger, allow_gradient: bool):
        self.generator = generator
        self.embedder = embedder
        self.ledger = ledger
        self.allow_gradient = allow_gradient

    def loss(self, latent_values: np.ndarray, target: EmbeddingVector) -> float:
        """The objective at one point (one query)."""
        return self._forward(latent_values, target)[0]

    def value_and_grad(self, latent_values: np.ndarray, target: EmbeddingVector):
        """``(objective, grad_fn)`` from one forward pass (one query).

        ``grad_fn()`` returns the gradient with respect to the latent values
        from the kept activations; it is not charged and equals
        ``loss_gradient`` at the same point.
        """
        if not self.allow_gradient:
            raise GradientUnavailable("black-box session: gradients are out of reach")
        if not (self.generator.supports_gradient and self.embedder.supports_gradient):
            raise GradientUnavailable("generator or embedder does not expose gradients")
        return self._forward(latent_values, target)

    def _forward(self, latent_values, target: EmbeddingVector):
        # The value is cosine_similarity's arithmetic and the gradient
        # loss_gradient's, op for op, so results match loss_eval and
        # loss_gradient bit for bit.
        self.ledger.charge_adv(1)
        x = _as_float_vector(latent_values)
        image, generator_pullback = self.generator.generate_vjp(x)
        e, embedder_pullback = self.embedder.embed_vjp(image)
        t = target.values
        if e.size != t.size:
            raise DimensionMismatch(f"embedding lengths differ: {e.size} vs {t.size}")
        e_norm = np.linalg.norm(e)
        t_norm = np.linalg.norm(t)
        if e_norm == 0.0 or t_norm == 0.0:
            raise ZeroNormEmbedding("cosine similarity undefined for zero-norm embedding")
        s = min(1.0, max(-1.0, float(np.dot(e, t) / (e_norm * t_norm))))

        def grad_fn() -> np.ndarray:
            return generator_pullback(embedder_pullback(t / t_norm))

        return s, grad_fn
