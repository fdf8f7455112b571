"""Two-pass reference for the attack objective and its gradient.

``AttackSession`` evaluates the objective and its gradient from one
forward pass; these functions take the plain route, one forward pass for
the value and another for the gradient, and are the tests' reference for
it.  They compose the same handle methods, so results agree bit for bit.
"""
import numpy as np

from embinvert.core import EmbeddingVector, LatentCode, _cosine, cosine_similarity
from embinvert.models import EmbedderHandle, GeneratorHandle

from conftest import forward


def loss_eval(g: GeneratorHandle, f: EmbedderHandle, latent: LatentCode,
              target: EmbeddingVector) -> float:
    """Objective value: cosine similarity of the generated image's embedding
    with the target embedding."""
    return cosine_similarity(forward(f, forward(g, latent)), target)


def loss_gradient(g: GeneratorHandle, f: EmbedderHandle, latent: LatentCode,
                  target: EmbeddingVector) -> np.ndarray:
    """Gradient of loss_eval with respect to the latent values; a
    forward-only handle's pullback raises GradientUnavailable."""
    image, generator_pullback = g.generate_vjp(latent.values)
    e, embedder_pullback = f.embed_vjp(image)
    t = target.values
    _s, t_norm = _cosine(e, t)
    # loss = e . t_hat with e already unit-norm; the normalization
    # Jacobian lives inside the embedder's pullback.
    return generator_pullback(embedder_pullback(t / t_norm))
