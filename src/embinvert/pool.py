"""Reusable pool of screened latent codes with cached generations.

Built once per generator and reused across targets: candidates are drawn
from sequential seeds, screened for Gaussian normality first (cheap, no
generation needed), then generated and screened for face presence.  The
normality screen runs only inside build_pool: one k2_pvalues call per chunk
of candidates, the row-wise code of k2_test, so each survivor's stored p_K
equals k2_test of its latent bit for bit.  Both the latent and its
generation are cached so later selection stages never regenerate.

Pool entries are target-agnostic by construction; nothing embedding- or
identity-specific is stored.  Because of that, the embeddings of the
cached generations under one embedder are the same for every target:
``LatentPool.embeddings`` computes them once per embedder handle and keeps
them in memory beside the pool.  They are never written to the file.

File format (version 1, little-endian):
    magic "LPOOL" | u16 version | u8 checksum algo (1 = crc32)
    u32 d_lat | u32 C | u32 H | u32 W | u32 V
    f64 tau_K | f64 tau_D | i64 build_seed | u32 entry count
    u16 generator id length | utf-8 generator id
    per entry: i64 seed | f64 p_K | f64 p_D | f32[d_lat] latent
               | f32[C*H*W] image | u32 crc32 of the entry bytes
    u32 crc32 of everything before it
Latent and image payloads are stored as IEEE-754 32-bit floats; in-memory
pools hold float32-representable values, so round-trips are lossless.
"""
import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .core import ImageSample, LatentCode
from .errors import (
    ChecksumMismatch,
    ConfigInvalid,
    DimensionMismatch,
    FormatVersionMismatch,
    IoFailure,
    PoolExhausted,
    ZeroNormEmbedding,
)
from .fileio import replace_file
from .models import DetectorHandle, EmbedderHandle, GeneratorHandle
from .normality import k2_pvalues

_MAGIC = b"LPOOL"
_FORMAT_VERSION = 1
_CHECKSUM_CRC32 = 1

DEFAULT_MAX_DRAW_FACTOR = 10_000

_BATCH = 4096


@dataclass(frozen=True)
class PoolEntry:
    latent: LatentCode
    image: ImageSample


@dataclass(frozen=True)
class PoolBuildStats:
    drawn: int
    normality_accepted: int
    detector_accepted: int

    @property
    def normality_rate(self) -> float:
        return self.normality_accepted / self.drawn if self.drawn else 0.0


@dataclass(frozen=True)
class LatentPool:
    entries: Tuple[PoolEntry, ...]
    V: int
    tau_K: float
    tau_D: float
    generator_id: str
    build_seed: int
    stats: Optional[PoolBuildStats] = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.entries) != self.V:
            raise ConfigInvalid(
                f"pool holds {len(self.entries)} entries but V = {self.V}")
        for e in self.entries:
            if e.latent.p_K is None or e.latent.p_K < self.tau_K:
                raise ConfigInvalid("pool entry violates the normality threshold")
            if e.latent.p_D is None or e.latent.p_D < self.tau_D:
                raise ConfigInvalid("pool entry violates the detection threshold")

    @property
    def d_lat(self) -> int:
        return len(self.entries[0].latent)

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return self.entries[0].image.shape

    @cached_property
    def image_stack(self) -> np.ndarray:
        """Every cached generation as one read-only (V, C, H, W) array.

        Stacked on first use and kept, so selection reuses it for every
        target instead of restacking the pool.
        """
        stack = np.stack([e.image.values for e in self.entries])
        stack.flags.writeable = False
        return stack

    @cached_property
    def _embedding_cache(self) -> dict:
        # id(handle) -> (handle, rows, norms).  Holding the handle keeps its
        # id from being reused by another object while the entry lives.
        return {}

    def embeddings(self, embedder: EmbedderHandle) -> Tuple[np.ndarray, np.ndarray]:
        """Every cached generation embedded by ``embedder``: ``(rows, norms)``.

        The first call for a handle makes one ``embed_batch`` call over
        ``image_stack`` and keeps the read-only (V, d_emb) rows and their L2
        norms; later calls return them with no embedder work.  Entries are
        keyed by handle identity, not ``model_id``, so two handles sharing an
        id still get their own rows.  A fill that raises caches nothing, so
        every later call raises again.  The cache is not a field: ``==``,
        ``repr`` and the saved file ignore it.
        """
        cached = self._embedding_cache.get(id(embedder))
        if cached is not None:
            return cached[1], cached[2]
        rows = embedder.embed_batch(self.image_stack).view()
        if rows.ndim != 2 or rows.shape[0] != len(self.entries):
            raise DimensionMismatch(
                f"embeddings of shape {rows.shape} for {len(self.entries)} "
                "images; expected one row per image")
        norms = np.linalg.norm(rows, axis=1)
        if np.any(norms == 0.0):
            raise ZeroNormEmbedding("cosine similarity undefined for zero-norm embedding")
        rows.flags.writeable = False
        norms.flags.writeable = False
        self._embedding_cache[id(embedder)] = (embedder, rows, norms)
        return rows, norms


def sample_latent(d_lat: int, seed: int) -> LatentCode:
    """Deterministic standard-normal draw for (d_lat, seed).

    Values are quantized to float32 precision so that pool persistence is
    exactly lossless; screening metadata stays unset.
    """
    if d_lat <= 0:
        raise ValueError(f"d_lat must be positive, got {d_lat}")
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(d_lat).astype(np.float32).astype(np.float64)
    return LatentCode(values=values, seed=seed)


def screen_face(image: ImageSample, detector: DetectorHandle,
                tau_D: float) -> Tuple[bool, float]:
    """Run the face detector; accept iff confidence >= tau_D.

    Returns (accepted, p_D).  Confidences never exceed 1, so a threshold
    above 1 rejects every image.
    """
    p_D = detector.detect(image)
    return p_D >= tau_D, p_D


def build_pool(generator: GeneratorHandle, detector: DetectorHandle, V: int,
               tau_K: float, tau_D: float, build_seed: int,
               max_draw_factor: int = DEFAULT_MAX_DRAW_FACTOR,
               progress=None) -> LatentPool:
    """Draw, screen, generate, screen again; stop at V accepted entries.

    Candidate i is drawn from seed build_seed + i.  The normality screen
    runs before any generation (cheap filter first); the detector sees
    only normality survivors, so generator invocations equal the count of
    normality acceptances.  Raises PoolExhausted once max_draw_factor * V
    candidates have been drawn without filling the pool.
    """
    if V < 1:
        raise ConfigInvalid(f"V must be >= 1, got {V}")
    if not 0.0 <= tau_K <= 1.0 or not 0.0 <= tau_D <= 1.0:
        raise ConfigInvalid("thresholds must be in [0, 1]")
    cap = max_draw_factor * V
    entries: List[PoolEntry] = []
    drawn = 0
    n_norm = 0
    n_face = 0
    while len(entries) < V:
        if drawn >= cap:
            raise PoolExhausted(
                f"drew {drawn} candidates (cap {cap}) but accepted only "
                f"{len(entries)} of {V}")
        chunk = min(_BATCH, cap - drawn)
        codes = [sample_latent(generator.d_lat, build_seed + drawn + i)
                 for i in range(chunk)]
        p_K = k2_pvalues(np.stack([c.values for c in codes]))
        for i in np.flatnonzero(p_K >= tau_K).tolist():
            n_norm += 1
            code = codes[i].with_screening(p_K=float(p_K[i]))
            image = generator.generate(code)
            image = ImageSample(
                image.values.astype(np.float32).astype(np.float64))
            face_ok, p_D = screen_face(image, detector, tau_D)
            if not face_ok:
                continue
            n_face += 1
            entries.append(PoolEntry(latent=code.with_screening(p_D=p_D),
                                     image=image))
            if len(entries) == V:
                # Candidates after the V-th acceptance in this chunk were
                # drawn speculatively; only count up to the winner.
                drawn += i + 1
                break
        else:
            drawn += chunk
            if progress is not None:
                progress(drawn, len(entries))
            continue
        break
    stats = PoolBuildStats(drawn=drawn, normality_accepted=n_norm,
                           detector_accepted=n_face)
    return LatentPool(entries=tuple(entries), V=V, tau_K=tau_K, tau_D=tau_D,
                      generator_id=generator.generator_id,
                      build_seed=build_seed, stats=stats)


def save_pool(pool: LatentPool, path):
    """Write the versioned binary pool file described in the module docstring."""
    gen_id = pool.generator_id.encode("utf-8")
    c, h, w = pool.image_shape
    buf = bytearray()
    buf += _MAGIC
    buf += struct.pack("<HB", _FORMAT_VERSION, _CHECKSUM_CRC32)
    buf += struct.pack("<5I", pool.d_lat, c, h, w, pool.V)
    buf += struct.pack("<ddqI", pool.tau_K, pool.tau_D, pool.build_seed,
                       len(pool.entries))
    buf += struct.pack("<H", len(gen_id)) + gen_id
    for e in pool.entries:
        entry = bytearray()
        entry += struct.pack("<qdd", e.latent.seed, e.latent.p_K, e.latent.p_D)
        entry += e.latent.values.astype("<f4").tobytes()
        entry += e.image.values.astype("<f4").tobytes()
        entry += struct.pack("<I", zlib.crc32(bytes(entry)))
        buf += entry
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    try:
        replace_file(path, bytes(buf))
    except OSError as exc:
        raise IoFailure(f"cannot write pool file {path}: {exc}") from exc


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ChecksumMismatch("pool file truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_pool(path) -> LatentPool:
    """Read and verify a pool file; raises on version or checksum problems."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read pool file {path}: {exc}") from exc
    if len(data) < len(_MAGIC) + 4 or data[:len(_MAGIC)] != _MAGIC:
        raise IoFailure(f"{path} is not a latent pool file")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise ChecksumMismatch(f"{path}: whole-file checksum mismatch")

    try:
        return _parse_pool(data[:-4], path)
    except ValueError as exc:
        # Checksums match but a field is out of range: a generator id that
        # is not UTF-8, or a p_K, p_D or pixel the value types reject.
        raise IoFailure(f"{path}: malformed pool file: {exc}") from exc


def _parse_pool(data: bytes, path) -> LatentPool:
    r = _Reader(data)
    r.take(len(_MAGIC))
    version, algo = r.unpack("<HB")
    if version != _FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"{path}: format version {version}, supported {_FORMAT_VERSION}")
    if algo != _CHECKSUM_CRC32:
        raise FormatVersionMismatch(f"{path}: unknown checksum algorithm {algo}")
    d_lat, c, h, w, v = r.unpack("<5I")
    tau_K, tau_D, build_seed, count = r.unpack("<ddqI")
    (id_len,) = r.unpack("<H")
    generator_id = r.take(id_len).decode("utf-8")

    d_pix = c * h * w
    entries = []
    for _ in range(count):
        start = r.pos
        seed, p_K, p_D = r.unpack("<qdd")
        latent = np.frombuffer(r.take(4 * d_lat), dtype="<f4").astype(np.float64)
        image = np.frombuffer(r.take(4 * d_pix), dtype="<f4").astype(np.float64)
        body = r.data[start:r.pos]
        (crc,) = r.unpack("<I")
        if zlib.crc32(body) != crc:
            raise ChecksumMismatch(f"{path}: entry checksum mismatch")
        entries.append(PoolEntry(
            latent=LatentCode(values=latent, seed=seed, p_K=p_K, p_D=p_D),
            image=ImageSample(image.reshape(c, h, w)),
        ))
    return LatentPool(entries=tuple(entries), V=v, tau_K=tau_K, tau_D=tau_D,
                      generator_id=generator_id, build_seed=build_seed)
