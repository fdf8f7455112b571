"""Reusable pool of screened latent codes with cached generations.

Built once per generator and reused across targets: candidates are drawn
from sequential seeds, screened for Gaussian normality first (cheap, no
generation needed), then generated and screened for face presence.
Candidate i is still sample_latent(d_lat, build_seed + i); build_pool draws
a chunk of candidates as one array, bit for bit the same rows: numpy seeds
each row's PCG64 from SeedSequence words hashed for the whole chunk.  The
normality screen runs only inside build_pool: one k2_pvalues call per
chunk (the row-wise code of k2_test) gives the p-value that decides each
acceptance and is stored as p_K.  Survivors are generated and scored a
batch of rows at a time.  Both the latent and its generation are cached so
later selection stages never regenerate.  The screening facts (seed, p_K,
p_D) are ``PoolEntry`` fields; a ``LatentCode`` carries none of them.

Pool entries are target-agnostic by construction; nothing embedding- or
identity-specific is stored.  Because of that, the embeddings of the
cached generations under one embedder are the same for every target:
``LatentPool.embeddings`` computes them once per embedder handle and keeps
them in memory beside the pool.  They are never written to the file.

File format (version 1, little-endian): the ``_HEADER`` struct, the
utf-8 generator id, the entries as one packed array of ``_entry_dtype``
(each ending in the crc32 of its other bytes), then the crc32 of
everything before it.  Latent and image payloads are stored as IEEE-754
32-bit floats; in-memory pools hold float32-representable values, so
round-trips are lossless.  Only ``fileio`` reads and writes the file, and
it maps an OS failure to ``IoFailure`` (exit code 4).
"""
import numbers
import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import ImageSample, LatentCode
from .errors import (
    ChecksumMismatch,
    ConfigInvalid,
    FormatVersionMismatch,
    IoFailure,
    PoolExhausted,
)
from .fileio import read_file, replace_file
from .models import (DetectorHandle, EmbedderHandle, GeneratorHandle,
                     _embedding_rows, _generated_images)
from .normality import k2_pvalues

_MAGIC = b"LPOOL"
_FORMAT_VERSION = 1
_CHECKSUM_CRC32 = 1
# magic "LPOOL", format version, checksum algorithm (1 = crc32), d_lat,
# C, H, W, V, tau_K, tau_D, build seed, entry count, generator id length.
_HEADER = struct.Struct("<5sHB5IddqIH")

DEFAULT_MAX_DRAW_FACTOR = 10_000

# Seeds are stored as i64 in the pool file.
_MAX_SEED = (1 << 63) - 1

_BATCH = 4096


@dataclass(frozen=True)
class PoolEntry:
    """A screened latent, its cached generation, the candidate seed it was
    drawn from, its normality p-value and its detection confidence."""

    latent: LatentCode
    image: ImageSample
    seed: int
    p_K: float
    p_D: float

    def __post_init__(self):
        for name, v in (("p_K", self.p_K), ("p_D", self.p_D)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


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
    tau_K: float
    tau_D: float
    generator_id: str
    build_seed: int
    stats: Optional[PoolBuildStats] = field(default=None, compare=False)

    def __post_init__(self):
        for e in self.entries:
            if e.p_K < self.tau_K:
                raise ConfigInvalid("pool entry violates the normality threshold")
            if e.p_D < self.tau_D:
                raise ConfigInvalid("pool entry violates the detection threshold")

    @property
    def V(self) -> int:
        return len(self.entries)

    @property
    def d_lat(self) -> int:
        return len(self.entries[0].latent)

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return self.entries[0].image.shape

    @cached_property
    def _slope_matrix(self) -> np.ndarray:
        # pinv of the centred (V, d_lat) latent stack: (d_lat, V).
        latents = np.stack([e.latent.values for e in self.entries])
        return np.linalg.pinv(latents - latents.mean(axis=0))

    def similarity_slope(self, similarities: np.ndarray) -> np.ndarray:
        """The slope g of the least-squares fit ``s ~ a + g . x`` of one
        target's V selection similarities (pool order) on the entry latents.

        The fit matrix depends only on the latents: it is computed on first
        use and kept, and never written to the file.
        A pool whose latents do not vary (V = 1) gives a zero slope.
        """
        return self._slope_matrix @ (similarities - similarities.mean())

    @cached_property
    def _embedding_cache(self) -> dict:
        # id(handle) -> (handle, rows, norms).  Holding the handle keeps its
        # id from being reused by another object while the entry lives.
        return {}

    def embeddings(self, embedder: EmbedderHandle) -> Tuple[np.ndarray, np.ndarray]:
        """Every cached generation embedded by ``embedder``: ``(rows, norms)``.

        The first call for a handle stacks the generations, makes one
        ``embed_batch`` call over the stack and keeps only the read-only
        (V, d_emb) rows and their L2 norms; later calls return them with no
        embedder work.  Entries are keyed by handle identity, not
        ``model_id``, so two handles sharing an id still get their own rows.  A fill that raises caches nothing, so
        every later call raises again.  The cache is not a field: ``==``,
        ``repr`` and the saved file ignore it.
        """
        cached = self._embedding_cache.get(id(embedder))
        if cached is not None:
            return cached[1], cached[2]
        rows, norms = _embedding_rows(
            embedder, np.stack([e.image.values for e in self.entries]))
        # A view, so that the array the embedder returned stays writable.
        rows = rows.view()
        rows.flags.writeable = False
        norms.flags.writeable = False
        self._embedding_cache[id(embedder)] = (embedder, rows, norms)
        return rows, norms


# numpy.random.SeedSequence's hash constants, which _seed_states reproduces
# to seed every row of a block at once.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hashmix(value: np.ndarray, hash_const: int):
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> np.uint32(16)), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64 seed.

    A seed below 2**64 gives the entropy words (low, high).  SeedSequence
    hashes a zero word for each of its four mixing words that the entropy
    does not fill, so a seed below 2**32 (one word) mixes as (low, 0).
    The hash constants do not depend on the seed, so every seed is mixed
    at once over uint32.
    """
    words = [(seeds & np.uint64(_MASK32)).astype(np.uint32),
             (seeds >> np.uint64(32)).astype(np.uint32),
             np.zeros(seeds.shape, np.uint32), np.zeros(seeds.shape, np.uint32)]
    hash_const = _INIT_A
    mixer = []
    for word in words:
        value, hash_const = _hashmix(word, hash_const)
        mixer.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, hash_const = _hashmix(mixer[src], hash_const)
                mixer[dst] = _mix(mixer[dst], value)
    hash_const = _INIT_B
    out = []
    for k in range(8):
        value = mixer[k % 4] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        out.append(value ^ (value >> np.uint32(16)))
    # Little-endian pairs of 32-bit words make the 64-bit words.
    return np.stack(out, axis=1).astype("<u4").view("<u8").astype(np.uint64)


class _RowSeeds(ISeedSequence):
    """Answers each ``generate_state(4, np.uint64)`` of a PCG64 being built with
    the next row of ``_seed_states``: 4 contiguous uint64s, read in place."""

    def __init__(self, states: np.ndarray):
        self._rows = iter(states)

    def generate_state(self, n_words, dtype=np.uint32):
        return next(self._rows)


def _draw_block(d_lat: int, first_seed: int, count: int) -> np.ndarray:
    """A (count, d_lat) block of latents for seeds first_seed, first_seed + 1, ...

    Row i is ``default_rng(first_seed + i).standard_normal(d_lat)`` rounded
    through float32, bit for bit: numpy seeds each row's PCG64 itself, from
    the ``SeedSequence`` words ``_seed_states`` hashes for the whole block.
    """
    if d_lat <= 0:
        raise ValueError(f"d_lat must be positive, got {d_lat}")
    first_seed = int(first_seed)
    if first_seed < 0 or first_seed + count > 1 << 64:
        raise ValueError(
            f"seeds {first_seed}..{first_seed + count - 1} are not in [0, 2**64)")
    seeds = np.arange(count, dtype=np.uint64) + np.uint64(first_seed)
    row_seeds = _RowSeeds(_seed_states(seeds))
    block = np.empty((count, d_lat))
    for row in block:
        np.random.Generator(np.random.PCG64(row_seeds)).standard_normal(out=row)
    return block.astype(np.float32).astype(np.float64)


def sample_latent(d_lat: int, seed: int) -> LatentCode:
    """Deterministic standard-normal draw for (d_lat, seed).

    ``default_rng(seed).standard_normal(d_lat)``, quantized to float32
    precision so that pool persistence is exactly lossless; seeds run over
    [0, 2**64).
    """
    return LatentCode(_draw_block(d_lat, seed, 1)[0])


def check_build_settings(V: int, tau_K: float, tau_D: float,
                         max_draw_factor: int):
    """The rule ``build_pool`` and ``RunConfig.validate`` share: V (the
    config's ``volume``) and max_draw_factor >= 1, tau_K and tau_D in [0, 1]."""
    if V < 1:
        raise ConfigInvalid(f"volume must be >= 1, got {V}")
    if max_draw_factor < 1:
        raise ConfigInvalid(f"max_draw_factor must be >= 1, got {max_draw_factor}")
    for name, tau in (("tau_k", tau_K), ("tau_d", tau_D)):
        if not 0.0 <= tau <= 1.0:
            raise ConfigInvalid(f"{name} must be in [0, 1], got {tau}")


def build_pool(generator: GeneratorHandle, detector: DetectorHandle, V: int,
               tau_K: float, tau_D: float, build_seed: int,
               max_draw_factor: int = DEFAULT_MAX_DRAW_FACTOR,
               progress=None) -> LatentPool:
    """Draw, screen, generate, screen again; stop at V accepted entries.

    Candidate i is sample_latent(d_lat, build_seed + i), drawn a chunk of
    candidates at a time.  The normality screen runs before any generation
    (cheap filter first); the detector sees only normality survivors, so
    generated rows equal the count of normality acceptances.  They go
    through ``generate_batch`` and ``detect_batch`` in batches of at most
    V - accepted rows, each of which one-at-a-time generation reaches too.
    Raises PoolExhausted once max_draw_factor * V candidates have been
    drawn without filling the pool, and ConfigInvalid before drawing if
    check_build_settings rejects the settings or any candidate seed would
    fall outside the pool file's signed 64-bit seed field, or as soon as
    ``_generated_images`` rejects a batch or a batch holds other than one
    detection score in [0, 1] (NaN fails) per image.
    """
    check_build_settings(V, tau_K, tau_D, max_draw_factor)
    cap = max_draw_factor * V
    if build_seed < 0 or build_seed + cap - 1 > _MAX_SEED:
        raise ConfigInvalid(
            f"build seed must be in [0, {_MAX_SEED - cap + 1}] so that all "
            f"{cap} candidate seeds fit in a signed 64-bit field, got {build_seed}")
    name = getattr(detector, "detector_id", type(detector).__name__)
    entries: List[PoolEntry] = []
    drawn = 0
    n_norm = 0
    while len(entries) < V:
        if drawn >= cap:
            raise PoolExhausted(
                f"drew {drawn} candidates (cap {cap}) but accepted only "
                f"{len(entries)} of {V}")
        chunk = min(_BATCH, cap - drawn)
        first_seed = build_seed + drawn
        block = _draw_block(generator.d_lat, first_seed, chunk)
        p = k2_pvalues(block)
        passed = np.flatnonzero(p >= tau_K)
        drawn += chunk
        while passed.size and len(entries) < V:
            batch, passed = passed[:V - len(entries)], passed[V - len(entries):]
            n_norm += len(batch)
            rows = _generated_images(generator, block[batch])
            rows = rows.astype(np.float32).astype(np.float64)
            scores = detector.detect_batch(rows)
            if np.ndim(scores) != 1 or len(scores) != len(batch):
                raise ConfigInvalid(
                    f"detector {name!r} returned scores of shape "
                    f"{np.shape(scores)} for {len(batch)} images")
            for i, p_K, image, p_D in zip(batch.tolist(), p[batch].tolist(),
                                          ImageSample.stack(rows), scores):
                if not (isinstance(p_D, numbers.Real) and 0.0 <= p_D <= 1.0):
                    raise ConfigInvalid(
                        f"detector {name!r} returned {p_D!r}; a face-detection "
                        "confidence must be in [0, 1]")
                if p_D >= tau_D:
                    # A copy: a view of its row would keep the block alive.
                    latent = LatentCode(block[i].copy())
                    entries.append(PoolEntry(latent, image, first_seed + i, p_K, p_D))
        if progress is not None and len(entries) < V:
            progress(drawn, len(entries))
    # The last chunk was drawn speculatively; count candidates only up to
    # the V-th acceptance.
    drawn = entries[-1].seed + 1 - build_seed
    stats = PoolBuildStats(drawn=drawn, normality_accepted=n_norm,
                           detector_accepted=len(entries))
    return LatentPool(entries=tuple(entries), tau_K=tau_K, tau_D=tau_D,
                      generator_id=generator.generator_id,
                      build_seed=build_seed, stats=stats)


def _entry_dtype(d_lat: int, d_pix: int) -> np.dtype:
    """One pool file entry: the CRC covers every byte before it."""
    return np.dtype([("seed", "<i8"), ("p_K", "<f8"), ("p_D", "<f8"),
                     ("latent", "<f4", (d_lat,)), ("image", "<f4", (d_pix,)),
                     ("crc", "<u4")])


def _entry_crcs(entries: np.ndarray) -> List[int]:
    rows = entries.view(np.uint8).reshape(len(entries), entries.dtype.itemsize)
    return [zlib.crc32(row[:-4]) for row in rows]


def save_pool(pool: LatentPool, path):
    """Write the versioned binary pool file described in the module docstring."""
    gen_id = pool.generator_id.encode("utf-8")
    c, h, w = pool.image_shape
    entries = np.zeros(len(pool.entries), _entry_dtype(pool.d_lat, c * h * w))
    entries["seed"] = [e.seed for e in pool.entries]
    entries["p_K"] = [e.p_K for e in pool.entries]
    entries["p_D"] = [e.p_D for e in pool.entries]
    entries["latent"] = [e.latent.values for e in pool.entries]
    entries["image"] = [e.image.flat() for e in pool.entries]
    entries["crc"] = _entry_crcs(entries)
    data = bytearray(_HEADER.pack(
        _MAGIC, _FORMAT_VERSION, _CHECKSUM_CRC32, pool.d_lat, c, h, w, pool.V,
        pool.tau_K, pool.tau_D, pool.build_seed, len(pool.entries), len(gen_id)))
    data += gen_id
    data += entries.data
    data += struct.pack("<I", zlib.crc32(data))
    replace_file(path, data, "pool file")


def load_pool(path) -> LatentPool:
    """Read and verify a pool file.

    Raises ``FormatVersionMismatch`` for an unknown version or checksum
    algorithm, ``ChecksumMismatch`` for a bad or truncated file, and
    ``IoFailure`` for an unreadable file or one whose checksums match but
    whose contents do not make a pool, a latent value that is not finite
    among them.
    """
    data = read_file(path, "pool file")
    if len(data) < len(_MAGIC) + 4 or data[:len(_MAGIC)] != _MAGIC:
        raise IoFailure(f"{path} is not a latent pool file")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    body = memoryview(data)[:-4]
    if zlib.crc32(body) != stored_crc:
        raise ChecksumMismatch(f"{path}: whole-file checksum mismatch")

    try:
        return _parse_pool(body, path)
    except (ValueError, ConfigInvalid) as exc:
        # Checksums match but the contents do not make a pool: V = 0, an
        # entry count other than V, bytes after the last entry, a generator
        # id that is not UTF-8, a latent value that is not finite, or a p_K,
        # p_D or pixel that the value types or the file's own thresholds
        # reject.
        raise IoFailure(f"{path}: malformed pool file: {exc}") from exc


def _parse_pool(data: memoryview, path) -> LatentPool:
    if len(data) < _HEADER.size:
        raise ChecksumMismatch(f"{path}: pool file truncated")
    (_magic, version, algo, d_lat, c, h, w, v, tau_K, tau_D, build_seed, count,
     id_len) = _HEADER.unpack_from(data)
    if version != _FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"{path}: format version {version}, supported {_FORMAT_VERSION}")
    if algo != _CHECKSUM_CRC32:
        raise FormatVersionMismatch(f"{path}: unknown checksum algorithm {algo}")
    if v < 1:
        raise ValueError(f"pool volume V = {v}; a pool holds at least one entry")
    if count != v:
        raise ValueError(f"header holds {count} entries but V = {v}")
    start = _HEADER.size + id_len
    # An entry too large for numpy raises ValueError here.
    dtype = _entry_dtype(d_lat, c * h * w)
    if len(data) < start + count * dtype.itemsize:
        raise ChecksumMismatch(f"{path}: pool file truncated")
    if len(data) > start + count * dtype.itemsize:
        raise ValueError("bytes after the last entry")
    generator_id = str(data[_HEADER.size:start], "utf-8")

    entries = np.frombuffer(data, dtype, count, start)
    if _entry_crcs(entries) != entries["crc"].tolist():
        raise ChecksumMismatch(f"{path}: entry checksum mismatch")
    if not np.isfinite(entries["latent"]).all():
        raise ValueError("a latent value is not finite")
    # Each entry gets its own float64 copies (ImageSample.stack copies each
    # float32 slice): views of one float64 block per column raised the
    # peak RSS of an attack on a V=1000 pool by ~3%.
    return LatentPool(
        entries=tuple(
            PoolEntry(LatentCode(latent.astype(np.float64)), image, seed, p_K, p_D)
            for latent, image, seed, p_K, p_D in zip(
                entries["latent"],
                ImageSample.stack(entries["image"].reshape(count, c, h, w)),
                entries["seed"].tolist(),
                entries["p_K"].tolist(), entries["p_D"].tolist())),
        tau_K=tau_K, tau_D=tau_D, generator_id=generator_id,
        build_seed=build_seed)
