"""Text encoder: OIE triples map to three per-slot unit vectors, KG
entries to one unit vector.

The built-in reference encoder replaces a pretrained transformer with
hashed word/character-trigram features, a trainable feature table and
linear projections. ``encode_batch`` is its only forward pass: the
pre-ranker's trainer and ``ReferenceEncoder`` both call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import hashlib
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import OieTriple, oie_text, oie_uid
from .errors import DataError, NumericError
from .io import load_arrays, reading_artifact, save_arrays
from .kg import KgEntry
from .text import MARKER_TOKENS

_MARKER_BUCKETS = {token: i for i, token in enumerate(MARKER_TOKENS)}
_N_RESERVED = len(MARKER_TOKENS)
_EMBED_CHUNK = 64  # triples or entries per forward pass; queries per scoring product


def _hash_feature(feature: str, space: int) -> int:
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % space


def _token_buckets(token: str, space: int) -> tuple[int, ...]:
    """Bucket ids of one whitespace token: its marker bucket, or its
    lowercased word and then its boundary-marked character trigrams."""
    if token in _MARKER_BUCKETS:
        return (_MARKER_BUCKETS[token],)
    word = token.lower()
    padded = f"^{word}$"
    features = ["w:" + word] + ["t:" + padded[i : i + 3] for i in range(len(padded) - 2)]
    return tuple(_N_RESERVED + _hash_feature(feature, space) for feature in features)


class FeatureHasher:
    """Compiles texts for one bucket count. A text's compiled form is the
    bucket ids of its features in order, a repeated feature repeated: per
    whitespace token its marker bucket, or its lowercased word and then its
    boundary-marked character trigrams. Reserved marker tokens map to their
    dedicated buckets and are never hashed. The hasher memoizes the compiled
    form per text and the bucket ids per raw token."""

    def __init__(self, buckets: int):
        if buckets <= _N_RESERVED:
            raise ValueError(f"bucket count must exceed {_N_RESERVED}")
        self.buckets = buckets
        self._cache: dict[str, tuple[int, ...]] = {}
        self._token_cache: dict[str, tuple[int, ...]] = {}

    def compile(self, text: str) -> tuple[int, ...]:
        hit = self._cache.get(text)
        if hit is not None:
            return hit
        memo, space = self._token_cache, self.buckets - _N_RESERVED
        ids: list[int] = []
        for token in text.split():
            token_ids = memo.get(token)
            if token_ids is None:
                token_ids = memo[token] = _token_buckets(token, space)
            ids += token_ids
        compiled = self._cache[text] = tuple(ids)
        return compiled


@dataclass(frozen=True)
class EncoderConfig:
    dim: int = 200
    hidden: int = 64
    buckets: int = 2**18

    def __post_init__(self):
        if min(self.dim, self.hidden) < 1 or self.buckets <= _N_RESERVED:
            raise ValueError(f"dim, hidden must be positive, buckets above {_N_RESERVED}")


@dataclass
class ReferenceEncoderParams:
    """Trainable state of the reference encoder.

    The (buckets, hidden) feature table is sparse: ``feature_table`` holds
    only the rows of the sorted bucket ids ``table_ids``. Every other row
    is still its seeded init, which ``rows_of`` draws on first use."""

    buckets: int
    hidden: int
    table_ids: np.ndarray  # (rows,) sorted int64 bucket ids
    feature_table: np.ndarray  # (rows, hidden)
    slot_projection: np.ndarray  # (2*hidden, dim)
    entry_projection: np.ndarray  # (2*hidden, dim)
    rng_seed: int
    # derived from table_ids by _positions, never saved or hashed:
    # (the table_ids it maps, position + 1 per bucket id, 0 if not held)
    _bucket_map: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def dim(self) -> int:
        return self.slot_projection.shape[1]

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """Positions in ``feature_table`` of the bucket ids ``ids``; rows
        not held yet are drawn from the seeded stream and inserted."""
        positions = self._positions(ids)
        held = positions >= 0
        if held.all():
            return positions
        new_ids = np.unique(ids[~held])
        at = np.searchsorted(self.table_ids, new_ids)
        self.feature_table = np.insert(self.feature_table, at, self._init_rows(new_ids), axis=0)
        self.table_ids = np.insert(self.table_ids, at, new_ids)
        return self._positions(ids)

    def _positions(self, ids: np.ndarray) -> np.ndarray:
        """Row positions of ``ids``, -1 where no row is held, gathered from a
        bucket -> position + 1 map rebuilt whenever ``table_ids`` is replaced.
        The map is zero-allocated, so only the pages of used buckets cost memory."""
        if self._bucket_map is None or self._bucket_map[0] is not self.table_ids:
            shifted = np.zeros(self.buckets, dtype=np.int32)
            shifted[self.table_ids] = np.arange(1, len(self.table_ids) + 1, dtype=np.int32)
            self._bucket_map = (self.table_ids, shifted)
        return self._bucket_map[1][ids] - 1

    def _init_rows(self, ids: np.ndarray) -> np.ndarray:
        """Rows ``ids`` (sorted, unique) of ``init_params``' dense table:
        ``uniform`` takes one PCG64 draw per double, so each run of
        consecutive ids is one jump ahead and one draw."""
        rng = np.random.default_rng(self.rng_seed)
        bound = 1.0 / np.sqrt(self.hidden)
        rows = np.empty((len(ids), self.hidden))
        starts = np.flatnonzero(np.diff(ids, prepend=-2) != 1)
        position = 0  # the next row the stream would draw
        for start, end in zip(starts, [*starts[1:], len(ids)]):
            rng.bit_generator.advance(int(ids[start] - position) * self.hidden)
            rows[start:end] = rng.uniform(-bound, bound, size=(end - start, self.hidden))
            position = int(ids[end - 1]) + 1
        return rows

    def copy(self) -> "ReferenceEncoderParams":
        return replace(self, **{name: getattr(self, name).copy() for name in _PARAM_ARRAYS})


def init_params(config: EncoderConfig, seed: int) -> ReferenceEncoderParams:
    """Seeded uniform init: feature table in ±1/sqrt(hidden), projections
    in ±1/sqrt(2*hidden), drawn from one stream in that order. No table row
    is held: the stream jumps over the table to draw the projections."""
    rng = np.random.default_rng(seed)
    h = config.hidden
    rng.bit_generator.advance(config.buckets * h)
    proj_bound = 1.0 / np.sqrt(2 * h)
    return ReferenceEncoderParams(
        buckets=config.buckets,
        hidden=h,
        table_ids=np.zeros(0, dtype=np.int64),
        feature_table=np.zeros((0, h)),
        slot_projection=rng.uniform(-proj_bound, proj_bound, size=(2 * h, config.dim)),
        entry_projection=rng.uniform(-proj_bound, proj_bound, size=(2 * h, config.dim)),
        rng_seed=seed,
    )


def _normalize_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise NumericError("cannot normalize zero or non-finite vector")
    return z / norms, norms


@dataclass
class Forward:
    """Unit slot and entry vectors of one ``encode_batch``, plus what the
    trainer's backward reads: the dense (texts, rows) mean ``weights`` over
    the sorted feature-table positions ``rows`` the batch touched, whose
    product with those rows is the texts' segments; projection inputs;
    pre-normalization norms."""

    rows: np.ndarray
    weights: np.ndarray
    slot_inputs: np.ndarray
    slot_vectors: np.ndarray
    slot_norms: np.ndarray
    entry_inputs: np.ndarray
    entry_vectors: np.ndarray
    entry_norms: np.ndarray


def render_slots(triple: OieTriple, with_context: bool = False) -> tuple[str, str, str, str]:
    """The texts ``encode_batch`` takes for ``triple``: its slots, then the triple text."""
    return (*triple.slots, oie_text(triple, with_context))


def render_entry(entry: KgEntry, mask_description: bool = False) -> tuple[str, str]:
    """The label and description texts of ``entry``; a masked or missing description is ""."""
    return entry.label, "" if mask_description or entry.description is None else entry.description


def encode_batch(
    params: ReferenceEncoderParams,
    hasher: FeatureHasher,
    slot_texts: Sequence[tuple[str, str, str, str]],
    entry_texts: Sequence[tuple[str, str]],
) -> Forward:
    """The reference encoder's forward pass over ``render_slots`` texts per
    OIE triple and ``render_entry`` texts per entry. Each text maps to the
    weighted mean of its feature-table rows; a slot projects [its segment,
    its triple's], an entry [label segment, description segment], normalized
    to unit length. With b triples, ``slot_vectors`` holds the b subjects,
    then relations, then objects."""
    b, m = len(slot_texts), len(entry_texts)
    texts = [t[part] for part in range(4) for t in slot_texts] + [
        t[part] for part in range(2) for t in entry_texts
    ]
    compiled = [hasher.compile(t) for t in texts]
    lengths = np.fromiter(map(len, compiled), dtype=np.int64, count=len(texts))
    ids = np.fromiter(chain.from_iterable(compiled), dtype=np.int64, count=int(lengths.sum()))
    # one count of every (text, bucket id) pair: each cell of weights is
    # written once, a feature's count over its text's feature count; a
    # featureless text is a zero row
    pairs, counts = np.unique(
        np.repeat(np.arange(len(texts)), lengths) * params.buckets + ids, return_counts=True
    )
    texts_of, bucket_ids = np.divmod(pairs, params.buckets)
    rows, columns = np.unique(params.rows_of(bucket_ids), return_inverse=True)
    weights = np.zeros((len(texts), len(rows)))
    weights[texts_of, columns] = counts / lengths[texts_of]
    segments = weights @ params.feature_table[rows]
    slots, triples, labels, descriptions = np.split(segments, [3 * b, 4 * b, 4 * b + m])
    u = np.concatenate([slots, np.tile(triples, (3, 1))], axis=1)
    o_hat, o_norms = _normalize_rows(u @ params.slot_projection)
    v = np.concatenate([labels, descriptions], axis=1)
    k_hat, k_norms = _normalize_rows(v @ params.entry_projection)
    return Forward(rows, weights, u, o_hat, o_norms, v, k_hat, k_norms)


class ReferenceEncoder:
    """Inference wrapper over frozen reference-encoder params: every
    embedding is a row of ``encode_batch``, so slots see cross-slot context
    through the triple segment. Single lookups are cached for frozen params."""

    def __init__(self, params: ReferenceEncoderParams):
        self.params = params
        self.dim = params.dim
        self.hasher = FeatureHasher(params.buckets)
        self._slot_cache: dict[tuple[str, bool], tuple[np.ndarray, ...]] = {}
        self._entry_cache: dict[tuple[str, bool], np.ndarray] = {}

    def slot_embed(
        self, triple: OieTriple, with_context: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.slot_embeds([triple], with_context)[0]

    def slot_embeds(
        self, triples: Sequence[OieTriple], with_context: bool = False
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(subject, relation, object) embeddings per triple, in input order.
        The distinct uncached triples are embedded in order, one forward per
        64-triple chunk, so a missing sentence names the first such triple."""
        keys = [(oie_uid(t), with_context) for t in triples]
        pending = list({k: t for k, t in zip(keys, triples) if k not in self._slot_cache}.items())
        for start in range(0, len(pending), _EMBED_CHUNK):
            chunk = pending[start : start + _EMBED_CHUNK]
            texts = [render_slots(triple, with_context) for _, triple in chunk]
            subjects, relations, objects = np.split(
                encode_batch(self.params, self.hasher, texts, ()).slot_vectors, 3
            )
            for (key, _), *vectors in zip(chunk, subjects, relations, objects):
                self._slot_cache[key] = tuple(vectors)
        return [self._slot_cache[key] for key in keys]

    def entry_embed(self, entry: KgEntry, mask_description: bool = False) -> np.ndarray:
        key = (entry.id, mask_description or entry.description is None)
        hit = self._entry_cache.get(key)
        if hit is None:
            hit = self._entry_cache[key] = self.entry_embeds([entry], mask_description)[0]
        return hit

    def entry_embeds(
        self, entries: Sequence[KgEntry], mask_description: bool = False
    ) -> np.ndarray:
        """Stacked entry embeddings of one forward over ``entries``; no cache."""
        texts = [render_entry(e, mask_description) for e in entries]
        return encode_batch(self.params, self.hasher, (), texts).entry_vectors


# ---------------------------------------------------------------------------
# Params persistence: the shared named-array format (io.save_arrays).

_PARAM_ARRAYS = {
    "table_ids": "<i8", "feature_table": "<f8", "slot_projection": "<f8", "entry_projection": "<f8"
}


def save_params(
    params: ReferenceEncoderParams,
    path: str | Path,
    tau: float | None = None,
    header: dict | None = None,
) -> None:
    scalars = {"format": "reference-encoder", "rng_seed": params.rng_seed,
               "buckets": params.buckets, "hidden": params.hidden, "tau": tau}
    arrays = {name: np.asarray(getattr(params, name), dtype=dtype)
              for name, dtype in _PARAM_ARRAYS.items()}
    save_arrays(path, {**(header or {}), **scalars}, arrays)


def load_params(path: str | Path) -> tuple[ReferenceEncoderParams, float | None]:
    header, arrays = load_arrays(path, "reference-encoder", _PARAM_ARRAYS)
    ids, table, slot, entry = arrays.values()
    with reading_artifact(path):
        buckets, hidden, seed = header["buckets"], header["hidden"], header["rng_seed"]
        if not (type(buckets) is type(hidden) is type(seed) is int and seed >= 0):
            raise DataError(f"{path}: buckets and hidden must be integers, rng_seed one >= 0")
        if not (ids.ndim == 1 and table.shape == (len(ids), hidden) and slot.ndim == 2
                and slot.shape == entry.shape and slot.shape[0] == 2 * hidden):
            raise DataError(
                f"{path}: {len(ids)} table ids at hidden {hidden} need a ({len(ids)}, {hidden}) "
                f"table and (2*hidden, dim) projections, got shapes {ids.shape}, {table.shape}, "
                f"{slot.shape}, {entry.shape}"
            )
        # the config's range checks: dim, hidden positive, buckets above the markers
        EncoderConfig(dim=slot.shape[1], hidden=hidden, buckets=buckets)
        if len(ids) and not (ids[0] >= 0 and ids[-1] < buckets and np.all(ids[1:] > ids[:-1])):
            raise DataError(f"{path}: table ids must be strictly increasing within [0, {buckets})")
        tau = header["tau"]
        params = ReferenceEncoderParams(
            buckets=buckets, hidden=hidden, **arrays, rng_seed=seed
        )
        return params, None if tau is None else float(tau)
