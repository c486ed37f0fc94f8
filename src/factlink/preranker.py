"""Per-slot retrieval against KG entry embeddings and contrastive training.

Retrieval is an exact full scan over a row-normalized matrix (dot product =
cosine); training minimizes temperature-scaled InfoNCE with in-batch
negatives plus global negatives sampled from the whole store.
"""

from __future__ import annotations

import enum
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Alignment, OieTriple, check_training_set
from .encoder import (
    EncoderConfig,
    FeatureHasher,
    ReferenceEncoder,
    ReferenceEncoderParams,
    encode_batch,
    init_params,
    render_entry,
    render_slots,
)
from .errors import (
    DataError,
    DuplicateIdError,
    MalformedRecordError,
    UnknownIdError,
    require_finite,
)
from .io import reading_artifact
from .kg import KgEntry, KgFact, KgStore

_FLIX_MAGIC = b"FLIX"
_FLIX_VERSION = 1
_EMBED_CHUNK = 64  # entries per forward pass when a store is embedded; queries per scoring product


class IndexKind(enum.Enum):
    ENTITIES = 0
    PREDICATES = 1


@dataclass
class EmbeddingIndex:
    """Ordered distinct ids plus a row-unit-norm float32 matrix; a repeated
    id is a DuplicateIdError."""

    ids: tuple[str, ...]
    matrix: np.ndarray
    kind: IndexKind
    _id_rank: np.ndarray = field(init=False, repr=False)
    _row_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        # each row's position in ascending id order: the tie key of _top_rows
        self._id_rank = np.argsort(sorted(range(len(self.ids)), key=self.ids.__getitem__))
        self._row_index = {entry_id: row for row, entry_id in enumerate(self.ids)}
        if len(self._row_index) < len(self.ids):
            repeated = next(entry_id for row, entry_id in enumerate(self.ids)
                            if self._row_index[entry_id] != row)
            raise DuplicateIdError(f"duplicate id {repeated!r} in index")

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, entry_id: str) -> bool:
        return entry_id in self._row_index

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def row(self, entry_id: str) -> int:
        try:
            return self._row_index[entry_id]
        except KeyError:
            raise UnknownIdError(f"id {entry_id!r} not in index") from None

    def vectors(self, ids: Iterable[str]) -> np.ndarray:
        """The rows of ``ids`` as float64: the re-ranker's and QKV head's entry vectors."""
        return self.matrix[[self.row(entry_id) for entry_id in ids]].astype(np.float64)

    def subset(self, keep: Sequence[bool]) -> "EmbeddingIndex":
        """The rows where ``keep`` is true, in row order. Rows normalize
        independently, so this is bitwise ``build_index`` over those entries."""
        keep = np.asarray(keep, dtype=bool)
        ids = tuple(entry_id for entry_id, kept in zip(self.ids, keep) if kept)
        return EmbeddingIndex(ids=ids, matrix=self.matrix[keep], kind=self.kind)

    def score_rows(self, queries: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
        """The float32 scores of each of the n ``queries`` (dim-vectors, or
        the rows of an (n, dim) array) against every index row: one
        ``float32(queries[i:i+64]) @ matrix.T`` product per chunk of 64 (a
        one-query product is the matvec ``matrix @ query``). Every chunk is
        written into one reused block, so a row is valid only until the
        next one is drawn: one block is alive, not two."""
        block = np.empty((min(len(queries), _EMBED_CHUNK), len(self)), dtype=np.float32)
        for start in range(0, len(queries), _EMBED_CHUNK):
            chunk = np.asarray(queries[start : start + _EMBED_CHUNK], dtype=np.float32)
            yield from np.matmul(chunk, self.matrix.T, out=block[: len(chunk)])

    def ranked(
        self, scores: np.ndarray, k: int, keep: np.ndarray | None = None
    ) -> list[tuple[str, float]]:
        """(id, score) of ``_top_rows(scores, k, keep)``, best first."""
        return [(self.ids[i], float(scores[i])) for i in self._top_rows(scores, k, keep)]

    def _top_rows(
        self, scores: np.ndarray, k: int, keep: np.ndarray | None = None
    ) -> np.ndarray:
        """Rows of the min(k, n) highest ``scores`` among the n sorted row
        positions ``keep`` (every row when None), best first; ties by
        ascending id. That is how ``subset`` over ``keep`` ranks them."""
        candidates = scores if keep is None else scores[keep]
        n = len(candidates)
        k = min(k, n)
        if k == 0:
            return np.zeros(0, dtype=np.intp)
        # every row scoring at least the k-th score: a tie group cut at k is ordered by id
        top = np.flatnonzero(candidates >= np.partition(candidates, n - k)[n - k])
        if keep is not None:
            top = keep[top]
        order = np.lexsort((self._id_rank[top], -scores[top]))
        return top[order[:k]]


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """float32 of the float64 rows renormalized; rows normalize independently."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise DataError("index rows must be non-zero vectors")
    return (matrix / norms).astype(np.float32)


def build_index(
    embeddings: Sequence[tuple[str, np.ndarray]], kind: IndexKind
) -> EmbeddingIndex:
    """Stack (id, vector) pairs in input order; rows are renormalized and
    stored as float32."""
    ids = tuple(entry_id for entry_id, _ in embeddings)
    if not embeddings:
        matrix = np.zeros((0, 0), dtype=np.float32)
    else:
        matrix = _unit_rows(np.stack([np.asarray(v, dtype=np.float64) for _, v in embeddings]))
    return EmbeddingIndex(ids=ids, matrix=matrix, kind=kind)


def topk(
    index: EmbeddingIndex, queries: Sequence[np.ndarray], k: int
) -> list[list[tuple[str, float]]]:
    """Exact top-k by dot product of each of the ``queries`` (as in
    ``score_rows``); ties broken by ascending id; min(k, len(index)) pairs
    per query."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(index) == 0:
        return [[] for _ in queries]
    return [index.ranked(scores, k) for scores in index.score_rows(queries)]


@dataclass(frozen=True)
class SlotLinkResult:
    """Ranked per-slot candidates; the linked fact is the top-1 of each slot."""

    subject: tuple[tuple[str, float], ...]
    relation: tuple[tuple[str, float], ...]
    object: tuple[tuple[str, float], ...]

    @property
    def linked_fact(self) -> KgFact:
        return KgFact(self.subject[0][0], self.relation[0][0], self.object[0][0])


def link(
    encoder: ReferenceEncoder,
    entity_index: EmbeddingIndex,
    predicate_index: EmbeddingIndex,
    triples: Sequence[OieTriple],
    k: int = 1,
    with_context: bool = False,
) -> list[SlotLinkResult]:
    """Retrieve top-k entries per OIE slot of each triple: subjects and
    objects against the entity index in one ``topk``, relations against the
    predicate index."""
    if not triples:
        return []
    subjects, relations, objects = zip(*(encoder.slot_embed(t, with_context) for t in triples))
    n = len(triples)
    entities = topk(entity_index, subjects + objects, k)
    predicates = topk(predicate_index, relations, k)
    return [
        SlotLinkResult(tuple(entities[i]), tuple(predicates[i]), tuple(entities[n + i]))
        for i in range(n)
    ]


def embed_index(
    encoder: ReferenceEncoder,
    entries: Sequence[KgEntry],
    kind: IndexKind,
    mask_description: bool = False,
) -> EmbeddingIndex:
    """``build_index`` over the entries' embeddings, one forward per
    64-entry chunk (one forward over a whole store would allocate hundreds
    of MB of temporaries). Each chunk's float32 rows go straight into the
    index matrix, so no float64 copy of the store is held."""
    ids = tuple(e.id for e in entries)
    if not entries:
        return EmbeddingIndex(ids=ids, matrix=np.zeros((0, 0), dtype=np.float32), kind=kind)
    matrix = np.empty((len(entries), encoder.dim), dtype=np.float32)
    for start in range(0, len(entries), _EMBED_CHUNK):
        chunk = entries[start : start + _EMBED_CHUNK]
        matrix[start : start + len(chunk)] = _unit_rows(
            encoder.entry_embeds(chunk, mask_description)
        )
    return EmbeddingIndex(ids=ids, matrix=matrix, kind=kind)


def build_store_indices(
    encoder: ReferenceEncoder, store: KgStore, mask_description: bool = False
) -> tuple[EmbeddingIndex, EmbeddingIndex]:
    """Entity and predicate indices over every entry of the store (labels only if masked)."""
    return (
        embed_index(encoder, [store.entry(i) for i in store.entity_ids()],
                    IndexKind.ENTITIES, mask_description),
        embed_index(encoder, [store.entry(i) for i in store.predicate_ids()],
                    IndexKind.PREDICATES, mask_description),
    )


# ---------------------------------------------------------------------------
# Binary index persistence


def save_index(index: EmbeddingIndex, path: str | Path) -> None:
    """Header {magic, version u32, kind u8, count u64, dim u32}, then
    length-prefixed UTF-8 ids, then the row-major little-endian f32 matrix."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_FLIX_MAGIC)
        fh.write(struct.pack("<IBQI", _FLIX_VERSION, index.kind.value, len(index), index.dim))
        for entry_id in index.ids:
            raw = entry_id.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        fh.write(np.ascontiguousarray(index.matrix, dtype="<f4").tobytes())


def load_index(path: str | Path) -> EmbeddingIndex:
    with reading_artifact(path), open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _FLIX_MAGIC:
            raise MalformedRecordError(f"{path}: not an index file (bad magic {magic!r})")
        version, kind_value, count, dim = struct.unpack("<IBQI", fh.read(17))
        if version != _FLIX_VERSION:
            raise MalformedRecordError(f"{path}: unsupported index version {version}")
        ids = []
        for _ in range(count):
            (length,) = struct.unpack("<I", fh.read(4))
            ids.append(fh.read(length).decode("utf-8"))
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < count * dim * 4:
            raise MalformedRecordError(f"{path}: truncated index payload")
        if left > count * dim * 4:
            raise MalformedRecordError(
                f"{path}: {left - count * dim * 4} bytes after the index payload; run index"
            )
        matrix = np.fromfile(fh, dtype="<f4", count=count * dim).reshape(count, dim)
        try:
            return EmbeddingIndex(ids=tuple(ids), matrix=matrix, kind=IndexKind(kind_value))
        except DuplicateIdError as exc:
            raise MalformedRecordError(f"{path}: {exc}; run index") from None


# ---------------------------------------------------------------------------
# InfoNCE


def _rowwise_infonce(
    sims: np.ndarray, positives: np.ndarray, tau: float
) -> tuple[np.ndarray, float, float]:
    """Summed InfoNCE over rows whose positive is a pool column.

    Returns (d_loss/d_sims, total loss, d_loss/d_tau), all unscaled.
    """
    if sims.shape[0] == 0:
        return np.zeros_like(sims), 0.0, 0.0
    logits = sims / tau
    peak = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - peak)
    denom = exp.sum(axis=1, keepdims=True)
    rows = np.arange(sims.shape[0])
    log_denom = (peak + np.log(denom)).ravel()
    loss = float((log_denom - logits[rows, positives]).sum())
    weights = exp / denom
    d_sims = weights.copy()
    d_sims[rows, positives] -= 1.0
    d_sims /= tau
    pos_sims = sims[rows, positives]
    d_tau = float(((pos_sims - (weights * sims).sum(axis=1)) / (tau * tau)).sum())
    return d_sims, loss, d_tau


def sample_negatives(ids: Sequence[str], count: int, rng: np.random.Generator) -> list[str]:
    """Uniform sample (without replacement) of up to ``count`` ids."""
    if count >= len(ids):
        return list(ids)
    chosen = rng.choice(len(ids), size=count, replace=False)
    return [ids[i] for i in chosen]


# ---------------------------------------------------------------------------
# Training


@dataclass
class PrerankTrainConfig:
    epochs: int = 10
    learning_rate: float = 5e-5
    weight_decay: float = 1e-3
    batch_size: int = 32
    temperature_init: float = 0.07
    temperature_min: float = 0.01
    global_neg_entities: int = 128
    global_neg_predicates: int = 64
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_size) < 1:
            raise ValueError("epochs and batch_size must be positive")
        if min(self.learning_rate, self.temperature_init, self.temperature_min) <= 0:
            raise ValueError("learning_rate, temperature_init, temperature_min must be > 0")
        if min(self.global_neg_entities, self.global_neg_predicates) < 0:
            raise ValueError("global negative counts must be >= 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")


def _d_normalize(normalized: np.ndarray, norms: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    inner = np.sum(normalized * d_out, axis=1, keepdims=True)
    return (d_out - normalized * inner) / norms


def train_preranker(
    alignments: Sequence[Alignment],
    store: KgStore,
    config: PrerankTrainConfig,
    encoder_config: EncoderConfig = EncoderConfig(),
    initial_params: ReferenceEncoderParams | None = None,
    initial_tau: float | None = None,
    with_context: bool = False,
) -> tuple[ReferenceEncoderParams, list[dict]]:
    """Train the reference encoder with InfoNCE over per-slot positives.

    Per batch and slot occurrence, the positive is the aligned entry; the
    negatives are the other batch examples' entries for the same slot plus
    global entities or predicates sampled uniformly from the store
    (resampled each batch). The temperature is learned in log space and
    clamped from below. Returns trained params and a per-epoch
    {epoch, mean_loss, tau} trace.
    """
    check_training_set(alignments, store, "training")

    params = initial_params.copy() if initial_params is not None else init_params(
        encoder_config, config.seed
    )
    hasher = FeatureHasher(params.buckets)
    rng = np.random.default_rng(config.seed)
    log_tau = float(np.log(initial_tau if initial_tau is not None else config.temperature_init))
    log_tau_min = float(np.log(config.temperature_min))

    entity_ids = store.entity_ids()
    predicate_ids = store.predicate_ids()

    # per-alignment slot texts and per-entry texts are stable across epochs;
    # the hasher memoizes their compiled features
    slot_texts = [render_slots(a.oie, with_context) for a in alignments]
    entry_texts = {i: render_entry(store.entry(i)) for i in (*entity_ids, *predicate_ids)}

    n = len(alignments)
    h = params.hidden
    lr = config.learning_rate
    wd = config.weight_decay
    trace: list[dict] = []

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        epoch_terms = 0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            b = len(batch)
            tau = float(np.exp(log_tau))
            batch_facts = [alignments[i].fact for i in batch]

            # candidate pools per slot: in-batch entries of the same slot
            # plus one global sample per kind, deduplicated by id
            global_entities = sample_negatives(entity_ids, config.global_neg_entities, rng)
            global_predicates = sample_negatives(
                predicate_ids, config.global_neg_predicates, rng
            )
            subj_pool = list(
                dict.fromkeys([f.subject_id for f in batch_facts] + global_entities)
            )
            obj_pool = list(
                dict.fromkeys([f.object_id for f in batch_facts] + global_entities)
            )
            pred_pool = list(
                dict.fromkeys([f.predicate_id for f in batch_facts] + global_predicates)
            )
            all_ids = list(dict.fromkeys(subj_pool + obj_pool + pred_pool))
            row_of = {eid: j for j, eid in enumerate(all_ids)}

            # --- forward: the serving encoder's forward over the whole batch
            forward = encode_batch(
                params, hasher, [slot_texts[i] for i in batch], [entry_texts[e] for e in all_ids]
            )
            o_hat, k_hat = forward.slot_vectors, forward.entry_vectors

            d_o_hat = np.zeros_like(o_hat)
            d_k_hat = np.zeros_like(k_hat)
            d_tau_total = 0.0
            terms = 3 * b

            for slot_block, pool, positives in (
                (0, subj_pool, [f.subject_id for f in batch_facts]),
                (1, pred_pool, [f.predicate_id for f in batch_facts]),
                (2, obj_pool, [f.object_id for f in batch_facts]),
            ):
                rows = slot_block * b + np.arange(b)
                pool_rows = np.array([row_of[eid] for eid in pool])
                pool_index = {eid: j for j, eid in enumerate(pool)}
                pos_cols = np.array([pool_index[eid] for eid in positives])
                queries = o_hat[rows]
                keys = k_hat[pool_rows]
                sims = queries @ keys.T  # (b, |pool|)
                # positive sits inside the pool: per row,
                # loss = logsumexp(sims/tau) - sims[pos]/tau
                d_sims, loss, d_tau = _rowwise_infonce(sims, pos_cols, tau)
                epoch_loss += loss
                d_tau_total += d_tau
                d_o_hat[rows] += d_sims @ keys
                d_k_hat[pool_rows] += d_sims.T @ queries

            epoch_terms += terms
            scale = 1.0 / terms
            d_o_hat *= scale
            d_k_hat *= scale
            d_log_tau = d_tau_total * scale * tau

            # --- backward through normalization, projections, feature table
            d_z_slots = _d_normalize(o_hat, forward.slot_norms, d_o_hat)
            d_z_entries = _d_normalize(k_hat, forward.entry_norms, d_k_hat)

            d_slot_projection = forward.slot_inputs.T @ d_z_slots
            d_entry_projection = forward.entry_inputs.T @ d_z_entries
            d_u = d_z_slots @ params.slot_projection.T
            d_v = d_z_entries @ params.entry_projection.T

            d_triples = d_u[:b, h:] + d_u[b : 2 * b, h:] + d_u[2 * b :, h:]
            d_segments = np.concatenate([d_u[:, :h], d_triples, d_v[:, :h], d_v[:, h:]])

            # --- SGD with decoupled weight decay; feature-table rows decay
            # only when touched (the table is updated sparsely)
            params.slot_projection -= lr * (d_slot_projection + wd * params.slot_projection)
            params.entry_projection -= lr * (d_entry_projection + wd * params.entry_projection)
            params.feature_table[forward.rows] -= lr * (forward.weights.T @ d_segments)
            params.feature_table[forward.rows] *= 1.0 - lr * wd
            del forward  # else its dense weights live on while the next batch builds its own
            log_tau = max(log_tau - lr * d_log_tau, log_tau_min)

        mean_loss = require_finite(epoch_loss / max(epoch_terms, 1), f"epoch {epoch} mean loss")
        trace.append({"epoch": epoch, "mean_loss": mean_loss, "tau": float(np.exp(log_tau))})
    return params, trace
