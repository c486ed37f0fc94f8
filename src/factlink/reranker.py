"""Whole-fact re-ranking over pre-ranked per-slot candidates.

Candidates are the cartesian product of the slot lists; each (OIE, fact)
pair is scored by a logistic model over fixed per-slot cross-features of
the frozen pre-ranker's slot embeddings and store-index rows, trained with
hard negatives drawn from each gold entry's nearest neighbors. The logit
is a sum over slots, so ``rerank`` scores each slot's entries once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Alignment, OieTriple
from .encoder import ReferenceEncoder
from .errors import DataError, require_finite
from .io import load_arrays, reading_artifact, save_arrays, write_jsonl
from .kg import KgFact
from .preranker import EmbeddingIndex, SlotLinkResult, check_indexed

N_SLOT_EXTRAS = 3  # cosine, squared cosine, bias per slot pair
_TRAIN_CHUNK = 16  # alignments per feature build in train_reranker


class CandidateFact(KgFact):
    """A fact assembled from the per-slot candidate lists."""

    def to_fact(self) -> KgFact:
        """The plain fact, which a candidate never equals (dataclass ``==`` compares classes)."""
        return KgFact(*self.ids)


def enumerate_candidates(result: SlotLinkResult) -> list[CandidateFact]:
    """Full cartesian product of the three slot lists in rank-lexicographic
    order (subject rank major)."""
    slots = (result.subject, result.relation, result.object)
    return [CandidateFact(*ids) for ids in product(*([i for i, _ in ranked] for ranked in slots))]


@dataclass
class CrossScorerParams:
    """Logistic weights over the cross-feature vector plus a bias."""

    weights: np.ndarray  # (6*dim + 9,)
    bias: float
    seed: int = 0


def init_cross_params(dim: int, seed: int = 0) -> CrossScorerParams:
    """Zero init: the untrained scorer outputs exactly 0.5 everywhere."""
    return CrossScorerParams(weights=np.zeros(6 * dim + 3 * N_SLOT_EXTRAS), bias=0.0, seed=seed)


def _slot_features(slot_embedding: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """(n, 2*dim + 3) blocks of one slot embedding, or n row by row, against
    n entry vectors: elementwise product, absolute difference, cosine, its
    square and 1."""
    products = entries * slot_embedding
    cosines = products.sum(axis=1, keepdims=True)  # row by row: equal rows, equal bits
    return np.concatenate(
        (products, np.abs(slot_embedding - entries), cosines, cosines * cosines,
         np.ones_like(cosines)), axis=1
    )


def _sigmoid(z):
    """Logistic function of a float or, elementwise, of an array, without
    overflow: the numerator ``e ** (z < 0)`` is exactly 1 where z >= 0, else e."""
    e = np.exp(-abs(z))
    return e ** (z < 0) / (1.0 + e)


def bce_loss(logit: float, label: float) -> float:
    """Binary cross-entropy of sigmoid(logit) against the label, computed
    without forming the sigmoid."""
    return float(max(logit, 0.0) - logit * label + np.log1p(np.exp(-abs(logit))))


def bce_grad(logit: float, label: float) -> float:
    """d bce_loss / d logit = sigmoid(logit) - label."""
    return _sigmoid(logit) - label


def rerank(
    params: CrossScorerParams,
    encoder: ReferenceEncoder,
    indices: tuple[EmbeddingIndex, EmbeddingIndex],
    triple: OieTriple,
    candidates: Sequence[CandidateFact],
    with_context: bool = False,
) -> tuple[CandidateFact, list[float]]:
    """Highest-scoring candidate and every candidate's score; ties keep the
    earliest candidate. The logit has no cross-slot term, so each slot's
    distinct entries are scored once and a candidate sums its slots'."""
    if not candidates:
        raise DataError("rerank needs at least one candidate")
    block = len(params.weights) // 3
    logits = np.full(len(candidates), params.bias)
    slot_embeddings = encoder.slot_embed(triple, with_context)
    for slot, ids in enumerate(zip(*(c.ids for c in candidates))):
        distinct = {entry_id: i for i, entry_id in enumerate(dict.fromkeys(ids))}
        features = _slot_features(slot_embeddings[slot], indices[slot == 1].vectors(distinct))
        slot_logits = (features * params.weights[slot * block : (slot + 1) * block]).sum(axis=1)
        logits += slot_logits[[distinct[entry_id] for entry_id in ids]]
    scores = _sigmoid(logits)
    return candidates[int(np.argmax(scores))], scores.tolist()


# ---------------------------------------------------------------------------
# Hard negatives


def build_neighbor_lists(index: EmbeddingIndex, pool: int = 10) -> dict[str, tuple[str, ...]]:
    """Top-``pool`` most similar same-kind entries per entry, self excluded.

    Computed once from the frozen pre-ranker embeddings, each row scored
    against the index by ``score_rows``.
    """
    neighbors: dict[str, tuple[str, ...]] = {}
    ids = index.ids
    for i, scores in enumerate(index.score_rows(index.matrix)):
        # self need not rank first: keep pool + 1, then drop it
        picked = [ids[j] for j in index._top_rows(scores, pool + 1) if j != i]
        neighbors[ids[i]] = tuple(picked[:pool])
    return neighbors


def store_neighbor_lists(
    indices: tuple[EmbeddingIndex, EmbeddingIndex], pool: int
) -> dict[str, tuple[str, ...]]:
    """Neighbor lists of every entity and every predicate of the (entity,
    predicate) index pair."""
    neighbors: dict[str, tuple[str, ...]] = {}
    for index in indices:
        neighbors.update(build_neighbor_lists(index, pool))
    return neighbors


def sample_hard_negative(
    fact: KgFact,
    neighbor_lists: dict[str, tuple[str, ...]],
    rng: np.random.Generator,
) -> KgFact:
    """Corrupt exactly one uniformly chosen slot of the fact, replacing its
    entry with a uniform draw from that entry's same-kind neighbor list."""
    slot = int(rng.integers(3))
    entry_id = fact.ids[slot]
    pool = neighbor_lists.get(entry_id, ())
    pool = tuple(candidate for candidate in pool if candidate != entry_id)
    if not pool:
        raise DataError(f"entry {entry_id!r} has no neighbors to corrupt with")
    replacement = pool[int(rng.integers(len(pool)))]
    ids = list(fact.ids)
    ids[slot] = replacement
    return KgFact(*ids)


# ---------------------------------------------------------------------------
# Training


@dataclass
class RerankTrainConfig:
    epochs: int = 10
    learning_rate: float = 5e-5
    weight_decay: float = 1e-3
    hard_negative_pool: int = 10
    description_mask_prob: float = 0.5
    negatives_per_positive: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.learning_rate <= 0:
            raise ValueError("epochs and learning_rate must be positive")
        if not 0.0 <= self.description_mask_prob <= 1.0:
            raise ValueError("description_mask_prob must be in [0, 1]")
        if self.negatives_per_positive < 0 or self.hard_negative_pool < 1:
            raise ValueError("invalid negative sampling configuration")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")


def train_reranker(
    alignments: Sequence[Alignment],
    encoder: ReferenceEncoder,
    indices: tuple[EmbeddingIndex, EmbeddingIndex],
    config: RerankTrainConfig,
    neighbor_lists: dict[str, tuple[str, ...]],
    masked_indices: tuple[EmbeddingIndex, EmbeddingIndex],
    with_context: bool = False,
) -> tuple[CrossScorerParams, list[dict]]:
    """Binary cross-entropy training: gold pairs are positives, one-slot
    corruptions from top-k neighbor lists are negatives; each scored pair
    reads the label-only pair ``masked_indices`` with the configured
    probability, else ``indices``. Features are built 16 alignments at a
    time, each chunk embedded before it draws; plain SGD with decoupled
    weight decay steps one pair at a time.
    Returns params and a per-epoch {epoch, mean_loss} trace. A fact id
    missing from its slot kind's index is a DataError.
    """
    if not alignments:
        raise DataError("no training alignments")
    check_indexed(alignments, indices)

    params = init_cross_params(encoder.dim, config.seed)
    rng = np.random.default_rng(config.seed)
    lr = config.learning_rate
    wd = config.weight_decay
    labels = [1.0] + [0.0] * config.negatives_per_positive
    trace: list[dict] = []

    for epoch in range(config.epochs):
        order = rng.permutation(len(alignments))
        epoch_loss = 0.0
        for start in range(0, len(order), _TRAIN_CHUNK):
            chunk = [alignments[i] for i in order[start : start + _TRAIN_CHUNK]]
            queries = encoder.slot_embeds([a.oie for a in chunk], with_context)
            facts, masks = [], []
            for alignment in chunk:  # negatives, then masks: chunk-size-free draws
                facts += [alignment.fact] + [sample_hard_negative(
                    alignment.fact, neighbor_lists, rng) for _ in labels[1:]]
                masks.append(rng.random(len(labels)) < config.description_mask_prob)
            masked = np.concatenate(masks)[:, None]
            blocks = []
            for slot, ids in enumerate(zip(*(fact.ids for fact in facts))):
                entries = np.where(masked, masked_indices[slot == 1].vectors(ids),
                                   indices[slot == 1].vectors(ids))
                slot_rows = np.repeat([q[slot] for q in queries], len(labels), axis=0)
                blocks.append(_slot_features(slot_rows, entries))
            for features, label in zip(np.concatenate(blocks, axis=1), labels * len(chunk)):
                logit = float(params.weights @ features) + params.bias
                epoch_loss += bce_loss(logit, label)
                d_logit = bce_grad(logit, label)
                params.weights -= lr * (d_logit * features + wd * params.weights)
                params.bias -= lr * d_logit
        n_pairs = len(order) * len(labels)
        mean_loss = require_finite(epoch_loss / n_pairs, f"epoch {epoch} mean loss")
        trace.append({"epoch": epoch, "mean_loss": mean_loss})
    return params, trace


# ---------------------------------------------------------------------------
# Persistence: the shared named-array format (io.save_arrays), float32
# weights and bias.


def save_cross_params(
    params: CrossScorerParams, path: str | Path, header: dict | None = None
) -> None:
    save_arrays(
        path,
        {**(header or {}), "format": "cross-scorer", "rng_seed": params.seed},
        {"weights": np.asarray(params.weights, dtype="<f4"),
         "bias": np.array([params.bias], dtype="<f4")},
    )


def load_cross_params(path: str | Path, dim: int) -> CrossScorerParams:
    header, arrays = load_arrays(path, "cross-scorer", {"weights": "<f4", "bias": "<f4"})
    weights, bias = arrays.values()
    with reading_artifact(path):
        n = len(weights) - 3 * N_SLOT_EXTRAS if weights.ndim == 1 else -1
        if n < 6 or n % 6 or bias.shape != (1,):
            raise DataError(
                f"{path}: need 6*dim+{3 * N_SLOT_EXTRAS} weights and one bias, got shapes "
                f"{weights.shape} and {bias.shape}"
            )
        if n != 6 * dim:
            raise DataError(f"{path}: trained at encoder dim {n // 6}, not {dim}; "
                            "run train-reranker")
        return CrossScorerParams(
            weights=weights.astype(np.float64), bias=float(bias[0]), seed=int(header["rng_seed"])
        )


def write_neighbor_lists(
    path: str | Path, neighbor_lists: dict[str, tuple[str, ...]], header: dict | None = None
) -> None:
    write_jsonl(
        path,
        ({"id": eid, "neighbors": list(ns)} for eid, ns in sorted(neighbor_lists.items())),
        header=header,
    )
