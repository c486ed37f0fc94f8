"""Whole-fact re-ranking over pre-ranked per-slot candidates.

Candidates are the cartesian product of the slot lists; each (OIE, fact)
pair is scored by a logistic model over fixed cross-features of the frozen
pre-ranker embeddings, trained with hard negatives drawn from each gold
entry's nearest neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Alignment, OieTriple, check_training_set
from .encoder import ReferenceEncoder
from .errors import DataError, MalformedRecordError, require_finite
from .io import load_arrays, reading_artifact, save_arrays, write_jsonl
from .kg import KgFact, KgStore
from .preranker import EmbeddingIndex, SlotLinkResult, build_store_indices

N_SLOT_EXTRAS = 3  # cosine, squared cosine, bias per slot pair


@dataclass(frozen=True)
class CandidateFact:
    """A fact assembled from per-slot candidate lists, with the rank each
    id held in its list."""

    subject_id: str
    predicate_id: str
    object_id: str
    subject_rank: int
    predicate_rank: int
    object_rank: int

    @property
    def ids(self) -> tuple[str, str, str]:
        return (self.subject_id, self.predicate_id, self.object_id)

    def to_fact(self) -> KgFact:
        return KgFact(self.subject_id, self.predicate_id, self.object_id)


def enumerate_candidates(result: SlotLinkResult) -> list[CandidateFact]:
    """Full cartesian product of the three slot lists in rank-lexicographic
    order (subject rank major)."""
    return [
        CandidateFact(
            subject_id=s_id,
            predicate_id=p_id,
            object_id=o_id,
            subject_rank=s_rank,
            predicate_rank=p_rank,
            object_rank=o_rank,
        )
        for (s_rank, (s_id, _)), (p_rank, (p_id, _)), (o_rank, (o_id, _)) in product(
            enumerate(result.subject), enumerate(result.relation), enumerate(result.object)
        )
    ]


@dataclass
class CrossScorerParams:
    """Logistic weights over the cross-feature vector plus a bias."""

    weights: np.ndarray  # (6*dim + 9,)
    bias: float
    seed: int = 0


def init_cross_params(dim: int, seed: int = 0) -> CrossScorerParams:
    """Zero init: the untrained scorer outputs exactly 0.5 everywhere."""
    return CrossScorerParams(weights=np.zeros(6 * dim + 3 * N_SLOT_EXTRAS), bias=0.0, seed=seed)


def cross_features(
    encoder: ReferenceEncoder,
    store: KgStore,
    triple: OieTriple,
    fact: KgFact | CandidateFact,
    mask_description: bool = False,
    with_context: bool = False,
) -> np.ndarray:
    """Per slot pair: elementwise product and absolute difference of the
    slot and entry embeddings, their cosine, its square, and a constant 1."""
    slot_embeddings = encoder.slot_embed(triple, with_context)
    ids = (fact.subject_id, fact.predicate_id, fact.object_id)
    blocks = []
    for slot_embedding, entry_id in zip(slot_embeddings, ids):
        entry_embedding = encoder.entry_embed(store.entry(entry_id), mask_description)
        cosine = float(slot_embedding @ entry_embedding)
        blocks.append(slot_embedding * entry_embedding)
        blocks.append(np.abs(slot_embedding - entry_embedding))
        blocks.append(np.array([cosine, cosine * cosine, 1.0]))
    return np.concatenate(blocks)


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


def score_fact(
    params: CrossScorerParams,
    encoder: ReferenceEncoder,
    store: KgStore,
    triple: OieTriple,
    fact: KgFact | CandidateFact,
    mask_description: bool = False,
    with_context: bool = False,
) -> float:
    """Sigmoid-normalized similarity of a whole OIE/fact pair, in (0, 1)."""
    features = cross_features(encoder, store, triple, fact, mask_description, with_context)
    return _sigmoid(float(params.weights @ features) + params.bias)


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
    store: KgStore,
    triple: OieTriple,
    candidates: Sequence[CandidateFact],
    with_context: bool = False,
) -> tuple[CandidateFact, list[float]]:
    """Highest-scoring candidate; ties keep the earliest (rank-lexicographic)
    candidate."""
    if not candidates:
        raise DataError("rerank needs at least one candidate")
    scores = [
        score_fact(params, encoder, store, triple, c, with_context=with_context)
        for c in candidates
    ]
    best = max(range(len(candidates)), key=lambda i: (scores[i], -i))
    return candidates[best], scores


# ---------------------------------------------------------------------------
# Hard negatives


def build_neighbor_lists(index: EmbeddingIndex, pool: int = 10) -> dict[str, tuple[str, ...]]:
    """Top-``pool`` most similar same-kind entries per entry, self excluded.

    Computed once from the frozen pre-ranker embeddings.
    """
    neighbors: dict[str, tuple[str, ...]] = {}
    matrix = index.matrix
    ids = index.ids
    chunk = 512
    for start in range(0, len(index), chunk):
        sims = matrix[start : start + chunk] @ matrix.T  # (chunk, n)
        for i, scores in enumerate(sims, start):
            # self need not rank first: keep pool + 1, then drop it
            picked = [ids[j] for j in index._top_rows(scores, pool + 1) if j != i]
            neighbors[ids[i]] = tuple(picked[:pool])
    return neighbors


def store_neighbor_lists(
    encoder: ReferenceEncoder, store: KgStore, pool: int
) -> dict[str, tuple[str, ...]]:
    """Neighbor lists of every entity and every predicate of the store."""
    entity_index, predicate_index = build_store_indices(encoder, store)
    neighbors = build_neighbor_lists(entity_index, pool)
    neighbors.update(build_neighbor_lists(predicate_index, pool))
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
    with_context: bool = False
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
    store: KgStore,
    config: RerankTrainConfig,
    neighbor_lists: dict[str, tuple[str, ...]],
) -> tuple[CrossScorerParams, list[dict]]:
    """Binary cross-entropy training: gold pairs are positives, one-slot
    corruptions from top-k neighbor lists are negatives; each scored pair
    masks entry descriptions independently with the configured probability.
    Plain SGD with decoupled weight decay; returns params and a per-epoch
    {epoch, mean_loss} trace. ``neighbor_lists`` come from
    ``store_neighbor_lists(encoder, store, config.hard_negative_pool)``.
    """
    check_training_set(alignments, store, "training")

    params = init_cross_params(encoder.dim, config.seed)
    rng = np.random.default_rng(config.seed)
    lr = config.learning_rate
    wd = config.weight_decay
    trace: list[dict] = []

    for epoch in range(config.epochs):
        order = rng.permutation(len(alignments))
        epoch_loss = 0.0
        n_pairs = 0
        for i in order:
            alignment = alignments[i]
            pairs: list[tuple[KgFact, float]] = [(alignment.fact, 1.0)]
            for _ in range(config.negatives_per_positive):
                pairs.append(
                    (sample_hard_negative(alignment.fact, neighbor_lists, rng), 0.0)
                )
            for fact, label in pairs:
                masked = bool(rng.random() < config.description_mask_prob)
                features = cross_features(
                    encoder, store, alignment.oie, fact, masked, config.with_context
                )
                logit = float(params.weights @ features) + params.bias
                epoch_loss += bce_loss(logit, label)
                n_pairs += 1
                d_logit = bce_grad(logit, label)
                params.weights -= lr * (d_logit * features + wd * params.weights)
                params.bias -= lr * d_logit
        mean_loss = require_finite(epoch_loss / max(n_pairs, 1), f"epoch {epoch} mean loss")
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


def load_cross_params(path: str | Path) -> CrossScorerParams:
    header, arrays = load_arrays(path, "cross-scorer", {"weights": "<f4", "bias": "<f4"})
    weights, bias = arrays.values()
    with reading_artifact(path):
        n = len(weights) - 3 * N_SLOT_EXTRAS if weights.ndim == 1 else -1
        if n < 6 or n % 6 or bias.shape != (1,):
            raise MalformedRecordError(
                f"{path}: need 6*dim+{3 * N_SLOT_EXTRAS} weights and one bias, got shapes "
                f"{weights.shape} and {bias.shape}"
            )
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
