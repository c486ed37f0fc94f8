"""Out-of-KG detection: decide per OIE slot whether its referent exists in
the store, via top-1 confidence, entropy, or a query-key-value
cross-attention head over frozen pre-ranker embeddings."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .corpus import Alignment, alignment_uid
from .encoder import ReferenceEncoder
from .errors import (
    DataError, EmptyKeySetError, EmptyTrainingSetError, MalformedRecordError, require_finite,
)
from .io import load_arrays, reading_artifact, save_arrays
from .preranker import EmbeddingIndex
from .reranker import _sigmoid, bce_grad, bce_loss

TOP_SUPPORT = 5  # fixed support for the confidence and entropy heuristics

DEFAULT_CONFIDENCE_THRESHOLDS = (0.235, 0.260, 0.235)
DEFAULT_ENTROPY_THRESHOLDS = (1.60, 1.58, 1.60)
DEFAULT_ATTENTION_THRESHOLD = 0.3


class Decision(enum.Enum):
    IN_KG = "in-kg"
    OUT_OF_KG = "out-of-kg"


@dataclass(frozen=True)
class OokgThresholds:
    """Per-slot decision thresholds: confidence and entropy are per-slot
    triples (subject, relation, object); attention is one shared value."""

    confidence: tuple[float, float, float] = DEFAULT_CONFIDENCE_THRESHOLDS
    entropy: tuple[float, float, float] = DEFAULT_ENTROPY_THRESHOLDS
    attention: float = DEFAULT_ATTENTION_THRESHOLD

    def __post_init__(self):
        if len(self.confidence) != 3 or len(self.entropy) != 3:
            raise ValueError("confidence and entropy need one threshold per slot")
        if not all(0.0 < t < 1.0 for t in self.confidence):
            raise ValueError("confidence thresholds must lie in (0, 1)")
        max_entropy = float(np.log(TOP_SUPPORT))
        if not all(0.0 <= t <= max_entropy for t in self.entropy):
            raise ValueError(f"entropy thresholds must lie in [0, ln {TOP_SUPPORT}]")
        if not 0.0 < self.attention < 1.0:
            raise ValueError(f"the attention threshold must lie in (0, 1), got {self.attention!r}")


def topk_softmax(sims: Sequence[float]) -> np.ndarray:
    """Plain softmax (no temperature) over the top similarities."""
    sims = np.asarray(sims, dtype=np.float64)
    if sims.size == 0:
        raise EmptyKeySetError("softmax needs at least one similarity")
    shifted = sims - sims.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def entropy(probs: Sequence[float]) -> float:
    """Shannon entropy in nats, with 0*log(0) = 0."""
    p = np.asarray(probs, dtype=np.float64)
    nonzero = p[p > 0]
    return float(-(nonzero * np.log(nonzero)).sum())


# out-of-KG iff sign * statistic < sign * threshold; a statistic at the threshold is in-KG
_OUT_SIGN = {"below": 1.0, "above": -1.0}


def _threshold_decision(statistic: float, threshold: float, out_when: str) -> Decision:
    sign = _OUT_SIGN[out_when]
    return Decision.OUT_OF_KG if sign * statistic < sign * threshold else Decision.IN_KG


# ---------------------------------------------------------------------------
# Query-key-value cross-attention head


@dataclass
class QkvParams:
    """Identity-initialized attention head: at initialization the score is
    a deterministic function of the raw embedding cosines."""

    q_proj: np.ndarray
    k_proj: np.ndarray
    v_proj: np.ndarray
    scale: float = 1.0
    bias: float = 0.0

    @classmethod
    def identity(cls, dim: int) -> "QkvParams":
        return cls(q_proj=np.eye(dim), k_proj=np.eye(dim), v_proj=np.eye(dim))

    @property
    def dim(self) -> int:
        return int(self.q_proj.shape[0])


def _qkv_forward(params: QkvParams, query: np.ndarray, keys: np.ndarray) -> dict:
    """The head's forward, with the key projection moved onto the query:
    ``logits = keys @ (k_projᵀ (q_proj q)) / √d`` costs O(d² + m·d) for m
    keys, where projecting every key costs O(m·d²)."""
    q_projected = params.q_proj @ query
    logits = keys @ (params.k_proj.T @ q_projected) / np.sqrt(params.dim)
    attention = topk_softmax(logits)
    mean_key = attention @ keys
    context = params.v_proj @ mean_key
    inner = float(query @ context)
    logit = params.scale * inner + params.bias
    return {
        "q_projected": q_projected,
        "attention": attention,
        "mean_key": mean_key,
        "inner": inner,
        "logit": logit,
    }


def _qkv_backward(
    params: QkvParams, query: np.ndarray, keys: np.ndarray, state: dict, d_logit: float
) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], float, float]:
    """Gradients of a loss with ``d_logit`` = d loss / d logit at the
    forward ``state``: each projection's as rank-1 factors (left, right),
    its gradient being ``outer(left, right)``; then scale's and bias's."""
    d_context = (d_logit * params.scale) * query
    d_attention = keys @ (params.v_proj.T @ d_context)
    a = state["attention"]
    d_logits = a * (d_attention - float(a @ d_attention))
    d_key_query = (keys.T @ d_logits) / np.sqrt(params.dim)
    factors = {
        "q_proj": (params.k_proj @ d_key_query, query),
        "k_proj": (state["q_projected"], d_key_query),
        "v_proj": (d_context, state["mean_key"]),
    }
    return factors, d_logit * state["inner"], d_logit


def qkv_score(params: QkvParams, query: np.ndarray, keys: Sequence[np.ndarray]) -> float:
    """Attention of the projected query over projected keys, pooled over
    value-projected keys; score = sigmoid(scale * (query . context) + bias)."""
    key_matrix = np.asarray(keys, dtype=np.float64)
    if key_matrix.size == 0:
        raise EmptyKeySetError("qkv_score needs at least one key")
    state = _qkv_forward(params, np.asarray(query, dtype=np.float64), key_matrix)
    return _sigmoid(state["logit"])


@dataclass
class QkvTrainConfig:
    epochs: int = 10
    learning_rate: float = 5e-5
    weight_decay: float = 0.0
    subset_size: int = 64
    gold_drop_prob: float = 0.5
    seed: int = 0
    # the thresholds file that train-ookg writes beside the head
    calibrate_thresholds: bool = False
    grid_size: int = 200
    attention_threshold: float = DEFAULT_ATTENTION_THRESHOLD

    def __post_init__(self):
        if self.epochs < 1 or self.learning_rate <= 0 or self.subset_size < 1:
            raise ValueError("epochs, learning_rate and subset_size must be positive")
        if not 0.0 <= self.gold_drop_prob <= 1.0:
            raise ValueError("gold_drop_prob must be in [0, 1]")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {self.grid_size!r}")
        OokgThresholds(attention=self.attention_threshold)  # its range check


def train_qkv(
    alignments: Sequence[Alignment],
    encoder: ReferenceEncoder,
    indices: tuple[EmbeddingIndex, EmbeddingIndex],
    config: QkvTrainConfig,
    with_context: bool = False,
) -> tuple[QkvParams, list[dict]]:
    """Train the attention head with binary cross-entropy.

    Per alignment and slot, a key subset is sampled from the (entity,
    predicate) ``indices`` entry of the slot's kind: the gold row is dropped
    with the configured probability (label 0) or kept (label 1), the
    remainder filled with uniformly drawn other rows. Keys are index rows
    cast to float64, as ``QkvDetector`` reads them; a gold id missing from
    its kind's index is an UnknownIdError.
    """
    if not alignments:
        raise EmptyTrainingSetError("no calibration alignments")

    params = QkvParams.identity(encoder.dim)
    rng = np.random.default_rng(config.seed)
    lr = config.learning_rate
    wd = config.weight_decay
    shrink = 1.0 - lr * wd
    update = np.empty_like(params.q_proj)
    trace: list[dict] = []

    for epoch in range(config.epochs):
        order = rng.permutation(len(alignments))
        epoch_loss = 0.0
        n_examples = 0
        for i in order:
            alignment = alignments[i]
            queries = encoder.slot_embed(alignment.oie, with_context)
            for slot, gold_id in enumerate(alignment.fact.ids):
                index = indices[slot == 1]
                gold = index.row(gold_id)
                keep_gold = bool(rng.random() >= config.gold_drop_prob)
                fill = min(config.subset_size - (1 if keep_gold else 0), len(index) - 1)
                rows = rng.choice(len(index) - 1, size=fill, replace=False)
                rows += rows >= gold  # index rows, skipping the gold's
                if keep_gold:
                    rows = np.concatenate(([gold], rows))
                keys = index.matrix[rows].astype(np.float64)
                label = 1.0 if keep_gold else 0.0

                query = queries[slot]
                state = _qkv_forward(params, query, keys)
                logit = state["logit"]
                epoch_loss += bce_loss(logit, label)
                n_examples += 1

                factors, d_scale, d_bias = _qkv_backward(
                    params, query, keys, state, bce_grad(logit, label)
                )
                for name, (left, right) in factors.items():
                    weights = getattr(params, name)
                    if wd:
                        weights *= shrink
                    # outer(left, right) as a k = 1 BLAS product: the same bits as
                    # np.outer, faster, and into one reused buffer
                    weights -= np.dot((lr * left)[:, None], right[None, :], out=update)
                params.scale -= lr * d_scale
                params.bias -= lr * d_bias
        mean_loss = require_finite(epoch_loss / max(n_examples, 1), f"epoch {epoch} mean loss")
        trace.append({"epoch": epoch, "mean_loss": mean_loss})
    return params, trace


# ---------------------------------------------------------------------------
# Persistence: the shared named-array format (io.save_arrays), float64.

_QKV_ARRAYS = ("q_proj", "k_proj", "v_proj")


def save_qkv_params(params: QkvParams, path, header: dict | None = None) -> None:
    save_arrays(
        path,
        {**(header or {}), "format": "qkv-attention", "scale": params.scale, "bias": params.bias},
        {name: np.asarray(getattr(params, name), dtype="<f8") for name in _QKV_ARRAYS},
    )


def load_qkv_params(path, dim: int) -> QkvParams:
    header, arrays = load_arrays(path, "qkv-attention", dict.fromkeys(_QKV_ARRAYS, "<f8"))
    q, k, v = arrays.values()
    with reading_artifact(path):
        if q.ndim != 2 or q.shape[0] != q.shape[1] or not q.shape == k.shape == v.shape:
            raise MalformedRecordError(
                f"{path}: need three d x d blocks, got {q.shape}, {k.shape}, {v.shape}"
            )
        if len(q) != dim:
            raise DataError(f"{path}: trained at encoder dim {len(q)}, not {dim}; run train-ookg")
        return QkvParams(**arrays, scale=float(header["scale"]), bias=float(header["bias"]))


def thresholds_record(thresholds: OokgThresholds, grid_metadata: dict | None = None) -> dict:
    """Nine threshold values (attention replicated per slot) plus grid
    metadata."""
    return {
        "confidence": list(thresholds.confidence),
        "entropy": list(thresholds.entropy),
        "attention": [thresholds.attention] * 3,
        "grid": grid_metadata or {},
    }


def thresholds_from_record(record: dict, path="thresholds record") -> OokgThresholds:
    """Inverse of ``thresholds_record``; a missing key, a wrong count, an
    out-of-range value or unequal attention values is a MalformedRecordError
    naming ``path``."""
    with reading_artifact(path):
        confidence, entropies, attention = (
            tuple(float(t) for t in record[key]) for key in ("confidence", "entropy", "attention")
        )
        if len(attention) != 3 or len(set(attention)) != 1:
            raise ValueError(f"attention needs one value listed per slot, got {attention}")
        return OokgThresholds(confidence=confidence, entropy=entropies, attention=attention[0])


# ---------------------------------------------------------------------------
# Threshold calibration


def detection_accuracy(
    statistics: Sequence[float],
    is_out: Sequence[bool],
    threshold: float | np.ndarray,
    out_when: str,
) -> float | np.ndarray:
    """Accuracy averaged over the two scenario classes, at one threshold or
    at each of an array of them; a statistic exactly at a threshold decides
    in-KG. Binary search over each class's sorted statistics counts it."""
    if out_when not in _OUT_SIGN:
        raise ValueError("out_when must be 'below' or 'above'")
    sign = _OUT_SIGN[out_when]
    stats = sign * np.asarray(statistics, dtype=np.float64)
    labels = np.asarray(is_out, dtype=bool)
    thresholds = sign * np.asarray(threshold, dtype=np.float64)
    accuracy = 0.0
    for cls in (True, False):
        class_stats = np.sort(stats[labels == cls])
        if not class_stats.size:
            raise DataError("calibration needs samples from both scenario classes")
        decided_out = np.searchsorted(class_stats, thresholds)
        hits = decided_out if cls else class_stats.size - decided_out
        accuracy = accuracy + hits / class_stats.size
    return accuracy / 2


def calibrate_threshold(
    statistics: Sequence[float],
    is_out: Sequence[bool],
    out_when: str,
    grid_size: int = 200,
) -> float:
    """Pick, from an evenly spaced grid between the observed statistic
    extremes, the threshold maximizing scenario-averaged accuracy; ties go
    to the smallest threshold."""
    stats = np.asarray(statistics, dtype=np.float64)
    if stats.size == 0:
        raise DataError("no calibration statistics")
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    grid = np.linspace(stats.min(), stats.max(), grid_size)
    return float(grid[np.argmax(detection_accuracy(stats, is_out, grid, out_when))])


# ---------------------------------------------------------------------------
# Detectors and the add/remove evaluation protocol


class OokgDetector(Protocol):
    """Per-slot decision given the slot's query embedding, the index of the
    matching kind and the scenario's ranked (id, score) list over it: its
    ``depth`` best rows, or None when ``depth`` is None (no scoring at
    all). ``gold_id`` identifies the slot's reference entry so oracle-style
    instrumentation is expressible; real detectors ignore it."""

    depth: int | None

    def decide(
        self, query: np.ndarray, index: EmbeddingIndex, ranked: list[tuple[str, float]] | None,
        slot: int, gold_id: str,
    ) -> tuple[Decision, float]: ...


def _support_statistics(ranked: list[tuple[str, float]]) -> tuple[float, float]:
    """(top-1 probability, entropy) of the softmax over the ``TOP_SUPPORT``
    ranked similarities; an empty store variant gets the most out-of-KG pair."""
    if not ranked:
        return 0.0, float(np.log(TOP_SUPPORT))
    probs = topk_softmax([score for _, score in ranked])
    return float(probs.max()), entropy(probs)


class ConfidenceDetector:
    depth = TOP_SUPPORT

    def __init__(self, thresholds: OokgThresholds | None = None):
        self.thresholds = thresholds or OokgThresholds()

    def decide(self, query, index, ranked, slot, gold_id):
        top1, _ = _support_statistics(ranked)
        return _threshold_decision(top1, self.thresholds.confidence[slot], "below"), top1


class EntropyDetector:
    depth = TOP_SUPPORT

    def __init__(self, thresholds: OokgThresholds | None = None):
        self.thresholds = thresholds or OokgThresholds()

    def decide(self, query, index, ranked, slot, gold_id):
        _, h = _support_statistics(ranked)
        if not ranked:  # out-of-KG even at a threshold of ln TOP_SUPPORT
            return Decision.OUT_OF_KG, h
        return _threshold_decision(h, self.thresholds.entropy[slot], "above"), h


class QkvDetector:
    """Attends over the top-``key_pool`` pre-ranked entries of the index."""

    def __init__(
        self,
        params: QkvParams,
        thresholds: OokgThresholds | None = None,
        key_pool: int = 64,
    ):
        self.params = params
        self.thresholds = thresholds or OokgThresholds()
        self.key_pool = key_pool

    @property
    def depth(self) -> int:
        return self.key_pool

    def decide(self, query, index, ranked, slot, gold_id):
        if not ranked:  # an empty store variant cannot contain the referent
            return Decision.OUT_OF_KG, 0.0
        keys = index.vectors(i for i, _ in ranked)
        score = qkv_score(self.params, query, keys)
        return _threshold_decision(score, self.thresholds.attention, "below"), score


class RandomDetector:
    """Fair coin per slot decision."""

    depth = None

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)

    def decide(self, query, index, ranked, slot, gold_id):
        out = bool(self.rng.integers(2))
        return (Decision.OUT_OF_KG if out else Decision.IN_KG), 0.5


class ConstantDetector:
    depth = None

    def __init__(self, decision: Decision):
        self.decision = decision

    def decide(self, query, index, ranked, slot, gold_id):
        return self.decision, 1.0 if self.decision is Decision.IN_KG else 0.0


@dataclass
class OokgReport:
    """Scenario-averaged detection accuracy per slot and for whole facts."""

    slot_accuracy: tuple[float, float, float]
    fact_accuracy: float
    trials_per_scenario: int
    records: list[dict] = field(default_factory=list, repr=False)


_SCENARIOS = ("imputed", "removed")  # a hit is an in-KG, then an out-of-KG decision


def _scenario_rankings(
    alignments: Sequence[Alignment],
    indices: tuple[EmbeddingIndex, EmbeddingIndex],
    encoder: ReferenceEncoder,
    with_context: bool,
    depth: int | None,
) -> tuple[list, dict[str, list[list]]]:
    """The alignments' slot queries, and per scenario, slot and alignment
    the slot's top-``depth`` (id, score) list (None when ``depth`` is None).

    Each query is scored once against the whole index of its slot kind
    (subjects and objects in one ``score_rows`` pass). "imputed" ranks every
    row; "removed" ranks the same scores over the rows that are no
    alignment's gold entry, as the index's row subset would. A gold id
    missing from its slot kind's index is an UnknownIdError.
    """
    if not alignments:
        raise DataError("no alignments to evaluate")
    for alignment in alignments:  # each slot against its own kind's index
        for slot, entry_id in enumerate(alignment.fact.ids):
            indices[slot == 1].row(entry_id)
    gold = {entry_id for alignment in alignments for entry_id in alignment.fact.ids}
    queries = [encoder.slot_embed(alignment.oie, with_context) for alignment in alignments]
    n = len(alignments)
    ranked = {scenario: [[None] * n for _ in range(3)] for scenario in _SCENARIOS}
    if depth is not None:
        for index, slots in ((indices[0], (0, 2)), (indices[1], (1,))):
            keep = np.flatnonzero([entry_id not in gold for entry_id in index.ids])
            targets = [(slot, i) for slot in slots for i in range(n)]
            rows = index.score_rows([queries[i][slot] for slot, i in targets])
            for (slot, i), scores in zip(targets, rows):
                ranked["imputed"][slot][i] = index.ranked(scores, depth)
                ranked["removed"][slot][i] = index.ranked(scores, depth, keep)
    return queries, ranked


def ookg_evaluate(
    detector: OokgDetector,
    alignments: Sequence[Alignment],
    indices: tuple[EmbeddingIndex, EmbeddingIndex],
    encoder: ReferenceEncoder,
    with_context: bool = False,
    collect_records: bool = False,
) -> OokgReport:
    """Run the paired imputed/removed protocol.

    The store's (entity, predicate) ``indices`` serve two scenarios: with
    the batch's gold entries present (a hit is an in-KG decision) and with
    all of them absent (a hit is an out-of-KG decision); the detector gets
    each scenario's ranked list (``_scenario_rankings``). Slot accuracy
    averages the two scenario trial sets; fact accuracy requires all three
    slot decisions correct within a trial. A gold id missing from its slot
    kind's index is an UnknownIdError.
    """
    queries, ranked = _scenario_rankings(alignments, indices, encoder, with_context, detector.depth)
    slot_hits = np.zeros(3)
    fact_hits = 0.0
    records: list[dict] = []
    for scenario in _SCENARIOS:
        expect_out = scenario == "removed"
        for i, alignment in enumerate(alignments):
            gold_ids = alignment.fact.ids
            all_correct = True
            for slot in range(3):
                decision, statistic = detector.decide(
                    queries[i][slot], indices[slot == 1], ranked[scenario][slot][i], slot,
                    gold_ids[slot],
                )
                correct = (decision is Decision.OUT_OF_KG) == expect_out
                slot_hits[slot] += correct
                all_correct &= correct
                if collect_records:
                    records.append(
                        {
                            "alignment_id": alignment_uid(alignment),
                            "slot": ("subject", "relation", "object")[slot],
                            "scenario": scenario,
                            "decision": decision.value,
                            "statistic": statistic,
                        }
                    )
            fact_hits += all_correct

    n_trials = 2 * len(alignments)
    return OokgReport(
        slot_accuracy=tuple(slot_hits / n_trials),
        fact_accuracy=fact_hits / n_trials,
        trials_per_scenario=len(alignments),
        records=records,
    )


def calibrate_all_thresholds(
    alignments: Sequence[Alignment],
    indices: tuple[EmbeddingIndex, EmbeddingIndex],
    encoder: ReferenceEncoder,
    attention: float = DEFAULT_ATTENTION_THRESHOLD,
    grid_size: int = 200,
    with_context: bool = False,
) -> tuple[OokgThresholds, dict]:
    """Grid-calibrate per-slot confidence and entropy thresholds on a
    hold-out set, from the support statistics of both scenarios of the
    imputed/removed protocol, each sample labelled out-of-KG by its
    scenario; returns thresholds plus grid metadata."""
    _, ranked = _scenario_rankings(alignments, indices, encoder, with_context, TOP_SUPPORT)
    confidence = []
    entropy_thresholds = []
    ranges: dict = {"grid_size": grid_size, "statistic_ranges": {}}
    for slot in range(3):
        samples = [(*_support_statistics(top), scenario == "removed")
                   for scenario in _SCENARIOS for top in ranked[scenario][slot]]
        top1, h, is_out = (np.array(column) for column in zip(*samples))
        confidence.append(calibrate_threshold(top1, is_out, "below", grid_size))
        entropy_thresholds.append(
            min(calibrate_threshold(h, is_out, "above", grid_size), float(np.log(TOP_SUPPORT)))
        )
        ranges["statistic_ranges"][f"confidence[{slot}]"] = [float(top1.min()), float(top1.max())]
        ranges["statistic_ranges"][f"entropy[{slot}]"] = [float(h.min()), float(h.max())]
    thresholds = OokgThresholds(
        confidence=tuple(np.clip(confidence, 1e-9, 1 - 1e-9)),
        entropy=tuple(entropy_thresholds),
        attention=attention,
    )
    return thresholds, ranges
