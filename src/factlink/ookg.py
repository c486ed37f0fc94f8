"""Out-of-KG detection: decide per OIE slot whether its referent exists in
the store, via top-1 confidence, entropy, or a query-key-value
cross-attention head over frozen pre-ranker embeddings."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .corpus import Alignment, alignment_uid
from .encoder import ReferenceEncoder
from .errors import DataError, require_finite
from .io import load_arrays, reading_artifact, save_arrays
from .preranker import EmbeddingIndex, check_indexed
from .reranker import _sigmoid, bce_grad, bce_loss

TOP_SUPPORT = 5  # fixed support for the confidence and entropy heuristics

DEFAULT_CONFIDENCE_THRESHOLDS = (0.235, 0.260, 0.235)
DEFAULT_ENTROPY_THRESHOLDS = (1.60, 1.58, 1.60)
DEFAULT_ATTENTION_THRESHOLD = 0.3
QKV_STEP = 16  # (alignment, slot) examples per train_qkv SGD step


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


def topk_softmax(sims: Sequence[float] | np.ndarray) -> np.ndarray:
    """Plain softmax (no temperature) over the top similarities, along the
    last axis; a -inf similarity (a padded key) gets probability exactly 0."""
    sims = np.asarray(sims, dtype=np.float64)
    if np.isneginf(sims).all(axis=-1).any():  # no similarity, or only padding
        raise DataError("softmax needs at least one similarity")
    exp = np.exp(sims - sims.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True)


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


def _qkv_forward(
    params: QkvParams, queries: np.ndarray, keys: np.ndarray, mask: np.ndarray
) -> dict:
    """The head's forward for n queries (the rows of ``queries``), query j
    attending over the ``mask[j]`` rows of its key block ``keys[j]``; the
    other rows pad the block and get attention exactly 0. The key
    projection is moved onto the query: ``logits = keys @ (k_projᵀ (q_proj
    q)) / √d`` costs O(d² + m·d) for m keys, where projecting every key
    costs O(m·d²). Query j's logit is ``scale * inner[j] + bias``."""
    q_projected = queries @ params.q_proj.T
    logits = np.matmul(keys, (q_projected @ params.k_proj)[:, :, None])[:, :, 0]
    attention = topk_softmax(np.where(mask, logits / np.sqrt(params.dim), -np.inf))
    mean_key = np.matmul(attention[:, None, :], keys)[:, 0, :]
    context = mean_key @ params.v_proj.T
    inner = np.matmul(queries[:, None, :], context[:, :, None])[:, 0, 0]
    return {
        "q_projected": q_projected,
        "attention": attention,
        "mean_key": mean_key,
        "inner": inner,
    }


def _qkv_backward(
    params: QkvParams, queries: np.ndarray, keys: np.ndarray, state: dict, d_logit: np.ndarray
) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], float, float]:
    """Gradients of the n examples' summed loss, ``d_logit[j]`` being d loss
    / d logit j at the forward ``state``: each projection's as factors
    (left, right) of n rows, its gradient being ``leftᵀ @ right`` (one
    outer product per example); then scale's and bias's."""
    d_context = (d_logit * params.scale)[:, None] * queries
    d_attention = np.matmul(keys, (d_context @ params.v_proj)[:, :, None])[:, :, 0]
    a = state["attention"]
    d_logits = a * (d_attention - np.matmul(a[:, None, :], d_attention[:, :, None])[:, 0])
    d_key_query = np.matmul(d_logits[:, None, :], keys)[:, 0, :] / np.sqrt(params.dim)
    factors = {
        "q_proj": (d_key_query @ params.k_proj.T, queries),
        "k_proj": (state["q_projected"], d_key_query),
        "v_proj": (d_context, state["mean_key"]),
    }
    return factors, float(d_logit @ state["inner"]), float(d_logit.sum())


def qkv_score(params: QkvParams, query: np.ndarray, keys: Sequence[np.ndarray]) -> float:
    """Attention of the projected query over projected keys, pooled over
    value-projected keys; score = sigmoid(scale * (query . context) + bias)."""
    key_matrix = np.asarray(keys, dtype=np.float64)
    if key_matrix.size == 0:
        raise DataError("qkv_score needs at least one key")
    state = _qkv_forward(
        params, np.asarray(query, dtype=np.float64)[None], key_matrix[None],
        np.ones((1, len(key_matrix)), dtype=bool),
    )
    return _sigmoid(params.scale * state["inner"][0] + params.bias)


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


def _sampled_examples(
    alignments: Sequence[Alignment], order: np.ndarray, queries: Sequence[tuple],
    indices: tuple[EmbeddingIndex, EmbeddingIndex], config: QkvTrainConfig, rng: np.random.Generator,
):
    """The epoch's (query, key rows, label) examples, per alignment in
    ``order`` and slot, drawn lazily in stream order. Key rows index the
    entity index's rows followed by the predicate index's."""
    for i, slot_queries in zip(order, queries):
        for slot, gold_id in enumerate(alignments[i].fact.ids):
            index = indices[slot == 1]
            gold = index.row(gold_id)
            keep_gold = bool(rng.random() >= config.gold_drop_prob)
            fill = min(config.subset_size - (1 if keep_gold else 0), len(index) - 1)
            rows = rng.choice(len(index) - 1, size=fill, replace=False)
            rows += rows >= gold  # index rows, skipping the gold's
            if keep_gold:
                rows = np.concatenate(([gold], rows))
            offset = len(indices[0]) if slot == 1 else 0
            yield slot_queries[slot], rows + offset, float(keep_gold)


def train_qkv(
    alignments: Sequence[Alignment],
    encoder: ReferenceEncoder,
    indices: tuple[EmbeddingIndex, EmbeddingIndex],
    config: QkvTrainConfig,
    with_context: bool = False,
) -> tuple[QkvParams, list[dict]]:
    """Train the attention head with binary cross-entropy, by minibatch SGD.

    Per alignment and slot, a key subset is sampled from the (entity,
    predicate) ``indices`` entry of the slot's kind: the gold row is dropped
    with the configured probability (label 0) or kept (label 1), the
    remainder filled with uniformly drawn other rows. Keys are index rows
    cast to float64, as ``QkvDetector`` reads them; a gold id missing from
    its kind's index is a DataError, raised before any work.

    The epoch's stream of (alignment, slot) examples is cut every
    ``QKV_STEP`` examples, across alignments; the last step may be short.
    A step sums its examples' gradients (and weight-decay terms) at the
    step's params, so ``learning_rate`` keeps its per-example meaning.
    """
    if not alignments:
        raise DataError("no calibration alignments")
    check_indexed(alignments, indices)

    params = QkvParams.identity(encoder.dim)
    rng = np.random.default_rng(config.seed)
    lr = config.learning_rate
    wd = config.weight_decay
    # both indices' rows cast once, then the zero row that pads a step's key blocks
    key_matrix = np.vstack([indices[0].matrix, indices[1].matrix, np.zeros((1, encoder.dim))])
    pad = len(key_matrix) - 1
    update = np.empty_like(params.q_proj)
    trace: list[dict] = []

    for epoch in range(config.epochs):
        order = rng.permutation(len(alignments))
        embedded = encoder.slot_embeds([alignments[i].oie for i in order], with_context)
        examples = _sampled_examples(alignments, order, embedded, indices, config, rng)
        epoch_loss = 0.0
        while step := list(itertools.islice(examples, QKV_STEP)):
            queries, rows, labels = zip(*step)
            block = np.full((len(step), max(map(len, rows))), pad)
            for j, example_rows in enumerate(rows):
                block[j, : len(example_rows)] = example_rows
            queries, keys = np.array(queries), key_matrix[block]
            state = _qkv_forward(params, queries, keys, block != pad)
            d_logit = np.empty(len(step))
            # scalar logits: a diverging head fails in this product, on numpy's scalar message
            for j, (inner, label) in enumerate(zip(state["inner"], labels)):
                logit = params.scale * inner + params.bias
                epoch_loss += bce_loss(logit, label)
                d_logit[j] = bce_grad(logit, label)

            factors, d_scale, d_bias = _qkv_backward(params, queries, keys, state, d_logit)
            for name, (left, right) in factors.items():
                weights = getattr(params, name)
                if wd:
                    weights *= 1.0 - len(step) * lr * wd
                weights -= np.dot((lr * left).T, right, out=update)
            params.scale -= lr * d_scale
            params.bias -= lr * d_bias
        mean_loss = require_finite(epoch_loss / (3 * len(alignments)), f"epoch {epoch} mean loss")
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
            raise DataError(
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
    out-of-range value or unequal attention values is a DataError
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
    all)."""

    depth: int | None

    def decide(
        self, query: np.ndarray, index: EmbeddingIndex, ranked: list[tuple[str, float]] | None,
        slot: int,
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

    def decide(self, query, index, ranked, slot):
        top1, _ = _support_statistics(ranked)
        return _threshold_decision(top1, self.thresholds.confidence[slot], "below"), top1


class EntropyDetector:
    depth = TOP_SUPPORT

    def __init__(self, thresholds: OokgThresholds | None = None):
        self.thresholds = thresholds or OokgThresholds()

    def decide(self, query, index, ranked, slot):
        _, h = _support_statistics(ranked)
        if not ranked:  # out-of-KG even at a threshold of ln TOP_SUPPORT
            return Decision.OUT_OF_KG, h
        return _threshold_decision(h, self.thresholds.entropy[slot], "above"), h


class QkvDetector:
    """Attends over the top-``depth`` pre-ranked entries of the index."""

    def __init__(self, params: QkvParams, thresholds: OokgThresholds | None = None,
                 depth: int = 64):
        self.params = params
        self.thresholds = thresholds or OokgThresholds()
        self.depth = depth

    def decide(self, query, index, ranked, slot):
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

    def decide(self, query, index, ranked, slot):
        out = bool(self.rng.integers(2))
        return (Decision.OUT_OF_KG if out else Decision.IN_KG), 0.5


class ConstantDetector:
    depth = None

    def __init__(self, decision: Decision):
        self.decision = decision

    def decide(self, query, index, ranked, slot):
        return self.decision, 1.0 if self.decision is Decision.IN_KG else 0.0


@dataclass
class OokgReport:
    """Scenario-averaged detection accuracy per slot and for whole facts."""

    slot_accuracy: tuple[float, float, float]
    fact_accuracy: float
    trials_per_scenario: int
    records: list[dict] = field(repr=False)  # one per slot decision


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
    missing from its slot kind's index is a DataError.
    """
    if not alignments:
        raise DataError("no alignments to evaluate")
    check_indexed(alignments, indices)
    gold = {entry_id for alignment in alignments for entry_id in alignment.fact.ids}
    queries = encoder.slot_embeds([alignment.oie for alignment in alignments], with_context)
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
) -> OokgReport:
    """Run the paired imputed/removed protocol.

    The store's (entity, predicate) ``indices`` serve two scenarios: with
    the batch's gold entries present (a hit is an in-KG decision) and with
    all of them absent (a hit is an out-of-KG decision); the detector gets
    each scenario's ranked list (``_scenario_rankings``). Slot accuracy
    averages the two scenario trial sets; fact accuracy requires all three
    slot decisions correct within a trial. A gold id missing from its slot
    kind's index is a DataError.
    """
    queries, ranked = _scenario_rankings(alignments, indices, encoder, with_context, detector.depth)
    slot_hits = np.zeros(3)
    fact_hits = 0.0
    records: list[dict] = []
    for scenario in _SCENARIOS:
        expect_out = scenario == "removed"
        for i, alignment in enumerate(alignments):
            all_correct = True
            for slot in range(3):
                decision, statistic = detector.decide(
                    queries[i][slot], indices[slot == 1], ranked[scenario][slot][i], slot
                )
                correct = (decision is Decision.OUT_OF_KG) == expect_out
                slot_hits[slot] += correct
                all_correct &= correct
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
