"""Text metrics for the three benchmark task families: QA overlap scores,
title-generation BLEU-4/ROUGE-L, and two-level categorization scores."""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass

from .errors import InvariantError

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_BLEU_EPSILON = 1e-9


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation and articles, collapse whitespace."""
    text = text.lower()
    text = "".join(ch for ch in text if ch not in string.punctuation)
    text = _ARTICLES.sub(" ", text)
    return " ".join(text.split())


def exact_match(pred: str, gold: str) -> int:
    return int(normalize_answer(pred) == normalize_answer(gold))


@dataclass(frozen=True)
class OverlapScores:
    precision: float
    recall: float

    @property
    def f1(self) -> float:
        """The harmonic mean of precision and recall; zero when both are."""
        total = self.precision + self.recall
        return 2 * self.precision * self.recall / total if total else 0.0


def token_f1(pred: str, gold: str) -> OverlapScores:
    """Token-multiset precision/recall/F1 over normalized answers; zero
    overlap scores zero."""
    pred_tokens = normalize_answer(pred).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens and not gold_tokens:
        return OverlapScores(1.0, 1.0)
    if not pred_tokens or not gold_tokens:
        return OverlapScores(0.0, 0.0)
    common = Counter(pred_tokens) & Counter(gold_tokens)
    overlap = sum(common.values())
    return OverlapScores(overlap / len(pred_tokens), overlap / len(gold_tokens))


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu4(pred: str, gold: str) -> float:
    """Single-reference BLEU with uniform 1-4-gram weights, count clipping,
    and brevity penalty. Zero-count n-gram precisions get a tiny numerator
    floor instead of zeroing the score (short titles rarely share 4-grams)."""
    pred_tokens = pred.split()
    gold_tokens = gold.split()
    if not pred_tokens:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        pred_ngrams = _ngrams(pred_tokens, n)
        gold_ngrams = _ngrams(gold_tokens, n)
        total = sum(pred_ngrams.values())
        clipped = sum(min(count, gold_ngrams[gram]) for gram, count in pred_ngrams.items())
        numerator = clipped if clipped > 0 else _BLEU_EPSILON
        log_sum += 0.25 * math.log(numerator / max(total, 1))
    if len(pred_tokens) >= len(gold_tokens):
        brevity = 1.0
    else:
        brevity = math.exp(1 - len(gold_tokens) / len(pred_tokens))
    return brevity * math.exp(log_sum)


def _lcs_length(a: list[str], b: list[str]) -> int:
    previous = [0] * (len(b) + 1)
    for token in a:
        current = [0]
        for j, other in enumerate(b, start=1):
            if token == other:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


def rouge_l(pred: str, gold: str) -> OverlapScores:
    """Longest-common-subsequence precision/recall/F1 over whitespace tokens
    of the normalized texts."""
    pred_tokens = normalize_answer(pred).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens or not gold_tokens:
        return OverlapScores(0.0, 0.0)
    lcs = _lcs_length(pred_tokens, gold_tokens)
    return OverlapScores(lcs / len(pred_tokens), lcs / len(gold_tokens))


@dataclass(frozen=True)
class LevelScores:
    accuracy: float
    f1: float
    precision: float
    recall: float


def _weighted_scores(preds: list[str], golds: list[str]) -> LevelScores:
    n = len(golds)
    gold_counts = Counter(golds)
    pred_counts = Counter(preds)
    true_positives = Counter(g for p, g in zip(preds, golds) if p == g)
    accuracy = sum(true_positives.values()) / n
    precision = recall = f1 = 0.0
    for label, gold_count in gold_counts.items():
        weight = gold_count / n
        tp = true_positives[label]
        p = tp / pred_counts[label] if pred_counts[label] else 0.0
        r = tp / gold_count
        f = 2 * p * r / (p + r) if (p + r) else 0.0
        precision += weight * p
        recall += weight * r
        f1 += weight * f
    return LevelScores(accuracy=accuracy, f1=f1, precision=precision, recall=recall)


def hierarchical_scores(
    preds: list[tuple[str, str]], golds: list[tuple[str, str]]
) -> dict[str, LevelScores]:
    """Per-level accuracy plus weighted-average multi-class P/R/F1, the
    weights being gold class frequencies (so weighted recall equals
    accuracy)."""
    if len(preds) != len(golds):
        raise InvariantError(
            f"prediction/gold length mismatch: {len(preds)} != {len(golds)}"
        )
    if not golds:
        raise InvariantError("hierarchical scoring requires at least one record")
    return {
        "level1": _weighted_scores([p[0] for p in preds], [g[0] for g in golds]),
        "level2": _weighted_scores([p[1] for p in preds], [g[1] for g in golds]),
    }
