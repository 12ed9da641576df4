"""Normative BLEU-1/4, ROUGE-L, and table-aware PARENT, with grouped reports.

These definitions are the reference point for every score in the project;
they are deliberately simple (corpus-pooled clipped precisions, no
smoothing) so each number can be recomputed by hand. PARENT mixes reference
recall with table recall as R = R_ref^(1-lambda) * R_tab^lambda, where the
table side is the token set of the highlighted cells.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ConfigError, ContractError
from .tables import ANALYTICAL_CATEGORIES, Table, canonical_categories, tokenize


@dataclass(frozen=True)
class MetricConfig:
    parent_lambda: float = 0.1

    def __post_init__(self):
        lam = self.parent_lambda
        # `not <in range>` rather than `<out of range>`: NaN fails every comparison
        if isinstance(lam, bool) or not isinstance(lam, numbers.Real) or not 0.0 <= lam <= 1.0:
            raise ConfigError(f"metrics config parent_lambda must be a number in [0, 1], got {lam!r}")


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


# -- BLEU --------------------------------------------------------------------------


def bleu(candidates: Sequence[str], references: Sequence[str], order: int = 4) -> float:
    """Corpus-level BLEU in 0..100: pooled clipped n-gram precisions,
    geometric mean, brevity penalty exp(1 - r/c) when c <= r. Any zero pooled
    precision yields 0 (no smoothing)."""
    if not candidates:
        raise ContractError("bleu: empty corpus")
    if len(candidates) != len(references):
        raise ContractError(f"bleu: {len(candidates)} candidates vs {len(references)} references")
    if not 1 <= order <= 4:
        raise ContractError(f"bleu: order {order} outside 1..4")
    cand_tokens = [tokenize(c) for c in candidates]
    ref_tokens = [tokenize(r) for r in references]
    c_len = sum(len(t) for t in cand_tokens)
    r_len = sum(len(t) for t in ref_tokens)
    if c_len == 0:
        return 0.0
    log_precisions = 0.0
    for n in range(1, order + 1):
        clipped = 0
        total = 0
        for cand, ref in zip(cand_tokens, ref_tokens):
            cand_grams = _ngrams(cand, n)
            ref_grams = _ngrams(ref, n)
            total += sum(cand_grams.values())
            clipped += sum(min(count, ref_grams[g]) for g, count in cand_grams.items())
        if clipped == 0 or total == 0:
            return 0.0
        log_precisions += math.log(clipped / total)
    bp = math.exp(1.0 - r_len / c_len) if c_len <= r_len else 1.0
    return 100.0 * bp * math.exp(log_precisions / order)


# -- ROUGE-L ------------------------------------------------------------------------


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def rouge_l(candidate: str, reference: str) -> float:
    """LCS-based F1 in 0..1 for one candidate/reference pair."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    ell = _lcs_length(cand, ref)
    if ell == 0:
        return 0.0
    p = ell / len(cand)
    r = ell / len(ref)
    return 2 * p * r / (p + r)


# -- PARENT -------------------------------------------------------------------------


def _table_token_set(table: Table, highlights: Sequence[tuple[int, int]]) -> set[str]:
    if highlights:
        cells = [table.rows[r][c] for r, c in highlights]
    else:
        cells = [cell for row in table.rows for cell in row]
    out: set[str] = set()
    for cell in cells:
        out.update(tokenize(cell))
    return out


def parent(
    candidate: str,
    reference: str,
    table: Table,
    highlights: Sequence[tuple[int, int]] = (),
    lam: float = 0.1,
) -> float:
    """Table-aware F-score in 0..1 for one instance.

    Precision: per order n, each candidate n-gram counts fully if it occurs
    in the reference, otherwise by the fraction of its tokens entailed by the
    table token set; P is the geometric mean over orders with any candidate
    n-grams. Recall mixes clipped n-gram recall against the reference with
    the fraction of table tokens the candidate covers, weighted by lambda.
    """
    if not 0.0 <= lam <= 1.0:
        raise ContractError(f"parent: lambda {lam} outside [0, 1]")
    cand = tokenize(candidate)
    ref = tokenize(reference)
    omega = _table_token_set(table, highlights)

    log_sum, orders = 0.0, 0
    for n in range(1, 5):
        cand_grams = _ngrams(cand, n)
        if not cand_grams:
            continue
        ref_grams = _ngrams(ref, n)
        total = sum(cand_grams.values())
        entailed = 0.0
        for gram, count in cand_grams.items():
            w = sum(1 for tok in gram if tok in omega) / n
            entailed += count * max(1.0 if gram in ref_grams else 0.0, w)
        ep = entailed / total
        if ep == 0.0:
            return 0.0
        log_sum += math.log(ep)
        orders += 1
    if orders == 0:
        return 0.0
    precision = math.exp(log_sum / orders)

    log_sum, orders = 0.0, 0
    recall_ref = 0.0
    for n in range(1, 5):
        ref_grams = _ngrams(ref, n)
        if not ref_grams:
            continue
        cand_grams = _ngrams(cand, n)
        total = sum(ref_grams.values())
        clipped = sum(min(count, cand_grams[g]) for g, count in ref_grams.items())
        if clipped == 0:
            log_sum = -math.inf
        else:
            log_sum += math.log(clipped / total)
        orders += 1
    recall_ref = math.exp(log_sum / orders) if orders and log_sum > -math.inf else 0.0

    cand_set = set(cand)
    recall_tab = (sum(1 for tok in omega if tok in cand_set) / len(omega)) if omega else 1.0
    recall = (recall_ref ** (1.0 - lam)) * (recall_tab**lam)
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


# -- per-instance records and grouped reports -------------------------------------------


@dataclass
class InstanceRecord:
    """Everything needed to recompute any aggregate from scratch."""

    instance_id: str
    candidate: str
    reference: str
    categories: tuple[str, ...]
    kind: str  # analytical | descriptive
    bleu1: float
    rougeL: float
    parent: float
    log_prob: float = 0.0

    def to_json(self) -> dict:
        return {
            "id": self.instance_id,
            "candidate": self.candidate,
            "reference": self.reference,
            "categories": list(self.categories),
            "kind": self.kind,
            "bleu1": self.bleu1,
            "rougeL": self.rougeL,
            "parent": self.parent,
            "log_prob": self.log_prob,
        }


def make_record(instance_id, candidate, reference, table, highlights, categories, cfg=MetricConfig(), log_prob=0.0):
    cats = tuple(canonical_categories(categories))
    return InstanceRecord(
        instance_id=instance_id,
        candidate=candidate,
        reference=reference,
        categories=cats,
        kind="descriptive" if cats == ("descriptive",) else "analytical",
        bleu1=bleu([candidate], [reference], order=1),
        rougeL=rouge_l(candidate, reference),
        parent=parent(candidate, reference, table, highlights, lam=cfg.parent_lambda),
        log_prob=log_prob,
    )


def _aggregate(records: Sequence[InstanceRecord], order_max: int = 4) -> dict:
    if not records:
        return {"count": 0, "bleu1": 0.0, "bleu4": 0.0, "rougeL": 0.0, "parent": 0.0}
    cands = [r.candidate for r in records]
    refs = [r.reference for r in records]
    return {
        "count": len(records),
        "bleu1": bleu(cands, refs, order=1),
        "bleu4": bleu(cands, refs, order=order_max),
        "rougeL": sum(r.rougeL for r in records) / len(records),
        "parent": sum(r.parent for r in records) / len(records),
    }


def category_report(records: Sequence[InstanceRecord]) -> dict:
    """Aggregates overall / analytical / descriptive, per single category,
    and per category-set cardinality (2 and 3)."""
    analytical = [r for r in records if r.kind == "analytical"]
    descriptive = [r for r in records if r.kind == "descriptive"]
    report = {
        "overall": _aggregate(records),
        "analytical": _aggregate(analytical),
        "descriptive": _aggregate(descriptive),
        "per-category": {
            cat: _aggregate([r for r in records if r.categories == (cat,)]) for cat in ANALYTICAL_CATEGORIES
        },
        "per-cardinality": {
            str(k): _aggregate([r for r in analytical if len(r.categories) == k]) for k in (2, 3)
        },
    }
    return report


@dataclass
class EvalReport:
    records: list[InstanceRecord]
    aggregates: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_records(cls, records: Iterable[InstanceRecord], metadata: dict | None = None) -> "EvalReport":
        records = list(records)
        return cls(records=records, aggregates=category_report(records), metadata=metadata or {})

    def to_json(self) -> dict:
        return {
            "aggregates": self.aggregates,
            "records": [r.to_json() for r in self.records],
            "metadata": self.metadata,
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, ensure_ascii=False, indent=2)
            fh.write("\n")
