"""Correctness checks the benchmark runs on its own outputs.

Each check returns a list of problems; an empty list means it passed. The
checks compute their expectations apart from the code under test (a numpy
nearest-code search, a clipped-unigram BLEU-1, an LCS table for ROUGE-L) or
test a property the method must have (greedy tokens are argmaxes, returned
log-probs equal a teacher-forced rescoring, frozen groups stay bitwise
fixed). ``test_checks.py`` feeds each one a corrupted output and sees it fail.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np

from retag.model import Prepared
from retag.tables import BOS, EOS, SPECIAL_TOKENS

# Generation keeps float32 logits and sums per-token log-probs; the
# teacher-forced forward runs the same arithmetic on a longer prefix, so the
# two differ by float32 rounding only (largest gap seen: about 1e-6).
LOGPROB_TOL = 1e-4
ARGMAX_TOL = 1e-4
# quantize compares float32 squared distances; a float64 recomputation may
# disagree only between codes whose distances tie to this relative margin.
DISTANCE_RTOL = 1e-5
SCORE_TOL = 1e-9

_TOKEN_RE = re.compile(r"</hl>|<hl>|[a-z0-9]+|[^\sa-z0-9]")


def text_of(vocab, sequence: list[int]) -> str:
    """The words of an id sequence, special tokens left out, as generation returns them."""
    return " ".join(vocab.id_to_token[i] for i in sequence if i >= len(SPECIAL_TOKENS))


def _sequence_problems(vocab, sequence: list[int], text: str, max_len: int) -> list[str]:
    if sequence[0] != BOS or len(sequence) > max_len or (sequence[-1] != EOS and len(sequence) != max_len):
        return [f"sequence of {len(sequence)} ids is not <bos> ... <eos> or a cut at {max_len}"]
    if text_of(vocab, sequence) != text:
        return [f"returned text {text!r} is not the text of its ids {text_of(vocab, sequence)!r}"]
    return []


def teacher_forced_logp(model, prepared: Prepared, sequence: list[int]) -> np.ndarray:
    """Log-softmax of one teacher-forced ``forward_train`` over ``sequence``.

    Row ``t`` scores the token at position ``t + 1``.
    """
    forced = Prepared(
        instance=prepared.instance,
        input_ids=prepared.input_ids,
        target_ids=np.asarray(sequence, dtype=np.int64),
        category_mask=prepared.category_mask,
        kind=prepared.kind,
    )
    logits = model.forward_train(forced).logits.data.astype(np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _logprob_gap(logp: np.ndarray, sequence: list[int], log_prob: float) -> float:
    chosen = logp[np.arange(len(sequence) - 1), sequence[1:]]
    return abs(float(chosen.sum()) - log_prob)


def check_greedy(model, prepared: Prepared, sequence: list[int], text: str, log_prob: float, max_len: int) -> list[str]:
    """Every greedy token is the argmax, and the log-prob is the rescored sum."""
    problems = _sequence_problems(model.vocab, sequence, text, max_len)
    logp = teacher_forced_logp(model, prepared, sequence)
    for t, tok in enumerate(sequence[1:]):
        if logp[t, tok] < logp[t].max() - ARGMAX_TOL:
            problems.append(f"greedy token {t + 1} ({tok}) is not the argmax ({int(logp[t].argmax())})")
            break
    gap = _logprob_gap(logp, sequence, log_prob)
    if not gap <= LOGPROB_TOL * max(1.0, abs(log_prob)):
        problems.append(f"greedy log-prob {log_prob} differs from the rescoring by {gap:.3g}")
    return problems


def check_beam(model, prepared: Prepared, sequence: list[int], text: str, log_prob: float, max_len: int) -> list[str]:
    """The returned log-prob equals the teacher-forced rescoring of the sequence."""
    problems = _sequence_problems(model.vocab, sequence, text, max_len)
    gap = _logprob_gap(teacher_forced_logp(model, prepared, sequence), sequence, log_prob)
    if not gap <= LOGPROB_TOL * max(1.0, abs(log_prob)):
        problems.append(f"beam log-prob {log_prob} differs from the rescoring by {gap:.3g}")
    return problems


def check_nearest_codes(enc: np.ndarray, codes: np.ndarray, indices: np.ndarray) -> list[str]:
    """``indices`` select the nearest code per row, ties going to the lowest index."""
    enc = np.asarray(enc, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.float64)
    d2 = np.empty((enc.shape[0], codes.shape[0]))
    for k in range(codes.shape[0]):
        diff = enc - codes[k]
        d2[:, k] = (diff * diff).sum(axis=1)
    expected = d2.argmin(axis=1)
    best = d2[np.arange(len(expected)), expected]
    got = np.asarray(indices, dtype=np.int64)
    if got.shape != expected.shape:
        return [f"quantize returned {got.shape} indices for {expected.shape[0]} rows"]
    got_d2 = d2[np.arange(len(got)), got]
    farther = got_d2 > best + DISTANCE_RTOL * (1.0 + best)
    exact_tie_not_lowest = (got_d2 == best) & (got > expected)
    bad = np.nonzero((got != expected) & (farther | exact_tie_not_lowest))[0]
    if bad.size:
        n = int(bad[0])
        return [f"row {n}: quantize chose code {got[n]} at d2 {got_d2[n]:.6g}, nearest is {expected[n]} at {best[n]:.6g}"]
    return []


def check_frozen(before: dict[str, np.ndarray], after: dict[str, np.ndarray], prefixes: tuple[str, ...], stage: str) -> list[str]:
    """Every parameter under ``prefixes`` is bitwise unchanged across ``stage``."""
    names = [n for n in before if n.startswith(prefixes)]
    if not names:
        return [f"{stage}: no parameter under {prefixes}"]
    changed = [n for n in names if before[n].dtype != after[n].dtype or before[n].tobytes() != after[n].tobytes()]
    return [f"{stage} changed frozen parameters {changed[:3]}"] if changed else []


LOSS_TERMS = ("total", "generative", "ci", "codebook", "commitment")


def check_descent(logged: list[dict]) -> list[str]:
    """Logged loss terms are finite; the fine-tune generative loss goes down."""
    problems = []
    for entry in logged:
        bad = [t for t in LOSS_TERMS if not math.isfinite(entry[t])]
        if bad:
            problems.append(f"{entry['stage']} step {entry['step']}: non-finite {bad}")
            break
    ft = [e["generative"] for e in logged if e["stage"] == "finetune"]
    if len(ft) < 2:
        problems.append(f"only {len(ft)} fine-tune steps logged")
    elif not ft[-1] < ft[0]:
        problems.append(f"fine-tune generative loss went from {ft[0]:.4f} to {ft[-1]:.4f}")
    return problems


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def bleu1(candidate: str, reference: str) -> float:
    """Sentence BLEU-1 in 0..100: clipped unigram precision times the brevity penalty."""
    cand, ref = _tokens(candidate), _tokens(reference)
    if not cand:
        return 0.0
    ref_counts = Counter(ref)
    clipped = sum(min(n, ref_counts[w]) for w, n in Counter(cand).items())
    if clipped == 0:
        return 0.0
    bp = math.exp(1.0 - len(ref) / len(cand)) if len(cand) <= len(ref) else 1.0
    return 100.0 * bp * clipped / len(cand)


def rouge_l(candidate: str, reference: str) -> float:
    """F1 of the longest common subsequence, from a full dynamic-programming table."""
    a, b = _tokens(candidate), _tokens(reference)
    table = np.zeros((len(a) + 1, len(b) + 1), dtype=np.int64)
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i, j] = table[i - 1, j - 1] + 1 if a[i - 1] == b[j - 1] else max(table[i - 1, j], table[i, j - 1])
    lcs = int(table[-1, -1])
    if lcs == 0:
        return 0.0
    p, r = lcs / len(a), lcs / len(b)
    return 2 * p * r / (p + r)


def check_record(record, self_record) -> list[str]:
    """Scores lie in range, agree with the recomputation, and a reference scores 1 on itself.

    BLEU-1 is on the program's 0..100 scale. PARENT of a reference against
    itself is below 1 whenever highlighted cell tokens are missing from it,
    so only BLEU-1 and ROUGE-L are held to 1 there.
    """
    problems = []
    ranges = {"bleu1": record.bleu1 / 100.0, "rougeL": record.rougeL, "parent": record.parent}
    for name, value in ranges.items():
        if not 0.0 <= value <= 1.0:
            problems.append(f"{record.instance_id}: {name} {value} outside [0, 1]")
    for name, ours, theirs in (
        ("bleu1", bleu1(record.candidate, record.reference), record.bleu1),
        ("rougeL", rouge_l(record.candidate, record.reference), record.rougeL),
    ):
        if abs(ours - theirs) > SCORE_TOL * max(1.0, abs(ours)):
            problems.append(f"{record.instance_id}: {name} {theirs} but recomputed {ours}")
    if abs(self_record.bleu1 - 100.0) > SCORE_TOL * 100.0 or abs(self_record.rougeL - 1.0) > SCORE_TOL:
        problems.append(f"{record.instance_id}: reference against itself scores bleu1 {self_record.bleu1}, rougeL {self_record.rougeL}")
    return problems


def check_checkpoint(saved, loaded) -> list[str]:
    """Every loaded parameter and the vocabulary are bitwise the saved ones."""
    problems = []
    if set(saved.params) != set(loaded.params):
        problems.append(f"parameter names differ: {sorted(set(saved.params) ^ set(loaded.params))[:3]}")
    for name in sorted(set(saved.params) & set(loaded.params)):
        a, b = saved.params[name].data, loaded.params[name].data
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            problems.append(f"parameter {name} differs after the round trip")
            break
    if saved.vocab.id_to_token != loaded.vocab.id_to_token:
        problems.append("vocabulary differs after the round trip")
    if saved.config != loaded.config:
        problems.append("model config differs after the round trip")
    return problems
