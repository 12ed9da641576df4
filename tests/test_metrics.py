"""Metric oracles: frozen hand-computed cases and structural properties."""

import numpy as np
import pytest

from retag.errors import ConfigError, ContractError
from retag.metrics import (
    EvalReport,
    MetricConfig,
    bleu,
    category_report,
    make_record,
    parent,
    rouge_l,
)
from retag.tables import Table


def mk_table(headers, rows):
    return Table(id="t", title="ti", section_title="s", headers=tuple(headers), rows=tuple(tuple(r) for r in rows))


# -- BLEU ------------------------------------------------------------------------


def test_bleu_identical_corpus_is_100_at_any_order():
    cands = ["the cat sat on the mat", "a b c d e"]
    for order in (1, 2, 3, 4):
        assert bleu(cands, list(cands), order=order) == pytest.approx(100.0, abs=1e-9)


def test_bleu1_brevity_penalty_hand_case():
    # p1 = 4/4, BP = exp(1 - 5/4)
    got = bleu(["a b c d"], ["a b c d e"], order=1)
    assert abs(got - 77.8800783071405) < 1e-9


def test_bleu_token_disjoint_is_zero():
    assert bleu(["x y z"], ["a b c"], order=1) == 0.0


def test_bleu_zero_pooled_precision_is_zero():
    # unigrams overlap but no bigram does -> BLEU-2 is 0 without smoothing
    assert bleu(["a c b"], ["a b c"], order=1) > 0
    assert bleu(["a x b"], ["a b"], order=2) == 0.0


def test_bleu_corpus_order_invariance():
    cands = ["a b c d", "x y z w", "m n o p"]
    refs = ["a b c e", "x y q w", "m n o p"]
    forward = bleu(cands, refs, order=2)
    backward = bleu(cands[::-1], refs[::-1], order=2)
    assert forward == pytest.approx(backward, abs=1e-12)


def test_bleu_contract_errors():
    with pytest.raises(ContractError):
        bleu([], [])
    with pytest.raises(ContractError):
        bleu(["a"], ["a", "b"])


# -- ROUGE-L ----------------------------------------------------------------------


def test_rouge_identical_is_one():
    assert rouge_l("the cat sat", "the cat sat") == pytest.approx(1.0, abs=1e-12)


def test_rouge_hand_case():
    # LCS("a b c", "a x c") = 2; P = R = 2/3
    assert abs(rouge_l("a b c", "a x c") - 2 / 3) < 1e-9


def test_rouge_empty_candidate_is_zero():
    assert rouge_l("", "something here") == 0.0
    assert rouge_l("no overlap at all", "完全") == 0.0


# -- PARENT -----------------------------------------------------------------------


def test_parent_perfect_when_reference_matches_and_table_covered():
    table = mk_table(["h"], [["a"], ["b"]])
    score = parent("a b", "a b", table, highlights=((0, 0), (1, 0)), lam=0.1)
    assert score == pytest.approx(1.0, abs=1e-12)


def test_parent_lambda_zero_ignores_table_recall():
    table = mk_table(["h"], [["a"], ["zzz"]])
    full = parent("a b", "a b", table, highlights=((0, 0),), lam=0.0)
    missing = parent("a b", "a b", table, highlights=((0, 0), (1, 0)), lam=0.0)
    assert full == pytest.approx(missing, abs=1e-12)


def test_parent_hand_case_with_table_recall_penalty():
    # cand == ref == "a b", omega = {a}: score 1; omega = {a, z}: R_tab = 0.5,
    # R = 0.5**0.1, score = 2R/(1+R)
    table_ok = mk_table(["h"], [["a"]])
    assert parent("a b", "a b", table_ok, ((0, 0),), lam=0.1) == pytest.approx(1.0, abs=1e-12)
    table_miss = mk_table(["h"], [["a"], ["z"]])
    got = parent("a b", "a b", table_miss, ((0, 0), (1, 0)), lam=0.1)
    assert abs(got - 0.9653565103356295) < 1e-9


def test_parent_uses_whole_table_when_no_highlights():
    table = mk_table(["h"], [["a"], ["z"]])
    with_hl = parent("a b", "a b", table, ((0, 0), (1, 0)), lam=0.1)
    without = parent("a b", "a b", table, (), lam=0.1)
    assert with_hl == pytest.approx(without, abs=1e-12)


def test_parent_bounded_and_zero_on_disjoint():
    table = mk_table(["h"], [["q"]])
    assert parent("x y", "a b", table, ((0, 0),), lam=0.1) == 0.0
    assert 0.0 <= parent("a b q", "a q", table, ((0, 0),), lam=0.5) <= 1.0


def test_parent_rejects_bad_lambda():
    table = mk_table(["h"], [["a"]])
    with pytest.raises(ContractError):
        parent("a", "a", table, (), lam=1.5)
    for bad in (-0.1, 1.5, float("nan"), "0.1", True):
        with pytest.raises(ConfigError, match="parent_lambda"):
            MetricConfig(parent_lambda=bad)


# -- grouped reports -----------------------------------------------------------------


def _record(cats, cand="a b c d", ref="a b c d", rid="r"):
    table = mk_table(["h"], [["a"]])
    return make_record(rid, cand, ref, table, ((0, 0),), cats)


def test_single_category_corpus_matches_overall():
    records = [_record({"numerical"}, rid=f"r{i}") for i in range(4)]
    report = category_report(records)
    assert report["per-category"]["numerical"] == report["overall"]
    assert report["per-category"]["temporal"]["count"] == 0


def test_multi_category_instance_lands_in_cardinality_groups_only():
    records = [_record({"numerical", "temporal"}, rid="r0"), _record({"commonsense"}, rid="r1")]
    report = category_report(records)
    assert report["per-cardinality"]["2"]["count"] == 1
    assert report["per-category"]["numerical"]["count"] == 0
    assert report["per-category"]["commonsense"]["count"] == 1


def test_groups_partition_analytical_by_kind_and_cardinality():
    records = [
        _record({"descriptive"}, rid="d0"),
        _record({"numerical"}, rid="a1"),
        _record({"numerical", "entity"}, rid="a2"),
        _record({"numerical", "entity", "temporal"}, rid="a3"),
    ]
    report = category_report(records)
    assert report["overall"]["count"] == 4
    assert report["analytical"]["count"] + report["descriptive"]["count"] == report["overall"]["count"]
    assert report["per-cardinality"]["2"]["count"] == 1
    assert report["per-cardinality"]["3"]["count"] == 1


def test_report_aggregates_recomputable_from_records():
    records = [
        _record({"numerical"}, cand="a b c d", ref="a b c e", rid="x0"),
        _record({"descriptive"}, cand="q w e r", ref="q w e r", rid="x1"),
    ]
    report = EvalReport.from_records(records)
    agg = report.aggregates["overall"]
    assert agg["bleu1"] == pytest.approx(bleu([r.candidate for r in records], [r.reference for r in records], 1))
    assert agg["rougeL"] == pytest.approx(np.mean([r.rougeL for r in records]))
    payload = report.to_json()
    for key in ("bleu1", "bleu4", "rougeL", "parent"):
        assert key in payload["aggregates"]["overall"]
        assert key in payload["aggregates"]["analytical"]
        assert key in payload["aggregates"]["descriptive"]
