"""Model contracts: encoder, weight head, reasoning path, strategies, beam search."""

import numpy as np
import pytest

from retag.codebook import TWO_BANK_CATEGORIES
from retag.errors import ConfigError, ContractError, LengthError
from retag.model import Model, ModelConfig, prepare_instance
from retag.numerics import Tape, backward, tensor
from retag.tables import CATEGORIES, Instance, Table, build_vocab
from retag.trainer import TrainConfig, total_loss

VOCAB_TEXT = [
    "Generate a sentence with tabular, numerical, temporal, commonsense, entity reasoning "
    "based on the following table?",
    "Generate a descriptive sentence based on the following table?",
    "TITLE : t SECTION : s HEAD : name | age ROW 1 : <hl> ada </hl> | 36 ROW 2 : bo | 4",
    "ada is 36 and the oldest member is ada",
]


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(VOCAB_TEXT)


def mk_config(vocab, **kw):
    defaults = dict(layers=2, heads=2, hidden=16, ffn=32, max_len=64, k=4, strategy="retag", codebook_count=6)
    defaults.update(kw)
    return ModelConfig(vocab_size=len(vocab), **defaults)


def mk_instance(categories={"numerical"}, reference="ada is 36"):
    table = Table(id="i", title="t", section_title="s", headers=("name", "age"), rows=(("ada", "36"), ("bo", "4")))
    return Instance(table=table, highlights=((0, 0), (0, 1)), reference=reference, categories=frozenset(categories))


@pytest.fixture(scope="module")
def model(vocab):
    return Model.init(mk_config(vocab), vocab, seed=3)


def test_config_validation(vocab):
    with pytest.raises(ConfigError):
        mk_config(vocab, hidden=15)  # not divisible by heads
    with pytest.raises(ConfigError):
        mk_config(vocab, codebook_count=3)
    with pytest.raises(ConfigError):
        mk_config(vocab, strategy="beam")


def test_encode_shape_contract(model):
    ids = np.array([1, 7, 8, 9, 2])
    out = model.encode(ids)
    assert out.shape == (5, model.config.hidden)


def test_encode_is_position_sensitive(model):
    a = model.encode(np.array([1, 7, 8, 9, 2]))
    b = model.encode(np.array([1, 8, 7, 9, 2]))
    assert not np.allclose(a.data, b.data)


def test_encode_rejects_overlong_input(model):
    with pytest.raises(LengthError):
        model.encode(np.ones(model.config.max_len + 1, dtype=np.int64))


def test_predict_weights_masked_distribution(model):
    enc = model.encode(np.array([1, 7, 8, 2]))
    mask = tuple(c in {"numerical", "temporal"} for c in CATEGORIES)
    weights, bank_mask = model.predict_weights(enc, mask)
    active = [w for w, m in zip(weights, bank_mask) if m]
    inactive = [w for w, m in zip(weights, bank_mask) if not m]
    assert all(w == 0.0 for w in inactive)
    assert abs(sum(float(w.data) for w in active) - 1.0) < 1e-6


def test_predict_weights_single_category_is_one(model):
    enc = model.encode(np.array([1, 7, 2]))
    mask = tuple(c == "entity" for c in CATEGORIES)
    weights, _ = model.predict_weights(enc, mask)
    assert float(weights[CATEGORIES.index("entity")].data) == pytest.approx(1.0)


def test_predict_weights_uniform_with_zero_head(vocab):
    m = Model.init(mk_config(vocab), vocab, seed=3)
    m.params["weight_head.w"] = tensor(np.zeros(m.params["weight_head.w"].shape), requires_grad=True)
    m.params["weight_head.b"] = tensor(np.zeros(m.params["weight_head.b"].shape), requires_grad=True)
    enc = m.encode(np.array([1, 7, 2]))
    weights, _ = m.predict_weights(enc, (False, True, True, True, True, True))
    vals = [float(w.data) for w in weights[1:]]
    assert np.allclose(vals, 1 / 5, atol=1e-7)
    with pytest.raises(ContractError):
        m.predict_weights(enc, (False,) * 6)


def test_classify_ci_contract(model):
    enc = model.encode(np.array([1, 7, 8, 2]))
    logits = model.classify_ci(enc)
    assert logits.shape == (2,)
    assert np.all(np.isfinite(logits.data))
    zeroed = model.clone()
    zeroed.params = dict(model.params)
    zeroed.params["ci.w"] = tensor(np.zeros((model.config.hidden, 2)), requires_grad=True)
    zeroed.params["ci.b"] = tensor(np.zeros(2), requires_grad=True)
    out = zeroed.classify_ci(enc)
    assert out.data[0] == out.data[1]


def test_notags_ignores_categories(vocab):
    m = Model.init(mk_config(vocab, strategy="notags"), vocab, seed=5)
    a = prepare_instance(vocab, mk_instance({"numerical"}), "notags")
    b = prepare_instance(vocab, mk_instance({"temporal", "entity"}), "notags")
    out_a = m.forward_train(a)
    out_b = m.forward_train(b)
    assert np.array_equal(out_a.logits.data, out_b.logits.data)
    assert float(out_a.codebook_loss.data) == 0.0 and float(out_a.commitment_loss.data) == 0.0
    assert out_a.weights is None


def test_retag_mask_changes_logits_with_separated_codebooks(vocab):
    m = Model.init(mk_config(vocab, k=2), vocab, seed=5)
    h = m.config.hidden
    # codes far apart per category so different masks select different vectors
    for i, cat in enumerate(CATEGORIES):
        codes = np.zeros((2, h))
        codes[0, :] = 10.0 * (i + 1)
        codes[1, :] = -10.0 * (i + 1)
        m.params[f"codebook.{cat}"] = tensor(codes, requires_grad=True)
    a = prepare_instance(vocab, mk_instance({"numerical"}), "retag")
    b = prepare_instance(vocab, mk_instance({"temporal"}), "retag")
    # same question text would differ; neutralize by comparing the codebook path only
    out_a = m.forward_train(a)
    out_b = m.forward_train(b)
    assert not np.allclose(out_a.logits.data, out_b.logits.data)
    assert out_a.logits.shape == (len(a.target_ids) - 1, len(vocab))


def test_retag_inactive_categories_have_exact_zero_weight(model, vocab):
    prepared = prepare_instance(vocab, mk_instance({"numerical", "commonsense"}), "retag")
    out = model.forward_train(prepared)
    for cat, w in zip(CATEGORIES, out.weights):
        if cat in {"numerical", "commonsense"}:
            assert float(w.data) > 0
        else:
            assert w == 0.0
    assert set(out.indices) == {"numerical", "commonsense"}


def test_strategy_isolation_no_codebook_gradients(vocab):
    for strategy in ("notags", "tags"):
        m = Model.init(mk_config(vocab, strategy=strategy), vocab, seed=2)
        prepared = prepare_instance(vocab, mk_instance({"numerical"}), strategy)
        cfg = TrainConfig(ci_enabled=False)
        with Tape():
            fwd = m.forward_train(prepared)
            loss, _ = total_loss(fwd, prepared.target_ids, prepared.kind, cfg)
            grads = backward(loss, m.params.values())
        for name, p in m.params.items():
            if name.startswith(("codebook.", "weight_head.")):
                assert np.array_equal(grads[p], np.zeros(p.shape)), name


def test_two_codebook_configuration(vocab):
    m = Model.init(mk_config(vocab, codebook_count=2), vocab, seed=4)
    assert set(n for n in m.params if n.startswith("codebook.")) == {f"codebook.{c}" for c in TWO_BANK_CATEGORIES}
    prepared = prepare_instance(vocab, mk_instance({"numerical", "temporal"}), "retag")
    out = m.forward_train(prepared)
    assert len(out.weights) == 2
    assert out.weights[0] == 0.0 and float(out.weights[1].data) == pytest.approx(1.0)
    assert set(out.indices) == {"analytical"}


def test_prepare_instance_fields(vocab):
    prepared = prepare_instance(vocab, mk_instance({"numerical"}), "retag")
    assert prepared.kind == "analytical" and prepared.ci_target == 1
    assert prepared.category_mask == tuple(c == "numerical" for c in CATEGORIES)
    desc = prepare_instance(vocab, mk_instance({"descriptive"}, reference="ada is 36"), "retag")
    assert desc.kind == "descriptive" and desc.ci_target == 0
    over = prepare_instance(vocab, mk_instance({"numerical"}), "retag", tags_override=frozenset({"entity"}))
    assert over.category_mask == tuple(c == "entity" for c in CATEGORIES)
    assert over.kind == "analytical"


# -- generation ---------------------------------------------------------------------


def test_generate_rejects_bad_beam(model, vocab):
    prepared = prepare_instance(vocab, mk_instance(), "retag")
    with pytest.raises(ConfigError):
        model.generate(prepared.input_ids, prepared.category_mask, beam=0)


def test_retag_generation_needs_mask(model, vocab):
    prepared = prepare_instance(vocab, mk_instance(), "retag")
    with pytest.raises(ContractError):
        model.generate(prepared.input_ids, None, beam=1)


def test_generate_strips_special_tokens(model, vocab):
    prepared = prepare_instance(vocab, mk_instance(), "retag")
    text, _ = model.generate(prepared.input_ids, prepared.category_mask, beam=2, max_len=12)
    for special in ("<pad>", "<bos>", "<eos>", "<unk>", "<hl>", "</hl>"):
        assert special not in text


def test_beam_one_matches_manual_greedy(model, vocab):
    prepared = prepare_instance(vocab, mk_instance(), "retag")
    text, lp = model.generate(prepared.input_ids, prepared.category_mask, beam=1, max_len=10)
    memory = model._memory(prepared.input_ids, prepared.category_mask)
    seq, score = [1], 0.0
    for _ in range(9):
        logits = model._decode(memory, np.array([seq])).data[0, -1]
        shifted = logits - logits.max()
        logp = shifted - np.log(np.exp(shifted).sum())
        tok = int(np.argmax(logp))
        score += float(logp[tok])
        seq.append(tok)
        if tok == 2:
            break
    from retag.tables import decode_text

    assert text == decode_text(vocab, seq)
    assert lp == pytest.approx(score, abs=1e-6)


def test_strategy_replacement_switches_memory_path(model, vocab):
    from dataclasses import replace

    prepared = prepare_instance(vocab, mk_instance(), "retag")
    retag_memory = model._memory(prepared.input_ids, prepared.category_mask)
    plain = Model(replace(model.config, strategy="notags"), model.params, model.vocab)
    plain_memory = plain._memory(prepared.input_ids, None)
    enc = model.encode(prepared.input_ids)
    assert np.array_equal(plain_memory.data, enc.data)
    assert not np.allclose(retag_memory.data, enc.data)


def test_beam_widening_never_hurts(model, vocab):
    for cats in ({"numerical"}, {"temporal", "commonsense"}, {"descriptive"}):
        prepared = prepare_instance(vocab, mk_instance(cats, reference="ada is 36"), "retag")
        scores = [
            model.generate(prepared.input_ids, prepared.category_mask, beam=b, max_len=14)[1]
            for b in (1, 2, 4, 10)
        ]
        for small, large in zip(scores, scores[1:]):
            assert large >= small - 1e-9
