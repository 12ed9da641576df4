"""Loss assembly, stage routing, stratified batching, training determinism, eval."""

import math

import numpy as np
import pytest

import retag.trainer as trainer_mod
from retag.corpus import GeneratorSpec, synth_generate
from retag.errors import ConfigError
from retag.metrics import EvalReport, make_record
from retag.model import ForwardOutput, Model, ModelConfig, parameter_group, prepare_instance
from retag.numerics import RngStream, Tape, backward, tensor
from retag.tables import ANALYTICAL_CATEGORIES, build_input, build_question, build_vocab, linearize
from retag.trainer import (
    TrainConfig,
    ci_accuracy,
    ci_active,
    evaluate,
    finetune,
    pretrain,
    random_tag_assignment,
    stage_prefixes,
    stratified_batches,
    total_loss,
    _batch_loss,
)


def tiny_setup(n=32, seed=0, strategy="retag", codebook_count=6, hidden=24, layers=1):
    instances = synth_generate(GeneratorSpec(seed=seed, rows_range=(2, 3)), n)
    texts = []
    for inst in instances:
        texts.append(build_input(build_question(strategy, inst.categories), linearize(inst.table, inst.highlights)))
        texts.append(inst.reference)
    texts.append(build_question("tags", set(ANALYTICAL_CATEGORIES)))
    vocab = build_vocab(texts)
    config = ModelConfig(
        vocab_size=len(vocab), layers=layers, heads=2, hidden=hidden, ffn=2 * hidden,
        max_len=128, k=4, strategy=strategy, codebook_count=codebook_count,
    )
    model = Model.init(config, vocab, seed=seed)
    return model, instances


def _stub_forward(logits, vocab_size):
    zero = tensor(np.zeros(()))
    return ForwardOutput(
        logits=tensor(logits),
        ci_logits=tensor(np.zeros(2)),
        codebook_loss=zero,
        commitment_loss=zero,
        weights=None,
        enc=tensor(np.zeros((1, 2))),
        mixed=None,
        indices={},
    )


def test_total_loss_uniform_two_token_vocab_is_ln2():
    # two decoder steps, two-token vocab, equal logits -> p(target) = 0.5
    fwd = _stub_forward(np.zeros((2, 2)), 2)
    cfg = TrainConfig(ci_enabled=False)
    targets = np.array([1, 0, 1])  # bos, label, label
    loss, parts = total_loss(fwd, targets, "analytical", cfg)
    assert float(loss.data) == pytest.approx(math.log(2), abs=1e-6)
    assert parts["generative"] == pytest.approx(math.log(2), abs=1e-6)
    assert parts["ci"] == 0.0


def test_total_loss_nonnegative_and_beta_zero_drops_commitment():
    model, instances = tiny_setup(n=8)
    prepared = prepare_instance(model.vocab, instances[0], "retag")
    cfg0 = TrainConfig(beta=0.0)
    fwd = model.forward_train(prepared, beta=0.0)
    loss, parts = total_loss(fwd, prepared.target_ids, prepared.kind, cfg0)
    assert parts["commitment"] == 0.0
    assert float(loss.data) >= 0.0
    fwd2 = model.forward_train(prepared, beta=0.25)
    _, parts2 = total_loss(fwd2, prepared.target_ids, prepared.kind, TrainConfig(beta=0.25))
    assert parts2["commitment"] > 0.0
    assert all(v >= 0 for v in parts2.values())


def test_total_equals_sum_of_components_every_logged_step():
    model, instances = tiny_setup(n=16)
    cfg = TrainConfig(stage1_steps=3, stage2_steps=4, epochs=1, batch_size=4, log_every=1)
    report = pretrain(model, instances, cfg)
    report2 = finetune(model, instances, cfg)
    for step in report.steps + report2.steps:
        total = step["generative"] + step["ci"] + step["codebook"] + step["commitment"]
        assert abs(step["total"] - total) < 1e-5


def test_ci_only_applies_to_retag():
    assert ci_active(TrainConfig(ci_enabled=True), "retag")
    assert not ci_active(TrainConfig(ci_enabled=False), "retag")
    assert not ci_active(TrainConfig(ci_enabled=True), "tags")


def test_stage_prefixes_and_routing():
    cfg = TrainConfig(ci_enabled=True)
    assert "dec." not in stage_prefixes("stage1", cfg, "retag")
    assert "ci." not in stage_prefixes("stage2", cfg, "retag")
    assert "ci." in stage_prefixes("finetune", cfg, "retag")
    assert stage_prefixes("finetune", cfg, "tags") == ("enc.", "dec.")
    with pytest.raises(ConfigError):
        stage_prefixes("stage1", cfg, "tags")


def test_stage1_decoder_gradients_are_exactly_zero():
    model, instances = tiny_setup(n=8)
    cfg = TrainConfig()
    batch = [prepare_instance(model.vocab, inst, "retag") for inst in instances[:4]]
    with Tape():
        loss, _ = _batch_loss(model, batch, cfg, "stage1")
        grads = backward(loss, model.params.values())
    for name, p in model.params.items():
        if name.startswith(("dec.", "ci.")):
            assert np.array_equal(grads[p], np.zeros(p.shape)), name
    live = [n for n, p in model.params.items() if np.abs(grads[p]).max() > 0]
    assert any(n.startswith("codebook.") for n in live)
    assert any(n.startswith("enc.") for n in live)


def test_stage1_skips_decoder_without_changing_loss_or_gradients(monkeypatch):
    model, instances = tiny_setup(n=8)
    cfg = TrainConfig()
    batch = [prepare_instance(model.vocab, inst, "retag") for inst in instances[:4]]
    group = parameter_group(model.params, stage_prefixes("stage1", cfg, "retag"))
    assert sorted({n.split(".")[0] for n in group}) == ["codebook", "enc", "weight_head"]
    with monkeypatch.context() as patch, Tape():
        patch.setattr(Model, "_decode", lambda *args, **kwargs: pytest.fail("stage 1 ran the decoder"))
        loss, _ = _batch_loss(model, batch, cfg, "stage1")
        grads = backward(loss, group.values())
    with Tape():
        decoded = None
        for prepared in batch:
            fwd = model.forward_train(prepared, beta=cfg.beta)
            assert fwd.logits is not None
            item, _ = total_loss(fwd, prepared.target_ids, prepared.kind, cfg, stage="stage1")
            decoded = item if decoded is None else decoded + item
        decoded = decoded * (1.0 / len(batch))
        decoded_grads = backward(decoded, group.values())
    assert loss.data.tobytes() == decoded.data.tobytes()
    for name, p in group.items():
        assert grads[p].tobytes() == decoded_grads[p].tobytes(), name


def test_finetune_follows_the_model_strategy(monkeypatch):
    model, instances = tiny_setup(n=8, strategy="notags")
    frozen = {n: p.data.copy() for n, p in model.params.items() if n.startswith(("ci.", "weight_head.", "codebook."))}
    strategies = []
    inner = trainer_mod.prepare_instance

    def spy(vocab, inst, strategy, **kwargs):
        strategies.append(strategy)
        return inner(vocab, inst, strategy, **kwargs)

    monkeypatch.setattr(trainer_mod, "prepare_instance", spy)
    report = finetune(model, instances, TrainConfig(epochs=1, batch_size=4, log_every=1))
    assert set(strategies) == {"notags"}
    assert report.steps and all(s["ci"] == 0.0 for s in report.steps)
    for name, before in frozen.items():
        assert model.params[name].data.tobytes() == before.tobytes(), name


def test_each_instance_draws_its_own_dropout_stream():
    from dataclasses import replace

    model, instances = tiny_setup(n=8)
    model = Model(replace(model.config, dropout=0.1), model.params, model.vocab)
    cfg = TrainConfig()
    batch = [prepare_instance(model.vocab, inst, "retag") for inst in instances[:2]]
    root = RngStream(5, ("dropout",))
    loss, _ = _batch_loss(model, batch, cfg, "finetune", dropout_rng=root)
    singles = []
    for i, prepared in enumerate(batch):
        fwd = model.forward_train(prepared, beta=cfg.beta, dropout_rng=root.child(str(i)))
        singles.append(total_loss(fwd, prepared.target_ids, prepared.kind, cfg)[0])
    mean = (singles[0] + singles[1]) * 0.5
    assert loss.data.tobytes() == mean.data.tobytes()
    undropped, _ = _batch_loss(model, batch, cfg, "finetune")
    assert loss.data != undropped.data


def test_stage1_descends_on_codebook_loss():
    model, instances = tiny_setup(n=8)
    cfg = TrainConfig(stage1_steps=50, stage2_steps=0, epochs=0, batch_size=8, log_every=1, lr=1e-2)
    report = pretrain(model, instances[:8], cfg)
    stage1 = [s for s in report.steps if s["stage"] == "stage1"]
    assert stage1[-1]["codebook"] < stage1[0]["codebook"]


def test_pretraining_never_touches_ci_head():
    model, instances = tiny_setup(n=12)
    before_w = model.params["ci.w"].data.copy()
    before_b = model.params["ci.b"].data.copy()
    cfg = TrainConfig(stage1_steps=5, stage2_steps=5, batch_size=4)
    pretrain(model, instances, cfg)
    assert np.array_equal(model.params["ci.w"].data, before_w)
    assert np.array_equal(model.params["ci.b"].data, before_b)


def test_pretrain_requires_retag():
    model, instances = tiny_setup(n=8, strategy="tags")
    with pytest.raises(ConfigError):
        pretrain(model, instances, TrainConfig())


def test_stratified_batches_all_mixed_on_balanced_corpus():
    rng = RngStream(0, ("test",))
    analytical = [("a", i) for i in range(16)]
    descriptive = [("d", i) for i in range(16)]
    batches = stratified_batches(analytical, descriptive, 4, rng)
    assert sum(len(b) for b in batches) == 32
    for batch in batches:
        kinds = {k for k, _ in batch}
        assert kinds == {"a", "d"}


def test_stratified_batches_handles_imbalance():
    rng = RngStream(1, ("test",))
    batches = stratified_batches([("a", i) for i in range(20)], [("d", 0)], 4, rng)
    flat = [x for b in batches for x in b]
    assert len(flat) == 21
    assert {"d"} <= {k for k, _ in batches[0]}  # the single descriptive lands in the first batch


def test_single_kind_corpus_warns_when_ci_enabled():
    model, instances = tiny_setup(n=8)
    analytical_only = [i for i in instances if i.kind == "analytical"]
    cfg = TrainConfig(epochs=1, batch_size=4, ci_enabled=True)
    with pytest.warns(UserWarning, match="single kind"):
        finetune(model, analytical_only, cfg)


def test_finetune_is_deterministic():
    def run():
        model, instances = tiny_setup(n=16, seed=3)
        cfg = TrainConfig(epochs=1, batch_size=4, seed=9, log_every=1)
        report = finetune(model, instances, cfg)
        return [s["total"] for s in report.steps], model.params["enc.tok_emb"].data.copy()

    (curve1, emb1), (curve2, emb2) = run(), run()
    assert curve1 == curve2
    assert np.array_equal(emb1, emb2)


def test_finetune_reduces_generative_loss():
    model, instances = tiny_setup(n=24, hidden=32)
    cfg = TrainConfig(epochs=6, batch_size=8, lr=1e-3, log_every=1)
    report = finetune(model, instances, cfg)
    assert report.steps[-1]["generative"] < report.steps[0]["generative"]


# -- evaluation ---------------------------------------------------------------------


def test_evaluate_report_structure_and_partition():
    model, instances = tiny_setup(n=12)
    held_out = instances[:6]
    report = evaluate(model, held_out, beam=1, max_len=8)
    agg = report.aggregates
    assert agg["overall"]["count"] == len(held_out)
    assert agg["overall"]["count"] == agg["analytical"]["count"] + agg["descriptive"]["count"]
    for key in ("bleu1", "bleu4", "rougeL", "parent"):
        assert key in agg["overall"]
    singles = sum(agg["per-category"][c]["count"] for c in ANALYTICAL_CATEGORIES)
    multis = sum(agg["per-cardinality"][k]["count"] for k in ("2", "3"))
    assert singles + multis == agg["analytical"]["count"]


def test_evaluate_gold_parrot_scores_perfectly():
    # future parity oracle: feeding the references back through the metric path
    instances = synth_generate(GeneratorSpec(seed=11), 6)
    records = [
        make_record(i.table.id, i.reference, i.reference, i.table, i.highlights, i.categories)
        for i in instances
    ]
    report = EvalReport.from_records(records)
    assert report.aggregates["overall"]["bleu4"] == pytest.approx(100.0, abs=1e-9)
    assert report.aggregates["overall"]["rougeL"] == pytest.approx(1.0, abs=1e-12)


def test_random_tag_assignment_contract():
    instances = synth_generate(GeneratorSpec(seed=4), 40)
    tags_a = random_tag_assignment(instances, seed=5)
    tags_b = random_tag_assignment(instances, seed=5)
    assert tags_a == tags_b
    assert tags_a != random_tag_assignment(instances, seed=6)
    for inst, tags in zip(instances, tags_a):
        if inst.kind == "descriptive":
            assert tags is None
        else:
            assert tags and tags <= set(ANALYTICAL_CATEGORIES)


def test_evaluate_with_random_tags_keeps_gold_grouping():
    model, instances = tiny_setup(n=10)
    report = evaluate(model, instances[:5], beam=1, max_len=6, random_tags_seed=3)
    for rec, inst in zip(report.records, instances[:5]):
        assert rec.categories == tuple(c for c in ("descriptive",) + ANALYTICAL_CATEGORIES if c in inst.categories)
    assert report.metadata["random_tags_seed"] == 3


def test_ci_accuracy_bounds():
    model, instances = tiny_setup(n=10)
    acc = ci_accuracy(model, instances, TrainConfig())
    assert 0.0 <= acc <= 1.0


def test_training_with_dropout_is_deterministic():
    from dataclasses import replace

    def run():
        model, instances = tiny_setup(n=8)
        model = Model(replace(model.config, dropout=0.1), model.params, model.vocab)
        cfg = TrainConfig(epochs=1, batch_size=4, seed=2, log_every=1)
        return [s["total"] for s in finetune(model, instances, cfg).steps]

    assert run() == run()
