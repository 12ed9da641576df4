"""Each benchmark check passes on real outputs and fails on a corrupted one.

Run from the repository root:

    python3 -m pytest perfbench/test_checks.py -q
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from retag import checkpoint, codebook, corpus, model as model_mod, trainer  # noqa: E402
from retag.metrics import make_record  # noqa: E402
from retag.model import Model, ModelConfig, prepare_instance  # noqa: E402
from retag.numerics.tensor import Tensor  # noqa: E402
from retag.tables import EOS, SPECIAL_TOKENS, build_input, build_question, build_vocab, linearize  # noqa: E402

MAX_LEN = 12


@pytest.fixture(scope="module")
def setup():
    insts = corpus.synth_generate(corpus.GeneratorSpec(rows_range=(4, 7), value_range=(5, 40), seed=3), 24)
    texts = [build_input(build_question("retag", i.categories), linearize(i.table, i.highlights)) for i in insts]
    vocab = build_vocab(texts + [i.reference for i in insts])
    config = ModelConfig(vocab_size=len(vocab), layers=1, heads=2, hidden=16, ffn=32, max_len=200, k=4)
    return insts, Model.init(config, vocab, seed=0)


def generate(model, prepared, beam):
    """(ids, text, log-prob) of one generation; the ids are caught on their way to text."""
    captured = []
    inner = model_mod.decode_text
    model_mod.decode_text = lambda vocab, ids: captured.append([int(i) for i in ids]) or inner(vocab, ids)
    try:
        text, log_prob = model.generate(prepared.input_ids, prepared.category_mask, beam=beam, max_len=MAX_LEN)
    finally:
        model_mod.decode_text = inner
    return captured[0], text, log_prob


def flip_first_word(vocab, ids):
    """Replace the first word of a sequence with another word of the vocabulary."""
    pos = next(t for t, i in enumerate(ids) if i >= len(SPECIAL_TOKENS))
    flipped = list(ids)
    flipped[pos] = len(SPECIAL_TOKENS) if ids[pos] != len(SPECIAL_TOKENS) else len(SPECIAL_TOKENS) + 1
    return flipped


def test_greedy_check(setup):
    insts, model = setup
    prepared = prepare_instance(model.vocab, insts[0], "retag")
    ids, text, log_prob = generate(model, prepared, beam=1)
    assert checks.check_greedy(model, prepared, ids, text, log_prob, MAX_LEN) == []
    flipped = flip_first_word(model.vocab, ids)
    assert checks.check_greedy(model, prepared, flipped, checks.text_of(model.vocab, flipped), log_prob, MAX_LEN)
    assert checks.check_greedy(model, prepared, flipped, text, log_prob, MAX_LEN)
    assert checks.check_greedy(model, prepared, ids, text, log_prob + 0.01, MAX_LEN)


def test_beam_check(setup):
    insts, model = setup
    prepared = prepare_instance(model.vocab, insts[1], "retag")
    ids, text, log_prob = generate(model, prepared, beam=4)
    assert checks.check_beam(model, prepared, ids, text, log_prob, MAX_LEN) == []
    assert checks.check_beam(model, prepared, ids, text, log_prob - 0.01, MAX_LEN)
    flipped = flip_first_word(model.vocab, ids)
    assert checks.check_beam(model, prepared, flipped, checks.text_of(model.vocab, flipped), log_prob, MAX_LEN)
    assert checks.check_beam(model, prepared, ids[:-1] + [EOS, EOS], text, log_prob, MAX_LEN)


def test_nearest_code_check(setup):
    insts, model = setup
    enc = model.encode(prepare_instance(model.vocab, insts[2], "retag").input_ids)
    cb = model.bank().codebooks["numerical"]
    indices = codebook.quantize(cb, enc).indices
    assert checks.check_nearest_codes(enc.data, cb.codes.data, indices) == []
    swapped = indices.copy()
    d2 = ((enc.data[0] - cb.codes.data) ** 2).sum(axis=1)
    swapped[0] = int(d2.argmax())
    assert checks.check_nearest_codes(enc.data, cb.codes.data, swapped)


def test_nearest_code_check_wants_lowest_index_on_ties():
    codes = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    enc = np.array([[2.0, 0.0]])
    assert checks.check_nearest_codes(enc, codes, np.array([0])) == []
    assert checks.check_nearest_codes(enc, codes, np.array([2]))


def test_stage_routing_check(setup):
    insts, model = setup
    trainee = model.clone()
    before = {n: p.data.copy() for n, p in trainee.params.items()}
    cfg = trainer.TrainConfig(batch_size=4, stage1_steps=2, stage2_steps=0)
    trainer.pretrain(trainee, insts[:8], cfg)
    after = {n: p.data.copy() for n, p in trainee.params.items()}
    assert checks.check_frozen(before, after, ("dec.", "ci."), "stage1") == []
    name = "dec.out.b"
    after[name] = after[name].copy()
    after[name][0] += np.float32(1e-3)
    assert checks.check_frozen(before, after, ("dec.", "ci."), "stage1")


def test_descent_check():
    def entry(step, gen, **over):
        e = {"stage": "finetune", "step": step, "total": gen, "generative": gen, "ci": 0.5, "codebook": 0.1, "commitment": 0.02}
        e.update(over)
        return e

    assert checks.check_descent([entry(0, 5.0), entry(9, 4.0)]) == []
    assert checks.check_descent([entry(0, 4.0), entry(9, 4.5)])
    assert checks.check_descent([entry(0, 5.0), entry(5, 4.5, codebook=float("nan")), entry(9, 4.0)])


def test_scoring_check(setup):
    insts, _ = setup
    inst = insts[4]
    candidate = " ".join(inst.reference.split()[:3] + ["zhou"])
    args = (inst.table.id, candidate, inst.reference, inst.table, inst.highlights, inst.categories)
    record = make_record(*args)
    self_record = make_record(inst.table.id, inst.reference, inst.reference, inst.table, inst.highlights, inst.categories)
    assert checks.check_record(record, self_record) == []
    assert checks.check_record(replace(record, bleu1=record.bleu1 + 1.0), self_record)
    assert checks.check_record(replace(record, rougeL=record.rougeL * 0.9), self_record)
    assert checks.check_record(replace(record, parent=1.5), self_record)
    assert checks.check_record(record, replace(self_record, rougeL=0.5))


def test_checkpoint_check(setup, tmp_path):
    _, model = setup
    path = tmp_path / "m.rtag"
    checkpoint.save_checkpoint(model, path)
    loaded, _ = checkpoint.load_checkpoint(path)
    assert checks.check_checkpoint(model, loaded) == []
    name = "dec.l0.ff.w1"
    data = loaded.params[name].data.copy()
    data.view(np.uint32)[0, 0] ^= 1
    loaded.params[name] = Tensor(data, requires_grad=True)
    assert checks.check_checkpoint(model, loaded)
