"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Training-backed criteria
share a session-scoped harness (four model variants, three seeds each), so
the suite trains twelve small models, two at a time in forked workers where
the process may use two CPUs; expect roughly 8 minutes on two CPUs.
Everything is deterministic in the fixed seeds below.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from retag.checkpoint import load_checkpoint, save_checkpoint
from retag.cli import main
from retag.codebook import Codebook, quantize, straight_through
from retag.corpus import GeneratorSpec, classify_heuristic, split, synth_generate
from retag.errors import FormatError
from retag.metrics import bleu, parent, rouge_l
from retag.model import Model, ModelConfig, prepare_instance
from retag.numerics import Tape, Tensor, backward, tensor
from retag.tables import (
    ANALYTICAL_CATEGORIES,
    build_input,
    build_question,
    build_vocab,
    linearize,
)
from retag.trainer import TrainConfig, _batch_loss, ci_accuracy, evaluate, finetune, pretrain

# -- frozen desk-scale experiment setup ---------------------------------------------

SEEDS = (0, 1, 2)
GEN = dict(rows_range=(4, 7), value_range=(5, 40))
MIX_EVAL = {
    "descriptive": 0.20,
    "tabular": 0.09,
    "numerical": 0.09,
    "temporal": 0.09,
    "commonsense": 0.09,
    "entity": 0.09,
    "numerical+commonsense": 0.09,
    "tabular+numerical": 0.09,
    "temporal+commonsense": 0.08,
    "numerical+temporal+commonsense": 0.09,
}
EVAL_BEAM = 4
EVAL_MAX_LEN = 40

VARIANTS = {
    "retag6": dict(codebook_count=6, ci_enabled=True, pretrained=True),
    "retag2": dict(codebook_count=2, ci_enabled=True, pretrained=True),
    "retag6-noci": dict(codebook_count=6, ci_enabled=False, pretrained=True),
    "retag6-nopre": dict(codebook_count=6, ci_enabled=True, pretrained=False),
}


def _pass(num, description, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nCRITERION {num:>2} PASS  {description}{suffix}")


class Harness:
    def __init__(self):
        self.pre_corpus = synth_generate(GeneratorSpec(seed=101, **GEN), 400)
        ft_all = split(synth_generate(GeneratorSpec(mix=MIX_EVAL, seed=202, **GEN), 600), (0.75, 0.0, 0.25), seed=7)
        self.train_set = [i for i in ft_all if i.split == "train"]
        self.test_set = [i for i in ft_all if i.split == "test"]
        texts = []
        for inst in self.pre_corpus + self.train_set:
            texts.append(build_input(build_question("retag", inst.categories), linearize(inst.table, inst.highlights)))
            texts.append(inst.reference)
        texts.append(build_question("tags", set(ANALYTICAL_CATEGORIES)))
        texts.append(build_question("notags", {"descriptive"}))
        texts.append(build_question("tags", {"descriptive"}))
        self.vocab = build_vocab(texts)
        self._models: dict = {}
        self._pretrained: dict = {}
        self._reports: dict = {}

    def train_config(self, variant: str, seed: int) -> TrainConfig:
        v = VARIANTS[variant]
        return TrainConfig(
            lr=3e-4,
            batch_size=8,
            seed=seed,
            stage1_steps=100,
            stage2_steps=400,
            epochs=6,
            ci_enabled=v["ci_enabled"],
        )

    def model_config(self, variant: str) -> ModelConfig:
        return ModelConfig(
            vocab_size=len(self.vocab), layers=2, heads=4, hidden=64, ffn=128,
            max_len=200, k=6, strategy="retag", codebook_count=VARIANTS[variant]["codebook_count"],
        )

    def model(self, variant: str, seed: int) -> Model:
        key = (variant, seed)
        if key not in self._models:
            v = VARIANTS[variant]
            cfg = self.train_config(variant, seed)
            model = Model.init(self.model_config(variant), self.vocab, seed=seed)
            if v["pretrained"]:
                # pretraining never reads ci_enabled, so retag6 and retag6-noci share it
                pre_key = (v["codebook_count"], seed)
                if pre_key not in self._pretrained:
                    pretrain(model, self.pre_corpus, cfg)
                    self._pretrained[pre_key] = dict(model.params)
                model.params.update(self._pretrained[pre_key])
            finetune(model, self.train_set, cfg)
            self._models[key] = model
        return self._models[key]

    def report(self, variant: str, seed: int, random_seed=None):
        key = (variant, seed, random_seed)
        if key not in self._reports:
            self._reports[key] = evaluate(
                self.model(variant, seed),
                self.test_set,
                beam=EVAL_BEAM,
                max_len=EVAL_MAX_LEN,
                random_tags_seed=random_seed,
            )
        return self._reports[key]

    def prefetch(self, keys) -> None:
        """Compute the missing ``report(*key)`` values in forked workers, two at a time.

        A worker runs the same serial code on its copy of the harness and
        sends back the weights and reports it made; every result is a pure
        function of its key, so it is bitwise what this process would compute.
        """
        todo = [key for key in dict.fromkeys(keys) if key not in self._reports]
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = min(2, cpus, len(todo))
        if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
            return
        global _FORKED
        _FORKED = self
        try:
            # a worker that dies raises BrokenProcessPool here instead of hanging the suite
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                results = list(pool.map(_report_in_worker, todo))
        finally:
            _FORKED = None
        for models, pretrained, reports in results:
            for (variant, seed), weights in models.items():
                if (variant, seed) not in self._models:
                    self._models[variant, seed] = Model(self.model_config(variant), _tensors(weights), self.vocab)
            for key, weights in pretrained.items():
                self._pretrained.setdefault(key, _tensors(weights))
            self._reports.update(reports)

    def mean_bleu1(self, variant: str, random_offset=None, subset=None) -> float:
        random_seeds = {seed: None if random_offset is None else random_offset + seed for seed in SEEDS}
        self.prefetch([(variant, seed, random_seed) for seed, random_seed in random_seeds.items()])
        scores = []
        for seed, random_seed in random_seeds.items():
            report = self.report(variant, seed, random_seed)
            records = report.records
            if subset is not None:
                records = [r for r in records if subset(r)]
            scores.append(bleu([r.candidate for r in records], [r.reference for r in records], order=1))
        return float(np.mean(scores))


_FORKED: Harness | None = None


def _report_in_worker(key):
    h = _FORKED
    models, pretrained = set(h._models), set(h._pretrained)
    report = h.report(*key)
    arrays = lambda params: {name: p.data for name, p in params.items()}
    return (
        {k: arrays(m.params) for k, m in h._models.items() if k not in models},
        {k: arrays(p) for k, p in h._pretrained.items() if k not in pretrained},
        {key: report},
    )


def _tensors(arrays: dict) -> dict:
    return {name: Tensor(a, requires_grad=True, dtype=a.dtype) for name, a in arrays.items()}


@pytest.fixture(scope="session")
def harness():
    return Harness()


# -- criterion 1: gradient suite -----------------------------------------------------


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    exit_code = main(["gradcheck"])
    elapsed = time.perf_counter() - start
    assert exit_code == 0, "gradcheck command reported failure"
    assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s, budget is 120s"
    _pass(1, "primitive + end-to-end gradients match finite differences", f"{elapsed:.0f}s")


# -- criterion 2: quantization oracle -------------------------------------------------


def test_criterion_2_quantization_matches_brute_force():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(1000):
        k = int(rng.integers(2, 17))
        h = int(rng.integers(1, 9))
        n = int(rng.integers(1, 7))
        codes = rng.normal(size=(k, h))
        enc = rng.normal(size=(n, h))
        got = quantize(Codebook("numerical", tensor(codes, dtype=np.float64)), tensor(enc, dtype=np.float64))
        expected = np.array(
            [min(range(k), key=lambda j: float(np.linalg.norm(enc[i] - codes[j]))) for i in range(n)]
        )
        assert np.array_equal(got.indices, expected)
        checked += n
    _pass(2, "nearest-code search matches exhaustive oracle on 1000 cases", f"{checked} tokens")


# -- criterion 3: straight-through + residual contract --------------------------------


def test_criterion_3_straight_through_residual():
    e = tensor([[0.4, -1.2]], requires_grad=True, dtype=np.float64)
    codes = tensor(np.array([[1.0, 1.0], [-1.0, -1.0], [0.0, 0.5]]), requires_grad=True, dtype=np.float64)
    for j in range(2):
        with Tape():
            qr = quantize(Codebook("numerical", codes), e)
            u = straight_through(e, qr.quantized) + e
            grads = backward(u[0, j], [e, codes])
        expected = np.zeros((1, 2))
        expected[0, j] = 2.0
        assert np.array_equal(grads[e], expected)
        assert np.array_equal(grads[codes], np.zeros(codes.shape))
    _pass(3, "du/denc = 2*identity and codes get zero through the straight-through path")


# -- criterion 4: loss routing ---------------------------------------------------------


def _tiny_tagged_model():
    instances = synth_generate(GeneratorSpec(seed=17, rows_range=(2, 3)), 12)
    texts = [build_question("tags", set(ANALYTICAL_CATEGORIES))]
    for inst in instances:
        texts.append(build_input(build_question("retag", inst.categories), linearize(inst.table, inst.highlights)))
        texts.append(inst.reference)
    vocab = build_vocab(texts)
    config = ModelConfig(vocab_size=len(vocab), layers=1, heads=2, hidden=16, ffn=32, max_len=128, k=4)
    return Model.init(config, vocab, seed=5), instances


def test_criterion_4_loss_routing():
    model, instances = _tiny_tagged_model()
    prepared = prepare_instance(model.vocab, instances[0], "retag")

    with Tape():
        fwd = model.forward_train(prepared)
        grads = backward(fwd.codebook_loss, model.params.values())
    for name, p in model.params.items():
        if name.startswith("enc."):
            assert np.array_equal(grads[p], np.zeros(p.shape)), f"codebook loss leaked into {name}"

    with Tape():
        fwd = model.forward_train(prepared)
        grads = backward(fwd.commitment_loss, model.params.values())
    for name, p in model.params.items():
        if name.startswith("codebook."):
            assert np.array_equal(grads[p], np.zeros(p.shape)), f"commitment loss leaked into {name}"

    cfg = TrainConfig(stage1_steps=4, stage2_steps=4, batch_size=4, epochs=0)
    batch = [prepare_instance(model.vocab, inst, "retag") for inst in instances[:4]]
    with Tape():
        loss, _ = _batch_loss(model, batch, cfg, "stage1")
        grads = backward(loss, model.params.values())
    for name, p in model.params.items():
        if name.startswith("dec."):
            assert np.array_equal(grads[p], np.zeros(p.shape)), f"stage-1 gradient reached {name}"

    ci_w = model.params["ci.w"].data.copy()
    ci_b = model.params["ci.b"].data.copy()
    pretrain(model, instances, cfg)
    assert np.array_equal(model.params["ci.w"].data, ci_w)
    assert np.array_equal(model.params["ci.b"].data, ci_b)
    _pass(4, "codebook/commitment/stage-1 gradient routing exact; classifier untouched by pretraining")


# -- criterion 5: gold tags beat random tags -------------------------------------------


def test_criterion_5_random_tag_control(harness):
    start = time.perf_counter()
    gold = harness.mean_bleu1("retag6")
    random_tags = harness.mean_bleu1("retag6", random_offset=1000)
    elapsed = time.perf_counter() - start
    margin = gold - random_tags
    assert margin >= 2.0, f"gold {gold:.2f} vs random {random_tags:.2f}: margin {margin:.2f} < 2.0"
    assert elapsed < 900.0, f"controllability run took {elapsed:.0f}s, budget is 900s"
    _pass(5, "gold tags beat random tags by >= 2 BLEU-1 (3-seed avg)",
          f"gold {gold:.2f} vs random {random_tags:.2f}, {elapsed:.0f}s")


# -- criterion 6: codebook count and classifier ablations --------------------------------


def test_criterion_6_codebook_and_ci_ablations(harness):
    multi = lambda rec: len(rec.categories) >= 2
    harness.prefetch([(variant, seed, None) for variant in ("retag2", "retag6-noci") for seed in SEEDS])
    six = harness.mean_bleu1("retag6", subset=multi)
    two = harness.mean_bleu1("retag2", subset=multi)
    assert six >= two - 0.3, f"6-codebook {six:.2f} vs 2-codebook {two:.2f} on the multi-category slice"
    verdict_cb = "conclusive" if six - two > 0.3 else "inconclusive (tie)"

    ci_on = harness.mean_bleu1("retag6")
    ci_off = harness.mean_bleu1("retag6-noci")
    assert ci_on >= ci_off - 0.3, f"ci-on {ci_on:.2f} vs ci-off {ci_off:.2f} overall"
    verdict_ci = "conclusive" if ci_on - ci_off > 0.3 else "inconclusive (tie)"
    _pass(6, "6 codebooks >= 2 codebooks (multi-category) and ci-on >= ci-off",
          f"cb {six:.2f} vs {two:.2f} ({verdict_cb}); ci {ci_on:.2f} vs {ci_off:.2f} ({verdict_ci})")


# -- criterion 7: pretraining ablation -----------------------------------------------------


def test_criterion_7_pretraining_ablation(harness):
    with_pre = harness.mean_bleu1("retag6")
    without = harness.mean_bleu1("retag6-nopre")
    assert with_pre >= without - 0.3, f"pretrained {with_pre:.2f} vs finetune-only {without:.2f}"
    verdict = "conclusive" if with_pre - without > 0.3 else "inconclusive (tie)"
    _pass(7, "pretrain->finetune >= finetune-only (overall BLEU-1, 3-seed avg)",
          f"{with_pre:.2f} vs {without:.2f} ({verdict})")


# -- criterion 8: classifier accuracy -------------------------------------------------------


def test_criterion_8_ci_accuracy(harness):
    accs = [
        ci_accuracy(harness.model("retag6", seed), harness.test_set, harness.train_config("retag6", seed))
        for seed in SEEDS
    ]
    assert min(accs) >= 0.9, f"classifier accuracy {accs} below 0.9"
    _pass(8, "analytical/descriptive classifier >= 90% on held-out", f"accs {[f'{a:.3f}' for a in accs]}")


# -- criterion 9: metric oracles -------------------------------------------------------------


def test_criterion_9_metric_oracles():
    got = bleu(["a b c d"], ["a b c d e"], order=1)
    assert abs(got - 77.8800783071405) < 1e-9
    assert abs(rouge_l("a b c", "a x c") - 2 / 3) < 1e-9
    from retag.tables import Table

    table = Table(id="t", title="ti", section_title="s", headers=("h",), rows=(("a",), ("z",)))
    score = parent("a b", "a b", table, ((0, 0), (1, 0)), lam=0.1)
    assert abs(score - 0.9653565103356295) < 1e-9
    identical = ["the cat sat on the mat", "one two three four five"]
    assert bleu(identical, list(identical), order=4) == pytest.approx(100.0, abs=1e-9)
    # lambda = 0.1 is honored: moving it to 0 removes the table-recall penalty
    assert parent("a b", "a b", table, ((0, 0), (1, 0)), lam=0.0) == pytest.approx(1.0, abs=1e-12)
    _pass(9, "hand-computed BLEU/ROUGE-L/PARENT oracles match to 1e-9")


# -- criterion 10: beam dominance --------------------------------------------------------------


def test_criterion_10_beam_dominance(harness):
    model = harness.model("retag6", 0)
    greedy = evaluate(model, harness.test_set, beam=1, max_len=EVAL_MAX_LEN)
    wide = evaluate(model, harness.test_set, beam=10, max_len=EVAL_MAX_LEN)
    violations = [
        (g.instance_id, g.log_prob, w.log_prob)
        for g, w in zip(greedy.records, wide.records)
        if w.log_prob < g.log_prob - 1e-9
    ]
    assert not violations, f"beam-10 lost to greedy on {len(violations)} instances: {violations[:3]}"
    _pass(10, "beam-10 log-prob >= greedy log-prob on 100% of test instances",
          f"{len(wide.records)} instances")


# -- criterion 11: filtering heuristic thresholds ------------------------------------------------


def _ratio_pair(n, d, extra=""):
    base = [f"{a}{b}" for a in "bcdfghjklm" for b in "aeiou"][: n // 2]
    ref = [t for t in base for _ in range(2)]
    table = list(ref)
    subs = [f"x{a}{b}" for a in "bcdfg" for b in "aeiou"][:d]
    for i in range(d):
        table[2 * i] = subs[i]
    prefix = (extra + " ") if extra else ""
    return prefix + " ".join(ref), prefix + " ".join(table)


def test_criterion_11_heuristic_thresholds():
    infotabs = {
        (50, 13): ("analytical-candidate", 74),
        (4, 1): ("unlabeled", 75),
        (50, 11): ("unlabeled", 78),
        (10, 2): ("unlabeled", 80),
        (100, 19): ("descriptive-candidate", 81),
    }
    for (n, d), (label, ratio) in infotabs.items():
        ref, table = _ratio_pair(n, d)
        verdict = classify_heuristic(ref, table, "infotabs")
        assert verdict.ratio == ratio and verdict.label == label, (n, d, verdict)

    totto = [
        (14, 3, "", 79, "analytical-candidate"),
        (26, 6, "fastest fastest", 79, "analytical-candidate"),
        (10, 2, "", 80, "unlabeled"),
        (38, 8, "fastest fastest", 80, "analytical-candidate"),
        (50, 8, "", 84, "unlabeled"),
        (48, 8, "fastest fastest", 84, "analytical-candidate"),
        (20, 3, "", 85, "unlabeled"),
        (18, 3, "fastest fastest", 85, "unlabeled"),
    ]
    for n, d, extra, ratio, label in totto:
        ref, table = _ratio_pair(n, d, extra=extra)
        verdict = classify_heuristic(ref, table, "totto")
        assert verdict.ratio == ratio and verdict.label == label, (n, d, extra, verdict)
    _pass(11, "filter thresholds exact at 74/75/78/80/81 (infotabs) and 79/80/84/85 (totto)")


# -- criterion 12: checkpoint integrity ------------------------------------------------------------


def test_criterion_12_checkpoint_roundtrip(harness, tmp_path):
    model = harness.model("retag6", 0)
    path = tmp_path / "accept.rtag"
    save_checkpoint(model, path, train_config=harness.train_config("retag6", 0).to_json())
    loaded, _ = load_checkpoint(path)
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name].data, p.data), name
    assert loaded.config == model.config and loaded.vocab.id_to_token == model.vocab.id_to_token

    raw = bytearray(path.read_bytes())
    raw[2] ^= 0x01
    broken = tmp_path / "broken.rtag"
    broken.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_checkpoint(broken)
    _pass(12, "checkpoint round-trip bitwise exact; corrupted files rejected")
