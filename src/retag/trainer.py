"""Loss assembly, two-stage pretraining, stratified fine-tuning, evaluation.

The total training loss has four parts: generative cross-entropy, the binary
analytical/descriptive classification term, the codebook loss, and the
beta-scaled commitment loss. Pretraining runs two stages over a tagged
corpus: stage 1 optimizes only the two quantization terms (codebooks, weight
head, and encoder move; the decoder and classifier do not), stage 2 adds the
generative term and the decoder. Fine-tuning optimizes every enabled term
with batches stratified to mix analytical and descriptive references.

The model variant (strategy and bank size) is the model's own
``ModelConfig``; it decides the question text, which loss terms exist and
which parameters train. ``TrainConfig`` holds only optimization settings.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .metrics import EvalReport, MetricConfig, make_record
from .model import Model, Prepared, parameter_group, prepare_instance
from .numerics.optim import OptimState, adamw_step, clip_grad_norm
from .numerics.rng import RngStream
from .numerics.tensor import Tape, backward, cross_entropy
from .tables import ANALYTICAL_CATEGORIES, PAD, Instance

STAGES = ("stage1", "stage2", "finetune")

_STAGE_TERMS = {
    "stage1": ("codebook", "commitment"),
    "stage2": ("generative", "codebook", "commitment"),
    "finetune": ("generative", "ci", "codebook", "commitment"),
}


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    beta: float = 0.25  # commitment scale
    epochs: int = 10
    batch_size: int = 8
    seed: int = 0
    stage1_steps: int = 500
    stage2_steps: int = 1500
    ci_enabled: bool = True
    grad_clip: float = 1.0
    log_every: int = 10

    def __post_init__(self):
        # `not <in range>` rather than `<out of range>`: NaN fails every comparison
        ranges = {
            "lr": (0 < self.lr < math.inf, "in (0, inf)"),
            "eps": (0 < self.eps < math.inf, "in (0, inf)"),
            "beta1": (0 <= self.beta1 < 1, "in [0, 1)"),
            "beta2": (0 <= self.beta2 < 1, "in [0, 1)"),
            "weight_decay": (0 <= self.weight_decay < math.inf, "in [0, inf)"),
            "beta": (0 <= self.beta < math.inf, "in [0, inf)"),
            "grad_clip": (self.grad_clip >= 0, ">= 0 (0 turns clipping off)"),
            "batch_size": (self.batch_size >= 1, ">= 1"),
            "epochs": (self.epochs >= 0, ">= 0"),
            "stage1_steps": (self.stage1_steps >= 0, ">= 0"),
            "stage2_steps": (self.stage2_steps >= 0, ">= 0"),
            "log_every": (self.log_every >= 1, ">= 1"),
        }
        for name, (ok, allowed) in ranges.items():
            if not ok:
                raise ConfigError(f"train config {name} must be {allowed}, got {getattr(self, name)}")

    def to_json(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    @classmethod
    def from_json(cls, payload: dict) -> "TrainConfig":
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown train config keys: {sorted(unknown)}")
        return cls(**payload)


def ci_active(cfg: TrainConfig, strategy: str) -> bool:
    """The classification term applies only when the codebook path is live."""
    return cfg.ci_enabled and strategy == "retag"


# -- loss ---------------------------------------------------------------------------


def total_loss(fwd, targets: np.ndarray, kind: str, cfg: TrainConfig, stage: str = "finetune"):
    """Sum the enabled loss terms for one instance.

    Returns (scalar tensor, components dict of floats). ``targets`` is the
    full target id sequence; labels are its shift by one. Components carry
    unit weights; the commitment term arrives already scaled by beta.
    """
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    terms = _STAGE_TERMS[stage]
    parts: dict[str, float] = {"generative": 0.0, "ci": 0.0, "codebook": 0.0, "commitment": 0.0}
    loss = None

    def add(term):
        nonlocal loss
        loss = term if loss is None else loss + term
        return term

    if "generative" in terms:
        gen = add(cross_entropy(fwd.logits, targets[1:], ignore_index=PAD))
        parts["generative"] = float(gen.data)
    if "ci" in terms and cfg.ci_enabled and fwd.mixed is not None:
        target = 0 if kind == "descriptive" else 1
        ci = add(cross_entropy(fwd.ci_logits.reshape((1, -1)), np.array([target])))
        parts["ci"] = float(ci.data)
    if "codebook" in terms:
        add(fwd.codebook_loss)
        add(fwd.commitment_loss)
        parts["codebook"] = float(fwd.codebook_loss.data)
        parts["commitment"] = float(fwd.commitment_loss.data)
    assert loss is not None
    return loss, parts


def _batch_loss(model: Model, batch: Sequence[Prepared], cfg: TrainConfig, stage: str, dropout_rng=None):
    scale = 1.0 / len(batch)
    loss = None
    sums = {"generative": 0.0, "ci": 0.0, "codebook": 0.0, "commitment": 0.0}
    decode = "generative" in _STAGE_TERMS[stage]
    for i, prepared in enumerate(batch):
        # a stream per instance, so its masks do not depend on the draws of the instances before it
        drop = dropout_rng.child(str(i)) if dropout_rng is not None else None
        fwd = model.forward_train(prepared, beta=cfg.beta, dropout_rng=drop, decode=decode)
        item, parts = total_loss(fwd, prepared.target_ids, prepared.kind, cfg, stage=stage)
        loss = item if loss is None else loss + item
        for key, value in parts.items():
            sums[key] += value
    comps = {key: value * scale for key, value in sums.items()}
    return loss * scale, comps


# -- reports ------------------------------------------------------------------------


@dataclass
class TrainReport:
    steps: list[dict] = field(default_factory=list)
    wall_time: float = 0.0
    seed: int = 0
    checkpoint: str | None = None

    def log(self, stage: str, step: int, total: float, comps: dict, grad_norm: float) -> None:
        self.steps.append(
            {
                "stage": stage,
                "step": step,
                "total": total,
                "generative": comps["generative"],
                "ci": comps["ci"],
                "codebook": comps["codebook"],
                "commitment": comps["commitment"],
                "grad_norm": grad_norm,
            }
        )

    def summary(self) -> dict:
        return {
            "steps_logged": len(self.steps),
            "final": self.steps[-1] if self.steps else None,
            "wall_time_s": self.wall_time,
            "seed": self.seed,
            "checkpoint": self.checkpoint,
        }

    def save_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for step in self.steps:
                fh.write(json.dumps(step) + "\n")


# -- parameter groups ----------------------------------------------------------------


def stage_prefixes(stage: str, cfg: TrainConfig, strategy: str) -> tuple[str, ...]:
    if strategy == "retag":
        quant = ("enc.", "weight_head.", "codebook.")
        if stage == "stage1":
            return quant
        if stage == "stage2":
            return quant + ("dec.",)
        return quant + ("dec.",) + (("ci.",) if ci_active(cfg, strategy) else ())
    if stage in ("stage1", "stage2"):
        raise ConfigError("pretraining stages need the retag strategy (codebooks are the point)")
    return ("enc.", "dec.")


# -- batch schedules -----------------------------------------------------------------


def _cycle_batches(items: list, batch_size: int, steps: int, rng: RngStream):
    batches = []
    epoch = 0
    while len(batches) < steps:
        order = rng.child(f"epoch{epoch}").permutation(len(items))
        for start in range(0, len(items), batch_size):
            chunk = [items[int(i)] for i in order[start : start + batch_size]]
            if chunk:
                batches.append(chunk)
            if len(batches) == steps:
                break
        epoch += 1
    return batches


def stratified_batches(analytical: list, descriptive: list, batch_size: int, rng: RngStream) -> list[list]:
    """Batches containing at least one instance of each kind while both remain."""
    a = [analytical[int(i)] for i in rng.child("analytical").permutation(len(analytical))]
    d = [descriptive[int(i)] for i in rng.child("descriptive").permutation(len(descriptive))]
    batches: list[list] = []
    ia = id_ = 0
    while ia < len(a) and id_ < len(d):
        batch = [a[ia], d[id_]]
        ia += 1
        id_ += 1
        while len(batch) < batch_size and (ia < len(a) or id_ < len(d)):
            if id_ >= len(d) or (ia < len(a) and len(a) - ia >= len(d) - id_):
                batch.append(a[ia])
                ia += 1
            else:
                batch.append(d[id_])
                id_ += 1
        batches.append(batch)
    rest = a[ia:] + d[id_:]
    for start in range(0, len(rest), batch_size):
        batches.append(rest[start : start + batch_size])
    return batches


# -- optimization loop ----------------------------------------------------------------


def _run_stage(model: Model, batches: Sequence[Sequence[Prepared]], cfg: TrainConfig, stage: str, report: TrainReport, dropout_root: RngStream | None) -> None:
    group = parameter_group(model.params, stage_prefixes(stage, cfg, model.config.strategy))
    state = OptimState.init(group)
    for step, batch in enumerate(batches):
        drop = dropout_root.child(f"{stage}.{step}") if dropout_root is not None else None
        with Tape():
            loss, comps = _batch_loss(model, batch, cfg, stage, dropout_rng=drop)
            grad_map = backward(loss, group.values())
        grads = {name: grad_map[p] for name, p in group.items()}
        grads, norm = clip_grad_norm(grads, cfg.grad_clip)
        group, state = adamw_step(
            group, grads, state,
            lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps, weight_decay=cfg.weight_decay,
        )
        model.params.update(group)
        if step % cfg.log_every == 0 or step == len(batches) - 1:
            report.log(stage, step, float(loss.data), comps, norm)


def _prepare_all(model: Model, instances: Sequence[Instance]) -> list[Prepared]:
    return [prepare_instance(model.vocab, inst, model.config.strategy) for inst in instances]


def pretrain(model: Model, corpus: Sequence[Instance], cfg: TrainConfig) -> TrainReport:
    """Two-stage pretraining over a reasoning-tagged corpus.

    Stage 1 (``stage1_steps`` batches) trains only the quantization terms
    and does not run the decoder; stage 2 (``stage2_steps``) adds the
    generative term. The classification
    head is never touched here.
    """
    if model.config.strategy != "retag":
        raise ConfigError("pretraining requires the retag strategy")
    start = time.perf_counter()
    report = TrainReport(seed=cfg.seed)
    prepared = _prepare_all(model, corpus)
    rng = RngStream(cfg.seed, ("pretrain",))
    dropout_root = rng.child("dropout") if model.config.dropout > 0 else None
    if cfg.stage1_steps:
        _run_stage(model, _cycle_batches(prepared, cfg.batch_size, cfg.stage1_steps, rng.child("stage1")), cfg, "stage1", report, dropout_root)
    if cfg.stage2_steps:
        _run_stage(model, _cycle_batches(prepared, cfg.batch_size, cfg.stage2_steps, rng.child("stage2")), cfg, "stage2", report, dropout_root)
    report.wall_time = time.perf_counter() - start
    return report


def finetune(model: Model, corpus: Sequence[Instance], cfg: TrainConfig) -> TrainReport:
    """Fine-tune for ``cfg.epochs`` passes with kind-stratified batches."""
    start = time.perf_counter()
    report = TrainReport(seed=cfg.seed)
    prepared = _prepare_all(model, corpus)
    analytical = [p for p in prepared if p.kind == "analytical"]
    descriptive = [p for p in prepared if p.kind == "descriptive"]
    if (not analytical or not descriptive) and ci_active(cfg, model.config.strategy):
        warnings.warn("corpus has a single kind; stratification disabled", stacklevel=2)
    rng = RngStream(cfg.seed, ("finetune",))
    dropout_root = rng.child("dropout") if model.config.dropout > 0 else None
    batches: list[list[Prepared]] = []
    for epoch in range(cfg.epochs):
        erng = rng.child(f"epoch{epoch}")
        if analytical and descriptive:
            batches.extend(stratified_batches(analytical, descriptive, cfg.batch_size, erng))
        else:
            pool = analytical or descriptive
            order = erng.child("plain").permutation(len(pool))
            for s in range(0, len(pool), cfg.batch_size):
                batches.append([pool[int(i)] for i in order[s : s + cfg.batch_size]])
    _run_stage(model, batches, cfg, "finetune", report, dropout_root)
    report.wall_time = time.perf_counter() - start
    return report


# -- evaluation -----------------------------------------------------------------------


def random_tag_assignment(instances: Sequence[Instance], seed: int) -> list[frozenset[str] | None]:
    """Uniform non-empty analytical category subsets for analytical instances."""
    stream = RngStream(seed, ("random-tags",))
    out: list[frozenset[str] | None] = []
    for inst in instances:
        if inst.kind == "descriptive":
            out.append(None)
            continue
        bits = int(stream.integers(1, 2 ** len(ANALYTICAL_CATEGORIES)))
        out.append(frozenset(cat for i, cat in enumerate(ANALYTICAL_CATEGORIES) if bits >> i & 1))
    return out


def evaluate(
    model: Model,
    instances: Sequence[Instance],
    strategy: str | None = None,
    beam: int = 10,
    max_len: int | None = None,
    metric_cfg: MetricConfig = MetricConfig(),
    random_tags_seed: int | None = None,
) -> EvalReport:
    """Generate for every instance, in order, and score against the gold references.

    Grouping always follows the gold category sets, even when generation ran
    with randomized tags.
    """
    strategy = strategy or model.config.strategy
    eval_model = Model(replace(model.config, strategy=strategy), model.params, model.vocab)
    overrides = (
        random_tag_assignment(instances, random_tags_seed)
        if random_tags_seed is not None
        else [None] * len(instances)
    )
    records = []
    for inst, override in zip(instances, overrides):
        prepared = prepare_instance(eval_model.vocab, inst, strategy, tags_override=override)
        text, log_prob = eval_model.generate(prepared.input_ids, prepared.category_mask, beam=beam, max_len=max_len)
        records.append(make_record(
            inst.table.id, text, inst.reference, inst.table, inst.highlights, inst.categories,
            cfg=metric_cfg, log_prob=log_prob,
        ))
    return EvalReport.from_records(
        records,
        metadata={
            "strategy": strategy,
            "beam": beam,
            "random_tags_seed": random_tags_seed,
            "parent_lambda": metric_cfg.parent_lambda,
            "n_instances": len(instances),
        },
    )


def ci_accuracy(model: Model, instances: Sequence[Instance], cfg: TrainConfig) -> float:
    """Fraction of instances whose fused representation is classified correctly."""
    correct = 0
    for inst in instances:
        prepared = prepare_instance(model.vocab, inst, model.config.strategy)
        fwd = model.forward_train(prepared, beta=cfg.beta, decode=False)
        predicted = int(np.argmax(fwd.ci_logits.data))
        correct += int(predicted == prepared.ci_target)
    return correct / len(instances)
