"""Numerical verification: per-primitive gradient checks and an end-to-end
check of the full training loss on a tiny model, all in float64.

The end-to-end check compares three gradient fields at one point:

1. autodiff of the real training loss (straight-through, stop-gradients,
   live nearest-code search);
2. autodiff of the pinned forward (code selections, the weight head's
   input and the stop-gradient arguments frozen to the values of pass (1))
   -- must agree with (1) to float64 round-off, since the two graphs
   coincide at the point;
3. central finite differences of the pinned forward, which is smooth, so
   (2) must match it within the requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FrozenForward, Model, ModelConfig, prepare_instance
from .numerics.gradcheck import GradCheckReport, grad_check
from .numerics.tensor import (
    Tape,
    Tensor,
    backward,
    cross_entropy,
    gather,
    gelu,
    layer_norm,
    masked_fill,
    reduce_mean,
    reduce_sum,
    softmax,
    tensor,
    transpose,
)
from .tables import Instance, Table, build_vocab
from .trainer import TrainConfig, total_loss


def primitive_checks(h: float = 1e-5, tol: float = 1e-6) -> list[tuple[str, GradCheckReport]]:
    """Run every differentiable primitive through the finite-difference oracle."""
    rng = np.random.default_rng(20240501)

    def r(*shape):
        return rng.normal(size=shape)

    proj = tensor(r(4, 5), dtype=np.float64)
    cases = {
        "add": (lambda p: (p["a"] + p["b"]).sum(), {"a": r(4, 5), "b": r(5)}),
        "sub": (lambda p: ((p["a"] - p["b"]) * (p["a"] - p["b"])).sum(), {"a": r(3, 4), "b": r(3, 4)}),
        "mul": (lambda p: (p["a"] * p["b"]).mean(), {"a": r(4, 3), "b": r(4, 3)}),
        "matmul": (lambda p: (p["a"] @ p["b"]).sum(), {"a": r(2, 3, 4), "b": r(2, 4, 3)}),
        "transpose": (lambda p: (transpose(p["a"]) @ p["a"]).sum(), {"a": r(3, 4)}),
        "reshape": (lambda p: (p["a"].reshape((2, 6)) * p["a"].reshape((2, 6))).sum(), {"a": r(3, 4)}),
        "index": (lambda p: (p["a"][1:, :3] * p["a"][1:, :3]).sum(), {"a": r(3, 4)}),
        "gather": (lambda p: (gather(p["a"], [0, 2, 2, 1], axis=0) * 1.5).sum(), {"a": r(3, 4)}),
        "sum": (lambda p: (reduce_sum(p["a"], axis=0) * reduce_sum(p["a"], axis=0)).sum(), {"a": r(4, 5)}),
        "mean": (lambda p: reduce_mean(p["a"] * p["a"]), {"a": r(4, 5)}),
        "softmax": (lambda p: (softmax(p["a"], axis=-1) * proj).sum(), {"a": r(4, 5)}),
        "layer_norm": (
            lambda p: (layer_norm(p["x"], p["g"], p["b"]) * proj).sum(),
            {"x": r(4, 5), "g": 1.0 + 0.1 * r(5), "b": 0.1 * r(5)},
        ),
        "gelu": (lambda p: (gelu(p["a"]) * proj).sum(), {"a": r(4, 5)}),
        "masked_fill": (
            lambda p: (masked_fill(p["a"], np.eye(4, 5, dtype=bool), -2.0) * proj).sum(),
            {"a": r(4, 5)},
        ),
        "cross_entropy": (
            lambda p: cross_entropy(p["a"], np.array([1, 0, 4, 2]), ignore_index=2),
            {"a": r(4, 5)},
        ),
    }
    out = []
    for name, (f, arrays) in cases.items():
        params = {k: tensor(v, requires_grad=True, dtype=np.float64) for k, v in arrays.items()}
        out.append((name, grad_check(f, params, h=h, tol=tol)))
    return out


def _tiny_model(seed: int = 7):
    table = Table(
        id="v0",
        title="verify",
        section_title="s",
        headers=("a", "b"),
        rows=(("1", "2"), ("3", "4")),
    )
    instance = Instance(
        table=table,
        highlights=((0, 0),),
        reference="a b one two",
        categories=frozenset({"numerical", "commonsense"}),
    )
    corpus = [
        "Generate a sentence with numerical, commonsense reasoning based on the following table?",
        "a b one two three 1 2 3 4",
    ]
    vocab = build_vocab(corpus)
    config = ModelConfig(
        vocab_size=len(vocab),
        layers=2,
        heads=2,
        hidden=8,
        ffn=16,
        max_len=48,
        k=4,
        strategy="retag",
        codebook_count=6,
    )
    model = Model.init(config, vocab, seed=seed, dtype=np.float64)
    prepared = prepare_instance(vocab, instance, "retag")
    return model, prepared


@dataclass
class EndToEndResult:
    report: GradCheckReport
    frozen_vs_live_max_err: float
    passed: bool

    def summary(self) -> str:
        return (
            f"{'PASS' if self.passed else 'FAIL'}  end-to-end: fd rel={self.report.max_rel_err:.3e}, "
            f"pinned-vs-live autodiff max err={self.frozen_vs_live_max_err:.3e}"
        )


def model_end_to_end_check(h: float = 1e-5, tol: float = 1e-5, seed: int = 7) -> EndToEndResult:
    """Gradient-check the full four-term loss of a tiny reasoning-tagged model."""
    model, prepared = _tiny_model(seed=seed)
    cfg = TrainConfig(ci_enabled=True, beta=0.25)

    with Tape():
        fwd = model.forward_train(prepared, beta=cfg.beta)
        live_loss, _ = total_loss(fwd, prepared.target_ids, prepared.kind, cfg)
        live_grads = backward(live_loss, model.params.values())
    frozen = FrozenForward(
        indices=fwd.indices, enc0=fwd.enc.data, mixed0=fwd.mixed.data, pool0=model._pool(fwd.enc).data
    )

    def pinned(params: dict[str, Tensor]) -> Tensor:
        probe = Model(model.config, params, model.vocab)
        out = probe.forward_train(prepared, beta=cfg.beta, frozen=frozen)
        loss, _ = total_loss(out, prepared.target_ids, prepared.kind, cfg)
        return loss

    with Tape():
        pinned_loss = pinned(model.params)
        pinned_grads = backward(pinned_loss, model.params.values())

    worst = 0.0
    for name, p in model.params.items():
        diff = float(np.abs(live_grads[p] - pinned_grads[p]).max(initial=0.0))
        scale = float(max(np.abs(live_grads[p]).max(initial=0.0), 1.0))
        worst = max(worst, diff / scale)

    report = grad_check(pinned, model.params, h=h, tol=tol)
    return EndToEndResult(report=report, frozen_vs_live_max_err=worst, passed=report.passed and worst < 1e-9)


def run_all(tol_ops: float = 1e-6, tol_model: float = 1e-5) -> tuple[bool, str]:
    lines = []
    ok = True
    for name, report in primitive_checks(tol=tol_ops):
        ok &= report.passed
        lines.append(f"{'PASS' if report.passed else 'FAIL'}  op {name}: rel={report.max_rel_err:.3e}")
    e2e = model_end_to_end_check(tol=tol_model)
    ok &= e2e.passed
    lines.append(e2e.summary())
    lines.append(f"{'PASS' if ok else 'FAIL'}  gradient suite")
    return ok, "\n".join(lines)
