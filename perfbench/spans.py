"""Spans around the calls into each retag layer, recorded from outside the package.

The tracer replaces module and class attributes of ``retag`` with thin
wrappers and restores them on ``uninstall``. Every wrapped call appends one
span ``[name, start, end, parent, ops_start, ops_end, info]`` to an in-memory
list; ``ops_*`` read a counter of ``apply_op`` calls, so the number of tensor
ops inside any span is ``ops_end - ops_start``.

Patching has to hit the name the caller looks up. ``retag.trainer`` binds
``backward``, ``clip_grad_norm``, ``adamw_step``, ``prepare_instance`` and
``make_record`` at import, ``retag.model`` binds ``mix`` and ``decode_text``,
and ``retag.codebook`` binds ``apply_op``, so those are patched in the
importing module. The package ``retag.numerics`` re-exports a function
called ``tensor`` that shadows its submodule: ``import retag.numerics.tensor
as T`` yields the function, so the module is taken from ``sys.modules``
through ``importlib.import_module``.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, OPS0, OPS1, INFO = range(7)


def _rows(ids) -> int:
    shape = np.shape(ids)
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    """Wraps retag's layer entry points and keeps the spans they produce."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **info):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.ops, 0, info]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield record
        finally:
            self._stack.pop()
            record[OPS1] = self.ops
            record[END] = time.perf_counter()

    def _wrap(self, owner, attr: str, name: str, info=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
                if info is not None:
                    record[INFO].update(info(args, kwargs, result))
                return result

        self._patch(owner, attr, wrapper)

    def _count_ops(self, owner) -> None:
        original = owner.apply_op
        tracer = self

        def apply_op(*args, **kwargs):
            tracer.ops += 1
            return original(*args, **kwargs)

        self._patch(owner, "apply_op", apply_op)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        tensor_mod = importlib.import_module("retag.numerics.tensor")
        from retag import checkpoint, codebook, corpus, model, trainer

        self._count_ops(tensor_mod)
        self._count_ops(codebook)
        w = self._wrap
        w(corpus, "synth_generate", "corpus.synth_generate", lambda a, k, r: {"n": len(r)})
        w(model, "prepare_instance", "tables.prepare_instance")
        w(trainer, "prepare_instance", "tables.prepare_instance")
        w(model.Model, "encode", "model.encode")
        w(model.Model, "forward_train", "model.forward_train")
        w(model.Model, "_memory", "model.memory")
        w(model.Model, "_decode", "model.decode", lambda a, k, r: {"rows": _rows(a[2])})
        w(model.Model, "generate", "model.generate")
        w(model, "decode_text", "tables.decode_text", lambda a, k, r: {"tokens": len(a[1]) - 1})
        w(model, "mix", "codebook.mix")
        w(codebook, "quantize", "codebook.quantize", lambda a, k, r: {"tokens": int(a[1].shape[0])})
        w(trainer, "total_loss", "trainer.total_loss")
        w(trainer, "backward", "numerics.backward", lambda a, k, r: {"tape_ops": len(a[0].tape)})
        w(trainer, "clip_grad_norm", "numerics.clip_grad_norm")
        w(trainer, "adamw_step", "numerics.adamw_step")
        w(trainer, "pretrain", "trainer.pretrain")
        w(trainer, "finetune", "trainer.finetune")
        w(trainer, "evaluate", "trainer.evaluate")
        w(trainer, "make_record", "metrics.make_record")
        w(checkpoint, "save_checkpoint", "checkpoint.save",
          lambda a, k, r: {"bytes": os.path.getsize(a[1])})
        w(checkpoint, "load_checkpoint", "checkpoint.load")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "ops_start", "ops_end", "info"],
                       "spans": self.spans}, fh, separators=(",", ":"))


# -- per-layer figures ----------------------------------------------------------------


def layer_metrics(spans: list[list], train_phases, decode_phases) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans, keyed by metric name, as (value, unit).

    A layer's self time is its span's length less the time its child spans
    cover. Spans are attributed to the ``phase`` span that encloses them.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)

    def dur(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def ms(idx) -> float:
        return 1000.0 * sum(dur(j) for j in idx)

    def info(idx, key: str) -> float:
        return sum(spans[j][INFO][key] for j in idx)

    def per(value: float, count: int) -> float:
        return value / count if count else float("nan")

    def named(idx, name: str) -> list[int]:
        return [j for j in idx if spans[j][NAME] == name]

    def descendants(i: int) -> list[int]:
        out, todo = [], list(children.get(i, ()))
        while todo:
            j = todo.pop()
            out.append(j)
            todo.extend(children.get(j, ()))
        return out

    def self_ms(i: int, of=None) -> float:
        """Span time less its children's, or less only the children named in ``of``."""
        inner = [c for c in children.get(i, ()) if of is None or spans[c][NAME] in of]
        return 1000.0 * (dur(i) - sum(dur(c) for c in inner))

    rounds: dict[str, list[int]] = {}
    for i in named(range(len(spans)), "phase"):
        rounds.setdefault(spans[i][INFO]["phase"], []).append(i)

    out: dict[str, tuple[float, str]] = {}
    for phase in train_phases:
        inside = [j for r in rounds.get(phase, ()) for j in descendants(r)]
        bwd, enc, quant, mix = (named(inside, n) for n in ("numerics.backward", "model.encode", "codebook.quantize", "codebook.mix"))
        steps = len(bwd)
        figures = {
            "numerics.tape_ops_per_step": (per(info(bwd, "tape_ops"), steps), "count"),
            "numerics.backward_ms_per_step": (per(ms(bwd), steps), "ms"),
            "numerics.optim_ms_per_step": (per(ms(named(inside, "numerics.clip_grad_norm") + named(inside, "numerics.adamw_step")), steps), "ms"),
            "model.decoder_ms_per_step": (per(ms(named(inside, "model.decode")), steps), "ms"),
            "model.encode_ms_per_instance": (per(ms(enc), len(enc)), "ms"),
            "codebook.quantize_ms_per_call": (per(ms(quant), len(quant)), "ms"),
            "codebook.tokens_per_quantize_call": (per(info(quant, "tokens"), len(quant)), "count"),
            "codebook.mix_ms_per_instance": (per(ms(mix), len(mix)), "ms"),
            "trainer.forward_ms_per_step": (per(ms(named(inside, "model.forward_train") + named(inside, "trainer.total_loss")), steps), "ms"),
            "trainer.step_self_ms": (per(sum(self_ms(j) for j in named(inside, "trainer.pretrain") + named(inside, "trainer.finetune")), steps), "ms"),
        }
        out.update({f"{name}.{phase}": value for name, value in figures.items()})

    scored: list[int] = []
    for phase in decode_phases:
        inside = [j for r in rounds.get(phase, ()) for j in descendants(r)]
        gen, enc, mix, prep = (named(inside, n) for n in ("model.generate", "model.encode", "codebook.mix", "tables.prepare_instance"))
        in_gen = [j for g in gen for j in descendants(g)]
        dec = named(in_gen, "model.decode")
        scored += named(inside, "metrics.make_record")
        figures = {
            "numerics.ops_per_generated_token": (per(sum(spans[g][OPS1] - spans[g][OPS0] for g in gen), info(named(in_gen, "tables.decode_text"), "tokens")), "count"),
            "model.encode_ms_per_instance": (per(ms(enc), len(enc)), "ms"),
            "model.decode_calls_per_instance": (per(len(dec), len(gen)), "count"),
            "model.decode_ms_per_call": (per(ms(dec), len(dec)), "ms"),
            "model.decode_rows_per_call": (per(info(dec, "rows"), len(dec)), "count"),
            "model.beam_self_ms_per_instance": (per(sum(self_ms(g, of=("model.memory", "model.decode")) for g in gen), len(gen)), "ms"),
            "codebook.mix_ms_per_instance": (per(ms(mix), len(mix)), "ms"),
            "tables.prepare_ms_per_instance": (per(ms(prep), len(prep)), "ms"),
        }
        out.update({f"{name}.{phase}": value for name, value in figures.items()})
    out["metrics.score_ms_per_instance"] = (per(ms(scored), len(scored)), "ms")

    every = range(len(spans))
    synth, save, load = (named(every, n) for n in ("corpus.synth_generate", "checkpoint.save", "checkpoint.load"))
    out["corpus.synth_ms_per_instance"] = (per(ms(synth), info(synth, "n")), "ms")
    out["checkpoint.save_ms"] = (per(ms(save), len(save)), "ms")
    out["checkpoint.load_ms"] = (per(ms(load), len(load)), "ms")
    out["checkpoint.bytes"] = (per(info(save, "bytes"), len(save)), "B")

    # share of each phase's round time spent inside the layers' spans
    for phase in list(train_phases) + list(decode_phases):
        ids = rounds.get(phase, [])
        covered = sum(dur(c) for r in ids for c in children.get(r, ()))
        out[f"trace.layer_coverage.{phase}"] = (per(covered, sum(dur(r) for r in ids)), "fraction")
    return out
