"""Command-line surface: data synthesis/filtering/splitting, two-stage
pretraining, fine-tuning, tag-controlled generation, evaluation (with the
random-tag control), ablation sweeps, and the gradient verification suite.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric or
verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import GeneratorSpec, classify_heuristic, highlight_text, synth_generate
from .errors import ConfigError, CorruptionError, DataError, FormatError, NumericError
from .metrics import MetricConfig
from .model import Model, ModelConfig, prepare_instance
from .tables import (
    ANALYTICAL_CATEGORIES,
    CATEGORIES,
    STRATEGIES,
    Instance,
    build_input,
    build_question,
    build_vocab,
    linearize,
    read_jsonl,
    write_jsonl,
)
from .trainer import TrainConfig, evaluate, finetune, pretrain


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are exit 1 here
        raise UsageError(message)


# -- configuration ---------------------------------------------------------------


@dataclass
class RunConfig:
    """One JSON document with model / train / metrics / generator sections."""

    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    generator: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, payload: dict) -> "RunConfig":
        sections = {"model", "train", "metrics", "generator"}
        unknown = set(payload) - sections
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        cfg = cls(**{k: dict(payload.get(k, {})) for k in sections})
        _check_keys("model", cfg.model, set(ModelConfig.__dataclass_fields__))
        _check_keys("train", cfg.train, set(TrainConfig.__dataclass_fields__))
        _check_keys("metrics", cfg.metrics, set(MetricConfig.__dataclass_fields__))
        _check_keys("generator", cfg.generator, set(GeneratorSpec.__dataclass_fields__))
        return cfg

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        if path is None:
            return cls()
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise DataError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: malformed JSON ({exc})") from None
        if not isinstance(payload, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_json(payload)

    def generator_spec(self, seed: int | None = None) -> GeneratorSpec:
        payload = dict(self.generator)
        if "rows_range" in payload:
            payload["rows_range"] = tuple(payload["rows_range"])
        for key in ("value_range", "year_range", "duration_range"):
            if key in payload:
                payload[key] = tuple(payload[key])
        if seed is not None:
            payload["seed"] = seed
        return GeneratorSpec(**payload)

    def train_config(self, **overrides) -> TrainConfig:
        payload = dict(self.train)
        payload.update({k: v for k, v in overrides.items() if v is not None})
        return TrainConfig.from_json(payload)

    def model_config(self, vocab_size: int, **overrides) -> ModelConfig:
        payload = dict(self.model)
        payload.update({k: v for k, v in overrides.items() if v is not None})
        payload["vocab_size"] = vocab_size
        return ModelConfig.from_json(payload)

    def metric_config(self) -> MetricConfig:
        return MetricConfig(**self.metrics)


def _check_keys(section: str, payload: dict, allowed: set) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in config section {section!r}: {sorted(unknown)}")


def _parse_tags(raw: str) -> frozenset[str]:
    tags = [t.strip() for t in raw.split(",") if t.strip()]
    for tag in tags:
        if tag not in CATEGORIES:
            raise UsageError(f"unknown tag {tag!r}; known tags: {', '.join(CATEGORIES)}")
    if not tags:
        raise UsageError("at least one tag is required")
    return frozenset(tags)


def _load_instances(path: str, split: str | None = None) -> list[Instance]:
    try:
        instances = read_jsonl(path)
    except FileNotFoundError:
        raise DataError(f"data file not found: {path}") from None
    if split:
        instances = [i for i in instances if i.split == split]
    if not instances:
        raise DataError(f"no instances in {path}" + (f" with split={split}" if split else ""))
    return instances


def _vocab_corpus(instances: list[Instance], strategy: str) -> list[str]:
    texts = []
    for inst in instances:
        texts.append(build_input(build_question(strategy, inst.categories), linearize(inst.table, inst.highlights)))
        texts.append(inst.reference)
    # every question template and tag word, so strategies stay interchangeable at eval
    texts.append(build_question("notags", {"descriptive"}))
    texts.append(build_question("tags", {"descriptive"}))
    texts.append(build_question("tags", set(ANALYTICAL_CATEGORIES)))
    return texts


def _train_slice(instances: list[Instance]) -> list[Instance]:
    train = [i for i in instances if i.split == "train"]
    return train if train else instances


# -- subcommands -------------------------------------------------------------------


def _cmd_data_synth(args) -> int:
    cfg = RunConfig.load(args.config)
    spec = cfg.generator_spec(seed=args.seed)
    instances = synth_generate(spec, args.n)
    write_jsonl(args.out, instances)
    print(f"wrote {len(instances)} instances to {args.out}")
    return 0


def _cmd_data_filter(args) -> int:
    instances = _load_instances(args.infile)
    with open(args.out, "w", encoding="utf-8") as fh:
        for inst in instances:
            verdict = classify_heuristic(inst.reference, highlight_text(inst), args.style)
            fh.write(
                json.dumps(
                    {
                        "id": inst.table.id,
                        "label": verdict.label,
                        "ratio": verdict.ratio,
                        "triggers": list(verdict.triggers),
                    }
                )
                + "\n"
            )
    print(f"wrote {len(instances)} verdicts to {args.out}")
    return 0


def _cmd_data_split(args) -> int:
    fractions = tuple(float(x) for x in args.fractions.split(","))
    if len(fractions) != 3:
        raise UsageError("--fractions needs exactly three comma-separated numbers")
    instances = _load_instances(args.infile)
    out = corpus_mod.split(instances, fractions, seed=args.seed)
    write_jsonl(args.out, out)
    counts = {s: sum(1 for i in out if i.split == s) for s in ("train", "valid", "test")}
    print(f"wrote {len(out)} instances to {args.out} ({counts})")
    return 0


def _build_model(cfg: RunConfig, instances: list[Instance], seed: int, **variant) -> Model:
    """A fresh model; ``variant`` overrides keys of the config's model section."""
    strategy = {**cfg.model, **variant}.get("strategy", ModelConfig.strategy)
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown model strategy {strategy!r}")
    vocab = build_vocab(_vocab_corpus(instances, strategy))
    return Model.init(cfg.model_config(vocab_size=len(vocab), **variant), vocab, seed=seed)


def _cmd_pretrain(args) -> int:
    cfg = RunConfig.load(args.config)
    train_cfg = cfg.train_config(seed=args.seed)
    data = _train_slice(_load_instances(args.data))
    model = _build_model(cfg, data, train_cfg.seed)
    report = pretrain(model, data, train_cfg)
    save_checkpoint(model, args.out, train_config=train_cfg.to_json())
    if args.report:
        report.save_jsonl(args.report)
    summary = report.summary() | {"timestamp": time.time()}
    print(json.dumps(summary))
    return 0


def _cmd_train(args) -> int:
    cfg = RunConfig.load(args.config)
    train_cfg = cfg.train_config(seed=args.seed)
    data = _train_slice(_load_instances(args.data))
    if args.init:
        model, _ = load_checkpoint(args.init)
        built = model.config.to_json()
        for key, value in sorted(cfg.model.items()):
            if built[key] != value:
                raise ConfigError(f"model {key}={value!r} in the config, but {args.init} was built with {built[key]!r}")
    else:
        model = _build_model(cfg, data, train_cfg.seed)
    report = finetune(model, data, train_cfg)
    save_checkpoint(model, args.out, train_config=train_cfg.to_json())
    if args.report:
        report.save_jsonl(args.report)
    print(json.dumps(report.summary() | {"timestamp": time.time()}))
    return 0


def _cmd_generate(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    strategy = args.strategy or model.config.strategy
    if strategy not in STRATEGIES:
        raise UsageError(f"unknown strategy {strategy!r}")
    if strategy != model.config.strategy:
        model = Model(dataclasses.replace(model.config, strategy=strategy), model.params, model.vocab)
    instances = _load_instances(args.input)
    tags = _parse_tags(args.tags) if args.tags else None
    if tags is not None:
        try:
            build_question(strategy, tags)
        except DataError as exc:
            raise UsageError(str(exc)) from None
    with open(args.out, "w", encoding="utf-8") as fh:
        for inst in instances:
            prepared = prepare_instance(model.vocab, inst, strategy, tags_override=tags)
            text, log_prob = model.generate(prepared.input_ids, prepared.category_mask, beam=args.beam)
            fh.write(
                json.dumps(
                    {
                        "id": inst.table.id,
                        "generated": text,
                        "log_prob": log_prob,
                        "reference": inst.reference,
                        "categories": sorted(inst.categories),
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
    print(f"wrote {len(instances)} generations to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = RunConfig.load(args.config)
    metric_cfg = cfg.metric_config()
    model, _ = load_checkpoint(args.ckpt)
    instances = _load_instances(args.data, split=args.split)
    report = evaluate(
        model,
        instances,
        strategy=args.strategy,
        beam=args.beam,
        metric_cfg=metric_cfg,
        random_tags_seed=args.seed if args.random_tags else None,
    )
    report.metadata["timestamp"] = time.time()
    report.save(args.report)
    overall = report.aggregates["overall"]
    print(json.dumps({"overall": overall, "report": args.report}))
    return 0


_VARIANTS = {
    "notags": ("notags", 6),
    "tags": ("tags", 6),
    "retag2": ("retag", 2),
    "retag6": ("retag", 6),
}


def _cmd_ablate(args) -> int:
    cfg = RunConfig.load(args.config)
    metric_cfg = cfg.metric_config()
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    for v in variants:
        if v not in _VARIANTS:
            raise UsageError(f"unknown variant {v!r}; known: {', '.join(_VARIANTS)}")
    seeds = [int(s) for s in args.seeds.split(",")]
    instances = _load_instances(args.data)
    train_data = _train_slice(instances)
    eval_data = [i for i in instances if i.split == "test"] or [i for i in instances if i.split == "valid"] or instances
    pretrain_data = _train_slice(_load_instances(args.pretrain_data)) if args.pretrain_data else train_data

    results: dict[str, dict] = {}
    for variant in variants:
        strategy, codebooks = _VARIANTS[variant]
        per_seed = []
        for seed in seeds:
            train_cfg = cfg.train_config(seed=seed, ci_enabled=(args.ci == "on"))
            model = _build_model(cfg, instances, seed, strategy=strategy, codebook_count=codebooks)
            if args.pretrain == "on" and strategy == "retag":
                pretrain(model, pretrain_data, train_cfg)
            finetune(model, train_data, train_cfg)
            report = evaluate(model, eval_data, beam=args.beam, metric_cfg=metric_cfg)
            per_seed.append(report.aggregates)
        mean = {
            group: {
                key: float(np.mean([s[group][key] for s in per_seed]))
                for key in ("bleu1", "bleu4", "rougeL", "parent")
            }
            for group in ("overall", "analytical", "descriptive")
        }
        results[variant] = {"seeds": seeds, "mean": mean, "per_seed": per_seed}
    payload = {
        "variants": results,
        "ci": args.ci,
        "pretrain": args.pretrain,
        "metadata": {"timestamp": time.time()},
    }
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(json.dumps({v: results[v]["mean"]["overall"] for v in variants}))
    return 0


def _cmd_gradcheck(args) -> int:
    from .verify import run_all

    ok, text = run_all()
    print(text)
    return 0 if ok else 3


# -- wiring ------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="retag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    data = sub.add_parser("data", help="corpus synthesis, filtering, splitting")
    data_sub = data.add_subparsers(dest="data_command", required=True)

    synth = data_sub.add_parser("synth", help="generate a synthetic tagged corpus")
    synth.add_argument("--config", default=None)
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--seed", type=int, default=None)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=_cmd_data_synth)

    filt = data_sub.add_parser("filter", help="analytical/descriptive fuzzy-match filter")
    filt.add_argument("--style", choices=("totto", "infotabs"), required=True)
    filt.add_argument("--in", dest="infile", required=True)
    filt.add_argument("--out", required=True)
    filt.set_defaults(func=_cmd_data_filter)

    spl = data_sub.add_parser("split", help="seeded train/valid/test partition")
    spl.add_argument("--fractions", required=True)
    spl.add_argument("--seed", type=int, default=0)
    spl.add_argument("--in", dest="infile", required=True)
    spl.add_argument("--out", required=True)
    spl.set_defaults(func=_cmd_data_split)

    pre = sub.add_parser("pretrain", help="two-stage codebook pretraining")
    pre.add_argument("--config", default=None)
    pre.add_argument("--data", required=True)
    pre.add_argument("--out", required=True)
    pre.add_argument("--seed", type=int, default=None)
    pre.add_argument("--report", default=None)
    pre.set_defaults(func=_cmd_pretrain)

    tr = sub.add_parser("train", help="fine-tune (optionally from a pretrained checkpoint)")
    tr.add_argument("--config", default=None)
    tr.add_argument("--data", required=True)
    tr.add_argument("--init", default=None)
    tr.add_argument("--out", required=True)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--report", default=None)
    tr.set_defaults(func=_cmd_train)

    gen = sub.add_parser("generate", help="beam-search generation with tag control")
    gen.add_argument("--ckpt", required=True)
    gen.add_argument("--input", required=True)
    gen.add_argument("--strategy", default=None, choices=STRATEGIES)
    gen.add_argument("--tags", default=None, help="comma-separated categories forced on every instance")
    gen.add_argument("--beam", type=int, default=10)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    ev = sub.add_parser("eval", help="generate and score against gold references")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--strategy", default=None, choices=STRATEGIES)
    ev.add_argument("--split", default=None, choices=("train", "valid", "test"))
    ev.add_argument("--beam", type=int, default=10)
    ev.add_argument("--random-tags", action="store_true")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--config", default=None)
    ev.add_argument("--report", required=True)
    ev.set_defaults(func=_cmd_eval)

    ab = sub.add_parser("ablate", help="sweep strategy/codebook/ci/pretraining variants")
    ab.add_argument("--variants", required=True, help="comma list from notags,tags,retag2,retag6")
    ab.add_argument("--ci", choices=("on", "off"), default="on")
    ab.add_argument("--pretrain", choices=("on", "off"), default="off")
    ab.add_argument("--pretrain-data", default=None)
    ab.add_argument("--data", required=True)
    ab.add_argument("--seeds", default="0")
    ab.add_argument("--beam", type=int, default=4)
    ab.add_argument("--config", default=None)
    ab.add_argument("--report", required=True)
    ab.set_defaults(func=_cmd_ablate)

    gc = sub.add_parser("gradcheck", help="run the numeric verification suite")
    gc.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FormatError, CorruptionError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:  # console_scripts hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
