"""Run one retag benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

The run builds its inputs from ``--seed``, sets up a model, runs the timed
phases of the workload for about ``--seconds`` seconds in whole rounds, checks
the outputs, and prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the calls into each retag
layer are wrapped in spans and the metrics are the per-layer ones. See
``perfbench/README.md`` for the workloads and what each metric should move.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

# One process, one closed loop: BLAS and the evaluation fan-out stay at one
# thread, so a run uses one of the machine's CPUs and measures op dispatch,
# not thread scheduling. Set before numpy is imported.
THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "RETAG_THREADS": "1"}
os.environ.update(THREAD_SETTINGS)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(SRC))

try:
    import numpy as np

    import retag
    from retag import checkpoint, codebook, corpus, metrics as metrics_mod, model as model_mod, tables, trainer
    from retag.errors import (
        ConfigError, ContractError, DataError, DimensionError, FormatError, LengthError, NumericError,
    )
except ImportError as exc:
    sys.exit(f"perfbench: cannot import retag from {SRC}: {exc}")
if not Path(retag.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: retag was imported from {retag.__file__}, not from {SRC}")

import checks  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

RETAG_ERRORS = (ConfigError, ContractError, DataError, DimensionError, FormatError, LengthError, NumericError)

# -- workloads ------------------------------------------------------------------------

# Acceptance shape of the test suite: hidden 64, 2 layers, 4 heads, k 6, batch 8,
# beam 4, generation max_len 40, lr 3e-4, category mix of the evaluation corpus.
VALUE_RANGE = (5, 40)
MIX_EVAL = {
    "descriptive": 0.20, "tabular": 0.09, "numerical": 0.09, "temporal": 0.09, "commonsense": 0.09,
    "entity": 0.09, "numerical+commonsense": 0.09, "tabular+numerical": 0.09,
    "temporal+commonsense": 0.08, "numerical+temporal+commonsense": 0.09,
}
PRETRAIN_INSTANCES = 400
FINETUNE_INSTANCES = 600  # split 3:1 into train and test, as in the acceptance suite
BATCH = 8
LR = 3e-4
BEAM = 4
DECODE_MAX_LEN = 40
# Models start from this seed; --seed chooses the inputs.
MODEL_SEED = 0

# A pretraining round is one ``pretrain`` call of 4 batches, a fine-tune round
# one ``finetune`` epoch over 32 instances, a decoding round 4 instances.
PRETRAIN_ROUND_STEPS = 4
FINETUNE_ROUND = 32
DECODE_ROUND = 4
# Checking a rescoring costs one teacher-forced forward; check a spread sample.
CHECKED_OUTPUTS = 48

TRAIN_PHASES = ("stage1", "stage2", "finetune")
DECODE_PHASES = ("beam4", "greedy")
PHASE_METRIC = {
    "stage1": "stage1_inst_per_s",
    "stage2": "stage2_inst_per_s",
    "finetune": "finetune_inst_per_s",
    "beam4": "eval_beam4_inst_per_s",
    "greedy": "greedy_inst_per_s",
}


@dataclass(frozen=True)
class Workload:
    rows: tuple[int, int]  # table rows drawn per instance
    max_len: int  # model position table: longer than any input the rows can make
    cycle: dict[str, int]  # rounds of each phase per cycle
    trained_decoder: bool  # decode with a model trained in set-up, not the initial one


# Every workload runs all five phases, interleaved round by round in cycles
# until --seconds have passed, so a slow spell of the machine falls on all
# phases alike. The rounds of a cycle set where a workload's time goes.
WORKLOADS = {
    # Training at the acceptance shape, 3/4 of the time. The decoding rounds
    # use the initial model, which seldom emits <eos>, so their cost does not
    # depend on how far training got.
    "train": Workload(rows=(4, 7), max_len=200, trained_decoder=False,
                      cycle={"stage1": 2, "stage2": 2, "finetune": 2, "beam4": 1, "greedy": 1}),
    # Decoding with a model trained in set-up from a fixed seed and corpus,
    # which writes sentences of 5-12 words, 2/3 of the time.
    "decode": Workload(rows=(4, 7), max_len=200, trained_decoder=True,
                       cycle={"stage1": 1, "stage2": 1, "finetune": 1, "beam4": 12, "greedy": 12}),
    # Tables of 10-16 rows: inputs of 88-235 tokens, which max_len 256 holds.
    "long_tables": Workload(rows=(10, 16), max_len=256, trained_decoder=False,
                            cycle={"stage1": 1, "stage2": 1, "finetune": 1, "beam4": 1, "greedy": 1}),
}

# Set-up training of the decode workload's model: enough for it to end its
# sentences (beam-4 outputs of 5-12 words, BLEU-1 about 34 on its test split).
DECODER_TRAINING = trainer.TrainConfig(lr=1e-3, batch_size=BATCH, seed=MODEL_SEED, stage1_steps=8, stage2_steps=48, epochs=1)
DECODER_FINETUNE_INSTANCES = 160


def pretrain_corpus(rows: tuple[int, int], seed: int) -> list:
    spec = corpus.GeneratorSpec(rows_range=rows, value_range=VALUE_RANGE, seed=1000 * seed + 101)
    return corpus.synth_generate(spec, PRETRAIN_INSTANCES)


def finetune_split(rows: tuple[int, int], seed: int) -> tuple[list, list]:
    """(train, test) parts of the evaluation-mix corpus for one data seed."""
    spec = corpus.GeneratorSpec(mix=MIX_EVAL, rows_range=rows, value_range=VALUE_RANGE, seed=1000 * seed + 202)
    ft = corpus.split(corpus.synth_generate(spec, FINETUNE_INSTANCES), (0.75, 0.0, 0.25), seed=1000 * seed + 7)
    return [i for i in ft if i.split == "train"], [i for i in ft if i.split == "test"]


def make_vocab(instances):
    texts = []
    for inst in instances:
        texts.append(tables.build_input(tables.build_question("retag", inst.categories), tables.linearize(inst.table, inst.highlights)))
        texts.append(inst.reference)
    texts.append(tables.build_question("tags", set(tables.ANALYTICAL_CATEGORIES)))
    return tables.build_vocab(texts)


class Cycle:
    """Hands out consecutive chunks of a list, wrapping around at the end."""

    def __init__(self, items):
        self.items = items
        self.pos = 0

    def take(self, n: int) -> list:
        out = [self.items[(self.pos + i) % len(self.items)] for i in range(n)]
        self.pos = (self.pos + n) % len(self.items)
        return out


class GeneratedIds:
    """Keeps the id sequence behind each text that ``Model.generate`` returns.

    ``generate`` drops special tokens when it turns its best hypothesis into
    text, so the text alone does not give back the sequence whose log-prob it
    reports; the checks rescore these sequences.
    """

    def __init__(self):
        self.sequences: list[list[int]] = []
        original = model_mod.decode_text

        def decode_text(vocab, ids):
            self.sequences.append([int(i) for i in ids])
            return original(vocab, ids)

        model_mod.decode_text = decode_text


def snapshot(model) -> dict:
    return {name: p.data.copy() for name, p in model.params.items()}


# -- the run ----------------------------------------------------------------------------


class Bench:
    """Set-up, rounds and checks of one workload.

    ``trainee`` is the model the training rounds update; ``decoder`` is the
    model the decoding rounds run, which training never touches.
    """

    def __init__(self, name: str, seed: int, tracer: Tracer | None):
        self.spec = WORKLOADS[name]
        self.tracer = tracer
        self.rates: dict[str, list[float]] = {p: [] for p in TRAIN_PHASES + DECODE_PHASES}
        self.attempted = 0
        self.failed = 0
        self.logged: list[dict] = []
        self.generated = GeneratedIds()
        self.beam_out: list = []  # (instance, record, ids)
        self.greedy_out: list = []  # (prepared, ids, text, log_prob)
        self.problems: list[str] = []

        rows = self.spec.rows
        # the decode workload trains on fixed inputs, so its model is the same in every run
        train_seed = MODEL_SEED if self.spec.trained_decoder else seed
        pre = pretrain_corpus(rows, train_seed)
        ft_train, test = finetune_split(rows, train_seed)
        if train_seed != seed:
            test = finetune_split(rows, seed)[1]
        self.pre, self.ft, self.test = Cycle(pre), Cycle(ft_train), Cycle(test)
        vocab = make_vocab(pre + ft_train)
        config = model_mod.ModelConfig(
            vocab_size=len(vocab), layers=2, heads=4, hidden=64, ffn=128, max_len=self.spec.max_len, k=6, strategy="retag",
        )
        self.cfg = trainer.TrainConfig(lr=LR, batch_size=BATCH, seed=train_seed)
        initial = model_mod.Model.init(config, vocab, seed=MODEL_SEED)
        self.trainee = initial.clone()
        if self.spec.trained_decoder:
            trainer.pretrain(initial, pre, DECODER_TRAINING)
            trainer.finetune(initial, ft_train[:DECODER_FINETUNE_INSTANCES], DECODER_TRAINING)
        self.decoder = self.checkpoint_roundtrip(initial)

    # one round per phase; each returns the number of instances it handled

    def round_pretrain(self, stage: str) -> int:
        chunk = self.pre.take(PRETRAIN_ROUND_STEPS * BATCH)
        steps = {"stage1_steps": 0, "stage2_steps": 0, f"{stage}_steps": PRETRAIN_ROUND_STEPS}
        self.logged.extend(trainer.pretrain(self.trainee, chunk, replace(self.cfg, **steps)).steps)
        return len(chunk)

    def round_finetune(self) -> int:
        chunk = self.ft.take(FINETUNE_ROUND)
        self.logged.extend(trainer.finetune(self.trainee, chunk, replace(self.cfg, epochs=1)).steps)
        return len(chunk)

    def round_beam(self) -> int:
        chunk = self.test.take(DECODE_ROUND)
        report = trainer.evaluate(self.decoder, chunk, beam=BEAM, max_len=DECODE_MAX_LEN)
        self.beam_out.extend(zip(chunk, report.records, self.generated.sequences[-len(chunk):]))
        return len(chunk)

    def round_greedy(self) -> int:
        chunk = self.test.take(DECODE_ROUND)
        for inst in chunk:
            prepared = model_mod.prepare_instance(self.decoder.vocab, inst, "retag")
            text, log_prob = self.decoder.generate(prepared.input_ids, prepared.category_mask, beam=1, max_len=DECODE_MAX_LEN)
            self.greedy_out.append((prepared, self.generated.sequences[-1], text, log_prob))
        return len(chunk)

    def run_round(self, phase: str) -> None:
        fn, planned = {
            "stage1": (lambda: self.round_pretrain("stage1"), PRETRAIN_ROUND_STEPS * BATCH),
            "stage2": (lambda: self.round_pretrain("stage2"), PRETRAIN_ROUND_STEPS * BATCH),
            "finetune": (self.round_finetune, FINETUNE_ROUND),
            "beam4": (self.round_beam, DECODE_ROUND),
            "greedy": (self.round_greedy, DECODE_ROUND),
        }[phase]
        self.attempted += planned
        before = snapshot(self.trainee) if phase in ("stage1", "stage2") else None
        span = self.tracer.span("phase", phase=phase) if self.tracer else contextlib.nullcontext()
        with span:
            t0 = time.perf_counter()
            try:
                n = fn()
            except RETAG_ERRORS as exc:
                self.failed += planned
                print(f"perfbench: {phase} round failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                return
            dt = time.perf_counter() - t0
        self.rates[phase].append(n / dt)
        if before is not None:
            self.check_routing(phase, before)

    def run(self, seconds: float) -> None:
        """Whole cycles until ``seconds`` have passed."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for phase in TRAIN_PHASES + DECODE_PHASES:
                for _ in range(self.spec.cycle[phase]):
                    self.run_round(phase)

    def checkpoint_roundtrip(self, model):
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"roundtrip-{os.getpid()}.rtag"
        try:
            checkpoint.save_checkpoint(model, path)
            loaded, _ = checkpoint.load_checkpoint(path)
        finally:
            path.unlink(missing_ok=True)
        self.problems += checks.check_checkpoint(model, loaded)
        return loaded

    # -- correctness -------------------------------------------------------------------

    def check_routing(self, stage: str, before: dict) -> None:
        frozen = ("dec.", "ci.") if stage == "stage1" else ("ci.",)
        self.problems += checks.check_frozen(before, snapshot(self.trainee), frozen, stage)

    def check(self) -> None:
        self.problems += checks.check_descent(self.logged)

        model = self.trainee
        bank = model.bank()
        for inst in self.test.items[:8]:
            prepared = model_mod.prepare_instance(model.vocab, inst, "retag")
            enc = model.encode(prepared.input_ids)
            for cb in bank.codebooks.values():
                qr = codebook.quantize(cb, enc)
                self.problems += checks.check_nearest_codes(enc.data, cb.codes.data, qr.indices)

        for prepared, ids, text, log_prob in sample(self.greedy_out):
            self.problems += checks.check_greedy(self.decoder, prepared, ids, text, log_prob, DECODE_MAX_LEN)
        for inst, record, ids in sample(self.beam_out):
            prepared = model_mod.prepare_instance(self.decoder.vocab, inst, "retag")
            self.problems += checks.check_beam(self.decoder, prepared, ids, record.candidate, record.log_prob, DECODE_MAX_LEN)
        for inst, record, _ in self.beam_out:
            self_record = metrics_mod.make_record(
                inst.table.id, inst.reference, inst.reference, inst.table, inst.highlights, inst.categories,
            )
            self.problems += checks.check_record(record, self_record)


def process_age() -> float:
    """Seconds since this process started, from its start time in /proc (10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def sample(items: list) -> list:
    step = max(1, -(-len(items) // CHECKED_OUTPUTS))
    return items[::step]


def blas_info() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    bench = Bench(args.workload, args.seed, tracer)
    setup_s = process_age()

    bench.run(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    bench.check()

    medians = {phase: statistics.median(r) for phase, r in bench.rates.items() if r}
    if args.trace:
        figures = layer_metrics(tracer.spans, TRAIN_PHASES, DECODE_PHASES)
        figures.update({f"trace.{PHASE_METRIC[p]}": (v, "instances/s") for p, v in medians.items()})
    else:
        figures = {"setup_s": (setup_s, "s")}
        figures.update({PHASE_METRIC[p]: (v, "instances/s") for p, v in medians.items()})
        figures["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  round_rates=bench.rates, problems=bench.problems,
                  threads=THREAD_SETTINGS, blas=blas_info(), numpy=np.__version__)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer:
        tracer.save(RESULTS / f"{stem}.spans.json")

    for problem in bench.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  threads {THREAD_SETTINGS}  blas {record['blas']}", file=sys.stderr)
    for name, (value, unit) in figures.items():
        print(f"  {name:48s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
