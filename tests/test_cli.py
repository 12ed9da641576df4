"""End-to-end command-line runs on micro configurations."""

import json
from pathlib import Path

import pytest

from retag.cli import main
from retag.tables import read_jsonl

MICRO_CONFIG = {
    "model": {"layers": 1, "heads": 2, "hidden": 16, "ffn": 32, "max_len": 128, "k": 4},
    "train": {
        "lr": 1e-3,
        "epochs": 1,
        "batch_size": 4,
        "stage1_steps": 2,
        "stage2_steps": 3,
        "seed": 0,
    },
    "generator": {"rows_range": [2, 3], "seed": 1},
    "metrics": {"parent_lambda": 0.1},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(MICRO_CONFIG))
    assert main(["data", "synth", "--config", str(cfg), "--n", "28", "--seed", "5", "--out", str(root / "corpus.jsonl")]) == 0
    assert (
        main(
            [
                "data", "split", "--fractions", "0.7,0.1,0.2", "--seed", "3",
                "--in", str(root / "corpus.jsonl"), "--out", str(root / "split.jsonl"),
            ]
        )
        == 0
    )
    return root, cfg


def test_synth_is_reproducible(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["data", "synth", "--n", "10", "--seed", "7", "--out", str(a)]) == 0
    assert main(["data", "synth", "--n", "10", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_split_fractions(workdir):
    root, _ = workdir
    instances = read_jsonl(root / "split.jsonl")
    counts = {s: sum(1 for i in instances if i.split == s) for s in ("train", "valid", "test")}
    assert counts == {"train": 21, "valid": 2, "test": 5}


def test_filter_writes_verdicts(workdir, tmp_path):
    root, _ = workdir
    out = tmp_path / "verdicts.jsonl"
    assert main(["data", "filter", "--style", "infotabs", "--in", str(root / "corpus.jsonl"), "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 28
    assert all(r["label"] in ("analytical-candidate", "descriptive-candidate", "unlabeled") for r in rows)
    assert all(0 <= r["ratio"] <= 100 for r in rows)


@pytest.fixture(scope="module")
def trained(workdir):
    root, cfg = workdir
    pre = root / "pre.rtag"
    ckpt = root / "model.rtag"
    assert main(["pretrain", "--config", str(cfg), "--data", str(root / "split.jsonl"), "--out", str(pre)]) == 0
    assert (
        main(
            [
                "train", "--config", str(cfg), "--data", str(root / "split.jsonl"),
                "--init", str(pre), "--out", str(ckpt),
                "--report", str(root / "train_report.jsonl"),
            ]
        )
        == 0
    )
    return root, cfg, ckpt


def test_train_report_is_jsonl(trained):
    root, _, _ = trained
    rows = [json.loads(line) for line in (root / "train_report.jsonl").read_text().splitlines()]
    assert rows and all("total" in r and r["stage"] == "finetune" for r in rows)


def test_generate_with_forced_tags(trained, tmp_path):
    root, _, ckpt = trained
    out = tmp_path / "gen.jsonl"
    rc = main(
        [
            "generate", "--ckpt", str(ckpt), "--input", str(root / "split.jsonl"),
            "--strategy", "retag", "--tags", "numerical,temporal", "--beam", "2", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 28
    assert all(set(r) == {"id", "generated", "log_prob", "reference", "categories"} for r in rows)


def test_generate_rejects_unknown_tag(trained, tmp_path, capsys):
    root, _, ckpt = trained
    rc = main(
        [
            "generate", "--ckpt", str(ckpt), "--input", str(root / "split.jsonl"),
            "--tags", "bogus", "--beam", "1", "--out", str(tmp_path / "x.jsonl"),
        ]
    )
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


def test_eval_report_schema(trained, tmp_path):
    root, cfg, ckpt = trained
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "eval", "--ckpt", str(ckpt), "--data", str(root / "split.jsonl"), "--split", "test",
            "--strategy", "retag", "--beam", "2", "--report", str(report_path), "--config", str(cfg),
        ]
    )
    assert rc == 0
    payload = json.loads(report_path.read_text())
    for group in ("overall", "analytical", "descriptive"):
        for key in ("bleu1", "bleu4", "rougeL", "parent"):
            assert key in payload["aggregates"][group]
    assert "per-category" in payload["aggregates"] and "per-cardinality" in payload["aggregates"]
    assert "timestamp" in payload["metadata"]


def test_eval_random_tags_deterministic_per_seed(trained, tmp_path):
    root, cfg, ckpt = trained

    def run(seed, path):
        rc = main(
            [
                "eval", "--ckpt", str(ckpt), "--data", str(root / "split.jsonl"), "--split", "test",
                "--beam", "1", "--random-tags", "--seed", str(seed), "--report", str(path),
            ]
        )
        assert rc == 0
        payload = json.loads(Path(path).read_text())
        payload["metadata"].pop("timestamp")
        return payload

    a = run(4, tmp_path / "a.json")
    b = run(4, tmp_path / "b.json")
    assert a == b


def test_ablate_smoke(workdir, tmp_path):
    root, cfg = workdir
    report = tmp_path / "ablate.json"
    rc = main(
        [
            "ablate", "--variants", "notags,retag6", "--ci", "on", "--pretrain", "off",
            "--data", str(root / "split.jsonl"), "--seeds", "0", "--beam", "1",
            "--config", str(cfg), "--report", str(report),
        ]
    )
    assert rc == 0
    payload = json.loads(report.read_text())
    assert set(payload["variants"]) == {"notags", "retag6"}
    assert "bleu1" in payload["variants"]["retag6"]["mean"]["overall"]


def test_exit_codes():
    assert main(["data", "synth", "--n", "5", "--out", "/tmp/x.jsonl", "--config", "/nonexistent.json"]) == 2
    assert main(["eval", "--ckpt", "/nonexistent.rtag", "--data", "/nonexistent.jsonl", "--report", "/tmp/r.json"]) == 2
    assert main(["data", "split", "--fractions", "0.5,0.5", "--in", "x", "--out", "y"]) == 1  # usage: needs 3
    assert main(["generate"]) == 1  # missing required flags


@pytest.mark.parametrize(
    "section, key, value",
    [("train", "strategy", "notags"), ("train", "codebook_count", 2), ("metrics", "bleu_max_order", 4)],
)
def test_removed_config_keys_are_rejected(tmp_path, capsys, section, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({section: {key: value}}))
    assert main(["data", "synth", "--config", str(bad), "--n", "5", "--out", str(tmp_path / "o.jsonl")]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key", ["lr", "beta", "eps", "beta1", "beta2", "weight_decay", "grad_clip"])
def test_nan_train_setting_is_a_config_error(tmp_path, capsys, key):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({"train": {key: float("nan")}}))  # json writes the bare token NaN
    assert "NaN" in bad.read_text()
    rc = main(["train", "--config", str(bad), "--data", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "m.rtag")])
    assert rc == 1
    assert f"{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("lr", "0.1"), ("epochs", 1.5), ("batch_size", True)])
def test_mistyped_train_setting_is_a_config_error(tmp_path, capsys, key, value):
    bad = tmp_path / "typed.json"
    bad.write_text(json.dumps({"train": {key: value}}))
    rc = main(["train", "--config", str(bad), "--data", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "m.rtag")])
    assert rc == 1
    assert f"{key} must be of type" in capsys.readouterr().err


@pytest.mark.parametrize("value", [2, -0.5, float("nan")])
def test_out_of_range_parent_lambda_is_a_config_error(trained, tmp_path, capsys, value):
    root, _, ckpt = trained
    bad = tmp_path / "lambda.json"
    bad.write_text(json.dumps({"metrics": {"parent_lambda": value}}))
    rc = main(
        [
            "eval", "--ckpt", str(ckpt), "--data", str(root / "split.jsonl"), "--split", "test",
            "--beam", "1", "--report", str(tmp_path / "r.json"), "--config", str(bad),
        ]
    )
    assert rc == 1
    assert "parent_lambda" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_train_init_rejects_conflicting_model_setting(trained, tmp_path, capsys):
    root, _, _ = trained
    conflict = json.loads(json.dumps(MICRO_CONFIG))
    conflict["model"]["codebook_count"] = 2
    cfg = tmp_path / "conflict.json"
    cfg.write_text(json.dumps(conflict))
    rc = main(
        [
            "train", "--config", str(cfg), "--data", str(root / "split.jsonl"),
            "--init", str(root / "pre.rtag"), "--out", str(tmp_path / "m.rtag"),
        ]
    )
    assert rc == 1
    assert "codebook_count" in capsys.readouterr().err
    assert not (tmp_path / "m.rtag").exists()


def test_unknown_config_key_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"layrs": 2}}))
    assert main(["data", "synth", "--config", str(bad), "--n", "5", "--out", str(tmp_path / "o.jsonl")]) == 1
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"models": {}}))
    assert main(["data", "synth", "--config", str(bad2), "--n", "5", "--out", str(tmp_path / "o.jsonl")]) == 1
