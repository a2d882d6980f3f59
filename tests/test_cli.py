import json
import os

import numpy as np
import pytest

from graphdenoise import trainer
from graphdenoise.cli import build_parser, run
from graphdenoise.graph import load_graph


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def synth_args(out_dir, seed=7):
    return ["synth", "--n", "60", "--classes", "2", "--p-in", "0.3", "--p-out", "0.05",
            "--dim", "4", "--strength", "1.5", "--seed", str(seed), "--out-dir", str(out_dir)]


def test_synth_writes_deterministic_dataset(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(synth_args(a)) == 0
    assert run(synth_args(b)) == 0
    assert read(a / "graph.json") == read(b / "graph.json")
    g = load_graph(a / "graph.json")
    assert g.num_nodes == 60


def test_synth_rejects_bad_probabilities(tmp_path):
    args = synth_args(tmp_path)
    args[args.index("--p-out") + 1] = "0.9"  # p_out > p_in
    assert run(args) == 1


def test_unknown_flag_is_validation_error(tmp_path):
    assert run(["synth", "--does-not-exist", "1"]) == 1


def test_help_exits_zero():
    assert run(["--help"]) == 0
    assert run(["train", "--help"]) == 0


def test_missing_graph_file_is_validation_error(tmp_path):
    assert run(["train", "--graph", str(tmp_path / "nope.json"),
                "--out-dir", str(tmp_path)]) == 1


def test_noise_command_adds_edges(tmp_path):
    assert run(synth_args(tmp_path)) == 0
    out = tmp_path / "noisy"
    assert run(["noise", "--graph", str(tmp_path / "graph.json"), "--edge-noise", "0.2",
                "--seed", "3", "--out-dir", str(out)]) == 0
    g0 = load_graph(tmp_path / "graph.json")
    g1 = load_graph(out / "graph.json")
    assert g1.num_edges == g0.num_edges + round(0.2 * g0.num_edges)
    assert g1.edge_set() >= g0.edge_set()


def test_noise_command_corrupts_features(tmp_path):
    assert run(synth_args(tmp_path)) == 0
    out = tmp_path / "corrupted"
    assert run(["noise", "--graph", str(tmp_path / "graph.json"), "--feature-noise", "0.5",
                "--seed", "3", "--out-dir", str(out)]) == 0
    g0 = load_graph(tmp_path / "graph.json")
    g1 = load_graph(out / "graph.json")
    total = g0.num_nodes * g0.feature_dim
    changed = int((g0.features != g1.features).sum())
    zeroed = int((g1.features == 0.0).sum())
    # half the entries are blanked; Gaussian features have no prior zeros
    assert zeroed == round(0.5 * total)
    assert 0 < changed <= zeroed
    assert g1.edge_set() == g0.edge_set()


def test_train_zero_iterations_writes_init_checkpoint(tmp_path):
    assert run(synth_args(tmp_path)) == 0
    out = tmp_path / "run"
    assert run(["train", "--graph", str(tmp_path / "graph.json"), "--iters", "0",
                "--embed-dim", "6", "--seed", "5", "--out-dir", str(out)]) == 0
    policy, agg, clf, config = trainer.load_checkpoint(out / "checkpoint.json")
    g = load_graph(tmp_path / "graph.json")
    cfg = trainer.TrainConfig.from_dict(config)
    init_policy, init_agg, init_clf = trainer.init_params(g, cfg)
    assert all(np.array_equal(a, b)
               for a, b in zip(policy.mlp.weights, init_policy.mlp.weights))
    assert np.array_equal(agg.W, init_agg.W)
    assert np.array_equal(clf.V, init_clf.V)
    assert (out / "metrics.jsonl").read_text() == ""


def _train(tmp_path, out_name, seed=9, extra=()):
    out = tmp_path / out_name
    argv = ["train", "--graph", str(tmp_path / "graph.json"), "--iters", "2",
            "--rep-epochs", "5", "--embed-dim", "6", "--batch-size", "64",
            "--seed", str(seed), "--out-dir", str(out)] + list(extra)
    assert run(argv) == 0
    return out


def test_train_outputs_are_byte_identical_across_runs(tmp_path):
    assert run(synth_args(tmp_path)) == 0
    a = _train(tmp_path, "r1")
    b = _train(tmp_path, "r2")
    assert read(a / "checkpoint.json") == read(b / "checkpoint.json")
    assert read(a / "metrics.jsonl") == read(b / "metrics.jsonl")


def test_full_pipeline_eval_denoise_report(tmp_path):
    assert run(synth_args(tmp_path)) == 0
    out = _train(tmp_path, "run")
    graph_arg = ["--graph", str(tmp_path / "graph.json")]
    ckpt = ["--checkpoint", str(out / "checkpoint.json")]

    eval_out = tmp_path / "eval"
    assert run(["eval"] + graph_arg + ckpt + ["--mask", "test",
                "--out-dir", str(eval_out)]) == 0
    blob = json.loads((eval_out / "eval.json").read_text())
    assert 0.0 <= blob["micro_f1"] <= 1.0

    dn_out = tmp_path / "dn"
    assert run(["denoise"] + graph_arg + ckpt + ["--out-dir", str(dn_out)]) == 0
    g0 = load_graph(tmp_path / "graph.json")
    g1 = load_graph(dn_out / "denoised_graph.json")
    assert g1.edge_set() <= g0.edge_set()
    edge_lines = (dn_out / "denoised_edges.txt").read_text().strip()
    n_lines = len(edge_lines.split("\n")) if edge_lines else 0
    assert n_lines == g1.num_edges

    rep_out = tmp_path / "rep"
    assert run(["report"] + graph_arg + ckpt + ["--out-dir", str(rep_out)]) == 0
    report = json.loads((rep_out / "selection_report.json").read_text())
    assert sum(report["histogram"]) == len(report["nodes"])


def test_eval_is_deterministic(tmp_path):
    assert run(synth_args(tmp_path)) == 0
    out = _train(tmp_path, "run")
    args = ["eval", "--graph", str(tmp_path / "graph.json"),
            "--checkpoint", str(out / "checkpoint.json")]
    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    assert run(args + ["--out-dir", str(e1)]) == 0
    assert run(args + ["--out-dir", str(e2)]) == 0
    assert read(e1 / "eval.json") == read(e2 / "eval.json")


def test_config_file_overrides_defaults_but_not_flags(tmp_path):
    assert run(synth_args(tmp_path)) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"outer_iters": 1, "rep_epochs": 3, "embed_dim": 6}))
    out = tmp_path / "run"
    assert run(["train", "--graph", str(tmp_path / "graph.json"),
                "--config", str(cfg_path), "--rep-epochs", "4",
                "--seed", "2", "--out-dir", str(out)]) == 0
    _, _, _, config = trainer.load_checkpoint(out / "checkpoint.json")
    assert config["outer_iters"] == 1  # from file
    assert config["rep_epochs"] == 4  # flag wins over file


def test_unknown_config_key_is_validation_error(tmp_path, capsys):
    assert run(synth_args(tmp_path)) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"threads": 2}))
    assert run(["train", "--graph", str(tmp_path / "graph.json"),
                "--config", str(cfg_path), "--out-dir", str(tmp_path / "run")]) == 1
    assert "threads" in capsys.readouterr().err


def test_config_is_a_train_only_option():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["eval", "--graph", "g.json", "--checkpoint", "c.json",
                                   "--config", "cfg.json"])


def test_train_select_all_flag(tmp_path):
    assert run(synth_args(tmp_path)) == 0
    out = _train(tmp_path, "base", extra=["--select-all"])
    _, _, _, config = trainer.load_checkpoint(out / "checkpoint.json")
    assert config["select_all"] is True


def test_check_submodular_reports_full_passes(tmp_path):
    out = tmp_path / "chk"
    assert run(["check-submodular", "--trials", "200", "--seed", "1",
                "--out-dir", str(out)]) == 0
    blob = json.loads((out / "submodular_report.json").read_text())
    assert blob["monotone"]["passes"] == 200
    assert blob["submodular"]["passes"] == 200
    assert blob["monotone"]["first_witness"] is None
    assert blob["bound_ok"] is True


def test_check_submodular_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["check-submodular", "--trials", "50", "--seed", "4",
                    "--out-dir", str(out)]) == 0
    assert read(a / "submodular_report.json") == read(b / "submodular_report.json")


def test_edge_list_format_via_cli(tmp_path):
    (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
    (tmp_path / "feats.tsv").write_text("1.0\t0.0\n0.0\t1.0\n1.0\t1.0\n")
    (tmp_path / "labels.txt").write_text("0\n1\n1\n")
    out = tmp_path / "noise"
    assert run(["noise", "--graph", str(tmp_path / "edges.txt"),
                "--format", "edge-list+features",
                "--features", str(tmp_path / "feats.tsv"),
                "--labels", str(tmp_path / "labels.txt"),
                "--edge-noise", "0.0", "--out-dir", str(out)]) == 0
    assert load_graph(out / "graph.json").num_nodes == 3
