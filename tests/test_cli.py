import errno
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from graphdenoise import cli, trainer
from graphdenoise.cli import build_parser, run
from graphdenoise.graph import build_graph, load_graph, save_graph_json
from graphdenoise.policy import PPOConfig


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


@pytest.mark.parametrize("flags, named", [
    (["--classes", "0"], "classes must be >= 1"),
    (["--classes", "-1"], "classes must be >= 1"),
    (["--n", "-2"], "n must be >= 0"),
], ids=["classes-0", "classes-neg", "n-neg"])
def test_synth_rejects_bad_sizes(tmp_path, capsys, flags, named):
    assert run(["synth", *flags, "--out-dir", str(tmp_path)]) == 1
    assert named in capsys.readouterr().err


def test_unknown_flag_is_validation_error(tmp_path):
    assert run(["synth", "--does-not-exist", "1"]) == 1


def test_help_exits_zero():
    assert run(["--help"]) == 0
    for command in ("synth", "noise", "train", "eval", "denoise", "report", "check-submodular"):
        assert run([command, "--help"]) == 0, command


def test_module_entry_point_exits_zero():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-m", "graphdenoise.cli", "--help"], env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0
    assert "usage: graphdenoise" in done.stdout


def test_an_exception_that_is_no_validation_error_is_a_runtime_failure(tmp_path, capsys,
                                                                        monkeypatch):
    def fail(*args):
        raise RuntimeError("out of luck")

    monkeypatch.setattr(cli, "generate_planted_partition", fail)
    assert run(synth_args(tmp_path)) == 2
    assert "runtime failure: out of luck" in capsys.readouterr().err


def test_train_help_names_each_config_default(capsys):
    assert run(["train", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    for flag, owner, field in (("--iters", trainer.TrainConfig, "outer_iters"),
                               ("--rep-epochs", trainer.TrainConfig, "rep_epochs"),
                               ("--gamma", PPOConfig, "gamma"),
                               ("--delta", PPOConfig, "delta"),
                               ("--batch-size", trainer.TrainConfig, "batch_size"),
                               ("--embed-dim", trainer.TrainConfig, "embed_dim"),
                               ("--select-all", trainer.TrainConfig, "select_all"),
                               ("--seed", trainer.TrainConfig, "seed")):
        entry = text[text.index(f" {flag} ", text.index("options:")) + 1:].split(" --")[0]
        assert entry.endswith(f"(config default {getattr(owner, field)})"), entry


@pytest.mark.parametrize("argv", [
    ["train", "--graph", "{tmp}/nope.json"],
    ["train", "--graph", "{tmp}"],
    ["train", "--graph", "{tmp}/graph.json/g.json"],
    ["train", "--graph", "{tmp}/graph.json", "--config", "{tmp}"],
    ["eval", "--graph", "{tmp}/graph.json", "--checkpoint", "{tmp}"],
    ["synth", "--out-dir", "{tmp}/graph.json"],
], ids=["missing-graph", "graph-dir", "graph-under-file", "config-dir", "checkpoint-dir",
        "out-dir-file"])
def test_bad_path_is_validation_error(tmp_path, capsys, argv):
    # a missing file, a directory for a file or a file for a directory
    assert run(synth_args(tmp_path)) == 0
    capsys.readouterr()
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    out_dir = [] if "--out-dir" in argv else ["--out-dir", str(tmp_path / "out")]
    assert run(argv + out_dir) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_an_io_failure_that_is_no_bad_path_is_a_runtime_failure(tmp_path, capsys, monkeypatch):
    def full_disk(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "save_graph_json", full_disk)
    assert run(synth_args(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("runtime failure: ")


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


def test_train_zero_iterations_says_no_iteration_ran(tmp_path, capsys):
    assert run(["synth", "--n", "60", "--classes", "2", "--p-in", "0.3", "--dim", "4",
                "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert run(["train", "--graph", str(tmp_path / "graph.json"), "--iters", "0",
                "--embed-dim", "4", "--out-dir", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "no iteration ran" in out
    assert "nan" not in out and "best iteration" not in out


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


@pytest.mark.parametrize("file_values, flags, field, value", [
    ({"outer_iters": -1}, ["--iters", "0"], "outer_iters", 0),
    ({"ppo": {"gamma": 2}}, ["--gamma", "0.5"], "ppo.gamma", 0.5),
    ({"ppo": {"delta": 0}}, ["--delta", "0.1"], "ppo.delta", 0.1),
], ids=["iters", "gamma", "delta"])
def test_explicit_flags_win_over_config_file_values(tmp_path, file_values, flags, field, value):
    # the file and the flags merge before one validation, so a flag also
    # replaces a file value that is out of range on its own
    assert run(synth_args(tmp_path)) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(file_values))
    out = tmp_path / "run"
    assert run(["train", "--graph", str(tmp_path / "graph.json"), "--config", str(cfg_path),
                "--iters", "0", "--embed-dim", "4", *flags, "--out-dir", str(out)]) == 0
    _, _, _, config = trainer.load_checkpoint(out / "checkpoint.json")
    for key in field.split("."):
        config = config[key]
    assert config == value


@pytest.mark.parametrize("file_values, named", [
    ({"ppo": 3}, "ppo must be a PPOConfig (an object in a config file), got int"),
    ({"ppo": {"bogus": 1}}, "unknown config keys: ppo.bogus"),
], ids=["ppo-not-object", "ppo-unknown-key"])
def test_ppo_flag_never_merges_into_a_bad_ppo_value(tmp_path, capsys, file_values, named):
    assert run(synth_args(tmp_path)) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(file_values))
    assert run(["train", "--graph", str(tmp_path / "graph.json"), "--config", str(cfg_path),
                "--iters", "0", "--gamma", "0.5", "--out-dir", str(tmp_path / "run")]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--delta", "nan"], "delta must be finite"),
    (["--delta", "inf"], "delta must be finite"),
    (["--delta", "0"], "delta must be positive"),
    (["--gamma", "nan"], "gamma"),
], ids=["delta-nan", "delta-inf", "delta-0", "gamma-nan"])
def test_non_finite_ppo_flags_are_validation_errors(tmp_path, capsys, flags, named):
    assert run(synth_args(tmp_path)) == 0
    assert run(["train", "--graph", str(tmp_path / "graph.json"), "--iters", "0", *flags,
                "--out-dir", str(tmp_path / "run")]) == 1
    assert named in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_train_metrics_are_strict_json_without_val_nodes(tmp_path, capsys):
    # six nodes in two classes: the stratified split leaves no val nodes
    assert run(["synth", "--n", "6", "--classes", "2", "--p-in", "0.8", "--dim", "3",
                "--out-dir", str(tmp_path)]) == 0
    assert not load_graph(tmp_path / "graph.json").val_mask.any()
    out = tmp_path / "run"
    assert run(["train", "--graph", str(tmp_path / "graph.json"), "--iters", "2",
                "--rep-epochs", "2", "--embed-dim", "4", "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("last val_f1 none (no val nodes)")
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        row = json.loads(line, parse_constant=_reject_constant)
        assert row["val_f1"] is None
        assert isinstance(row["train_loss"], float)


def test_train_adam_overflow_is_validation_error(tmp_path, capsys):
    # features of magnitude 1e300 overflow the fit's squared gradients
    assert run(synth_args(tmp_path)) == 0
    g = load_graph(tmp_path / "graph.json")
    big = build_graph(g.num_nodes, g.edge_list(), g.features * 1e300, g.labels,
                      masks={"train": g.train_mask, "val": g.val_mask, "test": g.test_mask})
    save_graph_json(big, tmp_path / "big.json")
    with np.errstate(over="ignore"):
        code = run(["train", "--graph", str(tmp_path / "big.json"), "--iters", "2",
                    "--rep-epochs", "5", "--embed-dim", "6", "--out-dir", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert "representation fit" in err and "second moment overflowed" in err


def test_unknown_config_key_is_validation_error(tmp_path, capsys):
    assert run(synth_args(tmp_path)) == 0
    cfg_path = tmp_path / "cfg.json"
    for key in ("threads", "max_steps"):  # both were config fields once
        cfg_path.write_text(json.dumps({key: 2}))
        assert run(["train", "--graph", str(tmp_path / "graph.json"),
                    "--config", str(cfg_path), "--out-dir", str(tmp_path / "run")]) == 1
        assert key in capsys.readouterr().err


def test_fc_mode_flag_is_gone(tmp_path):
    # the soft score of one (target, neighbour) pair is the only task score
    assert run(synth_args(tmp_path)) == 0
    assert run(["train", "--graph", str(tmp_path / "graph.json"), "--fc-mode", "soft",
                "--iters", "0", "--out-dir", str(tmp_path / "run")]) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("overrides, named", [
    ([1, 2], "JSON object"),
    ({"ppo": 3}, "ppo"),
    ({"policy_hidden": 5}, "policy_hidden"),
    ({"outer_iters": 0, "ppo": {"minibatch_size": -1}}, "minibatch_size"),
    ({"ppo": {"minibatch_size": "a"}}, "minibatch_size"),
    ({"embed_dim": 2.5}, "embed_dim"),
    ({"rep_lr": "fast"}, "rep_lr"),
    ({"select_all": "no"}, "select_all"),
    ({"outer_iters": "x"}, "outer_iters"),
    ({"activation": "tanh"}, "activation"),
    ({"rep_lr": -0.001}, "rep_lr must be >= 0"),
    ({"ppo": {"kl_coeff": 0}}, "kl_coeff must be positive"),
    ({"ppo": {"lr": -1}}, "lr must be >= 0"),
    ({"fc_mode": "hard"}, "fc_mode must be 'soft'"),
    ("{'outer_iters': 1}", "cfg.json: Expecting property name"),  # text that is no JSON
    ({"policy_hidden": [2.5]}, "policy_hidden"),
    ({"policy_hidden": [0]}, "policy_hidden"),
    ({"policy_hidden": [-1]}, "policy_hidden"),
    ({"policy_hidden": ["a"]}, "policy_hidden"),
    ({"policy_hidden": [True]}, "policy_hidden"),
    ({"seed": -1}, "seed must be >= 0"),
])
def test_config_shape_is_validation_error(tmp_path, capsys, overrides, named):
    assert run(synth_args(tmp_path)) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(overrides if isinstance(overrides, str) else json.dumps(overrides))
    assert run(["train", "--graph", str(tmp_path / "graph.json"),
                "--config", str(cfg_path), "--out-dir", str(tmp_path / "run")]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("change, named", [
    ({"edges": [[0]]}, "edges must be rows"),
    ({"edges": 5}, "edges must be rows"),
    ({"edges": [[0, 1.5]]}, "integer node ids"),
    ({"labels": [0, 0.5, 1]}, "integer class ids"),
    ({"masks": {"train": [True, False, False], "test": [False, False, True]}},
     "train, val and test to vectors ('val')"),
    ({"masks": 5}, "masks must map train, val and test"),
    ({"n": 2.5}, "n must be a non-negative integer"),
    ({"n": "3"}, "n must be a non-negative integer"),
    ({"n": True}, "n must be a non-negative integer"),
    ({"n": -1}, "n must be a non-negative integer"),
    ({"n": "3", "features": None}, "n must be a non-negative integer"),
    ({"n": 2.5, "features": None}, "n must be a non-negative integer"),
    ({"features": {"a": 1}}, "features must be a rectangular table of numbers"),
    ({"features": [[1.0], [0.0, 1.0], [1.0]]}, "features must be a rectangular table of numbers"),
    ({"features": [["a"], [0.0], [1.0]]}, "features must be a rectangular table of numbers"),
    ({"features": [["1.5"], [0.0], [1.0]]}, "table of numbers, got '1.5'"),
    ({"features": [[True], [0.0], [1.0]]}, "table of numbers, got True"),
    ({"edges": [[0, True], [1, 2]]}, "integer node ids, got True"),
    ({"labels": [0, True, 1]}, "integer class ids, got True"),
    ({"masks": {"train": ["no", 0, 0], "val": [False] * 3, "test": [False] * 3}},
     "train mask must hold booleans, got 'no'"),
    ({"masks": {"train": [False] * 3, "val": [1, 0, 0], "test": [False] * 3}},
     "val mask must hold booleans, got 1"),
    ({"masks": {"train": [False] * 3, "val": [False] * 3, "test": [0.5, 0, 0]}},
     "test mask must hold booleans, got 0.5"),
    ({"features": [[float("nan")], [0.0], [1.0]]}, "non-finite feature values"),
    ({"labels": [0, -1, 1]}, "labels must be non-negative class ids"),
    ({"masks": {"train": [True, False], "val": [False, False], "test": [False, True]}},
     "train_mask must be a boolean vector of length 3"),
])
def test_malformed_graph_json_is_validation_error(tmp_path, capsys, change, named):
    blob = {"n": 3, "edges": [[0, 1], [1, 2]], "features": [[1.0], [0.0], [1.0]],
            "labels": [0, 1, 1]}
    blob.update(change)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(blob))
    assert run(["noise", "--graph", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert named in capsys.readouterr().err


def test_feature_integer_past_float64_range_is_validation_error(tmp_path, capsys):
    # numpy's OverflowError used to reach the CLI as a runtime failure (exit 2)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]],
                                "features": [[10**400], [0.0], [1.0]], "labels": [0, 1, 1]}))
    assert run(["noise", "--graph", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"table of numbers, got {10**400}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "null", "[1, 2]", '"graph"'])
def test_graph_json_that_is_no_object_is_validation_error(tmp_path, capsys, text):
    path = tmp_path / "graph.json"
    path.write_text(text)
    assert run(["noise", "--graph", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"{path}: graph json must hold an object" in capsys.readouterr().err


def test_graph_json_that_does_not_parse_is_validation_error(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text('{"n": 3, "edges": [')
    assert run(["noise", "--graph", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"error: cannot parse {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["synth"],
    ["check-submodular", "--trials", "5"],
    ["noise", "--edge-noise", "0.1"],
], ids=["synth", "check-submodular", "noise"])
def test_negative_seed_is_named_before_any_output(tmp_path, capsys, argv):
    assert run(synth_args(tmp_path)) == 0
    if argv[0] == "noise":
        argv = [*argv, "--graph", str(tmp_path / "graph.json")]
    assert run([*argv, "--seed", "-1", "--out-dir", str(tmp_path / "out")]) == 1
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_empty_graph_round_trips_and_each_command_names_the_problem(tmp_path, capsys):
    assert run(["synth", "--n", "0", "--out-dir", str(tmp_path)]) == 0
    graph = str(tmp_path / "graph.json")
    assert run(["noise", "--graph", graph, "--out-dir", str(tmp_path / "noisy")]) == 0
    assert read(tmp_path / "noisy" / "graph.json") == read(tmp_path / "graph.json")
    capsys.readouterr()
    assert run(["train", "--graph", graph, "--out-dir", str(tmp_path / "run")]) == 1
    assert "graph has no training nodes" in capsys.readouterr().err
    assert run(["check-submodular", "--graph", graph, "--out-dir", str(tmp_path / "chk")]) == 1
    assert f"{graph}: graph has no nodes" in capsys.readouterr().err


def _init_checkpoint(tmp_path, name, classes, dim):
    """Synthesize a graph and write its zero-iteration checkpoint; returns both paths."""
    out = tmp_path / name
    assert run(["synth", "--n", "60", "--classes", str(classes), "--p-in", "0.3",
                "--dim", str(dim), "--seed", "1", "--out-dir", str(out)]) == 0
    assert run(["train", "--graph", str(out / "graph.json"), "--iters", "0",
                "--embed-dim", "4", "--out-dir", str(out)]) == 0
    return out / "graph.json", out / "checkpoint.json"


def test_eval_rejects_labels_beyond_checkpoint_classes(tmp_path, capsys):
    _, ckpt = _init_checkpoint(tmp_path, "two", classes=2, dim=6)
    graph, _ = _init_checkpoint(tmp_path, "six", classes=6, dim=6)
    assert run(["eval", "--graph", str(graph), "--checkpoint", str(ckpt),
                "--out-dir", str(tmp_path / "out")]) == 1
    assert "outside the classifier's 2 classes" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "denoise", "report"])
def test_checkpoint_feature_width_mismatch_is_validation_error(tmp_path, capsys, command):
    _, ckpt = _init_checkpoint(tmp_path, "wide", classes=2, dim=6)
    graph, _ = _init_checkpoint(tmp_path, "narrow", classes=2, dim=4)
    assert run([command, "--graph", str(graph), "--checkpoint", str(ckpt),
                "--out-dir", str(tmp_path / "out")]) == 1
    assert "checkpoint expects 6 features per node, graph has 4" in capsys.readouterr().err


def _edit(fn):
    """A change that edits the checkpoint blob in place and writes it."""
    def change(blob):
        fn(blob)
        return blob
    return change


def _drop(key):
    return _edit(lambda blob: blob["arrays"].pop(key))


def _matrix(name, rows, cols):
    return _edit(lambda blob: blob["arrays"].update({name: {"shape": [rows, cols],
                                                            "data": [0.0] * (rows * cols)}}))


@pytest.mark.parametrize("change, named", [
    (_edit(lambda blob: blob.pop("arrays")), "no 'arrays'"),
    (_drop("agg.W"), "lacks arrays agg.W"),
    (_drop("clf.V"), "lacks arrays clf.V"),
    (_drop("policy.w0"), "lacks arrays policy.w0"),
    (_edit(lambda blob: blob["extra"].update(activation="tanh")), "activation 'tanh'"),
    (_edit(lambda blob: blob["extra"]["config"].update(activation="tanh")), "activation 'tanh'"),
    (_matrix("clf.V", 2, 3), "clf.V has 3 columns, agg.W has 4 rows"),
    (_matrix("policy.w0", 64, 6), "policy takes 6 inputs, not the 8 of 4 agg.W rows"),
    (lambda blob: [1], "checkpoint must hold a JSON object, got list"),
    (_edit(lambda blob: blob.update(extra=[])), "checkpoint 'extra' must be an object, got list"),
    (_edit(lambda blob: blob["extra"].update(config=[])),
     "checkpoint extra.config must be an object, got list"),
    (_edit(lambda blob: blob["arrays"]["agg.W"].pop("data")),
     "checkpoint array 'agg.W' needs 'shape' and 'data'"),
    (lambda blob: json.dumps(blob)[:19] + "\n", "checkpoint.json: Invalid control character"),
    (_edit(lambda blob: blob["arrays"]["agg.W"]["data"].__setitem__(0, 10**400)),
     f"'agg.W' needs float64 numbers, got {10**400}"),
    (_edit(lambda blob: blob["arrays"]["agg.W"].update(shape=[16], data=[0.0] * 16)),
     "checkpoint array agg.W has shape (16,), not a matrix"),
    (_edit(lambda blob: blob["arrays"]["agg.W"]["data"].__setitem__(0, float("nan"))),
     "array 'agg.W' contains non-finite values"),
    (_edit(lambda blob: blob["extra"]["config"].update(select_all="true")),
     "checkpoint config select_all must be true or false, got 'true'"),
], ids=["no-arrays", "no-agg", "no-clf", "no-policy", "tanh", "config-tanh",
        "clf-width", "policy-width", "not-object", "extra-list", "config-list", "no-data",
        "truncated", "past-float64", "vector", "nan", "select-all-string"])
def test_malformed_checkpoint_is_validation_error(tmp_path, capsys, change, named):
    graph, ckpt = _init_checkpoint(tmp_path, "g", classes=2, dim=6)
    changed = change(json.loads(ckpt.read_text()))  # a str is written as it is
    ckpt.write_text(changed if isinstance(changed, str) else json.dumps(changed))
    assert run(["eval", "--graph", str(graph), "--checkpoint", str(ckpt),
                "--out-dir", str(tmp_path / "out")]) == 1
    assert named in capsys.readouterr().err


def _agg_w(shape, data):
    """A change that replaces agg.W's shape and data (a checkpoint of embed 4, dim 6)."""
    return _edit(lambda blob: blob["arrays"]["agg.W"].update(shape=shape, data=data))


@pytest.mark.parametrize("change, named", [
    (_agg_w([4, 6], ["1.5"] + [0.0] * 23), "got '1.5'"),
    (_agg_w([4, 6], [True] + [0.0] * 23), "got True"),
    (_agg_w([4, 6], [None] + [0.0] * 23), "got None"),
    (_agg_w([4, 6], [[0.0] * 6] * 4), "got [0.0, 0.0"),
    (_agg_w([4, 6], {"a": 1}), "got list and dict"),
    (_agg_w(24, [0.0] * 24), "got int and list"),
    (_agg_w([4, 6], [0.0] * 23), "got shape [4, 6] and 23 numbers"),
    (_agg_w([-1, 6], [0.0] * 24), "got shape [-1, 6] and 24 numbers"),
    (_agg_w(["4", 6], [0.0] * 24), "got '4'"),
    (_agg_w([4.0, 6], [0.0] * 24), "got 4.0"),
    (_agg_w([True, 6], [0.0] * 24), "got True"),
], ids=["string-entry", "bool-entry", "null-entry", "nested-data", "data-object", "shape-int",
        "one-short", "negative-size", "string-size", "float-size", "bool-size"])
def test_malformed_checkpoint_array_is_validation_error(tmp_path, capsys, change, named):
    graph, ckpt = _init_checkpoint(tmp_path, "g", classes=2, dim=6)
    ckpt.write_text(json.dumps(change(json.loads(ckpt.read_text()))))
    assert run(["eval", "--graph", str(graph), "--checkpoint", str(ckpt),
                "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "checkpoint array 'agg.W' needs a shape of non-negative integers" in err
    assert named in err


def test_decode_selection_defaults_to_how_the_checkpoint_was_trained(tmp_path):
    assert run(synth_args(tmp_path)) == 0
    graph_arg = ["--graph", str(tmp_path / "graph.json")]
    outputs = {"eval": ["eval.json"], "denoise": ["denoised_edges.txt", "denoised_graph.json"],
               "report": ["selection_report.json"]}
    for name, extra, trained in (("run", [], "policy"), ("base", ["--select-all"], "all")):
        ckpt = ["--checkpoint", str(_train(tmp_path, name, extra=extra) / "checkpoint.json")]
        default, given = tmp_path / name / "default", tmp_path / name / "given"
        for command, artifacts in outputs.items():
            assert run([command, *graph_arg, *ckpt, "--out-dir", str(default)]) == 0
            assert run([command, *graph_arg, *ckpt, "--selection", trained,
                        "--out-dir", str(given)]) == 0
            for artifact in artifacts:
                assert read(default / artifact) == read(given / artifact), (name, artifact)
        assert json.loads((default / "eval.json").read_text())["selection"] == trained


@pytest.mark.parametrize("command", ["eval", "denoise", "report"])
def test_decode_commands_take_no_seed(tmp_path, capsys, command):
    # the greedy decode draws nothing, so a seed would change no byte
    graph, ckpt = _init_checkpoint(tmp_path, "g", classes=2, dim=6)
    capsys.readouterr()
    assert run([command, "--graph", str(graph), "--checkpoint", str(ckpt), "--seed", "1",
                "--out-dir", str(tmp_path / "out")]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# every option of each subcommand: adding or removing one is an edit here
CLI_OPTIONS = {
    "synth": ["--seed", "--out-dir", "--n", "--classes", "--p-in", "--p-out", "--dim",
              "--strength"],
    "noise": ["--seed", "--out-dir", "--graph", "--edge-noise", "--feature-noise",
              "--corrupt-mode"],
    "train": ["--out-dir", "--graph", "--iters", "--rep-epochs", "--gamma", "--delta",
              "--batch-size", "--embed-dim", "--select-all", "--seed", "--config"],
    "eval": ["--out-dir", "--graph", "--checkpoint", "--mask", "--selection"],
    "denoise": ["--out-dir", "--graph", "--checkpoint", "--selection"],
    "report": ["--out-dir", "--graph", "--checkpoint", "--selection"],
    "check-submodular": ["--seed", "--out-dir", "--trials", "--graph"],
}


def test_cli_option_surface_is_pinned():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    found = {name: [opt for action in p._actions for opt in action.option_strings
                    if opt not in ("-h", "--help")]
             for name, p in sub.choices.items()}
    assert found == CLI_OPTIONS


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


# sha256 of each artifact of a small seeded pipeline. A refactor that keeps
# every float must keep these bytes; a change that moves them must say why
# and re-pin them here.
PINNED_ARTIFACTS = {
    "graph.json": "c2078f5b878d5a91ddff90f6155d96f836c14b124f5cfbe992feff1d4715fe8d",
    "noisy/graph.json": "08508639b7a25e464d0e8d70566dc5dc5fe00a863755c0aa82c2d7ddf619d858",
    "check/submodular_report.json":
        "bfb86a0dc0447f61c0f831f57f9231eb9f6d25c9071da36aea08b0a6a29669c6",
    "policy/checkpoint.json": "f5fa7c29818b971433af4acea37cbff658001271f6b829456be0f0e68616219d",
    "policy/metrics.jsonl": "f20b9a163589313901603b1b75811a940589d94f70398396c70561a314401e87",
    "policy/eval.json": "78db232a0bf11c7c6df4bc962c84daa4212f56c06c41162f702fcaea9271fb41",
    "policy/denoised_edges.txt": "1ba04e563436d1c4e0bcb0e5c1eab91db85e46293cf7a4443fe3f737c74feea3",
    "policy/denoised_graph.json": "87536ae43238342df1629058835d5e874b3677a448faf7eb4c7af376a6dca26d",
    "policy/selection_report.json": "f85f72cc7b0618facca82ef8e6437e9c13ef76bcbcdde914df3aac20c5f862f4",
    "base/checkpoint.json": "05a190cec9df35fdeb70f37b2d65d1c3d4c32d099ead2867fcbb67a7ddf9590c",
    "base/metrics.jsonl": "afebbc5145eecc634ccff860251c43474670a27f26384af09f96814e5f06ecdc",
    "base/eval.json": "c0c49e84b90542d0f89f7efee26061ca8d73ff18b62d9e1d3c6a996ab1e65650",
    "base/denoised_edges.txt": "3807883a2b1e204706637a0176ad6e6cad64f81659ca1611c24a6e4ca5fb49b5",
    "base/denoised_graph.json": "08508639b7a25e464d0e8d70566dc5dc5fe00a863755c0aa82c2d7ddf619d858",
    "base/selection_report.json": "6a112af1a8e537b0a86c8b7c4827fbc6b89abca6a8e904da2f9c864a28bd7e94",
}


def test_pipeline_artifacts_are_pinned(tmp_path):
    assert run(synth_args(tmp_path)) == 0
    assert run(["noise", "--graph", str(tmp_path / "graph.json"), "--edge-noise", "0.3",
                "--seed", "3", "--out-dir", str(tmp_path / "noisy")]) == 0
    assert run(["check-submodular", "--trials", "50", "--seed", "3",
                "--out-dir", str(tmp_path / "check")]) == 0
    graph_arg = ["--graph", str(tmp_path / "noisy" / "graph.json")]
    (tmp_path / "cfg.json").write_text(json.dumps({"rep_lr": 0.03}))
    digests = {artifact: hashlib.sha256(read(tmp_path / artifact)).hexdigest()
               for artifact in ("graph.json", "noisy/graph.json",
                                "check/submodular_report.json")}
    for name, train_flags, selection in (("policy", [], "policy"),
                                         ("base", ["--select-all"], "all")):
        out = tmp_path / name
        assert run(["train", *graph_arg, "--iters", "3", "--rep-epochs", "20",
                    "--embed-dim", "6", "--batch-size", "16", "--seed", "6",
                    "--config", str(tmp_path / "cfg.json"), "--out-dir", str(out),
                    *train_flags]) == 0
        ckpt = ["--checkpoint", str(out / "checkpoint.json"), "--selection", selection]
        for command in ("eval", "denoise", "report"):
            assert run([command, *graph_arg, *ckpt, "--out-dir", str(out)]) == 0
        for artifact in ("checkpoint.json", "metrics.jsonl", "eval.json", "denoised_edges.txt",
                         "denoised_graph.json", "selection_report.json"):
            digests[f"{name}/{artifact}"] = hashlib.sha256(read(out / artifact)).hexdigest()
    assert digests == PINNED_ARTIFACTS
