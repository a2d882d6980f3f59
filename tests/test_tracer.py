import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import os
from unittest import mock

import numpy as np

from graphdenoise import cli, env, nn, policy, trainer
from graphdenoise import representation as rep
from graphdenoise.graph import generate_planted_partition

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def load_perfbench(name):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_are_library_attributes():
    # the benchmark's --trace 1 wraps these by identity; a renamed or
    # replaced library function would leave its span silently empty
    tracer = load_perfbench("tracer")
    targets = [fn for fn, _, _ in tracer._TARGETS] + [fn for fn, _ in tracer._COUNTED]
    assert targets
    for fn in targets:
        module = importlib.import_module(fn.__module__)
        assert module.__name__.startswith("graphdenoise.")
        assert getattr(module, fn.__name__, None) is fn, f"{fn.__module__}.{fn.__name__}"


def test_benchmark_configs_construct(monkeypatch):
    # the benchmark builds its training configs by field name; a removed
    # config field fails here instead of in a benchmark run
    monkeypatch.syspath_prepend(PERFBENCH)  # workloads imports gen as a top-level module
    workloads = load_perfbench("workloads")
    train_cfg, base_cfg = workloads._denoise_configs(0)
    assert not train_cfg.select_all and base_cfg.select_all
    assert workloads._checkpoint_config().outer_iters == 10


def test_tracer_argument_positions_match_library():
    # the tracer's counters read these arguments by position; a dropped or
    # reordered parameter fails here instead of in a benchmark run
    def params(fn):
        return list(inspect.signature(fn).parameters)
    # ppo_update's cfg is keyword-only, so the tracer reads it from kwargs
    cfg = inspect.signature(policy.ppo_update).parameters["cfg"]
    assert cfg.kind is inspect.Parameter.KEYWORD_ONLY
    assert params(trainer.greedy_select)[:2] == ["graph", "v"]
    # one function under both names, so wrapping it times every decode
    assert trainer.greedy_select is env.greedy_select
    assert params(nn.mlp_forward_batch)[1] == "x"


def test_tracer_records_engine_spans(monkeypatch):
    # the benchmark's per-layer predictions read these spans; an engine that
    # stops calling a wrapped name leaves its span empty and fails here
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer_mod, workloads = load_perfbench("tracer"), load_perfbench("workloads")
    cfg, _ = workloads._denoise_configs(0)
    cfg.outer_iters = 1
    g = generate_planted_partition(40, 2, 0.3, 0.05, 8, 1.0, seed=0)
    tracer = tracer_mod.Tracer(run_id=0)
    with tracer.installed([]):
        result = trainer.train(g, cfg)
        trainer.evaluate(result.policy, result.agg, result.clf, g, "test")
    names = {span[2] for span in tracer.spans}
    assert {"env.rollout", "representation.fc", "nn.forward", "trainer.decode"} <= names
    assert tracer.counts["env.transitions"] > 0 and tracer.counts["nn.adam_steps"] > 0


def test_tracer_records_keep_all_spans(monkeypatch):
    # keepall-wide's predictions read the fit and means spans; keep-all
    # training walks no episode
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer_mod, workloads = load_perfbench("tracer"), load_perfbench("workloads")
    _, cfg = workloads._denoise_configs(0)
    cfg.outer_iters = 2
    g = generate_planted_partition(40, 2, 0.3, 0.05, 8, 1.0, seed=0)
    tracer = tracer_mod.Tracer(run_id=0)
    with tracer.installed([]):
        trainer.train(g, cfg)
    names = {span[2] for span in tracer.spans}
    assert {"representation.fit", "representation.means"} <= names
    assert "env.rollout" not in names


def test_keep_all_train_builds_training_means_once():
    # and the val nodes' means too: keep-all sets never change
    g = generate_planted_partition(40, 2, 0.3, 0.05, 8, 1.0, seed=0)
    cfg = trainer.TrainConfig(outer_iters=3, rep_epochs=2, embed_dim=4, select_all=True)
    with mock.patch.object(rep, "node_mean_vectors", wraps=rep.node_mean_vectors) as means:
        trainer.train(g, cfg)
    for mask in (g.train_mask, g.val_mask):
        ids = np.flatnonzero(mask)
        assert ids.size and sum(np.array_equal(c.args[1], ids)
                                for c in means.call_args_list) == 1


def _zero_predictions(workload):
    with open(os.path.join(PERFBENCH, "design.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]["zero"]


def _traced_layers(tracer_mod, work):
    """Per-layer metrics of work() run as one traced body."""
    tracer = tracer_mod.Tracer(run_id=0)
    with tracer.installed([]), tracer.region("body") as region:
        work()
    return tracer_mod.layer_metrics(tracer.subtree(region), [], tracer.counts)


def test_keep_all_path_meets_keepall_wide_zero_predictions(monkeypatch, tmp_path):
    # the traced keepall-wide run checks these on its body; a keep-all train,
    # evaluate or export that starts to decode, walk or score fails here first
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer_mod, workloads = load_perfbench("tracer"), load_perfbench("workloads")
    _, cfg = workloads._denoise_configs(0)
    cfg.outer_iters = 2
    g = generate_planted_partition(40, 2, 0.3, 0.05, 8, 1.0, seed=0)

    def work():
        result = trainer.train(g, cfg)
        trainer.evaluate(result.policy, result.agg, result.clf, g, "test", selection="all")
        trainer.export_denoised_graph(result.policy, result.agg, g, tmp_path / "kept.txt",
                                      selection="all")
    layers = _traced_layers(tracer_mod, work)
    assert layers["representation.means_s"] > 0 and layers["trainer.export_s"] > 0
    assert [n for n in _zero_predictions("keepall-wide") if layers[n] != 0] == []


def test_cli_inference_meets_infer_skewed_zero_predictions(tmp_path):
    # the traced infer-skewed run checks these on its CLI eval, denoise and
    # report of a checkpoint; tracing must not change what the commands write
    tracer_mod = load_perfbench("tracer")
    graph_dir = tmp_path / "graph"
    assert cli.run(["synth", "--n", "60", "--classes", "3", "--p-in", "0.3", "--p-out", "0.05",
                    "--dim", "4", "--seed", "3", "--out-dir", str(graph_dir)]) == 0
    graph_path = str(graph_dir / "graph.json")
    assert cli.run(["train", "--graph", graph_path, "--iters", "1", "--rep-epochs", "5",
                    "--embed-dim", "6", "--out-dir", str(graph_dir)]) == 0

    def commands(out):
        common = ["--graph", graph_path, "--checkpoint", str(graph_dir / "checkpoint.json"),
                  "--out-dir", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["eval", "--mask", "test"], ["denoise"], ["report"]):
                assert cli.run(argv + common) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    traced = {}
    layers = _traced_layers(tracer_mod, lambda: traced.update(commands(tmp_path / "traced")))
    assert layers["trainer.decode_calls"] > 0 and layers["graph.load_s"] > 0
    # a walker that bypasses a traced function (decodes without greedy_select,
    # scores without nn.mlp_forward_batch) leaves one of these empty
    decode_path = ["trainer.decode_calls", "nn.forward_calls", "nn.ckpt_load_s",
                   "graph.build_calls", "cli.eval_s", "cli.denoise_s", "cli.report_s"]
    assert [n for n in decode_path if layers[n] == 0] == []
    assert [n for n in _zero_predictions("infer-skewed") if layers[n] != 0] == []
    assert "eval.json" in traced and traced == commands(tmp_path / "plain")
