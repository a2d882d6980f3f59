import ast
import json
import math
import os
import pathlib
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdenoise import env, nn
from graphdenoise import policy as policy_mod
from graphdenoise import representation as rep
from graphdenoise import trainer
from graphdenoise.graph import build_graph, generate_planted_partition, load_graph
from graphdenoise.policy import PPOConfig
from graphdenoise.trainer import TrainConfig


def small_graph(seed=0):
    return generate_planted_partition(40, 2, 0.4, 0.1, 4, 1.5, seed=seed)


def small_config(**kw):
    base = dict(outer_iters=2, rep_epochs=5, embed_dim=6, policy_hidden=(8, 5),
                ppo=PPOConfig(update_epochs=2, minibatch_size=32), seed=0)
    base.update(kw)
    return TrainConfig(**base)


def params_equal(a, b):
    return (all(np.array_equal(x, y) for x, y in zip(a.policy.mlp.weights, b.policy.mlp.weights))
            and np.array_equal(a.agg.W, b.agg.W)
            and np.array_equal(a.clf.V, b.clf.V))


def test_zero_iterations_returns_initialization():
    g = small_graph()
    cfg = small_config(outer_iters=0)
    result = trainer.train(g, cfg)
    policy, agg, clf = trainer.init_params(g, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(result.policy.mlp.weights, policy.mlp.weights))
    assert np.array_equal(result.agg.W, agg.W)
    assert np.array_equal(result.clf.V, clf.V)
    assert result.history == []
    assert result.best_iteration == -1


def test_history_length_and_finiteness():
    g = small_graph()
    result = trainer.train(g, small_config(outer_iters=3))
    assert len(result.history) == 3
    for row in result.history:
        assert set(row) == {"iteration", "train_loss", "val_f1", "mean_kl", "objective",
                            "kl_coeff", "mean_return", "num_transitions"}
        assert np.isfinite(row["train_loss"])
        assert np.isfinite(row["val_f1"])


def test_train_requires_train_nodes():
    empty = np.zeros(4, dtype=bool)
    g = build_graph(4, [(0, 1)], np.eye(4), [0, 0, 1, 1],
                    masks={"train": empty, "val": empty, "test": ~empty})
    with pytest.raises(ValueError):
        trainer.train(g, small_config())


def test_train_is_deterministic_given_seed():
    g = small_graph()
    a = trainer.train(g, small_config(seed=5))
    b = trainer.train(g, small_config(seed=5))
    assert params_equal(a, b)
    assert a.history == b.history


def test_best_validation_checkpoint_is_returned():
    g = small_graph(seed=2)
    result = trainer.train(g, small_config(outer_iters=4, seed=1))
    best_val = max(row["val_f1"] for row in result.history)
    assert result.history[result.best_iteration]["val_f1"] == best_val
    rescored = trainer.evaluate(result.policy, result.agg, result.clf, g, "val")
    assert rescored == pytest.approx(best_val)


def test_train_never_reads_test_labels():
    g = small_graph(seed=4)
    scrambled = g.labels.copy()
    scrambled[g.test_mask] = (scrambled[g.test_mask] + 1) % g.num_classes
    g2 = build_graph(g.num_nodes, g.edge_list(), g.features, scrambled,
                     masks={"train": g.train_mask, "val": g.val_mask, "test": g.test_mask})
    a = trainer.train(g, small_config(seed=9, outer_iters=2))
    b = trainer.train(g2, small_config(seed=9, outer_iters=2))
    assert params_equal(a, b)
    assert a.history == b.history


def test_train_scores_each_ppo_accept_once(monkeypatch):
    # phase-1 walks only read the accepted sets, so only the PPO batches are priced
    real_score, real_update = rep.f_c_score, policy_mod.ppo_update
    counts = {"scores": 0, "accepts": 0, "rounds": 0}

    def counting_score(*args, **kwargs):
        counts["scores"] += 1
        return real_score(*args, **kwargs)

    def counting_update(policy, trajectories, **kwargs):
        counts["rounds"] += 1
        counts["accepts"] += sum(t.action for traj in trajectories for t in traj.transitions)
        return real_update(policy, trajectories, **kwargs)

    monkeypatch.setattr(rep, "f_c_score", counting_score)
    monkeypatch.setattr(policy_mod, "ppo_update", counting_update)
    trainer.train(small_graph(seed=2), small_config(outer_iters=3, rollouts_per_node=2))
    assert counts["rounds"] == 3
    assert counts["accepts"] > 0
    assert counts["scores"] == counts["accepts"]


def test_adam_overflow_is_named_before_any_warning():
    # features of magnitude 1e300 overflow the fit's squared gradients
    g = small_graph()
    big = build_graph(g.num_nodes, g.edge_list(), g.features * 1e300, g.labels,
                      masks={"train": g.train_mask, "val": g.val_mask, "test": g.test_mask})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="representation fit: Adam second moment overflowed"):
            trainer.train(big, small_config())


def test_select_all_baseline_skips_policy_learning():
    g = small_graph(seed=6)
    cfg = small_config(select_all=True, seed=7)
    result = trainer.train(g, cfg)
    init_policy, _, _ = trainer.init_params(g, cfg)
    assert all(np.array_equal(a, b)
               for a, b in zip(result.policy.mlp.weights, init_policy.mlp.weights))
    # no PPO round ran, so no row carries ppo_update's diagnostics
    assert all(set(row) == {"iteration", "train_loss", "val_f1"} for row in result.history)


def test_select_all_fit_ignores_non_train_labels():
    # keep-all fits see only the training nodes' labels, so scrambling the
    # others moves no fit loss
    g = generate_planted_partition(40, 2, 0.4, 0.1, 4, 1.0, seed=5)
    scrambled = g.labels.copy()
    scrambled[~g.train_mask] = (scrambled[~g.train_mask] + 1) % 2
    g2 = build_graph(g.num_nodes, g.edge_list(), g.features, scrambled,
                     masks={"train": g.train_mask, "val": g.val_mask, "test": g.test_mask})
    cfg = small_config(select_all=True, outer_iters=3, seed=7)
    h1, h2 = trainer.train(g, cfg).history, trainer.train(g2, cfg).history
    assert [r["train_loss"] for r in h1] == [r["train_loss"] for r in h2]


def test_evaluate_is_deterministic():
    g = small_graph(seed=8)
    result = trainer.train(g, small_config(seed=8))
    s1 = trainer.evaluate(result.policy, result.agg, result.clf, g, "test")
    s2 = trainer.evaluate(result.policy, result.agg, result.clf, g, "test")
    assert s1 == s2


def test_evaluate_select_all_equals_plain_mean_aggregator():
    g = small_graph(seed=9)
    cfg = small_config(seed=10)
    policy, agg, clf = trainer.init_params(g, cfg)
    score = trainer.evaluate(policy, agg, clf, g, "test", selection="all")
    # independent pipeline: full-neighborhood means -> embed -> argmax
    nodes = np.flatnonzero(g.test_mask)
    means = np.array([np.concatenate([g.features[v][None], g.features[g.neighbors(v)]]).mean(0)
                      for v in nodes])
    preds = np.argmax(rep.classify_batch(clf, rep.embed_means(agg, means)), axis=1)
    assert score == rep.micro_f1(preds, g.labels[nodes])


def test_evaluate_untrained_uniform_classifier_is_chance_level():
    g = generate_planted_partition(120, 3, 0.3, 0.05, 6, 1.0, seed=11)
    cfg = small_config(seed=12)
    policy, agg, _ = trainer.init_params(g, cfg)
    clf = rep.ClassifierParams(np.zeros((3, cfg.embed_dim)))
    score = trainer.evaluate(policy, agg, clf, g, "test")
    assert abs(score - 1.0 / 3.0) <= 0.1


def test_evaluate_rejects_empty_mask():
    g = small_graph()
    cfg = small_config()
    policy, agg, clf = trainer.init_params(g, cfg)
    with pytest.raises(ValueError):
        trainer.evaluate(policy, agg, clf, g, np.array([], dtype=np.int64))


def test_evaluate_accepts_explicit_node_ids():
    g = small_graph(seed=13)
    cfg = small_config(seed=13)
    policy, agg, clf = trainer.init_params(g, cfg)
    nodes = np.flatnonzero(g.test_mask)
    assert (trainer.evaluate(policy, agg, clf, g, nodes)
            == trainer.evaluate(policy, agg, clf, g, "test"))


@pytest.mark.parametrize("selection", trainer.SELECTION_MODES)
@pytest.mark.parametrize("ids, named", [
    ([-1, -2], "node id -1 outside [0, 40)"),
    ([3, 40], "node id 40 outside [0, 40)"),
    ([0.5, 2.0], "node id 0.5 is not an integer"),
    ([True, False], "node id True is not an integer"),
    ([[1, 2]], "1-d array"),
], ids=["negative", "too-large", "float", "bool", "two-d"])
def test_evaluate_rejects_bad_node_ids(selection, ids, named):
    g = small_graph(seed=13)
    policy, agg, clf = trainer.init_params(g, small_config(seed=13))
    with pytest.raises(ValueError, match=re.escape(named)):
        trainer.evaluate(policy, agg, clf, g, np.array(ids), selection)


@pytest.mark.parametrize("call", ["evaluate-policy", "evaluate-all", "evaluate-none",
                                  "report-policy", "export-policy"])
def test_feature_width_mismatch_names_both_widths(call, tmp_path):
    # parameters made for 4-wide features, handed a graph with 5-wide ones
    g = generate_planted_partition(40, 2, 0.4, 0.1, 5, 1.5, seed=19)
    policy, agg, clf = trainer.init_params(small_graph(seed=19), small_config(seed=19))
    calls = {
        "evaluate-policy": lambda: trainer.evaluate(policy, agg, clf, g, "test"),
        "evaluate-all": lambda: trainer.evaluate(policy, agg, clf, g, "test", "all"),
        "evaluate-none": lambda: trainer.evaluate(policy, agg, clf, g, "test", "none"),
        "report-policy": lambda: trainer.selection_report(policy, agg, g),
        "export-policy": lambda: trainer.export_denoised_graph(policy, agg, g, tmp_path / "e"),
    }
    with pytest.raises(ValueError, match=re.escape("feature width 5 != aggregator width 4")):
        calls[call]()


def test_export_select_all_keeps_every_edge(tmp_path):
    g = small_graph(seed=14)
    cfg = small_config(seed=14)
    policy, agg, _ = trainer.init_params(g, cfg)
    out = trainer.export_denoised_graph(policy, agg, g, tmp_path / "e.txt", selection="all")
    assert out.edge_set() == g.edge_set()
    # idempotent under re-export
    again = trainer.export_denoised_graph(policy, agg, out, tmp_path / "e2.txt", selection="all")
    assert again.edge_set() == out.edge_set()


def test_export_select_none_removes_every_edge(tmp_path):
    g = small_graph(seed=15)
    cfg = small_config(seed=15)
    policy, agg, _ = trainer.init_params(g, cfg)
    out = trainer.export_denoised_graph(policy, agg, g, tmp_path / "e.txt", selection="none")
    assert out.num_edges == 0
    assert (tmp_path / "e.txt").read_text() == ""
    again = trainer.export_denoised_graph(policy, agg, out, tmp_path / "e2.txt", selection="none")
    assert again.num_edges == 0


def test_export_learned_policy_only_removes_edges(tmp_path):
    g = small_graph(seed=16)
    result = trainer.train(g, small_config(seed=16))
    out = trainer.export_denoised_graph(result.policy, result.agg, g, tmp_path / "e.txt")
    assert out.edge_set() <= g.edge_set()
    assert out.num_nodes == g.num_nodes
    assert np.array_equal(out.train_mask, g.train_mask)


def test_selection_report_extremes():
    g = small_graph(seed=17)
    cfg = small_config(seed=17)
    policy, agg, _ = trainer.init_params(g, cfg)
    all_report = trainer.selection_report(policy, agg, g, selection="all")
    assert np.all(all_report.fractions == 1.0)
    none_report = trainer.selection_report(policy, agg, g, selection="none")
    assert np.all(none_report.fractions == 0.0)


def test_selection_report_histogram_partitions_nodes():
    g = small_graph(seed=18)
    result = trainer.train(g, small_config(seed=18))
    report = trainer.selection_report(result.policy, result.agg, g)
    non_isolated = sum(1 for v in range(g.num_nodes) if g.degree(v) > 0)
    assert report.histogram.sum() == non_isolated
    assert np.all((report.fractions >= 0.0) & (report.fractions <= 1.0))


def test_checkpoint_round_trip(tmp_path):
    g = small_graph(seed=19)
    cfg = small_config(seed=19)
    result = trainer.train(g, cfg)
    path = tmp_path / "ckpt.json"
    trainer.save_checkpoint(path, result.policy, result.agg, result.clf, cfg.to_dict())
    policy, agg, clf, config = trainer.load_checkpoint(path)
    assert all(np.array_equal(a, b)
               for a, b in zip(policy.mlp.weights, result.policy.mlp.weights))
    assert np.array_equal(agg.W, result.agg.W)
    assert np.array_equal(clf.V, result.clf.V)
    assert config["seed"] == 19
    score_a = trainer.evaluate(policy, agg, clf, g, "test")
    score_b = trainer.evaluate(result.policy, result.agg, result.clf, g, "test")
    assert score_a == score_b


def test_metrics_writer_is_deterministic(tmp_path):
    history = [{"iteration": 0, "train_loss": 0.5, "val_f1": 0.75,
                "mean_reward": 0.1, "mean_kl": 0.0}]
    trainer.write_metrics(tmp_path / "a.jsonl", history)
    trainer.write_metrics(tmp_path / "b.jsonl", history)
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert b"timestamp" not in (tmp_path / "a.jsonl").read_bytes()


def test_config_round_trip():
    cfg = small_config(rollouts_per_node=2)
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert isinstance(again.ppo, PPOConfig)


def test_config_unknown_keys_are_named():
    d = small_config().to_dict()
    d["bogus"] = 3
    d["ppo"]["surrogate"] = "clip"
    with pytest.raises(ValueError, match="bogus, ppo.surrogate"):
        TrainConfig.from_dict(d)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(rep_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(outer_iters=-1)
    for value in (-1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="rep_lr"):
            TrainConfig(rep_lr=value)
    with pytest.raises(ValueError, match="kl_coeff"):
        TrainConfig.from_dict({"ppo": {"kl_coeff": math.nan}})
    assert TrainConfig(rep_lr=0.0).rep_lr == 0.0


@pytest.mark.parametrize("cls, field, value", [
    (TrainConfig, "embed_dim", 2.5),
    (TrainConfig, "outer_iters", True),
    (TrainConfig, "rep_lr", "fast"),
    (TrainConfig, "select_all", "no"),
    (TrainConfig, "fc_mode", "medium"),
    (TrainConfig, "fc_mode", "hard"),  # the soft score is the only task score
    (TrainConfig, "policy_hidden", (2.5,)),
    (TrainConfig, "policy_hidden", (0,)),
    (TrainConfig, "policy_hidden", (-1,)),
    (TrainConfig, "policy_hidden", ("a",)),
    (TrainConfig, "policy_hidden", (True,)),
    (TrainConfig, "policy_hidden", 5),
    (TrainConfig, "seed", -1),
    (PPOConfig, "minibatch_size", "a"),
    (PPOConfig, "gamma", True),
])
def test_config_value_types_are_named(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})
    # numpy scalars stay valid
    TrainConfig(seed=np.int64(3), rep_lr=np.float64(1e-3), policy_hidden=(np.int64(4),))


def reject_walking_greedy_select(graph, v, policy, agg):
    """Reference decode that walks past rejects: every candidate is taken in
    priority order, kept iff its probability is >= 0.5, until END."""
    state = env.init_episode(graph, v, agg)
    while len(state.candidates) > 1:
        scores, _ = state.candidate_scores(policy)
        i = int(np.argmax(scores))
        u = state.take(i)
        if u == env.END:
            break
        if nn.sigmoid(scores)[i] >= 0.5:
            state.accept(graph, agg, u)
    return state.selected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 14),
       density=st.floats(0.1, 0.9), bias=st.floats(-1.0, 0.5))
def test_greedy_select_stops_at_first_reject_with_reference_result(seed, n, density, bias):
    # a negative bias on the last layer pushes scores down, so rejects come first
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    g = build_graph(n, edges, rng.standard_normal((n, 3)), rng.integers(0, 2, n))
    agg = rep.init_aggregator(4, 3, rng)
    policy = policy_mod.init_policy(8, (6, 5), rng)
    policy.mlp.weights[-1] += bias
    original = env.EpisodeState.candidate_scores
    for v in range(n):
        calls = []

        def counted(state, pol):
            calls.append(1)
            return original(state, pol)
        with mock.patch.object(env.EpisodeState, "candidate_scores", counted):
            kept = trainer.greedy_select(g, v, policy, agg)
        assert kept == reject_walking_greedy_select(g, v, policy, agg)
        assert len(calls) <= len(kept) + 1


# what a degenerate input may raise: each a ValueError that names its problem
_NAMED_PROBLEMS = ("graph has no training nodes", "evaluation mask is empty",
                   "Adam second moment overflowed")


@st.composite
def degenerate_graph_json(draw):
    """Graph JSON with isolated (or only isolated) nodes, one or non-contiguous
    classes, empty masks or none, and random, all-zero, huge or no features."""
    n = draw(st.integers(1, 12))
    classes = sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=3)))
    blob = {"n": n, "labels": draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))}
    pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2)
    all_isolated = draw(st.integers(0, 3)) == 0
    blob["edges"] = [] if all_isolated else draw(st.lists(pairs, min_size=1, max_size=3 * n))
    features = draw(st.sampled_from(["random", "zero", "huge", "absent"]))
    if features != "absent":
        values = np.random.default_rng(draw(st.integers(0, 99))).standard_normal((n, 3))
        blob["features"] = (values * {"random": 1.0, "zero": 0.0, "huge": 1e300}[features]).tolist()
    split = draw(st.none() | st.lists(st.sampled_from(["train", "train", "val", "test", None]),
                                      min_size=n, max_size=n))
    if split is not None:
        blob["masks"] = {k: [s == k for s in split] for k in ("train", "val", "test")}
    return blob


@settings(max_examples=80, deadline=None)
@given(blob=degenerate_graph_json(), select_all=st.booleans(), iters=st.integers(1, 2),
       seed=st.integers(0, 2**16))
def test_degenerate_inputs_run_end_to_end_or_name_the_problem(blob, select_all, iters, seed):
    def attempt(fn, *args):
        try:
            return fn(*args)
        except ValueError as exc:  # a GraphError is a ValueError
            assert any(problem in str(exc) for problem in _NAMED_PROBLEMS), exc
            return None

    cfg = TrainConfig(outer_iters=iters, rep_epochs=2, batch_size=4, embed_dim=3,
                      policy_hidden=(4,), ppo=PPOConfig(update_epochs=1, minibatch_size=4),
                      select_all=select_all, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
        g = load_graph(path)
        result = attempt(trainer.train, g, cfg)
        if result is None:
            return
        for selection in trainer.SELECTION_MODES:
            for mask in ("val", "test"):
                f1 = attempt(trainer.evaluate, result.policy, result.agg, result.clf, g, mask,
                             selection)
                assert f1 is None or 0.0 <= f1 <= 1.0
            denoised = trainer.export_denoised_graph(result.policy, result.agg, g,
                                                     os.path.join(tmp, "edges.txt"), selection)
            assert denoised.edge_set() <= g.edge_set()
            report = trainer.selection_report(result.policy, result.agg, g, selection)
            assert ((report.fractions >= 0.0) & (report.fractions <= 1.0)).all()
            assert report.histogram.sum() == report.node_ids.size == np.count_nonzero(
                np.diff(g.indptr))


def test_no_library_function_hides_a_seed():
    # every random stream comes from the caller: no literal seed, no `rng or ...`
    # fallback and no rng parameter with a default
    found = []
    for path in sorted(pathlib.Path(trainer.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", getattr(node.func, "id", None)) == "default_rng"
                    and any(isinstance(arg, ast.Constant) for arg in node.args)):
                found.append(f"{where} default_rng(<literal>)")
            if (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)
                    and isinstance(node.values[0], ast.Name) and "rng" in node.values[0].id):
                found.append(f"{where} {node.values[0].id} or ...")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args
                defaulted = args[len(args) - len(node.args.defaults):] + [
                    a for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d]
                found += [f"{where} {a.arg}=..." for a in defaulted if "rng" in a.arg]
    assert found == []
