import numpy as np
import pytest

from graphdenoise import representation as rep
from graphdenoise import trainer
from graphdenoise.graph import build_graph, generate_planted_partition
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
        assert set(row) == {"iteration", "train_loss", "val_f1", "mean_reward",
                            "mean_kl", "objective"}
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


def test_select_all_baseline_skips_policy_learning():
    g = small_graph(seed=6)
    cfg = small_config(select_all=True, seed=7)
    result = trainer.train(g, cfg)
    init_policy, _, _ = trainer.init_params(g, cfg)
    assert all(np.array_equal(a, b)
               for a, b in zip(result.policy.mlp.weights, init_policy.mlp.weights))
    assert all(row["mean_kl"] == 0.0 for row in result.history)


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
    sets = {int(v): g.adjacency[v] for v in nodes}
    means = rep.node_mean_vectors(g, nodes, sets)
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


def test_max_steps_caps_selection_sizes():
    g = small_graph(seed=20)
    result = trainer.train(g, small_config(seed=20, max_steps=2, outer_iters=1))
    # sampled selections during training were capped, so training completed;
    # re-rolling with the cap keeps at most 2 decisions per node
    from graphdenoise import env
    import numpy as np
    for v in np.flatnonzero(g.train_mask)[:10]:
        traj = env.rollout(g, int(v), result.policy, result.agg, result.clf,
                           np.random.default_rng(0), max_steps=2)
        assert len(traj.transitions) <= 2


def test_config_round_trip():
    cfg = small_config(fc_mode="hard", rollouts_per_node=2)
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
