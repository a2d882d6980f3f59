import importlib.util
import json
import os

import numpy as np

from graphdenoise.cli import run
from graphdenoise.graph import load_graph


def load_script():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "convert_cora.py")
    spec = importlib.util.spec_from_file_location("convert_cora", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_cora_fixture(cora_dir, n=40, dim=6, seed=0):
    """A Cora-format pair of files: n papers with string ids, dim binary
    features, three class names, and citations mostly within a class."""
    rng = np.random.default_rng(seed)
    names = ["Theory", "Neural_Networks", "Rule_Learning"]
    ids = [str(1000 + 37 * i) for i in range(n)]
    classes = rng.integers(0, len(names), size=n)
    with open(cora_dir / "cora.content", "w", encoding="utf-8") as fh:
        for paper, c in zip(ids, classes):
            bits = (rng.random(dim) < 0.2).astype(int)
            bits[c] = 1  # one feature marks the class
            fh.write("\t".join([paper, *map(str, bits), names[c]]) + "\n")
    with open(cora_dir / "cora.cites", "w", encoding="utf-8") as fh:
        for _ in range(3 * n):
            a, b = rng.integers(0, n, size=2)
            if classes[a] == classes[b] or rng.random() < 0.2:
                fh.write(f"{ids[a]}\t{ids[b]}\n")
    return ids


def test_content_cites_loader_remaps_arbitrary_ids(tmp_path):
    # classic two-file layout with non-contiguous string ids
    (tmp_path / "cora.content").write_text(
        "31336\t1\t0\t0\tTheory\n"
        "1061127\t0\t1\t0\tNeural_Networks\n"
        "77\t0\t0\t1\tTheory\n")
    (tmp_path / "cora.cites").write_text(
        "31336\t1061127\n"
        "77\t31336\n"
        "99999\t31336\n")  # unknown id row is skipped
    module = load_script()
    g, id_map, classes = module.load_cora(str(tmp_path))
    assert g.num_nodes == 3
    assert g.num_edges == 2
    assert g.feature_dim == 3
    assert set(id_map) == {"31336", "1061127", "77"}
    assert set(classes) == {"Theory", "Neural_Networks"}
    # same class name maps to the same label id after remapping
    assert g.labels[id_map["31336"]] == g.labels[id_map["77"]]
    assert g.labels[id_map["31336"]] != g.labels[id_map["1061127"]]


def test_converted_graph_trains_and_evaluates_through_the_cli(tmp_path, capsys):
    cora_dir, out = tmp_path / "cora", tmp_path / "cora_run"
    cora_dir.mkdir()
    ids = write_cora_fixture(cora_dir)
    load_script().main(["--cora-dir", str(cora_dir), "--out-dir", str(out)])
    id_map = json.loads((out / "id_map.json").read_text())
    assert sorted(id_map["nodes"].values()) == list(range(len(ids)))
    assert sorted(id_map["classes"]) == ["Neural_Networks", "Rule_Learning", "Theory"]
    graph = str(out / "graph.json")
    assert load_graph(graph).num_nodes == len(ids)

    # the README recipe at small sizes: a policy run, a keep-all run, eval on each
    for name, flags, selection in (("policy", [], "policy"), ("base", ["--select-all"], "all")):
        run_dir = out / name
        assert run(["train", "--graph", graph, "--iters", "2", "--rep-epochs", "5",
                    "--embed-dim", "8", *flags, "--out-dir", str(run_dir)]) == 0
        assert run(["eval", "--graph", graph, "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--out-dir", str(run_dir)]) == 0
        blob = json.loads((run_dir / "eval.json").read_text())
        assert blob["mask"] == "test" and blob["selection"] == selection
        assert 0.0 <= blob["micro_f1"] <= 1.0
    assert "error" not in capsys.readouterr().err
