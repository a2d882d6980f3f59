#!/usr/bin/env python3
"""Convert the public Cora citation dataset to a graphdenoise graph.json.

Expects the classic two-file layout:

    cora/
      cora.content   (paper_id <tab> 1433 binary features <tab> class_name)
      cora.cites     (cited_id <tab> citing_id)

Paper ids are arbitrary strings, so they are remapped to dense 0-based ids;
the mapping is written to id_map.json next to graph.json. Train and score
on the result with the graphdenoise CLI (README, "Cora").
"""

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from graphdenoise.graph import build_graph, save_graph_json  # noqa: E402


def load_cora(cora_dir):
    content = os.path.join(cora_dir, "cora.content")
    cites = os.path.join(cora_dir, "cora.cites")
    ids, rows, label_names = [], [], []
    with open(content, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.strip().split("\t")
            if len(parts) < 3:
                continue
            ids.append(parts[0])
            rows.append([float(x) for x in parts[1:-1]])
            label_names.append(parts[-1])
    id_map = {raw: i for i, raw in enumerate(ids)}
    classes = {name: c for c, name in enumerate(sorted(set(label_names)))}
    labels = [classes[name] for name in label_names]

    edges = []
    skipped = 0
    with open(cites, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) != 2:
                continue
            if parts[0] in id_map and parts[1] in id_map:
                edges.append((id_map[parts[0]], id_map[parts[1]]))
            else:
                skipped += 1
    if skipped:
        print(f"skipped {skipped} citation rows with unknown paper ids")
    return build_graph(len(ids), edges, np.array(rows), labels, split_seed=0), id_map, classes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cora-dir", required=True, help="directory of cora.content and cora.cites")
    ap.add_argument("--out-dir", default="cora_run", help="directory for graph.json and id_map.json")
    args = ap.parse_args(argv)

    g, id_map, classes = load_cora(args.cora_dir)
    print(f"loaded cora: {g.num_nodes} nodes, {g.num_edges} edges, "
          f"{g.num_classes} classes, {g.feature_dim} features")

    os.makedirs(args.out_dir, exist_ok=True)
    save_graph_json(g, os.path.join(args.out_dir, "graph.json"))
    with open(os.path.join(args.out_dir, "id_map.json"), "w", encoding="utf-8") as fh:
        json.dump({"nodes": id_map, "classes": classes}, fh)

    print(f"wrote graph.json and id_map.json to {args.out_dir}")


if __name__ == "__main__":
    main()
