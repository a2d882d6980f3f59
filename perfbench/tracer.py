"""Span tracer that measures graphdenoise's modules from outside.

The tracer replaces public functions with timing wrappers for the length of a
traced region. A function is replaced under every name it is bound to in the
library's modules (``trainer`` imports ``build_graph`` by name, ``cli``
imports ``load_graph`` by name, ...), because wrapping only the defining
module would miss the calls made through those names.

Each span records its id, its parent's id, a name, and start and end times
from ``time.perf_counter``; all spans of one run share the tracer's run id.
Spans stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import json
import math
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

from graphdenoise import cli, env, graph, nn, policy, representation, trainer

MODULES = ("env", "representation", "policy", "nn", "trainer", "graph", "cli")


def _count_rollout(counts, args, kwargs, traj):
    counts["env.transitions"] += len(traj.transitions)
    counts["env.accepts"] += sum(t.action for t in traj.transitions)
    counts["env.end_episodes"] += traj.terminated_by == env.TERMINATED_ENDING


def _count_decode(counts, args, kwargs, selected):
    g, v = args[0], args[1]
    counts["trainer.decode_kept"] += len(selected)
    counts["trainer.decode_candidates"] += g.degree(v)


def _count_forward(counts, args, kwargs, result):
    counts["nn.forward_rows"] += len(args[1])


def _count_ppo(counts, args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    diag = result[1]
    counts["policy.ppo_transitions"] += diag["num_transitions"]
    counts["policy.update_epochs"] += cfg.update_epochs
    # every retried epoch doubles the KL penalty coefficient once
    counts["policy.retried_epochs"] += round(math.log2(diag["kl_coeff"] / cfg.kl_coeff))


# (function, span name, result counter)
_TARGETS = (
    (env.rollout, "env.rollout", _count_rollout),
    (representation.f_c_score, "representation.fc", None),
    (representation.train_representation, "representation.fit", None),
    (representation.node_mean_vectors, "representation.means", None),
    (policy.ppo_update, "policy.ppo", _count_ppo),
    (policy.surrogate_and_grads, "policy.grad", None),
    (nn.mlp_forward_batch, "nn.forward", _count_forward),
    (nn.load_arrays, "nn.ckpt_load", None),
    (trainer.train, "trainer.train", None),
    (trainer.greedy_select, "trainer.decode", _count_decode),
    (trainer.evaluate, "trainer.evaluate", None),
    (trainer.export_denoised_graph, "trainer.export", None),
    (trainer.selection_report, "trainer.report", None),
    (graph.load_graph, "graph.load", None),
    (graph.build_graph, "graph.build", None),
    (graph.validate_graph, "graph.validate", None),
    (graph.inject_edge_noise, "graph.noise", None),
    (graph.save_graph_json, "graph.write", None),
    (graph.write_edge_list, "graph.write", None),
)
# (function, counter key): counted, not timed, because they are too frequent
# and too short for a span to be worth its cost
_COUNTED = ((nn.adam_step, "nn.adam_steps"),)


class Tracer:
    """In-memory span recorder; ``installed()`` wraps the library for a region."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # (span id, parent id or -1, name, start, end)
        self.counts = Counter()
        self._stack = [-1]
        self._next_id = 0

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))

    @contextmanager
    def region(self, name):
        """A span around the benchmark's own code, such as set-up or one body."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self._close(sid, parent, name, start)

    def _count(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, fn, name, counter):
        counts = self.counts

        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result
        return traced

    def _cli_run(self, fn):
        def traced(argv):
            with self.region(f"cli.{argv[0]}"):
                return fn(argv)
        return traced

    @contextmanager
    def installed(self, extra_modules):
        """Wrap every target under each name bound to it in the library's modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "graphdenoise" or n.startswith("graphdenoise.")]
        modules.extend(extra_modules)
        wrappers = {fn: self._wrap(fn, name, counter) for fn, name, counter in _TARGETS}
        wrappers.update((fn, self._count(fn, key)) for fn, key in _COUNTED)
        wrappers[cli.run] = self._cli_run(cli.run)
        patched = []
        try:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        patched.append((mod, attr, value))
                        setattr(mod, attr, wrappers[value])
            yield self
        finally:
            for mod, attr, value in reversed(patched):
                setattr(mod, attr, value)

    def write(self, fh):
        """Write the spans to an open text file as JSON lines, one span per line."""
        for sid, parent, name, start, end in self.spans:
            fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                 "name": name, "start": start, "end": end},
                                separators=(",", ":")))
            fh.write("\n")

    def subtree(self, root_id):
        """Spans that descend from root_id (root excluded)."""
        children = defaultdict(list)
        for span in self.spans:
            children[span[1]].append(span)
        out, todo = [], [root_id]
        while todo:
            for span in children.get(todo.pop(), ()):
                out.append(span)
                todo.append(span[0])
        return out


def self_times(spans):
    """Span name -> summed self time: duration minus the direct children's durations."""
    child_time = defaultdict(float)
    for _, parent, _, start, end in spans:
        child_time[parent] += end - start
    out = defaultdict(float)
    for sid, _, name, start, end in spans:
        out[name] += end - start - child_time[sid]
    return out


def layer_metrics(body_spans, setup_spans, counts):
    """Per-module metrics of one traced body (graph.noise_s comes from set-up)."""
    total = defaultdict(float)
    calls = Counter()
    for _, _, name, start, end in body_spans:
        total[name] += end - start
        calls[name] += 1
    own = self_times(body_spans)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "env.rollout_s": total["env.rollout"],
        "env.rollout_calls": calls["env.rollout"],
        "env.transitions": counts["env.transitions"],
        "env.us_per_transition": 1e6 * ratio(total["env.rollout"], counts["env.transitions"]),
        "env.accept_frac": ratio(counts["env.accepts"], counts["env.transitions"]),
        "env.end_frac": ratio(counts["env.end_episodes"], calls["env.rollout"]),
        "representation.fc_s": total["representation.fc"],
        "representation.fc_calls": calls["representation.fc"],
        "representation.fit_s": total["representation.fit"],
        "representation.fit_calls": calls["representation.fit"],
        "representation.means_s": total["representation.means"],
        "policy.ppo_s": total["policy.ppo"],
        "policy.ppo_calls": calls["policy.ppo"],
        "policy.ppo_transitions": counts["policy.ppo_transitions"],
        "policy.grad_steps": calls["policy.grad"],
        "policy.epoch_retry_frac": ratio(counts["policy.retried_epochs"],
                                         counts["policy.update_epochs"]),
        "nn.forward_s": total["nn.forward"],
        "nn.forward_calls": calls["nn.forward"],
        "nn.rows_per_call": ratio(counts["nn.forward_rows"], calls["nn.forward"]),
        "nn.adam_steps": counts["nn.adam_steps"],
        "nn.ckpt_load_s": total["nn.ckpt_load"],
        "trainer.decode_s": total["trainer.decode"],
        "trainer.decode_calls": calls["trainer.decode"],
        "trainer.decode_kept_frac": ratio(counts["trainer.decode_kept"],
                                          counts["trainer.decode_candidates"]),
        "trainer.evaluate_s": total["trainer.evaluate"],
        "trainer.export_s": total["trainer.export"],
        "trainer.report_s": total["trainer.report"],
        "trainer.train_self_s": own["trainer.train"],
        "graph.load_s": total["graph.load"],
        "graph.build_s": total["graph.build"],
        "graph.build_calls": calls["graph.build"],
        "graph.validate_s": total["graph.validate"],
        "graph.noise_s": sum(end - start for _, _, name, start, end in setup_spans
                             if name == "graph.noise"),
        "cli.eval_s": total["cli.eval"],
        "cli.denoise_s": total["cli.denoise"],
        "cli.report_s": total["cli.report"],
    }
    for module in MODULES:
        m[f"{module}.self_s"] = sum(t for name, t in own.items()
                                    if name.startswith(module + "."))
    m["trace.spans"] = len(body_spans)
    return m
