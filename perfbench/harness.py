"""One benchmark run: set-up, timed bodies, checks, metrics and the result line.

A set-up precedes every body, with at least SETUP_REPEATS set-ups in a run.
Each set-up is timed together with the import of the benchmark and the
library in a fresh interpreter, and ``setup_s`` is the median of these
sums, so that work moved into import time shows too. Bodies repeat while
the next one is expected to fit in ``--seconds`` of body time, and at least
twice, so that every run checks that the same seed gives the same result;
time metrics are medians over the bodies, and each short decode-path block
runs at least INFER_PASSES times and for at least INFER_MIN_S in a body and
counts with the median of its passes over all bodies of the run. With
``--trace 1`` each untraced body is followed by a traced one; the per-layer
metrics are medians over the traced bodies, the tracing overhead is the
traced minus the untraced median
``run_s``, the first traced body is checked against the predictions in
``design.json``, and the spans are written to
``.perfbench/traces/<workload>-<seed>.jsonl``.

Every library call and every output check counts as attempted; a call that
raises or a check that does not hold counts as failed.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import traceback
import uuid
from statistics import median
from time import perf_counter

import numpy as np

import gen
import tracer
import workloads

SETUP_REPEATS = 4
# Run in a fresh interpreter: prints how long importing what run.py imports takes.
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
                "import graphdenoise, harness; print(time.perf_counter() - t)")
# Each short decode-path block of an untraced body runs at least INFER_PASSES
# times and for at least INFER_MIN_S; the median of its passes counts.
INFER_PASSES = 15
INFER_MIN_S = 2.0
BENCH_MODULES = (gen, workloads)  # they bind library functions by name, too


class Tally:
    """Operations and checks attempted and failed over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, name, passed):
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures.append(name)

    def add_rep(self, rep):
        self.attempted += rep.ops
        for name, passed in rep.checks:
            self.check(name, passed)


def import_time(root):
    """Seconds a fresh interpreter takes to import the library and the benchmark."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, os.path.join(root, "src"),
                          os.path.dirname(os.path.abspath(__file__))],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def git_commit(root):
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    # The ceiling keeps git from taking a repository above the checkout for it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_record(root):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(root),
    }


def fingerprint(inputs):
    return tuple((noisy.num_edges, hash(tuple(noisy.edge_list())), float(noisy.features.sum()))
                 for _, noisy in inputs["pairs"])


def run_body(body, inputs, workdir, tally, reps, rep):
    """One timed body recorded on rep and appended to reps; None when a library call raised."""
    start = perf_counter()
    try:
        body(inputs, rep, workdir)
    except Exception:  # counted as a failed operation; the run stops here
        traceback.print_exc()
        tally.attempted += rep.ops
        tally.failed += 1
        tally.failures.append("library call raised")
        return None
    rep.run_s = perf_counter() - start - rep.extra_s
    tally.add_rep(rep)
    if reps:
        tally.check("same seed gives the same result", rep.quality == reps[0].quality)
    reps.append(rep)
    return rep


def body_times(reps):
    """(run_s, infer_s) of a run's bodies: medians over the bodies, with each
    repeated decode-path block counted by the median of its pooled passes."""
    blocks = sum(median([t for r in reps for t in r.blocks[name]]) for name in reps[0].blocks)
    return (median([r.run_s for r in reps]) + blocks,
            median([r.infer_s for r in reps]) + blocks)


def check_predictions(tally, predicted, layers, own):
    """The design's predictions of which per-layer metrics a workload moves."""
    for name in predicted["nonzero"]:
        tally.check(f"{name} is non-zero", layers[name] != 0)
    for name in predicted["zero"]:
        tally.check(f"{name} is zero", layers[name] == 0)
    largest = max(own, key=own.get)
    tally.check(f"largest self time is {predicted['largest_self']} (got {largest})",
                largest == predicted["largest_self"])


def run(args, root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(os.path.dirname(__file__), "design.json"), encoding="utf-8") as fh:
        designs = json.load(fh)["workloads"]
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _measure(args, root, bench, designs[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, root, bench, design, workdir):
    setup, body = workloads.WORKLOADS[args.workload]
    tally = Tally()
    trace = tracer.Tracer(uuid.uuid4().hex) if args.trace else None

    def set_up():
        imported = import_time(root)
        start = perf_counter()
        if trace is not None and not setup_times:
            with trace.installed(BENCH_MODULES), trace.region("setup") as region:
                inputs = setup(args.seed, workdir)
            setup_spans.extend(trace.subtree(region))
        else:
            inputs = setup(args.seed, workdir)
        setup_times.append(imported + perf_counter() - start)
        setup_train.extend(inputs["train_s"])
        if "digests" in inputs:
            tally.check("set-up training repeats exactly", len(set(inputs["digests"])) == 1)
        prints.append(fingerprint(inputs))
        return inputs

    # A set-up precedes every body, so that set-up samples are spread over
    # the run like the bodies' are; at least SETUP_REPEATS are taken.
    setup_times, setup_train, prints, setup_spans = [], [], [], []
    reps, traced, layers = [], [], []
    min_bodies = 1 if trace is not None else 2
    inputs = set_up()
    spent = 0.0  # body time; the next body must fit in --seconds
    while len(reps) < min_bodies or spent + spent / len(reps) <= args.seconds:
        if reps:
            inputs = set_up()
        start = perf_counter()
        if run_body(body, inputs, workdir, tally, reps,
                    workloads.Rep(INFER_PASSES, INFER_MIN_S)) is None:
            break
        if trace is not None:
            before = trace.counts.copy()
            with trace.installed(BENCH_MODULES), trace.region("body") as region:
                rep = run_body(body, inputs, workdir, tally, traced, workloads.Rep(1, 0.0))
            if rep is None:
                break
            tally.check("tracing leaves results unchanged", rep.quality == reps[0].quality)
            spans = trace.subtree(region)
            layers.append(tracer.layer_metrics(spans, setup_spans, trace.counts - before))
            if len(layers) == 1:
                check_predictions(tally, design, layers[0], tracer.self_times(spans))
        spent += perf_counter() - start
    while len(setup_times) < SETUP_REPEATS:
        set_up()
    tally.check("set-up is deterministic", len(set(prints)) == 1)

    if not reps or (trace is not None and not layers):
        print("error: no timed body completed, so there is no result", file=sys.stderr)
        return 2

    quality = reps[0].quality
    run_s, infer_s = body_times(reps)
    values = {
        "setup_s": median(setup_times),
        "run_s": run_s,
        "train_s": (median(setup_train) if setup_train else 0.0)
                   + median([r.train_s for r in reps]),
        "infer_s": infer_s,
        "test_f1": quality["test_f1"],
        "signal_kept_frac": quality["signal_kept_frac"],
        "noise_kept_frac": quality["noise_kept_frac"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace is not None:
        values.update({name: median([m[name] for m in layers]) for name in layers[0]})
        values["trace.overhead_s"] = body_times(traced)[0] - run_s
        trace_dir = os.path.join(root, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        with open(os.path.join(trace_dir, f"{args.workload}-{args.seed}.jsonl"), "w",
                  encoding="utf-8") as fh:
            trace.write(fh)

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[kind]}

    print(f"workload {args.workload} seed {args.seed}: {len(reps)} bodies"
          + (f" untraced, {len(traced)} traced" if trace is not None else "")
          + f", {len(setup_times)} set-ups")
    print("  body run_s without blocks: " + " ".join(f"{r.run_s:.4f}" for r in reps)
          + "; set-up s: " + " ".join(f"{t:.4f}" for t in setup_times)
          + "; set-up train s: " + " ".join(f"{t:.4f}" for t in setup_train))
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
    for name in ("denoise_margin", "retrain_margin", "kept_edges", "report_mean_kept"):
        if name in quality:
            print(f"  {name:<28} {quality[name]:.6g}")
    print(f"  {'error_rate':<28} {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations and checks failed)")
    for name in tally.failures:
        print(f"  failed: {name}")
    print("host " + json.dumps(host_record(root), separators=(",", ":")))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}, separators=(",", ":")))
    return 0
