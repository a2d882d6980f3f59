import importlib
import importlib.util
import inspect
import os

from graphdenoise import nn, policy, trainer

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
    assert params(policy.ppo_update)[3] == "cfg"
    assert params(trainer.greedy_select)[:2] == ["graph", "v"]
    assert params(nn.mlp_forward_batch)[1] == "x"
