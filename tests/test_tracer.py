import importlib
import importlib.util
import os


def load_tracer():
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_are_library_attributes():
    # the benchmark's --trace 1 wraps these by identity; a renamed or
    # replaced library function would leave its span silently empty
    tracer = load_tracer()
    targets = [fn for fn, _, _ in tracer._TARGETS] + [fn for fn, _ in tracer._COUNTED]
    assert targets
    for fn in targets:
        module = importlib.import_module(fn.__module__)
        assert module.__name__.startswith("graphdenoise.")
        assert getattr(module, fn.__name__, None) is fn, f"{fn.__module__}.{fn.__name__}"
