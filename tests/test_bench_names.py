"""The program names that the benchmark's per-layer metrics read exist.

The traced benchmark run (``perfbench/run.py --trace 1``) times public
module functions and executor methods by name, and a metric whose function
is gone drops out of its result.  This reads the benchmark's span table as
it stands and resolves every name in the program, under the rules by which
``perfbench/layertrace.py`` wraps them.
"""
import importlib
import importlib.util
import inspect
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _span_metrics():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.SPAN_METRICS


def _traced(name):
    """Whether the trace wraps ``name``: a public function defined in its
    module (module.function), or a public method (module.Class.method)."""
    module, *path = name.split(".")
    mod = importlib.import_module("greencross." + module)
    if len(path) == 1:
        fn = getattr(mod, path[0], None)
        return inspect.isfunction(fn) and fn.__module__ == mod.__name__
    cls = getattr(mod, path[0], None)
    return inspect.isfunction(vars(cls or object).get(path[1]))


def test_benchmark_span_names_resolve():
    names = {name for spans, _ in _span_metrics().values() for name in spans}
    assert {"batchexec.BatchExecutor.enqueue_many",
            "batchexec.BatchExecutor.finalize"} <= names
    names |= {"h2.mvm", "h2.mvm_t", "h2.cg_solve"}
    assert sorted(name for name in names if not _traced(name)) == []
