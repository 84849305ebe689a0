"""Every name the benchmark tracer hooks exists in `vroute`.

``benchmarks/tracer.py`` skips a hook whose name it cannot find, so a
renamed function would drop its per-layer metric without a word.  This
reads the tracer's hook tables and looks each name up the way the tracer
does: module functions with ``getattr``, methods in the class's own
``__dict__``.
"""
import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"

# Names the tracer still lists that vroute no longer has (ROADMAP item 2
# drops them from the tracer).
DEAD = {("optim", "Sgd", "step"),
        ("routers", "sample_k_without_replacement"),
        ("routers", "_sample_k_from_logits"),
        ("rng", "RngStream", "gumbel")}


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooks():
    tracer = _tracer()
    hooks = [(mod, fn) for _, mod, fn in tracer._FUNCTION_SPANS]
    hooks += [(mod, cls, meth) for _, mod, cls, meth in tracer._METHOD_SPANS]
    hooks += [("routers", fn) for fn in tracer._SELECT_FUNCTIONS]
    hooks += [("rng", "RngStream", meth)
              for meth in tracer._RNG_DERIVE + tracer._RNG_DRAW]
    return [h for h in hooks if h not in DEAD]


@pytest.mark.parametrize("hook", _hooks(), ids=".".join)
def test_hooked_name_exists(hook):
    module = importlib.import_module(f"vroute.{hook[0]}")
    if len(hook) == 2:
        assert callable(getattr(module, hook[1], None))
    else:
        cls = getattr(module, hook[1], None)
        assert cls is not None and callable(vars(cls).get(hook[2]))
