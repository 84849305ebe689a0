"""Every name the benchmark tracer hooks exists in `vroute`.

``benchmarks/tracer.py`` skips a hook whose name it cannot find, so a
renamed function would drop its per-layer metric without a word.  This
reads the tracer's hook tables and looks each name up the way the tracer
does: module functions with ``getattr``, methods in the class's own
``__dict__``.  Routing is found by a rule, not a name, so it is checked by
running the tracer.
"""
import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from vroute import routers
from vroute.rng import RngStream
from vroute.tensor import Tensor

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


def test_route_discovery_times_every_variant():
    # The tracer hooks each vroute.routers class whose own ``__dict__`` has
    # ``route``.  Should that find nothing, every routers.* per-layer metric
    # would read 0, so the one route must be RouterBase's, inherited by
    # every router make_router builds.
    tracer = _tracer()
    mods = {name: importlib.import_module(f"vroute.{name}")
            for name in ("routers", "tensor", "rng")}
    built = [routers.make_router(v, Tensor(np.ones((4, 3))), 1,
                                 routers.RouterSettings(eval_samples=2), 2,
                                 RngStream(0)) for v in routers.VARIANTS]
    u = Tensor(RngStream(1).normal((5, 4)))
    with tracer.Tracer(mods) as traced:
        assert [owner for owner, attr, _ in traced._patches
                if attr == "route"] == [routers.RouterBase]
        for router in built:
            router.route(u, "eval", router.draw_noise(RngStream(2), (5,), 2))
    got = traced.metrics({})
    for v in routers.VARIANTS:
        assert got[f"routers.{v}.route_calls"] == (1, "count"), v
    # The tracer reads an eval route's mode from route's third argument.
    for v in routers.VARIANTS[1:]:
        assert got[f"routers.{v}.cost_vs_map"][0] > 0, v
