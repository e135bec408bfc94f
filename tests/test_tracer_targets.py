"""The benchmark's span tracer still finds every function it wraps.

``perfbench/spans.py`` wraps ``ghz3d`` functions by name from outside the
package, so deleting or renaming one of them breaks a traced benchmark run
(``--trace 1``).  This test loads the tracer by path, installs it over every
``ghz3d`` module and checks that its restore puts each original back.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import ghz3d
from ghz3d.states import LinearMap

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_wraps_every_target_and_restores_it():
    spans = _load_spans()
    for info in pkgutil.iter_modules(ghz3d.__path__):
        importlib.import_module(f"ghz3d.{info.name}")
    modules = {n: m for n, m in sys.modules.items() if n == "ghz3d" or n.startswith("ghz3d.")}
    targets = spans._targets(modules)
    originals = {(module, attr): getattr(modules[module], attr) for _, module, attr, _ in targets}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    check_unitary = LinearMap.check_unitary

    restore = spans.install(spans.Tracer())
    try:
        for (module, attr), original in originals.items():
            assert getattr(modules[module], attr) is not original, f"{module}.{attr} was not wrapped"
        assert LinearMap.check_unitary is not check_unitary
    finally:
        restore()

    for name, module in modules.items():
        after = vars(module)
        assert after.keys() == before[name].keys()
        assert all(after[key] is value for key, value in before[name].items()), name
    assert LinearMap.check_unitary is check_unitary
