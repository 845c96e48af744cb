"""Every function that the benchmark harness wraps exists in ``qsystems``.

``perfbench/layers.py`` names its layers as ``(module, attribute)`` pairs and
skips a pair that no longer resolves, so renaming or deleting a function
would read 0 on that layer's metric instead of failing.  The harness is read
here as source text and executed into a fresh namespace: no bytecode is
written next to it.
"""

import dataclasses
import importlib
import inspect
import types
from pathlib import Path

LAYERS_PATH = Path(__file__).parents[1] / "perfbench" / "layers.py"

# The one pair the harness still names after the package deleted it; ROADMAP
# item 1 deletes the wrapper, and this entry goes with it.
GONE = {("dynamics", "build_product_hamiltonian")}


def _harness():
    layers = types.ModuleType("perfbench_layers")
    exec(compile(LAYERS_PATH.read_text(encoding="utf-8"), str(LAYERS_PATH), "exec"), vars(layers))
    return layers


def _resolve(module: str, attribute: str):
    return getattr(importlib.import_module(f"qsystems.{module}"), attribute, None)


def test_every_wrapped_function_exists():
    layers = _harness()
    named = {pair for _, _, functions in layers.LAYERS for pair in functions} | set(layers.ARGUMENT_COUNTERS)
    missing = {pair for pair in named if _resolve(*pair) is None}
    assert missing == GONE


def test_every_counted_argument_is_a_parameter():
    for (module, attribute), (_, argument) in _harness().ARGUMENT_COUNTERS.items():
        assert argument in inspect.signature(_resolve(module, attribute)).parameters, (module, attribute)


def test_every_counted_class_has_its_array_field():
    for class_name, field in _harness().DENSE_CLASSES.items():
        cls = _resolve("hilbert", class_name)
        assert field in {f.name for f in dataclasses.fields(cls)}, class_name
