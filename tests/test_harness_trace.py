"""The benchmark harness's tracer times every layer that it names.

``perfbench/layers.py`` swaps each named function for a timing wrapper
wherever the function object is bound in a ``qsystems`` module namespace.  A
layer that the package reaches through some other binding (a captured
reference, a default argument, an attribute of an object) keeps calling the
original, so its metric reads 0 while ``test_harness_names`` still finds the
name.  Here the tracer, executed from source as that test does, is installed
around one ``run_all`` of a small config, and every layer must record time
and every counted layer its calls.
"""

from qsystems import suites
from test_harness_names import _harness

# Every size near its least value: the traced run takes tens of ms.
SMALL = {
    "axioms": {"grid_sites": 49, "n_test_states": 1, "spin_values": [0.5]},
    "symmetry": {"cases": [[2, 2], [3, 2]], "n_random": 1},
    "dynamics": {"relative": {"n_sites": 8}, "evolution": {"n_steps": 2},
                 "weak_coupling": {"n_sites": 8}, "momentum": {"n_sites": 51}},
    "charge": {"n_phases": 2},
    "epr": {"n_sites": 128, "n_inference": 1},
    "bell": {"n_samples": 10_000, "n_random_settings": 1},
}


def test_every_traced_layer_records_time_and_calls():
    layers = _harness()
    with layers.Tracer() as tracer:
        reports = suites.run_all(SMALL, seed=0)
    assert all(report["pass"] for report in reports)
    metrics = tracer.layer_metrics(0)
    for metric, count, _ in layers.LAYERS:
        assert metrics[metric] > 0.0, metric
        if count:
            assert metrics[count] > 0, count
    for counter, _ in layers.ARGUMENT_COUNTERS.values():
        assert metrics[counter] > 0, counter
