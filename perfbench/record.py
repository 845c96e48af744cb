"""Write ``perfbench/record.json``: the measured baseline of every workload.

Run from the repository root (takes a few minutes):

    python3 perfbench/record.py

For each workload of ``workloads.json`` it runs ``run.py`` once untraced and
once traced at seed 0, each for the ``run_seconds`` of ``BENCHMARK.json``, and
keeps the end-to-end metrics, the per-layer metrics and each layer's share of
the traced ``verify_s``.  It then runs the size
sweeps, which are informational and ungated: per-point wall time and the
fitted log-log slope of time against problem size, so that complexity shows
and not only constants.  The file also holds the environment the numbers came
from, so that numbers from two machines are never compared silently.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import run

# (n, d) projector cases; work is n! dense d^n x d^n permutation matrices.
PROJECTOR_CASES = [(5, 3), (6, 2), (7, 2), (5, 4)]
ADDITIVE_PAIR_SITES = [128, 256, 512]
EXCHANGE_SITES = [16, 24]


def run_workload(name: str, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def timed(fn, *args) -> float:
    """Median wall time of up to three calls; a call over two seconds is not repeated."""
    times = []
    while len(times) < 3 and sum(times) < 2.0:
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def slope(points: list[dict], size_key: str) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(p[size_key]) for p in points]
    ys = [math.log(p["seconds"]) for p in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def sweeps() -> dict:
    from qsystems import dynamics, galilei, symmetry
    from qsystems.grids import GridSpec
    import numpy as np

    pair = []
    for n in ADDITIVE_PAIR_SITES:
        rep_a = galilei.build_grid_rep(n, 16.0, 1.0, 1.0)
        rep_b = galilei.build_grid_rep(n, 16.0, 1.5, 1.0)
        seconds = timed(galilei.verify_additive_grid_pair, rep_a, rep_b, 1e-6, 20, 0)
        pair.append({"n_sites": n, "seconds": seconds})

    projectors = []
    for n, d in PROJECTOR_CASES:
        seconds = timed(symmetry.build_projectors, n, d)
        work = math.factorial(n) * d ** (2 * n)
        projectors.append({"n": n, "d": d, "dim": d**n, "permutation_entries": work, "seconds": seconds})

    # The dynamics suite's default Gaussian well with spin-spin terms.
    r = np.linspace(0.0, 8.0, 257)
    shape = np.exp(-(r**2) / (2.0 * 1.5**2))
    potential = dynamics.PotentialSpec(
        v=dynamics.RadialTable(r, -2.0 * shape),
        v2=dynamics.RadialTable(r, 0.8 * shape),
        v3=dynamics.RadialTable(r, 0.5 * shape),
    )
    exchange = []
    for n in EXCHANGE_SITES:
        body = dynamics.BodyConfig(n_bodies=2, masses=(1.0, 1.0), spin_half=True, grid=GridSpec(n, 16.0))
        seconds = timed(dynamics.exchange_symmetry_residual, body, potential, 1.0)
        exchange.append({"n_sites": n, "dim": 4 * n * n, "seconds": seconds})

    return {
        "additive_pair": {"points": pair, "loglog_slope_vs_n_sites": slope(pair, "n_sites")},
        "build_projectors": {
            "points": projectors,
            "loglog_slope_vs_permutation_entries": slope(projectors, "permutation_entries"),
        },
        "exchange": {"points": exchange, "loglog_slope_vs_n_sites": slope(exchange, "n_sites")},
    }


def main() -> int:
    seconds = run.run_seconds()
    record = {"run_seconds": seconds, "workloads": {}}
    for name in run.load_workloads():
        detail, result = run_workload(name, seconds, 0)
        traced_detail, traced = run_workload(name, seconds, 1)
        record["environment"] = detail["environment"]
        record["workloads"][name] = {
            "correct": result["correct"] and traced["correct"],
            "end_to_end": result["metrics"],
            "samples": detail["samples"],
            "wall_s": detail["wall_s"],
            "host_readings_s": detail["host_readings_s"],
            "layer_shares": traced_detail["layer_shares"],
            "per_layer": traced["metrics"],
        }
        print(f"{name}: recorded", file=sys.stderr)

    error = run.prepare_environment() or run.import_error()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    record["sweeps"] = sweeps()
    path = run.HERE / "record.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
