"""qsystems benchmark: `qsystems all` end to end, and a traced layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload default --seed 1 --seconds 60 --trace 0

Each workload in ``perfbench/workloads.json`` is a config for ``qsystems all``;
``BENCHMARK.json`` names the gated ones.  The seed is passed to every
verification run.  With ``--trace 0`` the run
reports, from untraced runs only:

- ``setup_s``: median wall time of a fresh interpreter importing
  ``qsystems.cli`` (numpy included), which every CLI call pays;
- ``verify_s``: median in-process wall time of one
  ``suites.run_all(config, seed)``, with qsystems already imported;
- ``cli_s``: median wall time of one fresh
  ``python3 -m qsystems.cli all --seed S --config C --out F`` process;
- ``peak_rss_mb``: median peak resident memory of those CLI processes;
- ``check_pass_ratio``: checks passed over checks attempted, across every
  report of the run (the lines above the result also print its complement,
  ``check_fail_ratio``).

The three timings are in seconds at a reference host speed: each sample is
scaled by how long a fixed kernel, independent of qsystems, took just before
and just after it (see ``HostClock``).  This removes most of the drift of a
shared host's speed between runs; the unscaled medians are printed above the
result.  The run and its children use one BLAS thread on one vCPU, so the
kernel and the measured work share a processor.

With ``--trace 1`` it reports the per-layer metrics of ``layers.py``, as
medians over traced ``run_all`` calls.  Untraced calls alternate with them:
``trace.overhead_s`` is the median of each traced time minus the untraced time
just before it.  ``trace.coverage`` is the share of the traced time that the
self times of the spans below the suite runners account for, so a function
that is renamed or inlined shows as lost coverage.  The spans are written to
``.perfbench/spans-<workload>-seed<seed>.json``.

Every report is checked: its ``pass`` is true, its check ids are exactly the
workload's expected ids, repeats at the seed are byte-identical, and every CLI
report equals the in-process one.  A run that raises or exits non-zero counts
all of its expected checks as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (counted in checks) and ``metrics``.  The exit code
is 0 when the outputs are correct, 1 when they are not, and 2 when the
benchmark cannot run (for instance when ``src/qsystems`` is missing).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import LAYERS, PER_LAYER_UNITS, SERIALIZE_SPAN, SUITE_PREFIX, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 7
# A HostClock reading at the reference host speed: about its value on a quiet
# 2-vCPU x86-64 VM with OpenBLAS, where the timings then read close to wall time.
HOST_REFERENCE_S = 0.03
# One BLAS thread: on a shared host a BLAS call split over every vCPU waits
# for whichever vCPU the hypervisor runs last, which made the timings of the
# product-space workload twice as noisy as one thread does.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_workloads() -> dict:
    """The workloads of ``workloads.json``, each with its full list of expected check ids.

    A workload lists its ids in ``expected_checks``, or takes those of the
    workload named in ``checks_of`` and adds its ``extra_checks``.  The
    one-line rationale of each workload is kept in ``BENCHMARK.json`` only.
    """
    workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    for workload in workloads.values():
        if "checks_of" in workload:
            base = workloads[workload["checks_of"]]["expected_checks"]
            workload["expected_checks"] = base + workload.get("extra_checks", [])
    return workloads


def run_seconds() -> int:
    """The measuring time of one run, as ``BENCHMARK.json`` sets it."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


# Runs each command it reads on stdin (a JSON list: argv, stderr file) and
# answers with a JSON list: exit code, wall seconds, peak RSS in KiB.
LAUNCHER_CODE = """
import json, os, signal, subprocess, sys, time
signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
for line in sys.stdin:
    command, stderr_path = json.loads(line)
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=stderr)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    print(json.dumps([os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss]), flush=True)
"""


class Launcher:
    """A small process that starts every child of the benchmark and times it.

    On Linux a child's peak RSS (``ru_maxrss``) includes the peak of the
    process that forked it, which here holds numpy and qsystems with a run's
    arrays.  Children started from this process, created before numpy is
    loaded, report their own peak.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER_CODE],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, command: list[str], stderr_path: Path) -> tuple[int, float, int]:
        """Run ``command``; return its exit code, wall seconds and peak RSS in KiB."""
        self._proc.stdin.write(json.dumps([command, str(stderr_path)]) + "\n")
        self._proc.stdin.flush()
        code, elapsed, maxrss = json.loads(self._proc.stdout.readline())
        return code, elapsed, maxrss

    def close(self) -> None:
        """Stop the launcher, and with it a child it is running, and wait for both."""
        if self._proc.poll() is None:
            self._proc.terminate()
        self._proc.wait()


def render(doc: dict) -> str:
    """The CLI's JSON rendering of a report."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class Gate:
    """Correctness of every report produced in one benchmark run."""

    def __init__(self, expected: list[str]):
        self.expected = set(expected)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.references: dict[str, str] = {}

    def grade(self, label: str, group: str, text: str | None) -> None:
        """Count one report's checks; ``text`` is None when the run failed."""
        self.attempted += len(self.expected)
        try:
            doc = json.loads(text) if text is not None else None
        except ValueError:
            doc = None
        if doc is None:
            self.failed += len(self.expected)
            self.problems.append(f"{label}: run failed or wrote no JSON report")
            return
        ids = [f"{s['suite']}/{c['id']}" for s in doc["suites"] for c in s["checks"]]
        passed = {
            f"{s['suite']}/{c['id']}" for s in doc["suites"] for c in s["checks"] if c["pass"]
        }
        failed = (self.expected - passed) | (set(ids) - self.expected)
        if len(ids) != len(set(ids)) or failed or not doc["pass"]:
            self.problems.append(f"{label}: failing or unexpected checks {sorted(failed)[:5]}")
        reference = self.references.setdefault(group, text)
        if text != reference:
            self.problems.append(f"{label}: report differs from the first {group} report")
            failed = self.expected
        in_process = self.references.get("in-process")
        if group != "in-process" and in_process and json.loads(in_process) != doc:
            self.problems.append(f"{label}: report differs from the in-process report")
            failed = self.expected
        self.failed += min(len(failed), len(self.expected))

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


class Bench:
    """One workload at one seed."""

    def __init__(self, name: str, workload: dict, seed: int, work: Path, launcher: Launcher):
        from qsystems import __version__, suites
        from qsystems.report import combined_report_dict

        self.name, self.seed = name, seed
        self.config = workload["config"]
        self.gate = Gate(workload["expected_checks"])
        self.work = work
        self.launcher = launcher
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        self._run_all = suites.run_all
        self._report = lambda reports: combined_report_dict(reports, seed, __version__)
        self.last_text = ""

    def verify(self, label: str, tracer=None) -> float | None:
        """Time one in-process run_all; grade its report.  None if it raised."""
        try:
            start = time.perf_counter()
            reports = self._run_all(self.config, seed=self.seed)
            elapsed = time.perf_counter() - start
            with tracer.span(SERIALIZE_SPAN) if tracer else contextlib.nullcontext():
                text = render(self._report(reports))
        except Exception as exc:  # a raising verification is a failed run, not a crash
            print(f"{label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.gate.grade(label, "in-process", None)
            return None
        self.gate.grade(label, "in-process", text)
        self.last_text = text
        return elapsed

    def cli(self, label: str) -> tuple[float, float] | None:
        """Time one fresh CLI process; return (wall s, peak RSS MB)."""
        out = self.work / "report.json"
        out.unlink(missing_ok=True)
        command = [
            sys.executable, "-m", "qsystems.cli", "all", "--seed", str(self.seed),
            "--config", str(self.config_path), "--out", str(out),
        ]
        code, elapsed, maxrss = self.launcher.run(command, self.work / "cli.stderr")
        if code != 0 or not out.is_file():
            print(f"{label}: exit {code}", file=sys.stderr)
            sys.stderr.write((self.work / "cli.stderr").read_text(errors="replace")[-2000:])
            self.gate.grade(label, "cli", None)
            return None
        self.gate.grade(label, "cli", out.read_text(encoding="utf-8"))
        return elapsed, maxrss * 1024 / 1e6

    def time_setup(self) -> float:
        """Wall time of a fresh interpreter importing qsystems.cli."""
        stderr = self.work / "setup.stderr"
        code, elapsed, _ = self.launcher.run([sys.executable, "-c", "import qsystems.cli"], stderr)
        if code != 0:
            raise RuntimeError(f"import qsystems.cli exited {code}: {stderr.read_text(errors='replace')[-2000:]}")
        return elapsed


def alternate(end: float, steps) -> None:
    """Run the steps in turn until the next one is not expected to finish by ``end``.

    Every step runs at least once; a step's last duration estimates its next.
    """
    last = [0.0] * len(steps)
    i = 0
    while i < len(steps) or time.perf_counter() + last[i % len(steps)] <= end:
        start = time.perf_counter()
        steps[i % len(steps)]()
        last[i % len(steps)] = time.perf_counter() - start
        i += 1


def run_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    end = time.perf_counter() + seconds
    host = HostClock()
    setup, verify, cli, rss = [], [], [], []
    raw = {"setup_s": [], "verify_s": [], "cli_s": []}
    for _ in range(SETUP_SAMPLES):
        raw["setup_s"].append(bench.time_setup())
        setup.append(host.scaled(raw["setup_s"][-1]))

    def verify_step():
        elapsed = bench.verify(f"verify #{len(verify) + 1}")
        if elapsed is not None:
            raw["verify_s"].append(elapsed)
            verify.append(host.scaled(elapsed))

    def cli_step():
        result = bench.cli(f"cli #{len(cli) + 1}")
        if result is not None:
            raw["cli_s"].append(result[0])
            cli.append(host.scaled(result[0]))
            rss.append(result[1])

    alternate(end, [verify_step, cli_step])
    gate = bench.gate
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verify_s": (_median(verify), "s"),
        "cli_s": (_median(cli), "s"),
        "peak_rss_mb": (_median(rss), "MB"),
        "check_pass_ratio": ((gate.attempted - gate.failed) / gate.attempted, "ratio"),
    }
    detail = {
        "samples": {"setup_s": setup, "verify_s": verify, "cli_s": cli, "peak_rss_mb": rss},
        "wall_s": {name: _median(values) for name, values in raw.items()},
        "wall_samples": raw,
        "host_readings_s": host.readings,
        "verify_s_max": {"value": max(verify, default=float("nan")), "n": len(verify)},
        "check_fail_ratio": gate.failed / gate.attempted,
    }
    return metrics, detail


def run_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    end = time.perf_counter() + seconds
    tracer = Tracer()
    untraced, traced, overheads, layer_runs = [], [], [], []
    # Layers below the suite runners: the suite spans wrap all of run_all, so
    # coverage is counted without their self times.
    finer = [metric for metric, _, _ in LAYERS if not metric.startswith(SUITE_PREFIX)]
    # The overhead compares each traced run with the untraced run just before
    # it, so a drift of the host's speed during the run largely cancels.
    last_untraced = None

    def untraced_step():
        nonlocal last_untraced
        elapsed = last_untraced = bench.verify(f"untraced #{len(untraced) + 1}")
        if elapsed is not None:
            untraced.append(elapsed)

    def traced_step():
        tracer.run_id += 1
        with tracer:
            elapsed = bench.verify(f"traced #{tracer.run_id}", tracer)
        if elapsed is not None:
            traced.append(elapsed)
            if last_untraced is not None:
                overheads.append(elapsed - last_untraced)
            layers = tracer.layer_metrics(tracer.run_id)
            layers["report.bytes"] = len(bench.last_text.encode("utf-8"))
            layers["trace.coverage"] = sum(layers[metric] for metric in finer) / elapsed
            layer_runs.append(layers)

    alternate(end, [untraced_step, traced_step])
    metrics = {}
    if layer_runs:
        for name in layer_runs[0]:
            metrics[name] = (statistics.median(run[name] for run in layer_runs), PER_LAYER_UNITS[name])
    metrics["trace.overhead_s"] = (_median(overheads), "s")
    verify_traced = _median(traced)
    detail = {
        "samples": {"verify_s_untraced": untraced, "verify_s_traced": traced, "trace.overhead_s": overheads},
        "layer_shares": {
            metric: value / verify_traced
            for metric, (value, unit) in metrics.items()
            if unit == "s" and not metric.startswith(("trace.", "report."))
        },
    }
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{bench.name}-seed{bench.seed}.json"
    spans_path.write_text(json.dumps(tracer.spans_as_dicts()), encoding="utf-8")
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, detail


class HostClock:
    """Host speed, from a fixed kernel timed between samples.

    This shared host changes speed by up to 2x over seconds to minutes, which
    no median within one run removes.  The kernel does not touch qsystems, so
    only the host moves it.  It mixes, in roughly equal parts, the three kinds
    of work qsystems does: interpreter loops, cache-resident BLAS, and
    streaming over an array larger than the cache.  A reading is the median
    of three kernel passes.  ``scaled`` turns a sample's wall time into
    seconds at the reference speed, at which a reading is
    ``HOST_REFERENCE_S``: it multiplies by HOST_REFERENCE_S over the mean of
    the readings just before and just after the sample.
    """

    def __init__(self):
        import numpy as np

        self._matrix = np.random.default_rng(0).standard_normal((192, 192))
        self._stream = np.zeros(4_000_000)  # 32 MB
        self._kernel()  # the first pass faults in the arrays
        self.readings = [self._reading()]

    def _kernel(self) -> float:
        start = time.perf_counter()
        for _ in range(24):
            self._matrix @ self._matrix
        total = 0
        for i in range(100_000):
            total += i * i
        table = {i: i for i in range(50_000)}
        del table
        for _ in range(3):
            self._stream += 1.0
        return time.perf_counter() - start

    def _reading(self) -> float:
        return statistics.median(self._kernel() for _ in range(3))

    def scaled(self, elapsed: float) -> float:
        """``elapsed``, just measured, in seconds at the reference host speed."""
        before = self.readings[-1]
        self.readings.append(self._reading())
        return elapsed * HOST_REFERENCE_S / ((before + self.readings[-1]) / 2)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def environment() -> dict:
    """Versions and machine facts that make numbers from two hosts comparable."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(np),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "last_level_cache_bytes": _last_level_cache(),
        "machine": platform.machine(),
    }


def _blas_threads(np) -> int | str:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


def _last_level_cache() -> int | None:
    for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True, check=True)
            if out.stdout.strip() not in ("", "0", "undefined"):
                return int(out.stdout)
        except (OSError, subprocess.CalledProcessError, ValueError):
            pass
    return None


def prepare_environment() -> str | None:
    """Pin the BLAS threads and the CPU, and put this checkout's qsystems on
    the path, here and in every child process.  Returns an error message when
    the sources are missing."""
    if not (SRC / "qsystems" / "cli.py").is_file():
        return f"no qsystems sources under {SRC}"
    # Set before numpy loads.
    os.environ.update({name: str(BLAS_THREADS) for name in THREAD_VARIABLES})
    # One vCPU for this process and its children, so that HostClock's kernel
    # runs where the measured work runs: the vCPUs of a shared host differ
    # in speed from moment to moment.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    return None


def import_error() -> str | None:
    """Import qsystems; an error message unless it came from this checkout."""
    import qsystems

    if Path(qsystems.__file__).resolve().parent != SRC / "qsystems":
        return f"imported qsystems from {qsystems.__file__}, not from {SRC}"
    return None


def main(argv: list[str] | None = None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so children are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    error = prepare_environment()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    seed = args.seed % 2**32
    launcher = Launcher()  # before numpy and qsystems load
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        error = import_error()
        if error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        bench = Bench(args.workload, workloads[args.workload], seed, work, launcher)
        run = run_traced if args.trace else run_end_to_end
        metrics, detail = run(bench, args.seconds)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    gate = bench.gate
    print(json.dumps({"workload": args.workload, "seed": seed, "environment": environment(), **detail}))
    samples = detail["samples"]
    for name, (value, unit) in metrics.items():
        count = f"  (median of {len(samples[name])})" if name in samples else ""
        print(f"{args.workload:>10}  {name:<28} {value:.6g} {unit}{count}")
    if not args.trace:
        tail = detail["verify_s_max"]
        print(f"{args.workload:>10}  {'check_fail_ratio':<28} {detail['check_fail_ratio']:.6g} ratio")
        print(f"{args.workload:>10}  {'verify_s max':<28} {tail['value']:.6g} s  (of {tail['n']}, ungated)")
        for name, value in detail["wall_s"].items():
            print(f"{args.workload:>10}  {name + ' wall':<28} {value:.6g} s  (unscaled, ungated)")
        host = detail["host_readings_s"]
        print(f"{args.workload:>10}  {'host reading':<28} {statistics.median(host):.4g} s  (median of {len(host)})")
    for problem in gate.problems:
        print(f"correctness: {problem}")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
