"""polspin benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: polspin is imported from ./src.
One client calls polspin's public API in-process in a closed loop (the next
operation starts when the previous one returns), with BLAS limited to one
thread.  Operations run in whole cycles over the workload's configs until
S seconds have passed; each operation's config seed is drawn from --seed.
Every output is checked after the timed loop (see oracle.py); an operation
that raises or fails its check counts as failed.

Times are reported in reference seconds: each operation's wall time is
scaled by the speed of a fixed reference kernel timed around it (see
reference.py), because the speed of a shared core drifts too much for raw
wall times to repeat.  The raw wall figures are in the detail line.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
spends S/2 seconds untraced and S/2 traced (tracing.py) and reports the
per-layer metrics, per operation, in wall seconds, plus the tracing
overhead; spans are written to .perfbench_out/.  The last stdout line is
the JSON result; the line before it holds the machine fingerprint and run
details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

# The matrices are 4x4 to 64x64 and the machine is small, so BLAS threads
# would only measure the scheduler.  Must be set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from reference import KERNELS  # noqa: E402
from tracing import SpanStats, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
GAUGE_SHARE = 0.1        # reference work after an operation, share of its time
GAUGE_WINDOW_S = 1.0     # reference samples this close to an operation set its scale
P90_MIN_OPS = 100        # at least 10 samples beyond the 90th percentile
MODULES = ("cli", "pipeline", "processor", "transfer", "angular", "bands",
           "noise", "qstate")

# Public functions wrapped in the traced run, as "module.function": options
# for Tracer.wrap.  Names are rebound wherever the package imported them.
TRACE_TARGETS = {
    "cli.main": {},
    "cli.config_from_dict": {},
    "pipeline.scenario_report": {},
    "pipeline.run_end_to_end": {},
    "pipeline.run_detection": {},
    "pipeline.monte_carlo_average_fidelity": {},
    "pipeline.process_tomography": {},
    "pipeline.sweep": {},
    "pipeline.detection_stages": {},
    "pipeline.return_stages": {},
    "pipeline.haar_qubits": {"size": lambda seed, n: int(n)},
    "processor.site_channel_map": {"result_name": "processor.site_channel_map.apply"},
    "processor.shuttle": {},
    "processor.exchange_gate": {},
    "transfer.absorption_branches": {},
    "transfer.precession_unitary": {},
    "transfer.emission_map": {},
    "transfer.absorb_case_a": {},
    "transfer.absorb_case_b": {},
    "transfer.absorb_degenerate": {},
    "angular.clebsch_gordan": {"key": lambda j1, m1, j2, m2, j, m: (j1, m1, j2, m2, j, m)},
    "bands.build_level_scheme": {},
    "bands.degenerate_scheme": {},
    "noise.dephasing_kraus": {},
    "qstate.choi_of_map": {},
    "qstate.is_cptp": {},
    "qstate.process_fidelity": {},
    "qstate.entanglement_entropy": {},
}
SPAN_NAMES = frozenset(TRACE_TARGETS) | {"processor.site_channel_map.apply"}
COUNT_SUFFIXES = ("calls", "applies", "samples", "distinct_ratio")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

WINDOW = {"bandwidth_ueV": 100.0, "lineshape": "gaussian"}
CASE_B = {"case": "B", "window": WINDOW, "hadamard_time_ns": 0.17862}
DEFAULT_CHAIN = {"n_sites": 4, "storage_site": 3, "gate_error": 0.0}


class Workload:
    """Configs an operation rotates over, the operation and its check."""

    docs: tuple[dict, ...]
    samples_per_op: int          # Haar samples one operation evaluates
    reference = "small"          # reference kernel shaped like the work
    expect_nonzero: frozenset    # per-layer counters this workload must move
    expect_zero: frozenset = frozenset()

    def __init__(self, polspin, seed: int, workdir: Path):
        self.ps = polspin
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.paths = []
        for k, doc in enumerate(self.docs):
            path = workdir / f"config-{k}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.paths.append(path)
        self.configs = [polspin.cli.load_config(str(p), None) for p in self.paths]

    @property
    def cycle(self) -> int:
        return len(self.docs)

    def next_seed(self) -> int:
        return self.rng.randrange(2 ** 31)

    def prepare(self, i: int):
        return replace(self.configs[i % self.cycle], seed=self.next_seed())

    def collect(self, arg, result):
        """Keep what check() needs; runs outside the timed call."""
        return result


class Reports(Workload):
    docs = (
        {"case": "A", "compensate": True, "chain": DEFAULT_CHAIN, "mc_samples": 1000},
        {**CASE_B, "chain": DEFAULT_CHAIN, "mc_samples": 1000},
        {"case": "degenerate", "chain": DEFAULT_CHAIN, "mc_samples": 1000},
    )
    samples_per_op = 1000
    expect_nonzero = frozenset({
        "processor.site_channel_map.applies", "processor.shuttle.calls",
        "processor.exchange_gate.calls", "pipeline.detection_stages.calls",
        "pipeline.return_stages.calls", "pipeline.stage_builds_per_report",
        "pipeline.haar_qubits.samples", "transfer.absorption_branches.calls",
        "transfer.precession_unitary.calls", "angular.clebsch_gordan.calls",
        "bands.build_level_scheme.calls", "bands.degenerate_scheme.calls",
        "noise.dephasing_kraus.calls"})

    def prepare(self, i):
        out = self.workdir / "report.json"
        out.unlink(missing_ok=True)
        return ["--config", str(self.paths[i % self.cycle]),
                "--seed", str(self.next_seed()),
                "run", "--format", "json-like", "--out", str(out)]

    def op(self, argv):
        code = self.ps.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"polspin run exited with code {code}")

    def collect(self, argv, result):
        return json.loads(Path(argv[-1]).read_text(encoding="utf-8"))

    def check(self, i, doc):
        kind = i % self.cycle
        return oracle.check_report(oracle.report_from_json(doc),
                                   degenerate=kind == 2, ideal=kind == 0)


LONG_CHAIN = {"n_sites": 6, "storage_site": 5, "gate_error": 0.01}


class LongChain(Workload):
    docs = (
        {"case": "A", "compensate": True, "chain": LONG_CHAIN, "mc_samples": 1000},
        {**CASE_B, "chain": LONG_CHAIN, "mc_samples": 1000},
    )
    samples_per_op = 1000
    reference = "chain"
    expect_nonzero = frozenset({
        "processor.site_channel_map.applies", "processor.shuttle.calls",
        "processor.exchange_gate.calls", "pipeline.detection_stages.calls",
        "pipeline.return_stages.calls", "pipeline.stage_builds_per_report",
        "pipeline.haar_qubits.samples", "transfer.absorption_branches.calls",
        "transfer.precession_unitary.calls", "angular.clebsch_gordan.calls",
        "bands.build_level_scheme.calls", "noise.dephasing_kraus.calls"})

    def op(self, cfg):
        return self.ps.pipeline.scenario_report(cfg)

    def collect(self, cfg, rep):
        return oracle.report_from_object(rep)

    def check(self, i, rep):
        return oracle.check_report(rep, degenerate=False, ideal=False)


SWEEP_PARAM = "noise.transport_time_ns"
SWEEP_VALUES = np.linspace(0.0, 50.0, 20)
SWEEP_SAMPLES = 100_000


class MCSweep(Workload):
    docs = ({**CASE_B, "chain": {"n_sites": 1, "storage_site": 0, "gate_error": 0.0},
             "mc_samples": SWEEP_SAMPLES},)
    samples_per_op = SWEEP_SAMPLES * len(SWEEP_VALUES)
    reference = "bulk"
    expect_nonzero = frozenset({
        "pipeline.detection_stages.calls", "pipeline.return_stages.calls",
        "pipeline.haar_qubits.samples", "transfer.absorption_branches.calls",
        "transfer.precession_unitary.calls", "angular.clebsch_gordan.calls",
        "bands.build_level_scheme.calls", "noise.dephasing_kraus.calls"})
    expect_zero = frozenset({"processor.exchange_gate.calls"})

    def __init__(self, *args):
        super().__init__(*args)
        self._tomography = {}

    def op(self, cfg):
        return self.ps.pipeline.sweep(cfg, SWEEP_PARAM, SWEEP_VALUES)

    def point_channel(self, value: float):
        """(choi, cptp) of one sweep point; independent of the seed."""
        if value not in self._tomography:
            cfg = self.configs[0]
            point = replace(cfg, noise=replace(cfg.noise, transport_time_ns=value))
            res = self.ps.pipeline.process_tomography(point)
            self._tomography[value] = (res.choi, res.cptp)
        return self._tomography[value]

    def check(self, i, rows):
        if len(rows) != len(SWEEP_VALUES):
            return [f"sweep returned {len(rows)} rows, expected {len(SWEEP_VALUES)}"]
        problems = []
        for row, value in zip(rows, SWEEP_VALUES):
            if row["param"] != SWEEP_PARAM or row["value"] != float(value):
                problems.append(f"row {row['param']}={row['value']!r} is not "
                                f"{SWEEP_PARAM}={float(value)!r}")
                continue
            problems += oracle.check_sweep_row(row, *self.point_channel(float(value)))
        return problems


WORKLOADS = {"reports": Reports, "long_chain": LongChain, "mc_sweep": MCSweep}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Gauge:
    """Machine speed from a reference kernel timed between operations.

    scale(start, end) converts a wall time measured over [start, end] to
    reference seconds: the kernel's nominal duration over its median time
    within GAUGE_WINDOW_S of the interval.  On a shared host a core's speed
    drifts 1.5-2x within seconds; the ratio cancels most of that drift.
    """

    def __init__(self, kernel: str):
        self.work, self.nominal = KERNELS[kernel]
        self.samples: list[tuple[float, float]] = []   # (midpoint, seconds)

    def sample(self, budget: float) -> None:
        """Time the kernel at least once and for `budget` seconds."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.work()
            t1 = time.perf_counter()
            self.samples.append(((t0 + t1) / 2, t1 - t0))
            if t1 - start >= budget:
                return

    def scale(self, start: float, end: float) -> float:
        times = [s for t, s in self.samples
                 if start - GAUGE_WINDOW_S <= t <= end + GAUGE_WINDOW_S]
        return self.nominal / statistics.median(times)


class Run:
    """Operations run so far, their outputs and failures."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.next_op = 0
        self.outputs: list[tuple[int, object]] = []
        self.failed: dict[int, str] = {}
        self.gauge = Gauge(wl.reference)

    def loop(self, seconds: float, min_cycles: int = 1,
             tracer: Tracer | None = None) -> list[tuple[int, float, float]]:
        """Whole cycles of operations until `seconds` have passed; returns
        (operation, start, end) for each operation that completed.
        Reference work runs before the first and after every operation,
        untimed."""
        wl = self.wl
        intervals = []
        deadline = time.perf_counter() + seconds
        self.gauge.sample(0.0)
        cycles = 0
        while cycles < min_cycles or time.perf_counter() < deadline:
            for _ in range(wl.cycle):
                i = self.next_op
                self.next_op += 1
                arg = wl.prepare(i)
                if tracer is not None:
                    tracer.op = i
                t0 = time.perf_counter()
                try:
                    result = wl.op(arg)
                    intervals.append((i, t0, time.perf_counter()))
                    self.outputs.append((i, wl.collect(arg, result)))
                except Exception:
                    self.failed[i] = traceback.format_exc()
                self.gauge.sample(GAUGE_SHARE * (time.perf_counter() - t0))
            cycles += 1
        return intervals

    def reference_latencies(self, intervals) -> list[float]:
        return [(end - start) * self.gauge.scale(start, end)
                for _, start, end in intervals]

    def check(self) -> None:
        """Run every output check; records failures by operation."""
        for i, output in self.outputs:
            try:
                problems = self.wl.check(i, output)
            except Exception:
                problems = [traceback.format_exc()]
            if problems:
                self.failed[i] = "; ".join(problems)


def measure_setup(paths: list[Path]) -> tuple[list[float], list[float]]:
    """`import polspin` + load_config in fresh interpreters, in reference
    seconds and in wall seconds.  The first, which may compile bytecode, is
    not counted."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           *(str(p) for p in paths)]
    ref, wall = [], []
    for k in range(SETUP_REPEATS + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=120)
        setup, reference = (float(x) for x in out.stdout.split())
        if k:
            ref.append(setup * KERNELS["small"][1] / reference)
            wall.append(setup)
    return ref, wall


def layer_value(name: str, st: SpanStats) -> float:
    """One per-layer metric, per operation, from its BENCHMARK.json name."""
    if name == "pipeline.stage_builds_per_report":
        reports = st.calls["pipeline.scenario_report"]
        return st.calls["pipeline.detection_stages"] / reports if reports else 0.0
    span, _, field = name.rpartition(".")
    if field == "self_s" and span in MODULES:
        return st.module_self_seconds(span)
    if field == "applies":
        span += ".apply"
    if span not in SPAN_NAMES:
        raise KeyError(f"per-layer metric {name!r} names no traced span")
    getters = {"calls": st.count, "applies": st.count, "s": st.seconds,
               "self_s": st.self_seconds, "samples": st.samples,
               "distinct_ratio": st.distinct_ratio}
    if field not in getters:
        raise KeyError(f"per-layer metric {name!r} has an unknown field")
    return getters[field](span)


def is_count(name: str) -> bool:
    return (name == "pipeline.stage_builds_per_report"
            or name.rpartition(".")[2] in COUNT_SUFFIXES)


def traced_layers(wl: Workload, tracer: Tracer, first: int, last: int,
                  names: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics over operations [first, last), and self-check
    problems: counters that must move but read zero (or the reverse), and
    counts that differ between two cycles of the traced run."""
    cycles: dict[int, list] = {c: [] for c in range(first, last, wl.cycle)}
    for span in tracer.spans:
        if first <= span[2] < last:
            cycles[first + (span[2] - first) // wl.cycle * wl.cycle].append(span)
    stats = SpanStats([s for spans in cycles.values() for s in spans], last - first)
    metrics = {n: layer_value(n, stats) for n in names if n != "trace.overhead_p50_ms"}
    problems = [f"{n} is 0 on a workload that should exercise it"
                for n in sorted(wl.expect_nonzero) if metrics[n] == 0]
    problems += [f"{n} is {metrics[n]!r}, expected 0"
                 for n in sorted(wl.expect_zero) if metrics[n] != 0]
    per_cycle = []
    for spans in cycles.values():
        cycle_stats = SpanStats(spans, wl.cycle)
        per_cycle.append({n: layer_value(n, cycle_stats) for n in metrics if is_count(n)})
    for n in per_cycle[0]:
        values = {cycle[n] for cycle in per_cycle}
        if len(values) > 1:
            problems.append(f"{n} differs between traced cycles: {sorted(values)}")
    return metrics, problems


# ---------------------------------------------------------------------------
# result
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "polspin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def import_polspin():
    if not (SRC / "polspin" / "__init__.py").is_file():
        sys.exit(f"perfbench: no polspin sources in {SRC}; run from the root "
                 "of a polspin checkout")
    sys.path.insert(0, str(SRC))
    import polspin
    import polspin.cli
    if Path(polspin.__file__).resolve().parent != (SRC / "polspin").resolve():
        sys.exit(f"perfbench: imported polspin from {polspin.__file__}, not {SRC}")
    return polspin


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"perfbench: {path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = load_spec()
    polspin = import_polspin()
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = WORKLOADS[args.workload](polspin, args.seed, workdir)
        run = Run(wl)
        detail = {"workload": args.workload, "trace": args.trace,
                  "fingerprint": fingerprint(args.seed)}
        problems: list[str] = []
        if args.trace:
            run.loop(0.0)                                   # warm-up cycle
            plain = run.reference_latencies(run.loop(args.seconds / 2))
            tracer = Tracer()
            first = run.next_op
            with tracer.installed("polspin", TRACE_TARGETS):
                traced = run.reference_latencies(
                    run.loop(args.seconds / 2, min_cycles=2, tracer=tracer))
            run.check()
            metrics, problems = traced_layers(wl, tracer, first, run.next_op, list(units))
            metrics["trace.overhead_p50_ms"] = 1e3 * (statistics.median(traced)
                                                      - statistics.median(plain))
            spans_path = WORK / f"spans-{args.workload}.jsonl"
            tracer.write(spans_path)
            detail.update(untraced_ops=len(plain), traced_ops=len(traced),
                          spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)))
        else:
            setup, setup_wall = measure_setup(wl.paths)
            run.loop(0.0)                                   # warm-up cycle
            intervals = run.loop(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            run.check()
            latencies = run.reference_latencies(intervals)
            # a cycle of each config's median operation: a mean over all
            # operations would let one badly gauged operation move it
            cycle_s = sum(statistics.median(
                lat for (i, _, _), lat in zip(intervals, latencies) if i % wl.cycle == k)
                for k in range(wl.cycle))
            metrics = {
                "setup_s": statistics.median(setup),
                "latency_p50_ms": 1e3 * statistics.median(latencies),
                "ops_per_s": wl.cycle / cycle_s,
                "mc_samples_per_s": wl.cycle * wl.samples_per_op / cycle_s,
                "peak_rss_mb": peak_rss_mb,
            }
            wall = [end - start for _, start, end in intervals]
            detail.update(
                measured_ops=len(wall),
                wall_latency_p50_ms=1e3 * statistics.median(wall),
                wall_ops_per_s=len(wall) / (intervals[-1][2] - intervals[0][1]),
                wall_setup_s=statistics.median(setup_wall),
                reference_s=statistics.median(s for _, s in run.gauge.samples))
            if len(wall) >= P90_MIN_OPS:
                detail["latency_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=10)[-1]
                detail["wall_latency_p90_ms"] = 1e3 * statistics.quantiles(wall, n=10)[-1]
        if set(metrics) != set(units):
            sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                     "do not match BENCHMARK.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = run.next_op
    failed = len(run.failed)
    detail.update(error_rate=failed / attempted, self_check_problems=problems,
                  failures={str(i): msg[-2000:] for i, msg in sorted(run.failed.items())[:5]})
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
