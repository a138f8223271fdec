"""sloccsim benchmark: one workload, checked outputs, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file, and the run fails without it.  The loop is closed
and serial: each operation starts when the previous one has ended, and in
``cli-cold`` at most one child process is alive at a time.  BLAS/OpenMP
pools are pinned to one thread here and in every child.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from traced passes.  The last line of standard output is
the result as one JSON object.  Before it come the run's facts as one JSON
object (machine, versions, seed, generated configs, output digests) and
one line per metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from importlib import metadata
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# Pinned before numpy is first imported, here through checks, and inherited by children.
os.environ.update({var: "1" for var in THREAD_VARS})

import checks  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5  # set-up is measured this many times per run; the median is reported
IMPORT_SAMPLES = 3  # -X importtime probes per traced run
OP_TIMEOUT_S = 120.0
TRACE_SEGMENTS = 3  # a traced run splits its time: untraced, traced pass A, traced pass B

# Import costs read from -X importtime (cumulative), by metric name.
IMPORT_METRICS = {
    "numpy.import_ms": "numpy",
    "cli.import_ms": "sloccsim.cli",
    "noise.import_ms": "sloccsim.noise",
}


class Runner:
    """Runs one workload's operations, times them, and checks every output."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.attempted = 0
        self.failures: list[str] = []
        self.configs: dict[str, Path] = {}  # INI text -> file
        self.reference: dict = {}  # op -> (sha256 of its first output, problems found in it)
        self.runs: Counter = Counter()
        self.digests: dict[str, str] = {}
        if workload.in_process:
            sys.path.insert(0, str(SRC))
            from sloccsim import cli

            if not Path(cli.__file__).resolve().is_relative_to(SRC):
                raise RuntimeError(f"sloccsim imported from {cli.__file__}, not from {SRC}")
            self.cli = cli

    # -- operations -------------------------------------------------------

    def config_file(self, text: str) -> Path:
        if text not in self.configs:
            path = self.workdir / f"config-{len(self.configs)}.ini"
            path.write_text(text, encoding="utf-8")
            self.configs[text] = path
        return self.configs[text]

    def run_op(self, op, tracer=None) -> tuple[float, int]:
        """Run one operation; returns its wall seconds and the rows it wrote (0 if it failed)."""
        out = self.workdir / "out.csv"
        out.unlink(missing_ok=True)
        argv = op.cli_args(str(self.config_file(op.config)), str(out))
        if tracer is not None:
            tracer.op = self.attempted
        run = self._call_main if self.workload.in_process else self._spawn_cli
        seconds, error = run(argv, tracer)
        self.attempted += 1
        problems = [error] if error else self._check(op, out)
        if problems:
            self.failures.append(f"{op.label}: {problems[0]}")
            return seconds, 0
        return seconds, op.expect.rows

    def _call_main(self, argv, tracer):
        main = self.cli.main if tracer is None else tracer.wrap("cli.main", self.cli.main)
        start = perf_counter()
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # an operation that raises is a failed operation
            return perf_counter() - start, f"raised {exc!r}"
        seconds = perf_counter() - start
        return seconds, (f"exit code {code}" if code else None)

    def _spawn_cli(self, argv, tracer):
        if tracer is None:
            command = [sys.executable, "-m", "sloccsim", *argv]
        else:
            spans_out = self.workdir / "spans.json"
            spans_out.unlink(missing_ok=True)
            command = [sys.executable, str(BENCH_DIR / "child.py"), "cli", str(spans_out), *argv]
        with open(self.workdir / "stderr.txt", "w+b") as stderr:
            start = perf_counter()
            proc = subprocess.Popen(
                command, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
            try:
                code = proc.wait(timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return perf_counter() - start, f"timed out after {OP_TIMEOUT_S} s"
            seconds = perf_counter() - start
            stderr.seek(0)
            message = stderr.read().decode("utf-8", "replace").strip().splitlines()
        if tracer is not None and spans_out.exists():
            self._merge_child_trace(tracer, json.loads(spans_out.read_text(encoding="utf-8")))
        if code:
            return seconds, f"exit code {code}: {message[-1] if message else ''}"
        return seconds, None

    @staticmethod
    def _merge_child_trace(tracer, trace):
        base = len(tracer.spans)
        for name, start, end, parent, _op, error in trace["spans"]:
            tracer.spans.append(
                tracing.Span(name, start, end, parent + base if parent >= 0 else -1, tracer.op, error)
            )
        tracer.tallies.update(trace["tallies"])

    def _check(self, op, out: Path) -> list[str]:
        """Output check: content checks on the first run of a config, byte identity after."""
        try:
            text = out.read_text(encoding="utf-8")
        except OSError as exc:
            return [f"no output: {exc}"]
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self.runs[op] += 1
        if op not in self.reference:
            self.reference[op] = (digest, checks.check_csv(text, op.expect))
            self.digests[f"{len(self.digests)}:{op.label}"] = digest
        reference, problems = self.reference[op]
        if digest != reference:
            return ["output differs from an earlier run with the same config and seed"]
        return problems

    def rerun_singletons(self) -> None:
        """Run once more, untimed, every config that ran only once, so each is byte-compared."""
        for op in [op for op, n in self.runs.items() if n == 1]:
            self.run_op(op)

    def run_cycles(self, first: int, count: int, tracer=None) -> list[tuple[float, int]]:
        return [
            self.run_op(op, tracer)
            for index in range(first, first + count)
            for op in self.workload.cycle(self.seed, index)
        ]

    def run_for(self, seconds: float) -> list[list[tuple[float, int]]]:
        """Whole cycles from cycle 0 until ``seconds`` have passed; one result list per cycle."""
        cycles = []
        start = perf_counter()
        while perf_counter() - start < seconds:
            cycles.append(self.run_cycles(len(cycles), 1))
        return cycles

    def warm_up(self) -> None:
        """Fill the bytecode cache and, in process, the first-call paths, before any timing."""
        self.setup_probe()
        if self.workload.in_process:
            self.run_cycles(0, 1)

    # -- set-up probes ----------------------------------------------------

    def setup_probe(self, importtime: bool = False) -> tuple[float, str]:
        """One fresh interpreter: import sloccsim, load and resolve the workload's configs.

        Returns the seconds from before the process started to the end of
        resolve, and the child's standard error.
        """
        triples = []
        for op in self.workload.cycle(self.seed, 0):
            triples += [op.subcommand, str(self.config_file(op.config)), "1" if op.ideal else "0"]
        flags = ["-X", "importtime"] if importtime else []
        command = [sys.executable, *flags, str(BENCH_DIR / "child.py"), "setup", *triples]
        start = perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=OP_TIMEOUT_S,
        )
        if done.returncode:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        return float(done.stdout.split()[-1]) - start, done.stderr


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import milliseconds by module, from -X importtime output."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _self, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e3
    return cumulative


def op_summary(results) -> tuple[list[float], int]:
    return [seconds for seconds, _ in results], sum(rows for _, rows in results)


def rows_per_second(cycles) -> float:
    """Median over cycles of the rows a cycle wrote per second of its operation time.

    A median, so that a slow spell of the shared machine during a few
    cycles does not move the figure the way a pooled mean would.
    """
    rates = []
    for cycle in cycles:
        times, rows = op_summary(cycle)
        rates.append(rows / sum(times))
    return statistics.median(rates)


def end_to_end(runner: Runner, seconds: float, info: dict) -> dict:
    runner.warm_up()
    cycles = runner.run_for(seconds)
    runner.rerun_singletons()
    times, _ = op_summary([op for cycle in cycles for op in cycle])
    who = resource.RUSAGE_SELF if runner.workload.in_process else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    setups = [runner.setup_probe()[0] for _ in range(SETUP_SAMPLES)]
    tail = stats.tail_percentile(len(times))
    # Reported, not gated: slow spells of the shared host move a tail percentile
    # by more than any bound BENCHMARK.json may set (see perfbench/README.md).
    info["op_s_tail"] = {
        "value": stats.nearest_rank(times, tail),
        "unit": "s",
        "percentile": tail,
        "samples": len(times),
    }
    info["setup_s_samples"] = setups
    return {
        "op_s_p50": (stats.nearest_rank(times, 50.0), "s"),
        "rows_per_s": (rows_per_second(cycles), "rows/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def traced_pass(runner: Runner, cycles: int):
    tracer = tracing.Tracer()
    if not runner.workload.in_process:  # each child process installs its own tracing
        return tracer, runner.run_cycles(0, cycles, tracer)
    uninstall = tracing.install(tracer)
    try:
        return tracer, runner.run_cycles(0, cycles, tracer)
    finally:
        uninstall()


def per_layer(runner: Runner, seconds: float, info: dict) -> tuple[dict, bool]:
    runner.warm_up()
    imports = [parse_importtime(runner.setup_probe(importtime=True)[1]) for _ in range(IMPORT_SAMPLES)]
    untraced = runner.run_for(seconds / TRACE_SEGMENTS)
    tracer, traced = traced_pass(runner, len(untraced))
    again, again_results = traced_pass(runner, len(untraced))
    runner.rerun_singletons()

    times, rows = op_summary(traced)
    signature = tracing.count_signature(tracer.spans, tracer.tallies, rows)
    repeats = signature == tracing.count_signature(
        again.spans, again.tallies, op_summary(again_results)[1]
    )
    metrics = tracing.layer_metrics(tracer.spans, tracer.tallies, rows, len(times), sum(times))
    for metric, module in IMPORT_METRICS.items():
        metrics[metric] = (statistics.median([sample.get(module, 0.0) for sample in imports]), "ms")
    untraced_times, untraced_rows = op_summary([op for cycle in untraced for op in cycle])
    untraced_rate = untraced_rows / sum(untraced_times)
    traced_rate = rows / sum(times)
    metrics["trace.ops"] = (len(times), "count")
    metrics["trace.rows_per_s"] = (traced_rate, "rows/s")
    metrics["trace.untraced_rows_per_s"] = (untraced_rate, "rows/s")
    metrics["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate if untraced_rate else 0.0, "frac")
    metrics["trace.counts_repeat"] = (int(repeats), "bool")
    info["trace_counts"] = signature
    return metrics, repeats


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "threads_pinned": {var: os.environ[var] for var in THREAD_VARS},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in [1, 60]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sloccsim" / "__main__.py").is_file():
        print(f"perfbench: no sloccsim sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
    }
    try:
        runner = Runner(workload, args.seed, workdir)
        if args.trace:
            metrics, repeats = per_layer(runner, args.seconds, info)
        else:
            metrics, repeats = end_to_end(runner, args.seconds, info), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(runner.failures)
    info["configs"] = {path.name: text for text, path in runner.configs.items()}
    info["csv_sha256"] = runner.digests
    info["failed_frac"] = failed / runner.attempted
    info["failures"] = runner.failures[:10]

    print(json.dumps({"info": info}))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    if "op_s_tail" in info:
        tail = info["op_s_tail"]
        print(
            f"{'op_s_tail':48s} {tail['value']:>16.6g} s "
            f"(p{tail['percentile']:g} of {tail['samples']} operations)"
        )
    print(f"{'failed_frac':48s} {info['failed_frac']:>16.6g} frac ({failed} of {runner.attempted})")
    result = {
        "correct": failed == 0 and repeats,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
