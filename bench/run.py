"""spinopt benchmark: the shipped CLI on the experiments its users run.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload mc_m10 --seed 1 --seconds 30 --trace 0

Every workload runs ``spinopt evaluate`` or ``spinopt sweep`` as a child
process (``bench/probe.py`` calls ``spinopt.cli.main``) with the package
imported from ``src/``. ``--seed`` is passed through as the CLI's ``--seed``;
it defaults to the seed the reference digests in ``bench/reference.json``
were recorded at. Each run first makes one untimed 1-worker warm-up command,
whose data files every later command of the run must reproduce byte for
byte, whatever its worker count or tracing.

``--trace 0`` repeats the workload's command, untraced, until ``--seconds``
have passed and reports medians of the end-to-end metrics. Times and rates
are scaled to a reference machine speed, measured by a fixed calibration
loop timed around every command (see ``calibrate``). ``--trace 1``
alternates a traced 1-worker command with an untraced 1-worker/2-worker
pair and reports per-layer self times, exact work counts (which must be
identical across the traced commands), the pool's scaling efficiency and
the tracing overhead. Metric names and units are read from
``BENCHMARK.json``.

Every command runs in a process group of its own and counts as attempted; it
fails on a non-zero exit, a failed output check, or a process of its group
still running after it exits. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the machine, the library versions, the child environment
and the SHA-256 digests of the warm-up's data files. A deliberate change to
the outputs is recorded by copying those digests into
``bench/reference.json`` by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
BUILD = ROOT / ".bench_build"
REFERENCE = BENCH / "reference.json"

MIN_RUNS = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 120.0
LEFTOVER_GRACE_S = 2.0  # for a command's processes that exit just after it
# one BLAS/OpenMP thread per process: the pool's workers are the only parallelism
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_ENV_KEYS = (*PINNED_ENV, "PYTHONHASHSEED", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
NON_DATA_FILES = {"run_meta.json"}  # wall-clock timings, not byte-stable
# The speed of a small shared VM drifts: on 2 vCPUs a fixed loop's time ranged
# over 2x within minutes, following the commands' own times. End-to-end times
# are therefore reported in reference seconds, at the speed where
# calibrate() takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.15


@dataclass(frozen=True)
class Workload:
    command: str  # CLI subcommand
    config: str  # relative to the checkout root
    threads: int  # worker count of the measured command


# Why each workload exists and the layer it stresses are in BENCHMARK.json.
WORKLOADS = {
    "mc_m10": Workload("evaluate", "configs/evaluate_m10_symmetric.json", 1),
    "opt_m200": Workload("evaluate", "bench/configs/opt_m200.json", 1),
    "sweep_pool": Workload("sweep", "configs/sweep_links_asymmetric.json", 2),
}


@dataclass
class Run:
    """One CLI command as seen from outside."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    experiment_s: float = 0.0
    peak_rss_mb: float = 0.0
    samples: int = 0
    error: str | None = None
    record: dict = field(default_factory=dict)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    # compiled bytecode is cached, as in an installed package, but inside the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


ENV_PROBE = r"""
import json, os, platform, sys
import numpy, spinopt
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
except Exception as exc:
    blas = {"error": repr(exc)}
print(json.dumps({
    "spinopt_file": os.path.abspath(spinopt.__file__),
    "nproc": os.cpu_count(),
    "usable_cpus": len(os.sched_getaffinity(0)),
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "blas": blas,
    "platform": platform.platform(),
}))
"""


def environment() -> dict:
    """Versions and settings the children run with; checks the package source."""
    try:
        proc = subprocess.run(
            [sys.executable, "-c", ENV_PROBE],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"importing spinopt took over {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"cannot import spinopt from {ROOT / 'src'}:\n{proc.stderr}")
    info = json.loads(proc.stdout)
    if not Path(info["spinopt_file"]).is_relative_to(ROOT / "src"):
        raise BenchError(f"spinopt imported from {info['spinopt_file']}, not from this checkout")
    env = child_env()
    info["child_env"] = {k: env.get(k) for k in CHILD_ENV_KEYS}
    return info


def load_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def count_lines(path: Path) -> int:
    lines = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            lines += chunk.count(b"\n")
    return lines


class Checker:
    """Output checks for one workload's config and seed."""

    def __init__(self, workload: Workload, seed: int, reference: dict):
        self.workload = workload
        config = load_json(ROOT / workload.config)
        experiment = config["experiment"]
        self.algorithms = experiment["algorithms"]
        self.per_link = experiment["num_drops"] * experiment["frames_per_drop"]
        if workload.command == "sweep":
            self.links = config["sweep"]["values"]  # the swept parameter is num_links
            self.files = {"summary.json", "plot_data.csv"}
        else:
            self.links = [config["scenario"]["num_links"]]
            self.files = {"summary.json", "plot_data.csv", "samples.csv"}
        self.reference = reference["sha256"] if reference["seed"] == seed else None
        self.baseline: dict | None = None  # digests of this run's first command

    def check(self, out: Path) -> tuple[dict, int]:
        """Digests of the data files and the sample count; raises BenchError."""
        present = {p.name for p in out.iterdir()} - NON_DATA_FILES
        if present != self.files:
            raise BenchError(f"data files {sorted(present)}, expected {sorted(self.files)}")
        digests = {name: sha256(out / name) for name in sorted(present)}
        if self.reference is not None and digests != self.reference:
            raise BenchError(f"digests differ from bench/reference.json: {digests}")
        if self.baseline is not None and digests != self.baseline:
            raise BenchError("data files differ from the run's 1-worker warm-up command")

        summary = load_json(out / "summary.json")
        points = summary["points"] if self.workload.command == "sweep" else [summary]
        if len(points) != len(self.links):
            raise BenchError(f"{len(points)} points in summary.json, expected {len(self.links)}")
        samples = 0
        for point, links in zip(points, self.links):
            per_alg = point["algorithms"]
            if sorted(per_alg) != sorted(self.algorithms):
                raise BenchError(f"algorithms {sorted(per_alg)}, expected {self.algorithms}")
            for name, stats in per_alg.items():
                if stats["sample_count"] != self.per_link * links:
                    raise BenchError(
                        f"{name}: sample_count {stats['sample_count']}, "
                        f"expected {self.per_link * links}"
                    )
                samples += stats["sample_count"]
            if "exhaustive" in per_alg and "mst_dp" in per_alg:
                best = per_alg["exhaustive"]["mean_objective"]
                dp = per_alg["mst_dp"]["mean_objective"]
                if best < dp - 1e-9 * abs(dp):
                    raise BenchError(f"exhaustive objective {best} below mst_dp {dp}")
        if "samples.csv" in self.files:
            lines = count_lines(out / "samples.csv")
            if lines != samples + 1:
                raise BenchError(f"samples.csv has {lines} lines, expected {samples + 1}")
        rows = len(self.links) * len(self.algorithms) + 1
        if count_lines(out / "plot_data.csv") != rows:
            raise BenchError(f"plot_data.csv does not have {rows} lines")
        return digests, samples


class Runner:
    """Starts CLI commands, checks their outputs and counts failures."""

    def __init__(self, name: str, seed: int, checker: Checker):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.checker = checker
        self.env = child_env()
        self.attempted = 0
        self.failed = 0

    def cli_args(self, threads: int, out: Path) -> list[str]:
        return [
            self.workload.command, "--config", self.workload.config, "--out", str(out),
            "--seed", str(self.seed), "--threads", str(threads), "--format", "both",
        ]

    def run(self, threads: int, traced: bool = False) -> Run:
        run = Run()
        self.attempted += 1
        tag = f"{self.name}-{os.getpid()}-{self.attempted}"
        out = BUILD / "runs" / tag
        record_path = BUILD / "runs" / f"{tag}.record.json"
        log_path = BUILD / "runs" / f"{tag}.log"
        argv = [sys.executable, str(BENCH / "probe.py"), str(record_path), "1" if traced else "0"]
        argv += self.cli_args(threads, out)
        try:
            with open(log_path, "wb") as log:
                code, usage, run.wall_s, launched = spawn(argv, self.env, log)
            run.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
            if code != 0:
                tail = log_path.read_text(errors="replace")[-2000:]
                raise BenchError(f"exit code {code}:\n{tail}")
            run.record = load_json(record_path)
            spans = run.record["experiments"]
            if not spans:
                raise BenchError("the command ran no experiment")
            run.setup_s = spans[0][0] - launched
            run.experiment_s = sum(end - start for start, end in spans)
            digests, run.samples = self.checker.check(out)
            if self.checker.baseline is None:
                self.checker.baseline = digests
        except (BenchError, OSError, ValueError, KeyError, TypeError) as exc:
            run.error = f"{type(exc).__name__}: {exc}"
            self.failed += 1
            print(f"[{self.name}] command failed: {run.error}", file=sys.stderr)
        finally:
            shutil.rmtree(out, ignore_errors=True)
            for path in (record_path, log_path):
                path.unlink(missing_ok=True)
        return run


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def spawn(argv: list[str], env: dict, log) -> tuple[int, object, float, float]:
    """Run a child in a new process group to its end; (exit code, rusage, wall s, launch time).

    ``wait4`` gives the peak RSS of this child and of the pool workers it
    reaped, for this command alone. On a timeout the whole group is killed.
    A process of the group still alive LEFTOVER_GRACE_S after the child
    exits is killed and fails the command, so that nothing a command leaves
    running can slow the calibration loop or the next command.
    """
    launched = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
        start_new_session=True,
    )
    pgid = proc.pid  # the child leads its own session and group
    expired = threading.Event()

    def kill():
        expired.set()
        os.killpg(pgid, signal.SIGKILL)  # the leader is not yet reaped, so the group is ours

    watchdog = threading.Timer(CHILD_TIMEOUT_S, kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - launched
    finally:
        watchdog.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    grace = time.monotonic() + LEFTOVER_GRACE_S
    while group_alive(pgid) and time.monotonic() < grace:
        time.sleep(0.01)
    leftover = group_alive(pgid)
    if leftover:
        os.killpg(pgid, signal.SIGKILL)
    if expired.is_set():
        raise BenchError(f"timed out after {CHILD_TIMEOUT_S} s")
    if leftover:
        raise BenchError("processes of the command were still running after it exited; killed")
    return code, usage, wall, launched


def median(values) -> float:
    return float(statistics.median(values))


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of interpreter and small-array work."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(800_000):  # interpreter loop, like per-row CSV writing
        acc += i * i % 7
    gains = np.linspace(0.0, 1.0, 400).reshape(10, 10, 2, 2)
    mask = np.ones((10, 10))
    for _ in range(6_000):  # small numpy calls, like the per-frame rate kernel
        np.log2(1.0 + (mask * gains[:, :, 0, 1] + mask * gains[:, :, 1, 1]).sum(axis=0))
    return time.perf_counter() - start


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    """Medians over the commands of a run, in reference seconds.

    Each command's times are scaled by CALIBRATION_REF_S over the mean of
    the calibration loops timed just before and just after it; rates are
    divided by the same factor. Raw medians are printed alongside.
    """
    deadline = time.monotonic() + seconds
    runs: list[Run] = []
    calibrations = [calibrate()]
    while len(runs) < MIN_RUNS or time.monotonic() < deadline:
        runs.append(runner.run(runner.workload.threads))
        calibrations.append(calibrate())
    good = [
        (run, 2.0 * CALIBRATION_REF_S / (before + after))
        for run, before, after in zip(runs, calibrations, calibrations[1:])
        if run.error is None
    ]
    if not good:
        raise BenchError("no command succeeded")
    raw = {
        "wall_s": [r.wall_s for r, _ in good],
        "setup_s": [r.setup_s for r, _ in good],
        "samples_per_s": [r.samples / r.experiment_s for r, _ in good],
        "peak_rss_mb": [r.peak_rss_mb for r, _ in good],
    }
    scaled = {
        "wall_s": [r.wall_s * f for r, f in good],
        "setup_s": [r.setup_s * f for r, f in good],
        "samples_per_s": [r.samples / (r.experiment_s * f) for r, f in good],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    metrics = {name: median(v) for name, v in scaled.items()}
    lines = [
        f"  {name:<14} median {metrics[name]:.6g}  min {min(v):.6g}  max {max(v):.6g}  "
        f"raw median {median(raw[name]):.6g}  n={len(v)}"
        for name, v in scaled.items()
    ]
    lines.append(
        f"  calibration    median {median(calibrations):.6g} s  min {min(calibrations):.6g}  "
        f"max {max(calibrations):.6g}  (reference {CALIBRATION_REF_S} s)"
    )
    return metrics, lines


def self_check_counts(traced: list[Run]) -> dict:
    """Exact counts of the traced commands; they must agree across commands."""
    views = []
    for run in traced:
        counts = dict(run.record["counts"])
        for name, layer in run.record["layers"].items():
            counts[f"{name}.calls"] = layer["calls"]
        views.append(counts)
    for other in views[1:]:
        if other != views[0]:
            diff = {k: (views[0].get(k), other.get(k)) for k in views[0].keys() | other.keys()
                    if views[0].get(k) != other.get(k)}
            raise BenchError(f"traced commands of one seed disagree on exact counts: {diff}")
    return views[0]


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + seconds
    traced: list[Run] = []
    walls: dict[int, list[float]] = {1: [], 2: []}

    def enough() -> bool:
        return len(traced) >= MIN_TRACED and bool(walls[1]) and bool(walls[2])

    # a traced command, then an untraced pair whose order alternates
    schedule = [(1, True), (1, False), (2, False), (1, True), (2, False), (1, False)]
    for threads, trace in itertools.cycle(schedule):
        if time.monotonic() >= deadline and (enough() or runner.failed):
            break
        run = runner.run(threads, traced=trace)
        if run.error is None:
            if trace:
                traced.append(run)
            else:
                walls[threads].append(run.wall_s)
    if not enough():
        raise BenchError("too few traced or untraced commands succeeded")

    metrics = self_check_counts(traced)
    for name in traced[0].record["layers"]:
        self_s = median(r.record["layers"][name]["s"] for r in traced)
        if name == "cli":
            metrics["cli.self_s"] = self_s
        elif name == "evaluation.run_experiment":
            metrics["evaluation.run_experiment.self_s"] = self_s
        else:
            metrics[f"{name}.s"] = self_s
    one, two = median(walls[1]), median(walls[2])
    traced_wall = median(r.wall_s for r in traced)
    metrics["evaluation.pool_efficiency"] = one / (2.0 * two)
    metrics["trace.overhead_s"] = traced_wall - one
    lines = [
        f"  traced 1-worker wall_s median {traced_wall:.6g} (n={len(traced)}), "
        f"untraced 1-worker {one:.6g} (n={len(walls[1])}), 2-worker {two:.6g} (n={len(walls[2])})"
    ]
    idle = sorted(name for name, layer in traced[0].record["layers"].items() if not layer["calls"])
    if idle:
        lines.append(f"  not run on this workload, so reported as 0: {', '.join(idle)}")
    return metrics, lines


def select(metrics: dict, declared: list[dict]) -> dict:
    """Exactly the metrics BENCHMARK.json declares, with their units."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="spinopt CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="CLI --seed (default: the seed of the reference digests)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    for needed in (ROOT / "src" / "spinopt" / "cli.py", ROOT / workload.config):
        if not needed.is_file():
            print(f"error: {needed} not found; run from a spinopt source checkout",
                  file=sys.stderr)
            return 2
    declared = load_json(ROOT / "BENCHMARK.json")
    reference = load_json(REFERENCE)[args.workload]
    seed = reference["seed"] if args.seed is None else args.seed

    (BUILD / "runs").mkdir(parents=True, exist_ok=True)
    os.environ.update(PINNED_ENV)  # before calibrate() loads numpy in this process
    try:
        info = environment()
        runner = Runner(args.workload, seed, Checker(workload, seed, reference))
        runner.run(1)  # warm-up: fills the bytecode cache, fixes the 1-worker digests
        if runner.checker.baseline is None:
            raise BenchError("the warm-up command failed")
        if args.trace:
            metrics, lines = measure_layers(runner, args.seconds)
            metrics = select(metrics, declared["per_layer"])
        else:
            metrics, lines = measure_end_to_end(runner, args.seconds)
            metrics = select(metrics, declared["end_to_end"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    digest_note = "checked" if runner.checker.reference is not None else "skipped (not the reference seed)"
    print(f"workload {args.workload} seed {seed} trace {args.trace}: reference digests {digest_note}")
    print("\n".join(lines))
    print(f"  failed_frac    {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.6g} (commands, warm-up included)")
    print(json.dumps({
        "environment": info,
        "workload": args.workload,
        "seed": seed,
        "cli": ["spinopt"] + runner.cli_args(workload.threads, Path("<out>")),
        "sha256": runner.checker.baseline,
    }, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
