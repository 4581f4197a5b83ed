"""End-to-end benchmark of ``coreglab train``.

    python3 bench/run.py --workload coreg_protocol --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

One invocation measures one workload (see workloads.py), or each in turn
when ``--workload`` is left out, for about ``--seconds`` seconds each:

1. It writes the workload's inputs from ``--seed`` under ``.bench_out/``,
   in this process, before any clock starts: one config per run seed.
2. Until the time is up it repeats a cycle, taking the run seeds in turn:
   a fresh process that imports coreglab, loads the config and builds the
   task data (set-up), then ``python -m coreglab.cli train CONFIG``. Every
   train run's outputs are checked: exit code 0, every expected artifact,
   a finite test metric, and metrics.csv and the epoch logs byte-identical
   to the first run of the same run seed.
3. A shared host's speed can change by a factor of two, for seconds to
   minutes at a time, and a process's CPU time changes with it, so raw
   times of the same code spread past any useful bound. So this process
   and its children share one CPU, and reference.py's probe times a fixed
   chunk of work on that CPU every 25 ms while each child runs. A child's
   time is its CPU time (user + system, from ``os.wait4``) times the
   probe's speed over the child's life: seconds on a host as fast as the
   one the benchmark was tuned on. ``run_s`` and ``setup_s`` are the
   medians of these over the run; raw wall and CPU times are printed too.
4. With ``--trace 1`` it then runs the first run seed's command once more
   under tracing.py, checks the traced call counts against those the
   config implies, and reports the per-layer metrics instead.

Children get BLAS pinned to one thread and this checkout's ``src/`` on
their path; the probe here runs on one BLAS thread too. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; every child process is one attempted operation.
``--smoke`` runs every workload at toy sizes, untraced and traced, and
checks the shape of each result.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

# Set before NumPy is first imported, so the probe in this process runs on
# one BLAS thread like the children.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("examples_per_s", "1/s"),
              ("peak_rss_mb", "MiB"), ("test_metric", "fraction"))
WORKLOADS = ("coreg_protocol", "crossweigh_folds", "tagging_eval")

SETUP_CODE = ("import sys, coreglab\n"
              "from coreglab import experiment\n"
              "experiment.build_task_data(experiment.load_config(sys.argv[1]))\n")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("COREGLAB_OUTPUT_ROOT", None)
    env.update(PINNED, PYTHONPATH=str(SRC))
    return env


class Child(NamedTuple):
    start: float  # perf_counter at spawn
    end: float  # perf_counter at exit
    cpu: float  # user + system seconds
    rss_mb: float  # peak resident memory in MiB
    code: int  # exit code

    @property
    def wall(self) -> float:
        return self.end - self.start


def spawn(argv, env, log_path) -> Child:
    """Run one child to its exit, with its output appended to log_path."""
    with open(log_path, "a") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode)


def read_test_metric(run_dir: Path) -> float:
    for line in (run_dir / "metrics.csv").read_text().splitlines()[1:]:
        seed, split, _, value = line.split(",")
        if seed == "median" and split == "test":
            return float(value)
    return math.nan


def check_run(plan, exit_code: int, reference) -> list[str]:
    """Problems with one train run's outputs; empty when it is correct."""
    if exit_code != 0:
        return [f"train exited with {exit_code}"]
    missing = [p for p in plan.artifacts if not (plan.run_dir / p).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    problems = []
    failure = json.loads((plan.run_dir / "manifest.json").read_text())["failure"]
    if failure is not None:
        problems.append(f"manifest records a failure: {failure}")
    if not math.isfinite(read_test_metric(plan.run_dir)):
        problems.append("test metric is not finite")
    for rel, data in (reference or {}).items():
        if (plan.run_dir / rel).read_bytes() != data:
            problems.append(f"{rel} differs from the first run")
    return problems


def check_counts(expected: dict, counted: dict) -> list[str]:
    return [f"{key}: traced {counted.get(key, 0)}, config implies {value}"
            for key, value in sorted(expected.items()) if counted.get(key, 0) != value]


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"seed": seed, "cpus": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": child_env()["OPENBLAS_NUM_THREADS"]}


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"n={len(values)}, q1 {q1:.4f}, median {median:.4f}, q3 {q3:.4f} s"


class Operations:
    """Counts child processes and the checks they fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what: str, issues: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(issues)
        self.problems.extend(f"{what}: {issue}" for issue in issues)
        return not issues


def traced_run(plan, env, out: Path, ops: Operations, probe, first_outputs,
               run_s: float):
    """Run the train command once under tracing.py; returns the per-layer
    (metrics, units, report lines, detail times)."""
    import tracing

    shutil.rmtree(plan.run_dir, ignore_errors=True)
    spans = out / "spans.json"
    spans.unlink(missing_ok=True)
    child = spawn(
        [sys.executable, str(HERE / "tracing.py"), str(plan.config_path), str(spans)],
        env, out / "trace.log")
    traced_s = child.cpu * probe.speed(child.start, child.end)
    issues = check_run(plan, child.code, first_outputs)
    if not spans.is_file():
        raise RuntimeError(f"the traced run wrote no spans: {issues}")
    layer, details, counted = tracing.summarize(json.loads(spans.read_text()))
    ops.record("traced train", issues + check_counts(plan.counts, counted))
    layer["trace.overhead_s"] = traced_s - run_s
    metrics = {key: layer[key] for key, _, _ in tracing.LAYER_METRICS}
    units = {key: unit for key, unit, _ in tracing.LAYER_METRICS}
    report = [f"{key} {metrics[key]!r} {unit}  # {note}"
              for key, unit, note in tracing.LAYER_METRICS]
    report += [f"{key} {value!r} s" if value is not None
               else f"{key}: not called on this workload"
               for key, value in details.items()]
    report.append("time waited: not applicable; coreglab train is one "
                  "process with no queues")
    report.append(f"traced run {traced_s!r} s at reference speed ({child.wall!r} s "
                  f"wall) against the untraced run_s {run_s!r} s")
    return metrics, units, report, details


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> dict:
    """Measure one workload; returns the result line, a report and a record."""
    import workloads
    from reference import Probe

    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    plans = workloads.make_inputs(name, seed, out, scale)
    examples = {plan.examples for plan in plans}
    if len(examples) != 1:
        raise RuntimeError(f"{name}: run seeds differ in rows consumed: {examples}")
    examples = examples.pop()
    env = child_env()
    ops = Operations()

    # Untimed warm-up: compiles the package's bytecode cache.
    code = spawn([sys.executable, "-c", "import coreglab, coreglab.cli"],
                 env, out / "setup.log").code
    ops.record("warm-up", [f"exited with {code}"] if code else [])

    # Every run seed runs at least twice; then cycles go on while the next
    # one is expected to end within the window.
    setups, trains = [], []
    first_outputs, test_metrics = {}, {}
    cycle = 0
    probe = Probe().start()
    try:
        start = time.perf_counter()
        while (cycle < 2 * len(plans)
               or (time.perf_counter() - start) * (cycle + 1) / cycle <= seconds):
            plan = plans[cycle % len(plans)]
            cycle += 1
            child = spawn([sys.executable, "-c", SETUP_CODE, str(plan.config_path)],
                          env, out / "setup.log")
            if ops.record("setup", [f"exited with {child.code}"] if child.code else []):
                setups.append((child, probe.speed(child.start, child.end)))
            shutil.rmtree(plan.run_dir, ignore_errors=True)
            child = spawn(
                [sys.executable, "-m", "coreglab.cli", "train", str(plan.config_path)],
                env, out / "train.log")
            key = str(plan.config_path)
            if ops.record("train", check_run(plan, child.code, first_outputs.get(key))):
                trains.append((child, probe.speed(child.start, child.end)))
                if key not in first_outputs:
                    first_outputs[key] = {rel: (plan.run_dir / rel).read_bytes()
                                          for rel in plan.compared}
                    test_metrics[key] = read_test_metric(plan.run_dir)
        if not setups or len(test_metrics) < len(plans):
            raise RuntimeError(f"{name}: not every run seed succeeded: {ops.problems}")

        run_s = statistics.median(child.cpu * speed for child, speed in trains)
        metrics = {
            "run_s": run_s,
            "setup_s": statistics.median(child.cpu * speed for child, speed in setups),
            "examples_per_s": examples / run_s,
            "peak_rss_mb": statistics.median(child.rss_mb for child, _ in trains),
            "test_metric": statistics.median(test_metrics.values()),
        }
        units = dict(END_TO_END)
        report = [f"{key} {value!r} {units[key]}" for key, value in metrics.items()]
        for label, children in (("train", trains), ("set-up", setups)):
            report.append(f"{label} processes: raw wall {spread([c.wall for c, _ in children])}; "
                          f"raw CPU {spread([c.cpu for c, _ in children])}; "
                          f"host speed {spread([v for _, v in children])[:-2]}")
        report.append(f"rows consumed by optimizer steps per train process: {examples}; "
                      f"run seeds {len(plans)}, cycles {cycle}")
        details = {}

        if trace:
            plan = plans[0]
            metrics, units, report, details = traced_run(
                plan, env, out, ops, probe, first_outputs[str(plan.config_path)], run_s)
    finally:
        probe.stop()

    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed,
              "metrics": {key: {"value": value, "unit": units[key]}
                          for key, value in metrics.items()}}
    record = {"workload": name, "scale": scale, "trace": trace,
              "environment": environment(seed), "result": result,
              "details": details, "problems": ops.problems,
              "train": [(c.wall, c.cpu, v) for c, v in trains],
              "setup": [(c.wall, c.cpu, v) for c, v in setups],
              "probe": probe.samples}
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return {"result": result, "report": report, "record": record}


def check_shape(result: dict, trace: bool) -> list[str]:
    """Differences between a result line and BENCHMARK.json's metric lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    got = {key: entry["unit"] for key, entry in result.get("metrics", {}).items()}
    if got != wanted:
        problems.append(f"metrics {got} != {wanted}")
    for key, entry in result.get("metrics", {}).items():
        if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{key} is not a finite number")
    return problems


def smoke(seed: int) -> int:
    failures = 0
    for name in WORKLOADS:
        for trace in (False, True):
            outcome = run_workload(name, seed, 0, trace, scale="smoke")
            problems = check_shape(outcome["result"], trace) + outcome["record"]["problems"]
            print(f"smoke {name} trace={int(trace)}: "
                  f"{'; '.join(problems) if problems else 'ok'}")
            failures += bool(problems)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="the workload to measure (default: each in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy sizes and check the result shape")
    args = parser.parse_args(argv)
    if not (SRC / "coreglab" / "__init__.py").is_file():
        print(f"error: no coreglab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The probe must share the children's CPU to see the speed they get.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.smoke:
        return smoke(args.seed)
    for name in [args.workload] if args.workload else WORKLOADS:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
        env = outcome["record"]["environment"]
        print(f"workload {name}: " + ", ".join(f"{k} {v}" for k, v in env.items()))
        for line in outcome["report"]:
            print(line)
        for problem in outcome["record"]["problems"]:
            print(f"FAILED {problem}")
        print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
