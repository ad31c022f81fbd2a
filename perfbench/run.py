#!/usr/bin/env python3
"""Benchmark of degenloci: CLI jobs timed end to end, and traced per module.

    python3 perfbench/run.py --workload ring-windows --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; the package is used from ``src``
(put on PYTHONPATH for every job), not from an installation.  Each job is
one fresh ``python -m degenloci ...`` process, run one at a time, with
DEGENLOCI_CACHE_DIR removed from its environment.  A run repeats whole
rounds of its workload's job list while another round still fits in
``--seconds``, checks every output (see workloads.py) and prints, as the
last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` gives the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
spends half the time on untraced rounds and half on rounds in which every
job runs under trace_boot.py, and gives the per-layer metrics: self times
and call counts per module, work counters, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import trace_boot  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

SETUP_REPEATS = 7
JOB_TIMEOUT_S = 150
perf = time.perf_counter


@dataclass
class Invocation:
    job: Job
    seconds: float
    stdout_bytes: int
    failure: Optional[str] = None   # why the operation failed, if it did
    expected: bool = False          # failed exactly as its documented fault does
    spans: Optional[dict] = None    # per-layer totals of a traced job


class Runner:
    """Runs jobs as fresh processes inside one scratch directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        env = dict(os.environ)
        env.pop("DEGENLOCI_CACHE_DIR", None)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env

    def setup_seconds(self) -> float:
        """Median time for a fresh interpreter to run ``degenloci --version``,
        which imports the whole package."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = perf()
            proc = subprocess.run([sys.executable, "-m", "degenloci", "--version"],
                                  cwd=self.workdir, env=self.env, capture_output=True,
                                  timeout=JOB_TIMEOUT_S)
            times.append(perf() - start)
            if proc.returncode != 0 or not proc.stdout.startswith(b"degenloci "):
                raise RuntimeError(f"degenloci --version failed: {proc.stderr[-500:]!r}")
        return statistics.median(times)

    def round(self, jobs: list[Job], traced: bool) -> list[Invocation]:
        round_dir = Path(tempfile.mkdtemp(dir=self.workdir))
        try:
            (round_dir / "blocker").write_text("a regular file\n")
            outputs: dict[str, bytes] = {}
            return [self._invoke(job, round_dir, outputs, traced) for job in jobs]
        finally:
            shutil.rmtree(round_dir, ignore_errors=True)

    def _invoke(self, job: Job, round_dir: Path, outputs: dict, traced: bool
                ) -> Invocation:
        argv = [arg.replace("{work}", str(round_dir)) for arg in job.argv]
        spans_file = round_dir / f"spans-{job.label}.json"
        cmd = ([sys.executable, str(HERE / "trace_boot.py"), str(spans_file)] if traced
               else [sys.executable, "-m", "degenloci"]) + argv
        start = perf()
        try:
            proc = subprocess.run(cmd, cwd=round_dir, env=self.env,
                                  capture_output=True, timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Invocation(job, perf() - start, 0, f"timed out after {JOB_TIMEOUT_S} s")
        seconds = perf() - start
        outputs[job.label] = proc.stdout
        result = Invocation(job, seconds, len(proc.stdout))
        result.failure = _judge(job, proc, outputs)
        result.expected = (result.failure is not None and job.known_fault is not None
                           and job.known_fault in result.failure)
        if traced and spans_file.exists():
            result.spans = layer_totals(json.loads(spans_file.read_text()))
        return result


def _judge(job: Job, proc: subprocess.CompletedProcess, outputs: dict) -> Optional[str]:
    if proc.returncode != job.exit_code:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return f"exit {proc.returncode}, expected {job.exit_code}: {tail}"
    if job.exit_code != 0:
        lines = proc.stderr.decode("utf-8", "replace").strip().splitlines()
        if len(lines) != 1 or "Traceback" in lines[0]:
            return f"expected a one-line message, got {len(lines)} lines"
        return None
    if job.same_as is not None and proc.stdout != outputs.get(job.same_as):
        return f"stdout differs from {job.same_as}"
    try:
        job.check(proc.stdout.decode("utf-8"))
    except Exception as exc:  # any parse or check error fails this operation only
        return f"{type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------------------
# traced runs


def layer_totals(doc: dict) -> dict[str, float]:
    """Self time and calls per span name, plus the job's work counters.

    A span's self time is its duration minus the durations of its children,
    so the self times of one job add up to the time spent inside the wrapped
    functions, without double counting.
    """
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    totals: dict[str, float] = dict(doc["counts"])
    fallbacks = set()
    inside = doc["import_s"]
    for i, span in enumerate(spans):
        if span is None:
            continue
        nid, start, end, parent = span
        name = names[nid]
        totals[f"{name}_s"] = totals.get(f"{name}_s", 0.0) + (end - start) - child[i]
        totals[f"{name}_calls"] = totals.get(f"{name}_calls", 0) + 1
        if parent < 0:
            inside += end - start
        elif name in ("intlinalg.modp", "intlinalg.smith") \
                and names[spans[parent][0]] == "intlinalg.torsion":
            fallbacks.add(parent)
    totals["intlinalg.torsion_fallbacks"] = len(fallbacks)
    totals["cli.import_s"] = doc["import_s"]
    totals["trace.inside_s"] = inside
    return totals


def per_layer_metrics(untraced: list[list[Invocation]],
                      traced: list[list[Invocation]]) -> dict[str, float]:
    """Per traced round: summed self times, calls and counters (averaged over
    traced rounds), plus job breakdowns from the untraced rounds."""
    sums: dict[str, float] = dict.fromkeys(trace_boot.COUNTERS, 0)
    for name in trace_boot.SPAN_NAMES:
        sums[f"{name}_s"] = sums[f"{name}_calls"] = 0
    for rnd in traced:
        for inv in rnd:
            for key, value in (inv.spans or {}).items():
                sums[key] = sums.get(key, 0) + value
            sums["cli.output_bytes"] = sums.get("cli.output_bytes", 0) + inv.stdout_bytes
    out = {key: value / len(traced) for key, value in sums.items()}
    out["cli.self_s"] = out["cli.main_s"]
    out["trace.bookkeeping_s"] = out["trace.count_s"]
    torsion = out["intlinalg.torsion_calls"]
    out["intlinalg.minor_certified_ratio"] = (
        (torsion - out.get("intlinalg.torsion_fallbacks", 0)) / torsion if torsion else 0.0)
    traced_wall = statistics.mean(round_wall(r) for r in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - statistics.mean(round_wall(r) for r in untraced)
    out["trace.unaccounted_s"] = traced_wall - out.get("trace.inside_s", 0.0)
    out.update(job_breakdowns(untraced))
    return out


def job_breakdowns(rounds: list[list[Invocation]]) -> dict[str, float]:
    def family_seconds(rnd, family):
        return sum(inv.seconds for inv in rnd if inv.job.family == family)

    def cells_rate(rnd):
        done = [inv for inv in rnd if inv.job.cells and inv.failure is None]
        seconds = sum(inv.seconds for inv in done)
        return sum(inv.job.cells for inv in done) / seconds if seconds else 0.0

    warm = [inv.seconds for rnd in rounds for inv in rnd
            if inv.job.cache == "warm" and inv.job.known_fault is None
            and inv.failure is None]
    return {
        "jobs.grassmannian_s": statistics.median(family_seconds(r, "grassmannian")
                                                 for r in rounds),
        "jobs.isotropic_s": statistics.median(family_seconds(r, "isotropic")
                                              for r in rounds),
        "jobs.cells_per_s": statistics.median(cells_rate(r) for r in rounds),
        "jobs.warm_cmd_ms": 1000 * statistics.median(warm) if warm else 0.0,
    }


# ---------------------------------------------------------------------------
# end-to-end metrics


def round_wall(rnd: list[Invocation]) -> float:
    """Wall time of one pass over the job list: the summed job times."""
    return sum(inv.seconds for inv in rnd)


def end_to_end_metrics(rounds: list[list[Invocation]], setup_s: float
                       ) -> dict[str, float]:
    cold = [inv.seconds for rnd in rounds for inv in rnd
            if inv.job.cache != "warm" and inv.job.known_fault is None
            and inv.failure is None]
    return {
        "wall_s": statistics.median(round_wall(r) for r in rounds),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "cold_cmd_ms": 1000 * statistics.median(cold) if cold else 0.0,
    }


def run_rounds(runner: Runner, jobs: list[Job], seconds: float, traced: bool
               ) -> list[list[Invocation]]:
    """Whole rounds, as many as fit in ``seconds`` (at least one)."""
    rounds = []
    start = perf()
    while True:
        rounds.append(runner.round(jobs, traced))
        elapsed = perf() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "degenloci" / "__init__.py").is_file():
        print(f"run.py: no degenloci sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        runner = Runner(workdir)
        jobs = WORKLOADS[args.workload](args.seed)
        setup_s = runner.setup_seconds()
        if args.trace:
            untraced = run_rounds(runner, jobs, args.seconds / 2, traced=False)
            traced = run_rounds(runner, jobs, args.seconds / 2, traced=True)
            rounds = untraced + traced
            values = per_layer_metrics(untraced, traced)
        else:
            rounds = run_rounds(runner, jobs, args.seconds, traced=False)
            values = end_to_end_metrics(rounds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    invocations = [inv for rnd in rounds for inv in rnd]
    failures = [inv for inv in invocations if inv.failure is not None]
    correct = all(inv.expected for inv in failures)
    for inv in {inv.job.label: inv for inv in failures}.values():
        tag = "documented fault" if inv.expected else "WRONG"
        print(f"[{tag}] {inv.job.label}: {inv.failure}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({"run": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "jobs_per_round": len(jobs),
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "attempted": len(invocations),
        "failed": len(failures)}}))
    print(json.dumps({"correct": correct, "attempted": len(invocations),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
