"""spinlrl benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload verify-d3|oracle-d3|reduce-mix
                         --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout that holds ``src/spinlrl``; it
measures that source tree.  Every timed pass is a fresh interpreter (single
process, single thread, one client in a closed loop), so every cache starts
cold, as it does for a user of the ``spinlrl`` command.

``--trace 0`` runs ``SETUP_RUNS`` set-up-only children, then timed passes
until they have measured at least ``--seconds`` (always at least one), and
prints the end-to-end metrics: each op's median latency over the passes, at
nominal host speed (``speed.py``).  ``--trace 1`` runs one untraced and one
traced pass and prints the per-layer metrics, with ``trace.overhead_ratio``,
the traced wall time over the untraced one; the spans go to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, tail percentile, failures, digests).  The
exit code is 0 when every verdict and digest holds, 1 when one does not, and
2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

from metrics import END_TO_END, LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHILD = BENCH / "child.py"
WORKLOADS = ("verify-d3", "oracle-d3", "reduce-mix")
SETUP_RUNS = 5
TAIL_BEYOND = 10
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run (exit code 2)."""


def tail_percentile(samples: list) -> tuple:
    """(percentile, value, samples beyond it) for the highest whole
    percentile that still has at least TAIL_BEYOND samples above it, by
    nearest rank.  With too few samples for any, the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= TAIL_BEYOND:
            return q, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "gmpy2": find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def harrell_davis(samples: list, q: float) -> float:
    """The Harrell-Davis estimate of quantile ``q``: the mean of all order
    statistics, weighted by a beta distribution centred on ``q``.  With a few
    dozen ops it is much steadier than the single nearest-rank sample, which
    moves with whichever op happens to sit at that rank."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    if a < 1 or b < 1:  # the beta density is unbounded at an end
        return ordered[max(0, math.ceil(q * n) - 1)]
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) if 0 < x < 1 else 0.0

    steps = 32  # Simpson intervals per order statistic
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        w = density(lo) + density((i + 1) / n)
        w += sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append(w)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, mode: str, spans: Path = None) -> dict:
        """Run one child interpreter to completion and return its JSON."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next pass")
        spawned_at = time.monotonic()
        cmd = [
            sys.executable, str(CHILD),
            "--workload", self.args.workload, "--seed", str(self.args.seed), "--mode", mode,
            "--spawned-at", repr(spawned_at), "--scale", self.args.scale,
        ]
        if self.args.reference:
            cmd += ["--reference", self.args.reference]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        env.pop("PYTHONPATH", None)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining, env=env, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} pass did not finish within the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr.strip()}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(f"{mode} pass printed no result:\n{proc.stderr.strip()}") from None

    def end_to_end(self) -> tuple:
        setups = [self.child("setup") for _ in range(SETUP_RUNS)]
        passes = []
        while not passes or sum(p["wall_s"] for p in passes) < self.args.seconds:
            passes.append(self.child("timed"))
        setups += passes
        # Every pass runs the same ops on the same inputs from cold caches;
        # an op's latency is its median over the passes, at nominal host speed.
        scaled, raw = {}, {}
        for p in passes:
            for op, seconds, at_nominal in p["ops"]:
                scaled.setdefault(op, []).append(at_nominal)
                raw.setdefault(op, []).append(seconds)
        latencies_ms = [1000.0 * statistics.median(v) for v in scaled.values()]
        q, _, beyond = tail_percentile(latencies_ms)
        metrics = {
            "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
            "pass_s": sum(latencies_ms) / 1000.0,
            "op_p50_ms": harrell_davis(latencies_ms, 0.5),
            "op_tail_ms": harrell_davis(latencies_ms, q / 100),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        details = {
            "passes": len(passes),
            "pass_wall_s": [p["wall_s"] for p in passes],
            "unscaled": {
                "setup_s": statistics.median(s["setup_s"] for s in setups),
                "pass_s": sum(statistics.median(v) for v in raw.values()),
            },
            "setup_samples": len(setups),
            "op_samples": len(latencies_ms),
            "op_tail": {"percentile": q, "samples_beyond": beyond, "samples": len(latencies_ms)},
            "op_ms": dict(zip(scaled, latencies_ms)),
        }
        return passes, metrics, END_TO_END, details

    def traced(self) -> tuple:
        untraced = self.child("timed")
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{self.args.workload}-seed{self.args.seed}.json"
        traced = self.child("traced", spans)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
        details = {"untraced_wall_s": untraced["wall_s"], "traced_wall_s": traced["wall_s"], "spans": str(spans.relative_to(ROOT))}
        return [untraced, traced], metrics, LAYER_METRICS, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum measured time of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="input sizes; tiny is for the self-tests")
    parser.add_argument("--reference", help="reference digests (default bench/reference.json)")
    args = parser.parse_args(argv)

    runner = Runner(args)
    try:
        if not (ROOT / "src" / "spinlrl" / "__init__.py").is_file():
            raise BenchError(f"no spinlrl sources under {ROOT / 'src'}")
        passes, metrics, units, details = runner.traced() if args.trace else runner.end_to_end()
    except BenchError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = all(p["correct"] for p in passes)
    details.update(
        workload=args.workload,
        seed=args.seed,
        scale=args.scale,
        ops_per_pass=passes[0]["attempted"],
        failed_ratio=failed / attempted,
        wrong=sum(p["wrong"] for p in passes),
        digest=passes[0]["digest"],
        digest_checked=passes[0]["digest_checked"],
        digest_ok=all(p["digest_ok"] for p in passes),
        problems=[text for p in passes for text in p["problems"]],
        environment=environment(),
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "details": details}, indent=1) + "\n")

    for name, unit in units.items():
        print(f"{args.workload:12s} {name:32s} {metrics[name]:14.6g} {unit}")
    print(f"{args.workload:12s} {'failed_ratio':32s} {details['failed_ratio']:14.6g} ratio ({failed} of {attempted})")
    for text in details["problems"]:
        print(f"problem: {text}", file=sys.stderr)
    if not correct:
        print("bench/run.py: a verdict or the reference digest does not hold", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
