"""One pass of one workload in a fresh interpreter; ``run.py`` starts it.

    python3 bench/child.py --workload NAME --seed N --mode setup|timed|traced
                           --spawned-at T [--scale full|tiny] [--reference PATH]
                           [--spans PATH]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, importing spinlrl and
making the seeded inputs, less the host-speed sample taken before the
import; ``setup_scaled_s`` is the same at nominal host speed (``speed.py``).
``setup`` mode stops there.  ``timed`` and ``traced`` modes then run the
workload once, from caches that are provably cold, check its verdicts and
print one JSON object as the last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROBLEMS_SHOWN = 20


def fail(message: str, code: int = 2):
    print(f"bench/child.py: {message}", file=sys.stderr)
    sys.exit(code)


def import_spinlrl():
    """Import spinlrl from this checkout's src/, never from anywhere else."""
    if not (SRC / "spinlrl" / "__init__.py").is_file():
        fail(f"no spinlrl sources under {SRC.name}/ of the checkout")
    sys.path.insert(0, str(SRC))
    import spinlrl

    if Path(spinlrl.__file__).resolve().parent != (SRC / "spinlrl").resolve():
        fail(f"imported spinlrl from {spinlrl.__file__}, not from the checkout")


def require_cold_caches(tracing) -> None:
    """A warm cache would turn into a fake speed-up: every spinlrl cache,
    the operator builders' included, must be empty before the clock starts."""
    from spinlrl import clifford, ops, oracle, weyl

    warm = [
        f"{module.__name__}.{name}"
        for module in (ops, weyl, clifford, oracle)
        for name, fn in tracing.lru_caches(module).items()
        if fn.cache_info().currsize
    ]
    if warm:
        fail(f"caches are not cold at the start of the timed run: {', '.join(warm)}", 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--reference", default=str(BENCH / "reference.json"))
    parser.add_argument("--spans", help="where the traced mode writes its spans")
    args = parser.parse_args(argv)

    import speed

    sampling_s = time.monotonic()
    chunk_before = speed.chunk_time()
    sampling_s = time.monotonic() - sampling_s
    import_spinlrl()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, workloads.SCALES[args.scale])
    setup_s = time.monotonic() - args.spawned_at - sampling_s
    setup = {"setup_s": setup_s, "setup_scaled_s": speed.scaled(setup_s, [chunk_before, speed.chunk_time()])}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    with open(args.reference) as fh:
        reference = json.load(fh)
    require_cold_caches(tracing)
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer().install()
        tracer.start()
    clock = workloads.OpClock(hooks=tracer)
    start = time.perf_counter()
    outputs = workload.run(inputs, clock)
    wall_s = time.perf_counter() - start
    layers = None
    if tracer is not None:
        tracer.stop()
        tracer.uninstall()
        layers = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans, {"workload": args.workload, "seed": args.seed, "scale": args.scale})
    outcome = workload.verdicts(inputs, outputs, clock.records, reference)
    result = {
        **setup,
        "wall_s": wall_s,
        "ops": [[r.op_id, r.seconds, r.scaled] for r in clock.records],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "wrong": outcome.wrong,
        "correct": outcome.correct,
        "digest": outcome.digest,
        "digest_checked": outcome.digest_checked,
        "digest_ok": outcome.digest_ok,
        "problems": outcome.problems[:PROBLEMS_SHOWN],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
