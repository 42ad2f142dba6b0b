"""One workload in one process: set up, run ops in a closed loop, check.

Started by run.py with the thread pools pinned and `src` on PYTHONPATH.
Prints one JSON object (the raw measurements) as the last stdout line.

    python3 perfbench/worker.py --workload relax --seed 0 --seconds 15 \
        --trace 0 --workdir .bench_work/relax
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None  # the first passing op's
        self.digests: set[str] = set()

    def run_op(self, tracer=None) -> tuple[float, float]:
        """One timed op, then its untimed output check; returns the op's
        (start, end) perf_counter window.  A tracer is installed for the op
        alone, outside the window."""
        if tracer:
            tracer.next_op()
            tracer.install()
        try:
            t0 = time.perf_counter()
            raw = self.workload.op()
            t1 = time.perf_counter()
        finally:
            if tracer:
                tracer.restore()
        self.attempted += 1
        problems, digest = self.workload.collect(raw)
        problems += [f"traceback: {err.strip().splitlines()[-1]}"
                     for rc, _out, err in raw if rc is None and err.strip()]
        self.digests.add(digest)
        if self.digest is None and not problems:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"output digest {digest[:12]} differs from the first op's "
                            f"{str(self.digest)[:12]}")
        if problems:
            self.failed += 1
            self.problems += problems
        return t0, t1

    def setup(self, workdir: Path, seed: int) -> tuple[float, float]:
        """Input generation plus one warm-up op; returns their window."""
        t0 = time.perf_counter()
        self.workload.setup(workdir, seed)
        _start, end = self.run_op()
        return t0, end

    def loop(self, seconds: float) -> list[tuple[float, float]]:
        """Closed loop: the next op starts when the previous one is done."""
        windows = []
        start = time.perf_counter()
        while True:
            windows.append(self.run_op())
            if time.perf_counter() - start >= seconds:
                return windows

    def traced_loop(self, seconds: float, tracer) -> tuple[list[float], list[float]]:
        """Untraced and traced ops in turn, on the same inputs, so that both
        kinds see the same machine; returns both kinds' op times."""
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            for times, op_tracer in ((untraced, None), (traced, tracer)):
                t0, t1 = self.run_op(op_tracer)
                times.append(t1 - t0)
            if time.perf_counter() - start >= seconds:
                return untraced, traced


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    import numpy
    import scipy

    import metriclp

    src = (Path.cwd() / "src").resolve()
    if src not in Path(metriclp.__file__).resolve().parents:
        print(f"metriclp was imported from {metriclp.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    runner = Runner(workload)
    workdir = Path(args.workdir)

    def set_up(count: int) -> list[tuple[float, float]]:
        windows = []
        for i in range(count):
            d = workdir / f"setup{i}"
            d.mkdir(parents=True)
            windows.append(runner.setup(d, args.seed))
        return windows

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "atoms_per_op": workload.atoms_per_op,
        "grids": workload.grids,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        # per-layer counts and self times: no speed samples, one set-up
        from tracer import Tracer, median_metrics, metric_units, per_op_metrics
        from metriclp import verify

        set_up(1)
        tracer = Tracer()
        untraced, traced = runner.traced_loop(args.seconds, tracer)
        check_ids = [c[0] for c in verify.CHECKS]
        units = metric_units(check_ids)
        layers = {name: [value, units[name]]
                  for name, value in median_metrics(per_op_metrics(tracer.spans, check_ids)).items()}
        if args.spans_out:
            tracer.write(Path(args.spans_out))
        result.update(
            untraced_times=untraced,
            traced_times=traced,
            layers=layers,
            # every op, traced or not, gave the warm-up op's digest
            digests_match=len(runner.digests) == 1,
            span_count=len(tracer.spans),
        )
    else:
        sampler = speed.Sampler()
        sampler.start()
        try:
            setups = set_up(workload.setups)
            ops = runner.loop(args.seconds)
        finally:
            sampler.stop()
        setups, ops = sampler.scale(setups), sampler.scale(ops)
        result.update(
            setup_times=[wall for wall, _ in setups],
            setup_scaled=[nominal for _, nominal in setups],
            op_times=[wall for wall, _ in ops],
            op_scaled=[nominal for _, nominal in ops],
            samples=sampler.samples(),
            nominal_s=speed.NOMINAL_S,
        )
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:20],
        digest=runner.digest,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
