"""The metriclp benchmark: run one workload (or all) and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quantize --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

Each workload runs in its own child process (worker.py) with the BLAS and
OpenMP pools pinned to one thread.  With --trace 0 the result holds the
end-to-end metrics of BENCHMARK.json, with op and set-up times given at a
nominal machine speed (speed.py); with --trace 1 its per-layer metrics from
a run whose library calls are wrapped in spans.  Human-readable lines
come first; the last stdout line is the JSON result.  The exit code is 0
only when every op passed its output check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170  # per workload, under the 180 s a run may take
# import probes before and after the workload process, so that they span
# the run instead of one moment of it
IMPORT_SAMPLES = (1, 2)
THREAD_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import metriclp.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PIN)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine_meta() -> dict:
    """nproc, CPU model and cache sizes, read from /proc and /sys."""
    meta = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                meta["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            meta["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return meta


def import_samples(root: Path, env: dict[str, str], deadline: float, count: int) -> list[float]:
    """Times of `import metriclp.cli` in fresh interpreters, one at a time."""
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"import metriclp.cli failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_worker(root: Path, workload: str, seed: int, seconds: float, trace: int,
               env: dict[str, str], deadline: float) -> dict:
    workdir = root / ".bench_work" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(workdir)]
    if trace:
        argv += ["--spans-out", str(root / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl")]
    try:
        # run() kills the child on timeout and waits for it before raising
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker ran past the time limit") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile would fall under the median, so the
    maximum (p100) is reported instead.  Returns (value, percentile).
    """
    s = sorted(times)
    n = len(s)
    if n < 21:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(res: dict, import_s: float) -> tuple[dict, list[str]]:
    """Every end-to-end metric; the JSON result keeps those of BENCHMARK.json.

    The op and set-up times are at nominal machine speed (see speed.py);
    their wall-clock counterparts are printed beside them.
    """
    scaled, wall = res["op_scaled"], res["op_times"]
    tail_s, tail_pct = tail(scaled)
    wall_tail_s, _ = tail(wall)
    metrics = {
        "op_p50_s": (statistics.median(scaled), "s"),
        "op_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(res["setup_scaled"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "import_s": (import_s, "s"),
        "error_rate": (res["failed"] / res["attempted"], "ratio"),
        "op_wall_p50_s": (statistics.median(wall), "s"),
        "op_wall_tail_s": (wall_tail_s, "s"),
        "setup_wall_s": (statistics.median(res["setup_times"]), "s"),
        "reference_p50_s": (statistics.median(res["samples"]), "s"),
    }
    notes = {"op_tail_s": f"p{tail_pct:.0f} of {len(scaled)} timed ops",
             "setup_s": f"median of {len(res['setup_scaled'])} set-ups",
             "import_s": f"median of {sum(IMPORT_SAMPLES)} fresh interpreters",
             "error_rate": f"{res['failed']} of {res['attempted']} ops failed",
             "reference_p50_s": f"median of {len(res['samples'])} samples; "
                                f"nominal {res['nominal_s']} s"}
    if res["atoms_per_op"]:  # verify has no atoms
        metrics["atoms_per_s"] = (res["atoms_per_op"] * len(scaled) / sum(scaled), "atoms/s")
        notes["atoms_per_s"] = f"grids {res['grids']}"
    lines = [f"  {name:<40} {value:<14.6g} {unit}" + (f"  ({notes[name]})" if name in notes else "")
             for name, (value, unit) in metrics.items()]
    return metrics, lines


def per_layer(res: dict) -> tuple[dict, list[str]]:
    metrics = {name: (value, unit) for name, (value, unit) in res["layers"].items()}
    untraced = statistics.median(res["untraced_times"])
    traced = statistics.median(res["traced_times"])
    metrics["trace.untraced_op_p50_s"] = (untraced, "s")
    metrics["trace.traced_op_p50_s"] = (traced, "s")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    lines = [f"  {name:<48} {value:<14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"  tracing overhead: traced op_p50_s {traced:.4g} s over untraced "
                 f"{untraced:.4g} s = {traced / untraced:.4f} "
                 f"({len(res['traced_times'])} traced, {len(res['untraced_times'])} untraced ops, "
                 f"{res['span_count']} spans)")
    lines.append(f"  output digests identical with tracing on and off: {res['digests_match']}")
    return metrics, lines


def run_workload(root: Path, spec: dict, name: str, seed: int, seconds: float,
                 trace: int) -> tuple[dict, dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    env = child_env(root)
    if trace:
        res = run_worker(root, name, seed, seconds, trace, env, deadline)
        metrics, lines = per_layer(res)
        wanted = spec["per_layer"]
    else:
        before, after = IMPORT_SAMPLES
        samples = import_samples(root, env, deadline, before)
        res = run_worker(root, name, seed, seconds, trace, env, deadline)
        samples += import_samples(root, env, deadline, after)
        metrics, lines = end_to_end(res, statistics.median(samples))
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"{name}: no value for {missing}")
    correct = res["failed"] == 0 and res["digest"] is not None
    if trace:
        correct = correct and res["digests_match"]
    print(f"workload {name}  seed {seed}  trace {trace}: {res['attempted']} ops, "
          f"{res['failed']} failed, correct {correct}")
    for line in lines:
        print(line)
    for problem in res["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print(f"  digest sha256:{res['digest']}")
    meta = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            **machine_meta(), "versions": res["versions"], "thread_pin": THREAD_PIN,
            "grids": res["grids"]}
    print("  meta " + json.dumps(meta))
    picked = {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
              for m in wanted}
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"]}, picked


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "metriclp" / "cli.py").is_file():
        print("perfbench: run from the root of a metriclp checkout (src/metriclp is missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    summary = {"correct": True, "attempted": 0, "failed": 0}
    metrics = {}
    for name in names if args.workload == "all" else [args.workload]:
        try:
            status, picked = run_workload(root, spec, name, args.seed, seconds, args.trace)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        summary["correct"] = summary["correct"] and status["correct"]
        summary["attempted"] += status["attempted"]
        summary["failed"] += status["failed"]
        if args.workload == "all":
            picked = {f"{name}.{k}": v for k, v in picked.items()}
        metrics.update(picked)
    print(json.dumps({**summary, "metrics": metrics}))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
