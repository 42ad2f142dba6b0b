#!/usr/bin/env python3
"""Time the layers under `distance`, one bundled target per row.

For each target of the benchmark's distance workload
(`perfbench/workloads.py` `Distance.TARGETS`), writes two
`gen --kind random` maps on that target's grid, scaled by N/256 (so
256 x 256, spd3 128 x 128, at N = 256), into a temporary directory,
then times each layer on them, best of --repeat:

    load     fileio.load_any_map of one map file (its payload check included)
    check    space.check_payload of one map's values
    kernel   space._distance_many on the two value stacks, whole
    wrapper  space.distance_many on the same stacks (cut into blocks)
    tkernel  space._distance_many on a (c, r) table request, whole: the
             first 64 rows of one map against the first 1,024 of the other
    twrapper space.distance_many on the same table request (cut into blocks)

and prints one table, in milliseconds.  Each kernel and wrapper result
pair is compared bit for bit, and a mismatch ends the script with exit 1.

    PYTHONPATH=src python3 scripts/kernel_timings.py --grid 256 --repeat 5
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from metriclp import cli, fileio

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import Distance  # noqa: E402

LAYERS = ["load", "check", "kernel", "wrapper", "tkernel", "twrapper"]


def best_ms(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def gen(target: str, side: int, seed: int, out: Path) -> None:
    argv = ["gen", "--kind", "random", "--space", target, "--grid", f"{side}x{side}",
            "--seed", str(seed), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"gen failed: {' '.join(argv)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--grid", type=int, default=256,
                    help="grid side N; each benchmark grid is scaled by N/256 (spd3 gets N // 2)")
    ap.add_argument("--repeat", type=int, default=5, help="timed runs per layer; the best is shown")
    args = ap.parse_args()

    print(f"{'target':<12}{'grid':>10}" + "".join(f"{name + ' ms':>12}" for name in LAYERS))
    with tempfile.TemporaryDirectory() as tmp:
        for i, (target, n) in enumerate(Distance.TARGETS):
            side = n * args.grid // 256
            paths = [Path(tmp, f"{side_name}-{target}.json") for side_name in "ab"]
            for j, path in enumerate(paths):
                gen(target, side, 2 * i + j, path)
            f, g = (fileio.load_any_map(path) for path in paths)
            space, a, b = f.space, f.values, g.values
            centers, rows = a[:64, None], b[None, :1024]
            for x, y in ((a, b), (centers, rows)):
                if not np.array_equal(space._distance_many(x, y), space.distance_many(x, y)):
                    print(f"{target}: wrapper and kernel disagree", file=sys.stderr)
                    return 1
            times = [
                best_ms(lambda: fileio.load_any_map(paths[0]), args.repeat),
                best_ms(lambda: space.check_payload(a), args.repeat),
                best_ms(lambda: space._distance_many(a, b), args.repeat),
                best_ms(lambda: space.distance_many(a, b), args.repeat),
                best_ms(lambda: space._distance_many(centers, rows), args.repeat),
                best_ms(lambda: space.distance_many(centers, rows), args.repeat),
            ]
            grid = f"{side}x{side}"
            print(f"{target:<12}{grid:>10}" + "".join(f"{t:>12.2f}" for t in times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
