"""The benchmark's four workloads.

Each workload drives the CLI in-process through `metriclp.cli.main(argv)`.
`setup` writes the inputs for one seed, `op` is the timed unit of work
(CLI calls only), and `collect` reads the op's outputs back, checks them
and returns a digest of the labels, values and distances they hold.
See README.md for why each workload exists and which layer it loads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import traceback
from pathlib import Path

import numpy as np

import checks


def run_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """One CLI call; a traceback out of main counts as exit code None."""
    from metriclp import cli  # looked up per call, so traced wrappers apply

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # noqa: BLE001 - a crash is a failed op, not a crashed benchmark
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _read_json(path: Path):
    return json.loads(path.read_text())


def _values_digest(path: Path) -> str:
    """sha256 of a map file's values, inline or in its binary sidecar."""
    obj = _read_json(path)
    if "values_file" in obj:
        return hashlib.sha256((path.parent / obj["values_file"]).read_bytes()).hexdigest()
    return checks.digest(obj["values"])


def _sub_seed(seed: int, tag: int) -> int:
    return int(np.random.default_rng([seed, tag]).integers(2**31))


class Workload:
    name = ""
    setups = 2  # set-ups per untraced run; setup_s is their median
    atoms_per_op = 0
    grids: dict[str, str] = {}

    def setup(self, workdir: Path, seed: int) -> None:
        raise NotImplementedError

    def op(self) -> list:
        raise NotImplementedError

    def collect(self, raw: list) -> tuple[list[str], str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------


def smooth_ramp(coords: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A smooth field over [0,1]^2 scaled to [0, 1], exactly 0 on atom 0.

    Three plane waves with random directions, frequencies and phases make
    the atom values distinct, so the mapping has one distinct value per
    atom whatever the seed.
    """
    angle = rng.uniform(0.0, 2.0 * math.pi, size=3)
    freq = rng.uniform(0.6, 1.4, size=3)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=3)
    k = np.stack([np.cos(angle), np.sin(angle)], axis=1) * freq[:, None]
    w = np.sin(2.0 * math.pi * coords @ k.T + phase).sum(axis=1)
    t = np.abs(w - w[0])
    return t / t.max()


class Quantize(Workload):
    """Three quantizers on 32x32 smooth fields.

    The spd2 anchors are fixed matrices turned by a random congruence and
    the simplex3 anchors fixed weights under a random permutation: both
    keep every distance the quantizers see, including the ball radius the
    sup mode nets, so the work per op does not depend on the seed.
    """

    name = "quantize"
    GRID = 32
    EPS = 0.1
    SPD_A = np.diag([math.exp(0.4), math.exp(-0.3)])
    SPD_B = np.diag([math.exp(-0.5), math.exp(0.5)])
    SPD_BASE = [1.0, 0.0, 0.0, 1.0]
    SIMPLEX_A = np.array([0.5, 0.3, 0.2])
    SIMPLEX_B = np.array([0.35, 0.45, 0.2])
    SIMPLEX_BASE = [0.25, 0.25, 0.5]
    atoms_per_op = 3 * GRID * GRID
    grids = {"spd2": "32x32", "simplex3": "32x32"}

    def setup(self, workdir: Path, seed: int) -> None:
        from metriclp import fileio
        from metriclp.domain import Domain
        from metriclp.maps import MeasurableMap
        from metriclp.spaces import make_space

        rng = np.random.default_rng([seed, 1])
        domain = Domain.grid(2, self.GRID)
        coords = domain.coordinates()
        n = domain.atom_count

        theta = rng.uniform(0.0, math.pi)
        q = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])

        def turned(m):
            c = q @ m @ q.T
            return (0.5 * (c + c.T)).reshape(-1)

        spd = make_space("spd2")
        spd_values = spd.geodesic_many(
            np.tile(turned(self.SPD_A), (n, 1)), np.tile(turned(self.SPD_B), (n, 1)),
            smooth_ramp(coords, rng),
        )
        perm = rng.permutation(3)
        simplex = make_space("simplex3")
        simplex_values = simplex.geodesic_many(
            np.tile(self.SIMPLEX_A[perm], (n, 1)), np.tile(self.SIMPLEX_B[perm], (n, 1)),
            smooth_ramp(coords, rng),
        )
        fileio.save_map(MeasurableMap(domain, spd, spd_values), workdir / "spd2.json")
        fileio.save_map(MeasurableMap(domain, simplex, simplex_values), workdir / "simplex3.json")

        self.inputs = {"spd2": spd_values, "simplex3": simplex_values}
        self.weights = domain.weights
        eps = str(self.EPS)
        self.calls = []
        for mode, space, extra in (
            ("countable", "spd2", []),
            ("almost-simple", "spd2", ["--p", "2", "--base-value", json.dumps(self.SPD_BASE)]),
            ("sup", "simplex3", ["--base-value", json.dumps(self.SIMPLEX_BASE)]),
        ):
            out, report = workdir / f"q-{mode}.json", workdir / f"r-{mode}.json"
            argv = ["quantize", str(workdir / f"{space}.json"), "--mode", mode, "--eps", eps,
                    *extra, "--out", str(out), "--report", str(report)]
            self.calls.append((mode, space, argv, out, report))

    def op(self) -> list:
        return [run_cli(argv) for _mode, _space, argv, _out, _report in self.calls]

    def collect(self, raw: list) -> tuple[list[str], str]:
        problems, parts = [], []
        for (mode, space, _argv, out, report), (rc, stdout, _err) in zip(self.calls, raw):
            call = {"mode": mode, "eps": self.EPS, "rc": rc, "space": space,
                    "input": self.inputs[space], "weights": self.weights, "p": 2,
                    "base": self.SPD_BASE}
            if rc == 0:
                simple = _read_json(out)
                call.update(summary=_last_json(stdout), report=_read_json(report),
                            labels=simple["labels"], table=simple["values"])
            problems += checks.check_quantize_call(call)
            if rc == 0:
                parts.append([mode, call["labels"], call["table"],
                              call["summary"]["achieved_error"], call["summary"]["range_size"]])
        return problems, checks.digest(parts)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


class Distance(Workload):
    """D_1, D_2 and D_inf between two random maps, on every target."""

    name = "distance"
    TARGETS = [("euclidean3", 256), ("spd2", 256), ("simplex3", 256),
               ("histogram8", 256), ("circle", 256), ("spd3", 128)]
    atoms_per_op = sum(n * n for _t, n in TARGETS)
    grids = {t: f"{n}x{n}" for t, n in TARGETS}

    def setup(self, workdir: Path, seed: int) -> None:
        self.calls = []
        for i, (target, n) in enumerate(self.TARGETS):
            files = []
            for side in ("a", "b"):
                path = workdir / f"{side}-{target}.json"
                rc, _out, err = run_cli(["gen", "--kind", "random", "--space", target,
                                         "--grid", f"{n}x{n}",
                                         "--seed", str(_sub_seed(seed, 10 * i + len(files))),
                                         "--out", str(path)])
                if rc != 0:
                    raise RuntimeError(f"gen {target} failed: {err.strip()}")
                files.append(str(path))
            self.calls.append((target, ["distance", *files, "--p", "1,2,inf"]))

    def op(self) -> list:
        return [run_cli(argv) for _target, argv in self.calls]

    def collect(self, raw: list) -> tuple[list[str], str]:
        problems, parts = [], []
        for (target, _argv), (rc, stdout, _err) in zip(self.calls, raw):
            report = json.loads(stdout) if rc == 0 else None
            problems += checks.check_distance_report(target, rc, report)
            parts.append([target, report and report["distances"]])
        return problems, checks.digest(parts)


# ---------------------------------------------------------------------------
# relax
# ---------------------------------------------------------------------------


class Relax(Workload):
    """gen piecewise -> continuify -> distance on a 256x256 spd2 grid."""

    name = "relax"
    GRID = 256
    atoms_per_op = GRID * GRID
    grids = {"spd2": "256x256"}

    def setup(self, workdir: Path, seed: int) -> None:
        self.piecewise = workdir / "piecewise.json"
        self.relaxed = workdir / "relaxed.json"
        self.report = workdir / "relax-report.json"
        grid = f"{self.GRID}x{self.GRID}"
        self.argv = [
            ["gen", "--kind", "piecewise", "--space", "spd2", "--grid", grid, "--regions", "8",
             "--seed", str(_sub_seed(seed, 3)), "--out", str(self.piecewise)],
            ["continuify", str(self.piecewise), "--background", "[1,0,0,1]", "--p", "1",
             "--eps", "0.5", "--order", "2", "--report", str(self.report), "--out", str(self.relaxed)],
            ["distance", str(self.relaxed), str(self.piecewise), "--p", "1,2,inf"],
        ]

    def op(self) -> list:
        return [run_cli(argv) for argv in self.argv]

    def collect(self, raw: list) -> tuple[list[str], str]:
        (rc_gen, _o, _e), (rc_cont, cont_out, _e2), (rc_dist, dist_out, _e3) = raw
        out = {"rc": {"gen": rc_gen, "continuify": rc_cont, "distance": rc_dist}}
        if rc_gen != 0 or rc_cont != 0 or rc_dist != 0:
            return checks.check_relax(out), ""
        out["summary"] = _last_json(cont_out)
        out["distance"] = json.loads(dist_out)
        problems = checks.check_relax(out)
        piecewise = _read_json(self.piecewise)
        parts = [piecewise["labels"], piecewise["values"], _values_digest(self.relaxed),
                 out["summary"]["achieved_error"], out["summary"]["error_bound"],
                 out["distance"]["distances"]]
        return problems, checks.digest(parts)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class Verify(Workload):
    """The bundled 19-check theorem suite."""

    name = "verify"
    setups = 1  # one set-up is one full suite run
    grids = {}

    def setup(self, workdir: Path, seed: int) -> None:
        self.ledger = workdir / "ledger.json"
        self.argv = ["verify", "--seed", str(seed), "--out", str(self.ledger)]

    def op(self) -> list:
        return [run_cli(self.argv)]

    def collect(self, raw: list) -> tuple[list[str], str]:
        rc = raw[0][0]
        ledger = _read_json(self.ledger) if rc == 0 else None
        problems = checks.check_verify(rc, ledger)
        if ledger is None:
            return problems, ""
        ledger.pop("runtime_seconds", None)
        return problems, checks.digest(ledger)


WORKLOADS = {w.name: w for w in (Quantize, Distance, Relax, Verify)}
