"""A bit-identity matrix: one sha256 digest per (space, stage) of what the CLI writes.

For every space tag the tests and the benchmark use, small fields on a
24x24 grid go through each CLI stage in-process:

- `gen`: random, smooth and piecewise fields, two seeds each;
- `quantize` in countable mode (on both random fields, and on a field of
  dyadic values at a dyadic eps where the space has exact ties), in
  almost-simple mode against a smooth base, and in sup mode where the
  space has epsilon nets;
- `continuify` at orders 0, 2 and 5, on a scattered countable output and
  on a piecewise field;
- `distance --p 1,2,inf` between maps, and between a simple map and a map.

`verify --seed 0|1` is one more key, its ledger less `runtime_seconds`.

A stage's digest covers every file it writes (name and bytes, sidecars
included) and its stdout and stderr, with the work directory's path taken
out.  A mismatch names each (space, stage) that moved.  The bits depend on
the numpy build, so the numpy version that wrote the digests is stored
beside them and printed on a mismatch.

A change that moves a digest on purpose rewrites the file in the same
commit, and names every moved key, old -> new:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from metriclp import cli, fileio
from metriclp.domain import Domain
from metriclp.maps import MeasurableMap
from metriclp.spaces import make_space

GOLDEN = Path(__file__).parent / "data" / "golden.json"
SPACES = ["euclidean1", "euclidean2", "euclidean3", "spd2", "spd3", "simplex3", "histogram8", "circle"]
CELLS = 24
GRID = f"{CELLS}x{CELLS}"
SEEDS = (0, 1)
ORDERS = (0, 2, 5)
# per space: the eps of the countable, almost-simple and sup modes, None
# where the space has no epsilon nets, or (spd3) where a net's probe grid
# would be too large at any eps that nets these fields in more than one point
EPS = {
    "euclidean1": (0.1, 0.1, 0.05),
    "euclidean2": (0.5, 0.5, 0.05),
    "euclidean3": (0.8, 0.8, 0.2),
    "spd2": (0.5, 0.5, 0.2),
    "spd3": (1.5, 0.1, None),
    "simplex3": (0.3, 0.3, 0.05),
    "histogram8": (0.1, 0.1, None),
    "circle": (0.5, 0.5, 0.05),
}
TIE_EPS = 0.25
# smooth fields stay in a small ball, so the sup mode's nets stay small
SPREAD = {"random": 1.0, "smooth": 0.25, "piecewise": 1.0}


class Stage:
    """One stage's CLI calls, in their own directory, hashed together."""

    def __init__(self, root: Path, name: str):
        self.root = root
        self.dir = root / name
        self.dir.mkdir(parents=True)
        self.hash = hashlib.sha256()

    def run(self, *argv) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
        assert rc == cli.EXIT_OK, (argv, err.getvalue())
        self.hash.update(self._strip(out.getvalue() + err.getvalue()))

    def digest(self) -> str:
        for path in sorted(self.dir.iterdir()):
            self.hash.update(path.name.encode() + b"\0" + self._strip(path.read_bytes()))
        return self.hash.hexdigest()

    def _strip(self, data: str | bytes) -> bytes:
        data = data.encode() if isinstance(data, str) else data
        return data.replace(str(self.root).encode() + b"/", b"")


def tie_field(space_name: str) -> MeasurableMap | None:
    """Dyadic values, multiples of TIE_EPS / 2, on the first coordinate of a
    Euclidean target or the angle of the circle: many pairs lie exactly
    TIE_EPS apart, so a cover that accepts at `<=` moves labels."""
    if not space_name.startswith("euclidean") and space_name != "circle":
        return None
    space = make_space(space_name)
    domain = Domain.grid(2, CELLS)
    values = np.zeros((domain.atom_count, space.dim))
    values[:, 0] = (np.arange(domain.atom_count) * 7 % 11) * (TIE_EPS / 2)
    return MeasurableMap(domain, space, values)


def space_digests(space_name: str, root: Path) -> dict[str, str]:
    eps, almost_eps, sup_eps = EPS[space_name]
    out = {}
    gen = Stage(root, "in")
    for seed in SEEDS:
        for kind in ("random", "smooth", "piecewise"):
            gen.run("gen", "--kind", kind, "--space", space_name, "--grid", GRID,
                    "--seed", seed, "--regions", 5, "--spread", SPREAD[kind],
                    "--out", gen.dir / f"{kind}{seed}.json")
    out["gen"] = gen.digest()
    inp = gen.dir

    countable = Stage(root, "countable")
    for seed in SEEDS:
        countable.run("quantize", inp / f"random{seed}.json", "--eps", eps,
                      "--out", countable.dir / f"q{seed}.json",
                      "--report", countable.dir / f"r{seed}.json")
    ties = tie_field(space_name)
    if ties is not None:
        fileio.save_map(ties, root / "ties.json")
        countable.run("quantize", root / "ties.json", "--eps", TIE_EPS,
                      "--out", countable.dir / "ties.json")
    out["quantize.countable"] = countable.digest()

    almost = Stage(root, "almost_simple")
    for seed in SEEDS:
        almost.run("quantize", inp / f"random{seed}.json", "--mode", "almost-simple",
                   "--base", inp / f"smooth{seed}.json", "--eps", almost_eps,
                   "--out", almost.dir / f"q{seed}.json", "--report", almost.dir / f"r{seed}.json")
    out["quantize.almost_simple"] = almost.digest()

    if sup_eps is not None:
        sup = Stage(root, "sup")
        for seed in SEEDS:
            sup.run("quantize", inp / f"smooth{seed}.json", "--mode", "sup",
                    "--base", inp / f"smooth{1 - seed}.json", "--eps", sup_eps,
                    "--out", sup.dir / f"q{seed}.json", "--report", sup.dir / f"r{seed}.json")
        out["quantize.sup"] = sup.digest()

    relaxed = Stage(root, "continuify")
    for source in (countable.dir / "q0.json", inp / "piecewise0.json"):
        for order in ORDERS:
            name = f"{source.parent.name}-{source.stem}-{order}"
            relaxed.run("continuify", source, "--eps", 0.5, "--order", order,
                        "--out", relaxed.dir / f"{name}.json",
                        "--report", relaxed.dir / f"{name}.report.json")
    out["continuify"] = relaxed.digest()

    dist = Stage(root, "distance")
    pairs = [("random0", "random1"), ("random0", "smooth0"), ("piecewise0", "smooth1")]
    for i, (left, right) in enumerate(pairs):
        dist.run("distance", inp / f"{left}.json", inp / f"{right}.json", "--p", "1,2,inf",
                 "--out", dist.dir / f"d{i}.json")
    dist.run("distance", countable.dir / "q0.json", inp / "random0.json", "--p", "1,2,inf")
    out["distance"] = dist.digest()
    return out


def verify_digest(root: Path) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        path = root / f"ledger{seed}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "--seed", str(seed), "--out", str(path)])
        ledger = json.loads(path.read_text())
        del ledger["runtime_seconds"]
        h.update(json.dumps(ledger, sort_keys=True).encode())
    return h.hexdigest()


def all_digests(root: Path) -> dict[str, str]:
    out = {}
    for space_name in SPACES:
        for stage, digest in space_digests(space_name, root / space_name).items():
            out[f"{space_name}/{stage}"] = digest
    out["suite/verify"] = verify_digest(root)
    return out


def test_outputs_are_bit_identical_to_the_golden_matrix(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = all_digests(tmp_path)
    moved = sorted(key for key in golden["digests"].keys() | got.keys()
                   if golden["digests"].get(key) != got.get(key))
    assert moved == [], (
        f"moved: {moved}; digests written with numpy {golden['numpy']},"
        f" this is numpy {np.__version__}"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = all_digests(Path(tmp))
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "digests": digests}, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
