"""One argument contract at entry: every construction refuses a bad eps or
exponent whatever its data.

The constructions take 0 < eps < inf; those that spend the budget at an
exponent take 1 <= p < inf.  Each rule is one function in `metriclp.maps`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from metriclp import cli, fileio, quantize, relax, verify
from metriclp.domain import AtomSet, Domain
from metriclp.errors import MetricLpError
from metriclp.maps import MeasurableMap, SimpleMap, check_eps, check_finite_p
from metriclp.spaces import make_space

BAD_EPS = [0.0, -1.0, math.inf, math.nan]
BAD_FINITE_P = [0.5, math.inf, math.nan]


class Fixture:
    """Small valid inputs for every construction, on a 4x4 euclidean2 grid."""

    def __init__(self):
        space = make_space("euclidean2")
        self.domain = Domain.grid(2, 4)
        rng = np.random.default_rng(0)
        self.f = MeasurableMap(self.domain, space, space.random_payloads(rng, 16))
        self.h = MeasurableMap.constant(self.domain, space, np.zeros(2))
        labels = (np.arange(16) % 4 > 1).astype(np.int64)
        self.g = SimpleMap(self.domain, space, labels, np.array([[0.0, 0.0], [1.0, 0.0]]))
        self.family = verify.build_dense_family(self.h, gen_levels=1, val_budget=2)
        self.whole = AtomSet(np.arange(16), 16)


# name -> call(fixture, p, eps); sup mode has no exponent
CONSTRUCTIONS = {
    "countable_quantize": lambda x, p, eps: quantize.countable_quantize(x.f, eps, [x.whole], p),
    "almost_simple_approx": lambda x, p, eps: quantize.almost_simple_approx(x.f, x.h, p, eps),
    "simple_approx_sup": lambda x, p, eps: quantize.simple_approx_sup(x.f, x.h, eps),
    "smooth_from_simple": lambda x, p, eps: relax.smooth_from_simple(x.g, [0.0, 0.0], p, eps),
    "separability_probe": lambda x, p, eps: verify.separability_probe(x.f, x.family, p, eps),
    "exhaustive_probe": lambda x, p, eps: verify.exhaustive_probe(x.f, x.family, p, eps),
}
BUDGETED = [name for name in CONSTRUCTIONS if name != "simple_approx_sup"]


@pytest.fixture(scope="module")
def fixture():
    return Fixture()


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_every_construction_runs_on_its_fixture(fixture, name):
    CONSTRUCTIONS[name](fixture, 2.0, 0.5)


@pytest.mark.parametrize("eps", BAD_EPS, ids=repr)
@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_every_construction_refuses_a_bad_eps(fixture, name, eps):
    with pytest.raises(MetricLpError, match="eps must be positive and finite, got "):
        CONSTRUCTIONS[name](fixture, 2.0, eps)


@pytest.mark.parametrize("p", BAD_FINITE_P, ids=repr)
@pytest.mark.parametrize("name", BUDGETED)
def test_every_budgeted_construction_refuses_a_bad_exponent(fixture, name, p):
    with pytest.raises(MetricLpError, match=r"p must satisfy 1 <= p (<=|<) inf"):
        CONSTRUCTIONS[name](fixture, p, 0.5)


def test_the_rules_accept_their_whole_ranges():
    assert check_finite_p(1) == 1.0 and check_finite_p(1e308) == 1e308
    check_eps(5e-324)
    check_eps(1.7976931348623157e308)
    with pytest.raises(MetricLpError, match="1 <= p < inf"):
        check_finite_p(math.inf)
    with pytest.raises(MetricLpError, match="1 <= p <= inf"):
        check_finite_p(0.5)


@pytest.mark.parametrize("pieces, p", [(None, 2.0), ("whole", None)])
def test_countable_quantize_takes_pieces_and_p_together(fixture, pieces, p):
    """p without pieces would silently run the sup mode and report p = inf."""
    pieces = [fixture.whole] if pieces == "whole" else None
    with pytest.raises(MetricLpError, match="both pieces and the exponent p"):
        quantize.countable_quantize(fixture.f, 0.5, pieces, p)


@pytest.mark.parametrize("order", ["99", "-3"])
def test_continuify_refuses_a_bad_order_without_a_piece(tmp_path, capsys, order):
    """Every atom takes the background value, so no piece is smoothed: the
    order is checked at entry all the same."""
    domain = Domain.grid(2, 4)
    flat = SimpleMap(domain, make_space("euclidean2"), np.zeros(16, dtype=np.int64), np.zeros((1, 2)))
    path = tmp_path / "flat.json"
    fileio.save_simple_map(flat, path)
    argv = ["continuify", str(path), "--eps", "0.5", "--out", str(tmp_path / "out.json")]
    assert cli.main(argv + ["--order", "0"]) == cli.EXIT_OK
    assert cli.main(argv + ["--order", order]) == cli.EXIT_DATA
    assert capsys.readouterr().err == "error: smoothstep order must be an integer in [0, 5]\n"
