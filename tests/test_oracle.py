"""An exact oracle for the shipped experiment: the bundled Pigou grid.

On two parallel roads every circulation is ``y = (d, -d)``, so the design
at radius ``eps`` minimizes one scalar function of ``d``, and its optimum
solves ``eps (2d + c1 - c2) / ||q|| + 2 (beta1 + beta2) d + mean1 - mean2
= 0`` with ``q = (c1 + d, c2 - d)``, while the toll polytope's bounds stay
slack.  ``mpmath`` solves that equation at 50 digits on the scenario's
float inputs (at radius zero ``d = 25/8`` and the toll is exactly 5).  The
least-potential toll is ``((beta1 + beta2) d, 0)``, the worst case is
``eps ||q|| + (beta1 + beta2) d^2 + mean @ q + demand^2 / (1/beta1 +
1/beta2)``, and cell ``(eps, eps_hat)``'s expectation is the same sum
with the design for ``eps_hat`` at the radius ``eps``; on the diagonal it
is that design's worst case.

Each printed value must lie within a recorded budget of units in the last
place of the exact value.  The budgets are the errors the shipped solver
makes today, rounded up to a tenth of an ulp; a change that makes a value
more accurate may tighten its budget, and one that loosens a budget says
so.
"""

import csv
import io
import json
import math
import pathlib

import pytest

import robusttolls
from robusttolls.cli import main

mpmath = pytest.importorskip("mpmath")

SCENARIO = str(pathlib.Path(robusttolls.__file__).parent / "data" / "pigou_scenario.json")

# Budgets in ulps of the exact value: the toll tau_e1 of each design, and
# each cell's expectation, keyed by (eps, eps_hat).  A diagonal cell's
# expectation is its design's worst case, to the last digit.
TOLL_ULPS = {0.0: 4.0, 10.0: 2.2, 20.0: 0.2, 30.0: 438.9}
EXPECTATION_ULPS = {
    (0.0, 0.0): 1.9, (0.0, 10.0): 1.6, (0.0, 20.0): 2.1, (0.0, 30.0): 51.1,
    (10.0, 0.0): 1.1, (10.0, 10.0): 0.9, (10.0, 20.0): 1.2, (10.0, 30.0): 16.7,
    (20.0, 0.0): 1.3, (20.0, 10.0): 1.0, (20.0, 20.0): 1.4, (20.0, 30.0): 8.8,
    (30.0, 0.0): 1.4, (30.0, 10.0): 2.1, (30.0, 20.0): 1.5, (30.0, 30.0): 0.8,
}

class _Exact:
    """The bundled scenario's designs, solved at 50 digits."""

    def __init__(self):
        scenario = json.loads(pathlib.Path(SCENARIO).read_text())
        network = json.loads((pathlib.Path(SCENARIO).parent / scenario["network"]).read_text())
        mp = mpmath.mp.clone()
        mp.dps = 50
        beta1, beta2 = (mp.mpf(edge["beta"]) for edge in network["edges"])
        demand = mp.mpf(network["demand"])
        self.mean = [mp.mpf(value) for value in scenario["disturbance"]["mean"]]
        delta = mp.mpf(scenario["disturbance"]["delta"])
        self.mp, self.slope = mp, beta1 + beta2
        share = (1 / beta1) / (1 / beta1 + 1 / beta2)
        self.c = (demand * share, demand * (1 - share))
        self.constant = demand ** 2 / (1 / beta1 + 1 / beta2)
        # The flow response is g [[1, -1], [-1, 1]], whose norm is 2 g.
        g = 1 / (1 / (1 / beta1) + 1 / (1 / beta2))
        self.rhs = (self.c[0] - 2 * g * delta - g * (self.mean[0] - self.mean[1]),
                    self.c[1] - 2 * g * delta + g * (self.mean[0] - self.mean[1]))
        self.grid = scenario["grid"]
        self.d = {eps: self._solve(mp.mpf(eps)) for eps in self.grid}

    def _solve(self, eps):
        c1, c2 = self.c

        def stationarity(d):
            return (eps * (2 * d + c1 - c2) / self.mp.sqrt((c1 + d) ** 2 + (c2 - d) ** 2)
                    + 2 * self.slope * d + self.mean[0] - self.mean[1])

        return self.mp.findroot(stationarity, self.mp.mpf(25) / 8)

    def toll(self, eps_hat):
        return self.slope * self.d[eps_hat]

    def expectation(self, eps, eps_hat):
        d = self.d[eps_hat]
        q = (self.c[0] + d, self.c[1] - d)
        return (eps * self.mp.sqrt(q[0] ** 2 + q[1] ** 2) + self.slope * d ** 2
                + self.mean[0] * q[0] + self.mean[1] * q[1] + self.constant)


@pytest.fixture(scope="module")
def exact():
    return _Exact()


def _ulps(got, want):
    """How many ulps of the exact ``want`` the float ``got`` is off."""
    return float(abs(mpmath.mpf(got) - want) / math.ulp(float(want)))


def test_the_exact_designs_keep_every_bound_slack(exact):
    # Otherwise the scalar equation is not the design's optimality condition.
    for d in exact.d.values():
        assert d < exact.rhs[0] and -d < exact.rhs[1]
    assert exact.toll(0.0) == 5


def test_the_experiment_csv_is_within_its_ulp_budget_of_the_exact_grid(exact, capsys):
    assert main(["experiment", "--scenario", SCENARIO, "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == len(exact.grid) ** 2
    for row in rows:
        eps, eps_hat = float(row["eps"]), float(row["eps_hat"])
        assert float(row["tau_e2"]) == 0.0
        assert _ulps(float(row["tau_e1"]), exact.toll(eps_hat)) <= TOLL_ULPS[eps_hat], row
        assert (_ulps(float(row["expectation"]), exact.expectation(eps, eps_hat))
                <= EXPECTATION_ULPS[eps, eps_hat]), row

