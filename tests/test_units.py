"""A change of units changes nothing but the units.

Multiplying every latency quantity (slopes, disturbance mean and
support radius, edge costs) by ``a = 4**k`` leaves the flows alone and
multiplies node potentials, radii and tolls by ``a``.  Multiplying the
demand by ``b = 4**k`` and dividing the slopes by ``b`` multiplies the
flows by ``b`` and leaves the rest alone.  Every floating-point operation
commutes with such a scaling, barring over- and underflow, and powers of
four keep the square roots exact too.  So each answer must come back
scaled bit for bit, or as the same typed error.  The cases cover the
equilibrium solver (calm and stormy costs), the robustness ceiling and
the radius-zero design, on the ladder and on seeded subsets of the
twelve-decade families.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from randnets import layered_dag_network, twelve_decade_family
from robusttolls.design import epsilon_max, solve_dro_tolls
from robusttolls.equilibrium import LatencyModel, kkt_blocks, nash_flow_potential
from robusttolls.exceptions import TollDesignError
from robusttolls.network import incidence
from robusttolls.uncertainty import DisturbanceModel

POWERS = (5, -5)


@lru_cache(maxsize=None)
def _ladder(m):
    """The ladder's rung of ``m`` edges (seed 2024, support radius 0.2), with stormy costs."""
    rng = np.random.default_rng(2024)
    net = layered_dag_network(rng, 2 * m // 5, m, 10.0 * m)
    beta = rng.uniform(0.5, 2.0, m)
    mean = rng.uniform(10.0, 30.0, m)
    stormy = mean.copy()
    stormy[rng.choice(m, m // 3, replace=False)] += 100.0
    return net, beta, mean, stormy


def _instance(family, key):
    """``(net, beta, mean, stormy, delta)`` of a case; the zero-mean family keeps no mean."""
    if family == "ladder":
        return _ladder(key) + (0.2,)
    seed, index = key
    net, beta, mean, stormy = twelve_decade_family(seed)[index]
    if family == "zero-mean":
        mean = stormy = np.zeros(net.num_edges)
    return net, beta, mean, stormy, 0.0


def _answer(kind, net, beta, mean, stormy, delta):
    """What the library returns for one case, as arrays, or the type of its typed error."""
    m = net.num_edges
    inc, lat = incidence(net), LatencyModel(beta)
    model = DisturbanceModel(mean=mean, cov=np.zeros((m, m)), support_radius=delta)
    try:
        if kind == "ceiling":
            ceiling, certificate = epsilon_max(kkt_blocks(inc, lat), model)
            return np.array([ceiling]), np.array([] if certificate is None else certificate)
        if kind == "design":
            result = solve_dro_tolls(kkt_blocks(inc, lat), model, 0.0)
            return result.tau_star, result.slope
        sol = nash_flow_potential(inc, lat, stormy if kind == "stormy" else mean, np.zeros(m))
        return sol.flow, sol.node_potentials
    except TollDesignError as err:
        return type(err)


# The unit of each of a case's two answers: the flow and the potentials of
# an equilibrium, the ceiling and its certificate toll, the design's toll
# and its latency slope on the disturbance.
UNITS = {"calm": ("flow", "latency"), "stormy": ("flow", "latency"),
         "ceiling": ("latency", "latency"), "design": ("latency", "flow")}


def _check(family, key, kind):
    """Assert that the case's answer scales with every change of units in ``POWERS``."""
    net, beta, mean, stormy, delta = _instance(family, key)
    base = _answer(kind, net, beta, mean, stormy, delta)
    for unit in ("latency", "flow"):
        for power in POWERS:
            factor = 4.0 ** power
            if unit == "latency":
                scaled = _answer(kind, net, beta * factor, mean * factor, stormy * factor,
                                 delta * factor)
            else:
                scaled = _answer(kind, replace(net, demand=net.demand * factor), beta / factor,
                                 mean, stormy, delta)
            factors = [factor if answer == unit else 1.0 for answer in UNITS[kind]]
            where = f"{unit} units x4^{power}"
            if isinstance(base, type) or isinstance(scaled, type):
                assert scaled == base, f"{where}: {scaled} against {base}"
                continue
            for name, got, want, by in zip(("first", "second"), scaled, base, factors):
                assert np.array_equal(got, want * by), f"{where}: the {name} answer moved"


# The cases that raised ConvergenceError in x4^5 latency units only while
# nash_flow_potential judged stationarity, a latency, against
# _KKT_TOL * max(1, demand), a flow.  Its duality gap, judged against its
# own terms, does not depend on the units, so they scale like every other.
UNIT_DEPENDENT = {
    ("zero-mean", (11, 179), "calm"), ("with-mean", (11, 179), "stormy"),
    ("with-mean", (12, 19), "calm"), ("with-mean", (12, 19), "stormy"),
    ("with-mean", (12, 417), "stormy"), ("zero-mean", (13, 344), "calm"),
} | {(family, (seed, index), kind)
     for seed, index in ((12, 197), (12, 251), (12, 335), (12, 485), (13, 217), (13, 255))
     for family, kind in (("zero-mean", "calm"), ("with-mean", "calm"), ("with-mean", "stormy"))}
# Radius-zero designs whose equilibrium does not certify, so that the
# interior-point kernel solves them cold; its face guess `lam > slack`
# compares a multiplier with a slack, so the units change which faces it
# tries (ROADMAP item 2(d)).
UNIT_DEPENDENT_DESIGNS = {(11, 74), (11, 291), (12, 2), (13, 40), (13, 503)}
# Cases that certify only since the equilibrium solver refines its face's
# balance: the equilibria failed the certificate on balance alone, and the
# designs fell back to the interior-point kernel.
REFINED = {("with-mean", (11, 33), "calm"), ("with-mean", (12, 2), "calm"),
           ("with-mean", (11, 5), "stormy"), ("with-mean", (13, 480), "stormy")} \
    | {("with-mean", key, "design") for key in ((11, 454), (13, 143), (13, 288))}
FAMILY_KINDS = {"ladder": ("calm", "stormy", "ceiling", "design"),
                "zero-mean": ("calm", "ceiling"), "with-mean": ("calm", "stormy", "design")}


def _cases():
    """The ladder's rungs, then per seed 20 seeded instances and those named above."""
    keys = {"ladder": [50, 100, 150, 250]}
    for seed in (11, 12, 13):
        chosen = set(np.random.default_rng(seed).choice(600, 20, replace=False).tolist())
        chosen |= {key[1] for _, key, _ in UNIT_DEPENDENT | REFINED if key[0] == seed}
        for family in ("zero-mean", "with-mean"):
            keys.setdefault(family, []).extend((seed, index) for index in sorted(chosen))
    for family, kinds in FAMILY_KINDS.items():
        for key in keys[family]:
            for kind in kinds:
                name = f"{family}-{key if family == 'ladder' else '%d-%d' % key}-{kind}"
                marks = ()
                if kind == "design" and key in UNIT_DEPENDENT_DESIGNS:
                    marks = pytest.mark.xfail(strict=True, reason="ROADMAP item 2(d): the "
                                              "kernel's face guess depends on the units")
                yield pytest.param(family, key, kind, id=name, marks=marks)


@pytest.mark.parametrize("family, key, kind", _cases())
def test_a_change_of_units_scales_the_answer(family, key, kind):
    _check(family, key, kind)
