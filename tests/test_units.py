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

Coarse scales are the other half: the demand, the disturbance mean,
the support radius and the radius times ``2**(256 k)`` multiply the
tolls by that factor and the worst case by its square, bit for bit, on
the radius-zero and the interior-point designs alike, because the
design kernel solves in one power-of-two unit near the demand.  Where
the worst case leaves the float range the design raises
:class:`NumericalDegeneracyError`.
"""

import math
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from randnets import layered_dag_network, twelve_decade_family
from robusttolls.design import epsilon_max, solve_dro_tolls
from robusttolls.equilibrium import LatencyModel, kkt_blocks, nash_flow_potential
from robusttolls.exceptions import NumericalDegeneracyError, TollDesignError
from robusttolls.network import Edge, Network, incidence
from robusttolls.uncertainty import DisturbanceModel, worst_case_mean

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


@lru_cache(maxsize=None)
def _coarse_instance(name):
    """``(net, beta, mean, ceiling)``: two roads, or a 24-edge layered DAG; support radius 0.05."""
    if name == "two-roads":
        net = Network(num_nodes=2, edges=(Edge("e1", 0, 1), Edge("e2", 0, 1)), demand=100.0)
        beta, mean = np.array([1.0, 2.0]), np.array([20.0, 30.0])
    else:
        rng = np.random.default_rng(2024)
        net = layered_dag_network(rng, 10, 24, 240.0)
        beta, mean = rng.uniform(0.5, 2.0, 24), rng.uniform(10.0, 30.0, 24)
    ceiling = epsilon_max(kkt_blocks(incidence(net), LatencyModel(beta)), _model(mean, 0.05))[0]
    return net, beta, mean, ceiling


def _model(mean, delta):
    return DisturbanceModel(mean=mean, cov=np.zeros((mean.shape[0],) * 2), support_radius=delta)


def _coarse_design(name, fraction, power):
    """The design at ``fraction`` of the ceiling, with every input scaled by ``2**(256 power)``.

    Any warning is an error.
    """
    net, beta, mean, ceiling = _coarse_instance(name)
    factor = math.ldexp(1.0, 256 * power)
    blocks = kkt_blocks(incidence(replace(net, demand=net.demand * factor)), LatencyModel(beta))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return solve_dro_tolls(blocks, _model(mean * factor, 0.05 * factor),
                               fraction * ceiling * factor)


COARSE_CASES = [(name, fraction) for name in ("two-roads", "layered-24")
                for fraction in (0.0, 0.5, 0.9)]


@pytest.mark.parametrize("power", (-3, -2, -1, 1))
@pytest.mark.parametrize("name, fraction", COARSE_CASES)
def test_a_coarse_change_of_scale_scales_the_design(name, fraction, power):
    base, scaled = _coarse_design(name, fraction, 0), _coarse_design(name, fraction, power)
    assert np.array_equal(scaled.tau_star, base.tau_star * math.ldexp(1.0, 256 * power))
    want = math.ldexp(base.worst_case_latency, 512 * power)
    if abs(want) >= np.finfo(float).tiny:
        assert scaled.worst_case_latency == want


@pytest.mark.parametrize("name, fraction", COARSE_CASES)
def test_a_worst_case_beyond_the_float_range_is_a_numerical_degeneracy(name, fraction):
    with pytest.raises(NumericalDegeneracyError, match="overflows the float range"):
        _coarse_design(name, fraction, 2)


def test_the_worst_case_mean_of_a_tiny_demand_is_shifted_along_the_slope():
    net = Network(num_nodes=2, edges=(Edge("e1", 0, 1), Edge("e2", 0, 1)), demand=1e-170)
    blocks = kkt_blocks(incidence(net), LatencyModel(np.array([1.5, 0.1])))
    mean = np.array([20.0, 30.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shifted = worst_case_mean(blocks, np.zeros(2), _model(mean, 0.0), 2.0)
    slope = blocks.c * 2.0 ** 600
    assert shifted == pytest.approx(mean + 2.0 * slope / np.linalg.norm(slope), rel=1e-15)
