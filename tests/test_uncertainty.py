"""Tests for disturbance estimation, the worst-case mean, and sampling."""

import csv
import hashlib

import numpy as np
import pytest

from robusttolls.equilibrium import LatencyModel, kkt_blocks
from robusttolls.exceptions import FileFormatError, InsufficientDataError
from robusttolls.network import Edge, IncidenceData, Network, incidence
from robusttolls.uncertainty import (
    _PSD_TOL,
    DisturbanceModel,
    SampleSet,
    estimate_nominal,
    load_samples,
    sample_uniform_ball,
    worst_case_mean,
)
from test_equilibrium import PIGOU_BETA, pigou_blocks


def test_models_lock_their_own_copies():
    # Each model keeps a write-locked, C-contiguous float copy: the
    # caller's arrays stay writable, and writing to them afterwards leaves
    # the model's copy as it was.
    beta, mean = np.array([1.0, 2.0]), np.array([20.0, 30.0])
    flows = np.array([[40.0, 60.0], [50.0, 50.0]])
    lats = np.asfortranarray([[80.0, 36.0], [95.0, 35.0]])
    samples = SampleSet(flows=flows, latencies=lats)
    pairs = [(LatencyModel(beta).beta, beta),
             (DisturbanceModel(mean=mean, cov=np.eye(2), support_radius=0.2).mean, mean),
             (samples.flows, flows), (samples.latencies, lats)]
    for kept, given in pairs:
        before = kept.copy()
        assert given.flags.writeable
        given[0] = -1.0
        assert np.array_equal(kept, before)
        assert not kept.flags.writeable and kept.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 7.0


def test_disturbance_model_validation():
    good = DisturbanceModel(mean=np.zeros(2), cov=np.eye(2), support_radius=0.5)
    assert good.support_radius == 0.5
    with pytest.raises(ValueError):
        DisturbanceModel(mean=np.zeros(2), cov=np.eye(3), support_radius=0.5)
    with pytest.raises(ValueError, match=r"covariance must be square, got \(2, 3\)"):
        DisturbanceModel(mean=np.zeros(2), cov=np.ones((2, 3)), support_radius=0.5)
    with pytest.raises(ValueError):
        DisturbanceModel(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.4, 1.0]]),
                         support_radius=0.5)
    with pytest.raises(ValueError):
        DisturbanceModel(mean=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]),
                         support_radius=0.5)
    with pytest.raises(ValueError):
        DisturbanceModel(mean=np.zeros(2), cov=np.eye(2), support_radius=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            DisturbanceModel(mean=np.array([0.0, bad]), cov=np.eye(2), support_radius=0.5)
        with pytest.raises(ValueError, match="finite"):
            DisturbanceModel(mean=np.zeros(2), cov=np.eye(2), support_radius=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_disturbance_model_rejects_non_finite_cov(bad):
    # A NaN would otherwise slip through every comparison, and an infinity
    # makes the symmetry test read inf - inf.
    with pytest.raises(ValueError, match="finite"):
        DisturbanceModel(mean=np.zeros(2), cov=np.array([[1.0, 0.0], [0.0, bad]]),
                         support_radius=0.5)


def test_disturbance_model_keeps_round_off_as_given():
    # A covariance whose smallest eigenvalue is round-off negative is
    # accepted and stored as its symmetrized input: nothing clamps it.
    vecs = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    cov = (vecs * np.array([1.0, -1e-14])) @ vecs.T
    cov[0, 1] += 1e-16
    model = DisturbanceModel(mean=np.zeros(2), cov=cov, support_radius=0.1)
    assert np.array_equal(model.cov, 0.5 * (cov + cov.T))
    assert not np.array_equal(model.cov, cov)


def _covariance_case(seed: int, m: int, kind: str, rank: int, decades: float) -> np.ndarray:
    """A seeded ``m x m`` test covariance of one ``kind``, scaled by ``10**decades``.

    ``psd`` is ``G G'`` for a Gaussian ``G`` with ``rank`` columns, as
    computed (so it may carry round-off negatives), with one
    off-diagonal entry moved by up to half the asymmetry tolerance;
    ``negative`` has one eigenvalue and ``asymmetric`` one entry beyond
    the tolerance, by 2 to 2e6 times it, and ``non_finite`` is ``psd``
    with a NaN or an infinity in one entry.  Where ``G G'`` is zero (rank
    0, or 1 for ``negative``), ``10**(2 * decades)`` stands in for the
    largest entry or eigenvalue.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, rank)) * 10.0 ** decades
    cov = g @ g.T
    i, j = rng.choice(m, size=2, replace=False)
    cov[i, j] += rng.uniform(-0.5, 0.5) * _PSD_TOL * float(np.abs(cov).max())
    if kind == "negative":
        # One negative eigenvalue, rank - 1 positive ones (the squared
        # norms of G's other columns) and zeros, in a random orthonormal basis.
        basis = np.linalg.qr(rng.standard_normal((m, m)))[0]
        eigvals = np.zeros(m)
        eigvals[1:rank] = (g[:, 1:] ** 2).sum(axis=0)
        top = eigvals.max() if eigvals.any() else 10.0 ** (2 * decades)
        eigvals[0] = -10.0 ** rng.uniform(0.31, 6.31) * _PSD_TOL * top
        cov = (basis * eigvals) @ basis.T
    elif kind == "asymmetric":
        scale = float(np.abs(cov).max()) if cov.any() else 10.0 ** (2 * decades)
        cov[i, j] = cov[j, i] + 10.0 ** rng.uniform(0.31, 6.31) * _PSD_TOL * scale
    elif kind == "non_finite":
        cov[rng.integers(m), rng.integers(m)] = rng.choice([np.nan, np.inf, -np.inf])
    return cov


def test_covariance_rule_matches_an_eigvalsh_judge():
    # Positive semidefinite inputs of every rank are accepted and stored
    # as their symmetrized input; inputs negative or asymmetric beyond the
    # tolerance, or holding a non-finite entry, are refused with their
    # message.  The judge reads the eigenvalues of the symmetrized input,
    # with a factor 2 of margin on the tolerance, which is relative to the
    # largest entry and to the largest eigenvalue alone, whatever the units.
    hypothesis = pytest.importorskip("hypothesis")
    strategies = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @hypothesis.given(seed=strategies.integers(0, 2**32 - 1), m=strategies.integers(2, 12),
                      kind=strategies.sampled_from(["psd", "negative", "asymmetric",
                                                    "non_finite"]),
                      rank_share=strategies.floats(0.0, 1.0),
                      decades=strategies.floats(-6.0, 6.0))
    def check(seed, m, kind, rank_share, decades):
        cov = _covariance_case(seed, m, kind, round(rank_share * m), decades)
        scale = float(np.abs(cov).max())
        if kind == "non_finite":
            refusal = r"covariance must be finite"
        elif float(np.abs(cov - cov.T).max()) > 2 * _PSD_TOL * scale:
            refusal = r"covariance must be symmetric"
        else:
            eigvals = np.linalg.eigvalsh(0.5 * (cov + cov.T))
            refusal = None
            if eigvals[0] < -2 * _PSD_TOL * float(eigvals[-1]):
                refusal = (r"covariance is not positive semidefinite "
                           r"\(min eigenvalue -\d\.\d{3}e[+-]\d+\)")
        if refusal is not None:
            with pytest.raises(ValueError, match=f"^{refusal}$"):
                DisturbanceModel(mean=np.zeros(m), cov=cov, support_radius=0.1)
            return
        assert kind == "psd"
        model = DisturbanceModel(mean=np.zeros(m), cov=cov, support_radius=0.1)
        assert np.array_equal(model.cov, 0.5 * (cov + cov.T))

    check()


@pytest.mark.parametrize("power", range(-20, 6))
def test_covariance_rule_does_not_depend_on_the_units(power):
    # diag(1, -1e-3) has a negative eigenvalue a thousandth of its largest
    # one in any units; at 4^-20 its entries are near 9e-13, below the
    # absolute floor the rule once had.
    cov = np.diag([1.0, -1e-3]) * 4.0 ** power
    with pytest.raises(ValueError, match="not positive semidefinite"):
        DisturbanceModel(mean=np.zeros(2), cov=cov, support_radius=0.1)


def test_sample_set_validation():
    flows = np.ones((3, 2))
    lats = np.ones((3, 2))
    assert SampleSet(flows, lats).num_records == 3
    with pytest.raises(ValueError, match="at least one record"):
        SampleSet(np.ones((0, 2)), np.ones((0, 2)))
    with pytest.raises(ValueError):
        SampleSet(np.ones((3, 2)), np.ones((4, 2)))
    with pytest.raises(ValueError):
        SampleSet(np.ones(3), np.ones(3))


def test_estimate_nominal_two_records():
    lat = LatencyModel(PIGOU_BETA)
    flows = np.array([[10.0, 90.0], [10.0, 90.0]])
    base = PIGOU_BETA * flows
    lats = base + np.array([[19.9, 30.1], [20.1, 29.9]])
    model = estimate_nominal(SampleSet(flows, lats), lat, support_radius=0.2)
    assert model.mean == pytest.approx([20.0, 30.0], abs=1e-12)
    assert model.cov == pytest.approx(np.array([[0.01, -0.01], [-0.01, 0.01]]), abs=1e-12)
    assert model.support_radius == 0.2


def test_estimate_nominal_matches_biased_covariance():
    rng = np.random.default_rng(8)
    lat = LatencyModel(np.array([1.0, 2.0, 3.0]))
    flows = rng.uniform(0.0, 10.0, size=(40, 3))
    resid = rng.normal(size=(40, 3))
    lats = lat.beta * flows + resid
    model = estimate_nominal(SampleSet(flows, lats), lat, support_radius=1.0)
    assert model.mean == pytest.approx(resid.mean(axis=0), abs=1e-10)
    assert model.cov == pytest.approx(np.cov(resid.T, ddof=0), abs=1e-10)


def test_estimate_nominal_needs_two_records():
    lat = LatencyModel(PIGOU_BETA)
    sample = SampleSet(np.ones((1, 2)), np.ones((1, 2)))
    with pytest.raises(InsufficientDataError):
        estimate_nominal(sample, lat, support_radius=0.1)


def test_estimate_nominal_dimension_mismatch():
    lat = LatencyModel(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        estimate_nominal(SampleSet(np.ones((4, 2)), np.ones((4, 2))), lat, 0.1)


def test_worst_case_mean_pigou():
    blocks = pigou_blocks()
    model = DisturbanceModel(mean=np.array([20.0, 30.0]), cov=0.01 * np.eye(2),
                             support_radius=0.2)
    shifted = worst_case_mean(blocks, np.array([5.0, 0.0]), model, eps=10.0)
    assert shifted == pytest.approx([21.02899151, 39.94691785], abs=1e-7)
    # The shift exhausts the ambiguity radius with the covariance fixed;
    # with equal covariances the Gelbrich distance is the mean distance.
    assert float(np.linalg.norm(shifted - model.mean)) == pytest.approx(10.0, abs=1e-9)


def test_worst_case_mean_zero_radius():
    blocks = pigou_blocks()
    model = DisturbanceModel(mean=np.array([20.0, 30.0]), cov=0.01 * np.eye(2),
                             support_radius=0.2)
    shifted = worst_case_mean(blocks, np.zeros(2), model, eps=0.0)
    assert shifted == pytest.approx([20.0, 30.0], abs=1e-12)


def test_worst_case_mean_keeps_the_direction_at_tiny_demand():
    # The latency slope scales with the demand: at demand 1e-13 it is
    # tiny but points where it does at demand 1, and no warning is due.
    model = DisturbanceModel(mean=np.array([20.0, 30.0]), cov=np.eye(2), support_radius=0.0)
    shifts = []
    for demand in (1.0, 1e-13):
        net = Network(num_nodes=2, edges=(Edge("e1", 0, 1), Edge("e2", 0, 1)), demand=demand)
        blocks = kkt_blocks(incidence(net), LatencyModel(PIGOU_BETA))
        shifts.append(worst_case_mean(blocks, np.zeros(2), model, eps=1.0) - model.mean)
    assert shifts[1] == pytest.approx(shifts[0], rel=1e-12)
    assert shifts[0] == pytest.approx([0.0665, 0.9978], abs=1e-4)


def test_worst_case_mean_degenerate_direction_warns():
    # Zero injections make the flow response vanish identically, so there
    # is no worst direction; the nominal mean comes back with a warning.
    inc = IncidenceData(matrix=np.array([[1.0, 1.0]]), injections=np.array([0.0]),
                        tails=np.array([0, 0]), heads=np.array([1, 1]))
    blocks = kkt_blocks(inc, LatencyModel(np.array([1.0, 1.0])))
    model = DisturbanceModel(mean=np.array([3.0, 4.0]), cov=np.eye(2), support_radius=0.1)
    with pytest.warns(UserWarning):
        shifted = worst_case_mean(blocks, np.zeros(2), model, eps=5.0)
    assert shifted == pytest.approx([3.0, 4.0], abs=1e-12)


def test_sample_uniform_ball_support_and_center():
    center = np.array([2.0, -1.0, 0.5])
    draws = sample_uniform_ball(center, 0.7, 4000, seed=123)
    assert draws.shape == (4000, 3)
    radii = np.linalg.norm(draws - center, axis=1)
    assert float(radii.max()) <= 0.7 + 1e-12
    assert draws.mean(axis=0) == pytest.approx(center, abs=0.05)


def test_sample_uniform_ball_coordinate_variance():
    # Coordinates of a uniform draw from a radius-r ball in n dimensions
    # have variance r^2 / (n + 2).
    n, r = 2, 0.2
    draws = sample_uniform_ball(np.zeros(n), r, 200_000, seed=9)
    expected = r * r / (n + 2)
    assert draws.var(axis=0) == pytest.approx(expected, rel=0.02)


def test_sample_uniform_ball_prefix_stable():
    center = np.zeros(2)
    small = sample_uniform_ball(center, 1.0, 100, seed=77)
    large = sample_uniform_ball(center, 1.0, 9000, seed=77)
    assert large[:100] == pytest.approx(small, abs=0.0)


# Literal draws of sample_uniform_ball(linspace(-1.5, 2, n), 0.75, 4097,
# seed=(2026, 3, n)): rows 0, 4095 and 4096 (the first row of the second
# block) and the SHA-256 of the whole little-endian float64 array.
PINNED_DRAWS = {
    1: ({0: [-2.075745475966478],
         4095: [-1.2697704858721854],
         4096: [-2.0761986872477607]},
        "b5227599d547583dc88b1751ea76d0a75bd0ca566445a4cad0486df2cef2b1f0"),
    2: ({0: [-1.3816543450821284, 2.395372562202756],
         4095: [-1.504614050777872, 2.055272590956095],
         4096: [-1.2835423075005847, 2.627639466008004]},
        "a3adc9bda501c3d1fa536b6063508b741883c9a5429e5960e25d2a5ab11e8b00"),
    9: ({0: [-1.9651742323847599, -1.0542475642864606, -0.9522210268285455,
             0.1706728095849323, 0.388130632669427, 0.5856894433258548,
             1.0254868911046824, 1.675245860337565, 2.241812296538378],
         4095: [-1.630096610531347, -1.212841629560738, -0.8844735457760803,
                -0.13961752856682647, 0.649678781163403, 0.3986134377024861,
                1.1503069907096801, 1.6072216469650351, 1.5457174262428575],
         4096: [-1.2372134721433221, -0.8624866155278516, -1.0344823386040933,
                -0.5137729132765979, 0.32948382351836175, 0.5729498452971461,
                1.2138088138486973, 1.3495809772474132, 1.7836860729302413]},
        "a7f201887f521769097dbe656403a31e2a85b8f9bea94ccc7aace98d3b2421a7"),
}


@pytest.mark.parametrize("n", sorted(PINNED_DRAWS))
def test_sample_uniform_ball_pinned_draws(n):
    rows, digest = PINNED_DRAWS[n]
    draws = sample_uniform_ball(np.linspace(-1.5, 2.0, n), 0.75, 4097, seed=(2026, 3, n))
    assert draws.shape == (4097, n)
    for row, values in rows.items():
        assert draws[row].tolist() == values
    data = np.ascontiguousarray(draws, dtype="<f8").tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_sample_uniform_ball_deterministic_and_seed_sensitive():
    a = sample_uniform_ball(np.zeros(2), 1.0, 50, seed=(1, 2, 3))
    b = sample_uniform_ball(np.zeros(2), 1.0, 50, seed=(1, 2, 3))
    c = sample_uniform_ball(np.zeros(2), 1.0, 50, seed=(1, 2, 4))
    assert a == pytest.approx(b, abs=0.0)
    assert float(np.abs(a - c).max()) > 1e-6


def test_sample_uniform_ball_edge_cases():
    center = np.array([1.0, 2.0])
    zero_radius = sample_uniform_ball(center, 0.0, 10, seed=0)
    assert zero_radius == pytest.approx(np.tile(center, (10, 1)), abs=0.0)
    empty = sample_uniform_ball(center, 1.0, 0, seed=0)
    assert empty.shape == (0, 2)
    with pytest.raises(ValueError):
        sample_uniform_ball(center, -1.0, 5, seed=0)
    # A count must be a whole number, not a float or a bool; numpy
    # integers draw the same points as Python ones.
    for count in (2.0, 2.5, True, False, np.float64(3.0)):
        with pytest.raises(ValueError, match="count must be a nonnegative integer"):
            sample_uniform_ball(center, 1.0, count, seed=0)
    assert np.array_equal(sample_uniform_ball(center, 1.0, np.int64(3), seed=5),
                          sample_uniform_ball(center, 1.0, 3, seed=5))


@pytest.mark.parametrize("center, radius", [
    ([0.0, np.nan], 1.0), ([np.inf, 0.0], 1.0), ([0.0, -np.inf], 1.0),
    ([0.0, 0.0], np.nan), ([0.0, 0.0], np.inf),
], ids=["nan-center", "inf-center", "minus-inf-center", "nan-radius", "inf-radius"])
def test_sample_uniform_ball_rejects_non_finite_input(center, radius):
    with pytest.raises(ValueError):
        sample_uniform_ball(np.array(center), radius, 5, seed=0)
    with pytest.raises(ValueError):
        sample_uniform_ball(center, 1.0, -5, seed=0)


def test_support_check():
    mean = np.zeros(2)
    draws = sample_uniform_ball(mean, 0.5, 200, seed=4)
    assert float(np.linalg.norm(draws - mean, axis=1).max()) <= 0.5 + 1e-9


def write_samples(tmp_path, text: str) -> str:
    path = tmp_path / "samples.csv"
    path.write_text(text)
    return str(path)


def test_load_samples_roundtrip(tmp_path):
    path = write_samples(tmp_path,
                         "f_e1,f_e2,l_e1,l_e2\n"
                         "10.0,90.0,34.9,39.1\n"
                         "10.0,90.0,35.1,38.9\n")
    sample = load_samples(path, ("e1", "e2"))
    assert sample.num_records == 2
    assert sample.flows == pytest.approx(np.array([[10.0, 90.0], [10.0, 90.0]]))
    assert sample.latencies[0] == pytest.approx([34.9, 39.1])


def test_load_samples_header_must_match_edge_order(tmp_path):
    path = write_samples(tmp_path,
                         "f_e2,f_e1,l_e1,l_e2\n"
                         "1.0,2.0,3.0,4.0\n")
    with pytest.raises(FileFormatError):
        load_samples(path, ("e1", "e2"))


def test_load_samples_rejects_ragged_rows(tmp_path):
    path = write_samples(tmp_path,
                         "f_e1,f_e2,l_e1,l_e2\n"
                         "1.0,2.0,3.0\n")
    with pytest.raises(FileFormatError):
        load_samples(path, ("e1", "e2"))


def test_load_samples_rejects_non_numeric(tmp_path):
    path = write_samples(tmp_path,
                         "f_e1,f_e2,l_e1,l_e2\n"
                         "1.0,fast,3.0,4.0\n")
    with pytest.raises(FileFormatError):
        load_samples(path, ("e1", "e2"))


def test_load_samples_reports_file_lines(tmp_path):
    # numpy counts records; the message counts file lines, the header and
    # the blank line included.
    path = write_samples(tmp_path,
                         "f_e1,f_e2,l_e1,l_e2\n"
                         "1.0,2.0,3.0,4.0\n"
                         "1.0,2.0,3.0,4.0\n"
                         "\n"
                         "1.0,fast,3.0,4.0\n")
    with pytest.raises(FileFormatError) as info:
        load_samples(path, ("e1", "e2"))
    assert "'fast'" in str(info.value) and "on line 5," in str(info.value)
    ragged = write_samples(tmp_path,
                           "f_e1,f_e2,l_e1,l_e2\n"
                           "\n"
                           "1.0,2.0,3.0,4.0\n"
                           "1.0,2.0,3.0\n")
    with pytest.raises(FileFormatError) as info:
        load_samples(ragged, ("e1", "e2"))
    assert "on line 4" in str(info.value) and "usecols" not in str(info.value)


def test_load_samples_empty_and_missing(tmp_path):
    with pytest.raises(FileFormatError):
        load_samples(write_samples(tmp_path, ""), ("e1", "e2"))
    # A header with no records is almost certainly a truncated file.
    header_only = write_samples(tmp_path, "f_e1,f_e2,l_e1,l_e2\n")
    with pytest.raises(FileFormatError) as info:
        load_samples(header_only, ("e1", "e2"))
    assert "no records" in str(info.value)
    absent = str(tmp_path / "absent.csv")
    with pytest.raises(FileFormatError) as info:
        load_samples(absent, ("e1", "e2"))
    assert str(info.value).count(absent) == 1


def csv_module_parse(path) -> np.ndarray:
    """Reference parse: every non-empty csv row after the header, cell by cell."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    return np.array([[float(cell) for cell in row] for row in rows if row])


def test_load_samples_matches_a_csv_module_parse(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.normal(size=(300, 6)) * 10.0 ** rng.integers(-12, 13, size=(300, 6))
    values[::7, 0] = np.round(values[::7, 0])
    writers = (repr, "{:.6e}".format, "{:.17g}".format, "{:.3E}".format, "{:.0f}".format)
    wrappers = ("{}", '"{}"', " {} ", "\t{}  ", '" {}"')
    lines = ["f_a,f_b,f_c,l_a,l_b,l_c"]
    for i, row in enumerate(values.tolist()):
        lines.append(",".join(wrappers[(i + 2 * j) % 5].format(writers[(3 * i + j) % 5](v))
                              for j, v in enumerate(row)))
        if i % 17 == 0:
            lines.append("")
    path = write_samples(tmp_path, "\n".join(lines) + "\n\n")
    sample = load_samples(path, ("a", "b", "c"))
    reference = csv_module_parse(path)
    assert reference.shape == (300, 6)
    assert np.array_equal(np.hstack([sample.flows, sample.latencies]), reference)
    assert (reference < 0).any() and (tmp_path / "samples.csv").read_text().count('"') > 100


@pytest.mark.parametrize("text", [
    "f_e1,f_e2,l_e1,l_e2",
    "f_e1,f_e2,l_e1,l_e2\n",
    "f_e1,f_e2,l_e1,l_e2\r\n",
    "f_e1,f_e2,l_e1,l_e2\n\n\n",
    "f_e1,f_e2,l_e1,l_e2\r\n\r\n\n",
])
def test_load_samples_without_records(tmp_path, text):
    # Header-only files and files whose body is only empty lines; numpy
    # would warn on them, and warnings fail the test suite.
    with pytest.raises(FileFormatError) as info:
        load_samples(write_samples(tmp_path, text), ("e1", "e2"))
    assert "no records" in str(info.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
def test_load_samples_rejects_non_finite_cells(tmp_path, cell):
    path = write_samples(tmp_path,
                         "f_e1,f_e2,l_e1,l_e2\n"
                         "10.0,90.0,34.9,39.1\n"
                         f"10.0,{cell},35.1,38.9\n")
    with pytest.raises(FileFormatError) as info:
        load_samples(path, ("e1", "e2"))
    assert path in str(info.value) and "non-finite" in str(info.value)


def test_load_samples_checks_the_column_count_against_the_header(tmp_path):
    path = write_samples(tmp_path,
                         "f_e1,f_e2,l_e1,l_e2\n"
                         "1.0,2.0,3.0\n"
                         "1.0,2.0,3.0\n")
    with pytest.raises(FileFormatError) as info:
        load_samples(path, ("e1", "e2"))
    assert "expected 4 fields" in str(info.value)
