"""Tests for disturbance estimation, the worst-case mean, and sampling."""

import csv

import numpy as np
import pytest

from robusttolls.equilibrium import LatencyModel, kkt_blocks
from robusttolls.exceptions import FileFormatError, InsufficientDataError
from robusttolls.network import IncidenceData, incidence
from robusttolls.uncertainty import (
    DisturbanceModel,
    SampleSet,
    estimate_nominal,
    load_samples,
    sample_uniform_ball,
    worst_case_mean,
)
from test_equilibrium import PIGOU_BETA, pigou_blocks


def test_disturbance_model_validation():
    good = DisturbanceModel(mean=np.zeros(2), cov=np.eye(2), support_radius=0.5)
    assert good.support_radius == 0.5
    with pytest.raises(ValueError):
        DisturbanceModel(mean=np.zeros(2), cov=np.eye(3), support_radius=0.5)
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


def test_disturbance_model_clamps_round_off():
    # A covariance whose smallest eigenvalue is round-off negative is
    # accepted and stored as exactly positive semidefinite.
    vecs = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    cov = (vecs * np.array([1.0, -1e-14])) @ vecs.T
    model = DisturbanceModel(mean=np.zeros(2), cov=cov, support_radius=0.1)
    assert np.linalg.eigvalsh(model.cov)[0] >= 0.0


def test_sample_set_validation():
    flows = np.ones((3, 2))
    lats = np.ones((3, 2))
    assert SampleSet(flows, lats).num_records == 3
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


def test_worst_case_mean_degenerate_direction_warns():
    # Zero injections make the flow response vanish identically, so there
    # is no worst direction; the nominal mean comes back with a warning.
    inc = IncidenceData(matrix=np.array([[1.0, 1.0]]), injections=np.array([0.0]))
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
