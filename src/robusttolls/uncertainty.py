"""Disturbance data, moment estimation, and the ambiguity-set geometry.

The disturbance is the additive edge-latency offset.  Its distribution
is never known exactly: what we have are sample records (flows and
observed latencies, read from a CSV in one ``numpy.loadtxt`` pass), a
plug-in mean and covariance from them, and a bounded support radius
around the mean.  Robustness is measured in the Gelbrich distance on
first and second moments: the ambiguity ball of radius eps around the
plug-in moments, intersected with the bounded-support class, is the set
the design guards against.  The worst distribution in that ball shifts
the mean along the latency gradient and keeps the plug-in covariance,
which is why only the mean shift appears here.
"""

from __future__ import annotations

import csv
import itertools
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .equilibrium import KktBlocks, LatencyModel, latency_decomposition
from .exceptions import FileFormatError, InsufficientDataError
from .optim import _psd_eigh, psd_sqrt

_BALL_BLOCK = 4096
_DEGENERATE_DIRECTION = 1e-12
# numpy's loadtxt names the failing record "at row N", counting records
# from 0 when a cell does not convert and from 1 when a row is ragged.
_NUMPY_ROW = re.compile(r"at row (\d+)(, column)?")
_NUMPY_ADVICE = "; use `usecols` to select a subset and avoid this error"


def _clean_covariance(cov: np.ndarray, what: str) -> np.ndarray:
    """Validate a covariance (see :func:`optim._psd_eigh`); clamp round-off negatives to zero."""
    eigvals, eigvecs = _psd_eigh(cov, f"{what} covariance")
    cleaned = (eigvecs * eigvals) @ eigvecs.T
    cleaned = 0.5 * (cleaned + cleaned.T)
    cleaned.setflags(write=False)
    return cleaned


@dataclass(frozen=True)
class GelbrichPoint:
    """A (mean, covariance) pair, the coordinates of the ambiguity geometry."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.ascontiguousarray(np.asarray(self.mean, dtype=float))
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        cov = _clean_covariance(self.cov, "moment")
        if cov.shape[0] != mean.shape[0]:
            raise ValueError("mean and covariance dimensions disagree")
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class DisturbanceModel:
    """Plug-in moments of the latency disturbance plus its support radius.

    ``support_radius`` bounds how far any realized disturbance strays
    from the mean (Euclidean norm); it is configuration, not something
    estimated from data.
    """

    mean: np.ndarray
    cov: np.ndarray
    support_radius: float

    def __post_init__(self) -> None:
        point = GelbrichPoint(self.mean, self.cov)
        if not self.support_radius >= 0.0:
            raise ValueError("support_radius must be nonnegative")
        object.__setattr__(self, "mean", point.mean)
        object.__setattr__(self, "cov", point.cov)
        object.__setattr__(self, "support_radius", float(self.support_radius))

    def as_point(self) -> GelbrichPoint:
        return GelbrichPoint(self.mean, self.cov)


@dataclass(frozen=True)
class SampleSet:
    """Paired flow and latency observations, one row per record."""

    flows: np.ndarray
    latencies: np.ndarray

    def __post_init__(self) -> None:
        flows = np.ascontiguousarray(np.asarray(self.flows, dtype=float))
        lats = np.ascontiguousarray(np.asarray(self.latencies, dtype=float))
        if flows.ndim != 2 or lats.shape != flows.shape:
            raise ValueError("flows and latencies must be matching (records, edges) arrays")
        if flows.shape[0] < 1:
            raise ValueError("a sample set needs at least one record")
        flows.setflags(write=False)
        lats.setflags(write=False)
        object.__setattr__(self, "flows", flows)
        object.__setattr__(self, "latencies", lats)

    @property
    def num_records(self) -> int:
        return self.flows.shape[0]


def estimate_nominal(samples: SampleSet, lat: LatencyModel, support_radius: float) -> DisturbanceModel:
    """Plug-in disturbance moments from observed flows and latencies.

    Each record's disturbance is ``latency - beta * flow``; the estimate
    is the sample mean and the 1/N-normalized (maximum-likelihood)
    covariance of those residuals.  Needs at least two records, otherwise
    the covariance is vacuous and :class:`InsufficientDataError` is
    raised.
    """
    if samples.num_records < 2:
        raise InsufficientDataError(
            f"need at least 2 records to estimate a covariance, got {samples.num_records}")
    if samples.flows.shape[1] != lat.beta.shape[0]:
        raise ValueError("sample edge count does not match the latency model")
    residuals = samples.latencies - lat.beta * samples.flows
    mean = residuals.mean(axis=0)
    centered = residuals - mean
    cov = centered.T @ centered / samples.num_records
    return DisturbanceModel(mean=mean, cov=cov, support_radius=support_radius)


def gelbrich_distance(a: GelbrichPoint, b: GelbrichPoint) -> float:
    """Gelbrich distance between two moment pairs.

    The squared distance is ``||mean_a - mean_b||^2 +
    tr(cov_a + cov_b - 2 (cov_b^1/2 cov_a cov_b^1/2)^1/2)``; it lower
    bounds the Wasserstein-2 distance between any distributions carrying
    these moments, with equality for Gaussians.  Symmetric in its
    arguments even though the formula does not look it.
    """
    if a.mean.shape != b.mean.shape:
        raise ValueError("moment pairs live in different dimensions")
    root_b = psd_sqrt(b.cov)
    cross = psd_sqrt(root_b @ a.cov @ root_b)
    squared = float(np.sum((a.mean - b.mean) ** 2) + np.trace(a.cov) + np.trace(b.cov)
                    - 2.0 * float(np.trace(cross)))
    return float(np.sqrt(max(squared, 0.0)))


def in_gelbrich_ball(point: GelbrichPoint, model: DisturbanceModel, radius: float) -> bool:
    """Whether a moment pair lies within ``radius`` of the plug-in moments."""
    if radius < 0.0:
        raise ValueError("radius must be nonnegative")
    return gelbrich_distance(point, model.as_point()) <= radius + 1e-12


def worst_case_mean(blocks: KktBlocks, tau: np.ndarray, model: DisturbanceModel,
                    eps: float) -> np.ndarray:
    """Mean of the worst distribution in the radius-``eps`` ambiguity ball.

    The adversary spends the whole budget shifting the mean along the
    latency slope ``q(tau)`` and leaves the covariance alone.  When the
    slope vanishes every mean is equally bad; the nominal mean is
    returned and a ``UserWarning`` flags the degenerate direction.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if model.mean.shape[0] != blocks.gamma.shape[0]:
        raise ValueError("model dimension does not match the network")
    q, _ = latency_decomposition(blocks, tau)
    norm = float(np.linalg.norm(q))
    if norm < _DEGENERATE_DIRECTION:
        warnings.warn("worst-case disturbance direction is undefined (latency slope is zero); "
                      "returning the nominal mean", stacklevel=2)
        return model.mean.copy()
    return model.mean + eps * q / norm


def sample_uniform_ball(center: np.ndarray, radius: float, count: int,
                        seed: int | tuple[int, ...]) -> np.ndarray:
    """Draw ``count`` points uniformly from a closed Euclidean ball.

    Direction comes from a normalized Gaussian, radius from
    ``radius * U^(1/n)``.  Draws are generated in fixed blocks of 4096,
    each from its own ``SeedSequence(entropy=seed, spawn_key=(block,))``
    stream, so a given seed always produces the same records no matter
    how many are requested (prefixes agree) and cells of a larger
    experiment can be generated independently.
    """
    center = np.asarray(center, dtype=float)
    if center.ndim != 1 or center.size == 0:
        raise ValueError("center must be a nonempty vector")
    if radius < 0.0:
        raise ValueError("radius must be nonnegative")
    if count < 0:
        raise ValueError("count must be nonnegative")
    n = center.shape[0]
    out = np.empty((count, n))
    done = 0
    block = 0
    while done < count:
        take = min(_BALL_BLOCK, count - done)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
        direction = rng.standard_normal((_BALL_BLOCK, n))
        norms = np.linalg.norm(direction, axis=1, keepdims=True)
        norms[norms < 1e-300] = 1.0
        radii = radius * rng.random(_BALL_BLOCK) ** (1.0 / n)
        points = center + direction / norms * radii[:, None]
        out[done:done + take] = points[:take]
        done += take
        block += 1
    return out


def support_check(samples: np.ndarray, mean: np.ndarray, radius: float, tol: float = 1e-9) -> bool:
    """Whether every sample lies within ``radius`` (plus slack) of ``mean``."""
    samples = np.asarray(samples, dtype=float)
    mean = np.asarray(mean, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != mean.shape[0]:
        raise ValueError("samples must be rows in the mean's dimension")
    if samples.shape[0] == 0:
        return True
    distances = np.linalg.norm(samples - mean, axis=1)
    return bool(distances.max() <= radius + tol)


def _with_file_line(message: str, path: str) -> str:
    """numpy's parse error for a sample file, with its record row as a file line."""
    def file_line(found: re.Match) -> str:
        record = int(found.group(1)) - (0 if found.group(2) else 1)
        with open(path, newline="", encoding="utf-8") as handle:
            next(handle)  # the header
            filled = (number for number, text in enumerate(handle, start=2) if text.strip("\r\n"))
            line = next(itertools.islice(filled, record, None), None)
        return found.group(0) if line is None else f"on line {line}{found.group(2) or ''}"
    return _NUMPY_ROW.sub(file_line, message.replace(_NUMPY_ADVICE, ""), count=1)


def load_samples(path: str, edge_ids: tuple[str, ...]) -> SampleSet:
    """Read a sample CSV with columns ``f_<edge>...`` then ``l_<edge>...``.

    The header must name every edge twice, in the network's edge order:
    first the flow columns, then the latency columns.  The records below
    it are parsed in one ``numpy.loadtxt`` pass; cells may be quoted or
    padded with spaces, and empty lines are skipped.  Anything else
    (missing columns, shuffled order, non-numeric or non-finite cells,
    ragged rows, no records) raises :class:`FileFormatError`; a cell or row
    that does not parse is reported by its line in the file.
    """
    expected = [f"f_{e}" for e in edge_ids] + [f"l_{e}" for e in edge_ids]
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            header = next(csv.reader(handle), None)
            if header is None:
                raise FileFormatError(f"sample file {path} is empty")
            if [h.strip() for h in header] != expected:
                raise FileFormatError(
                    f"sample file {path} header must be exactly {','.join(expected)}")
            # Find the first record here: numpy warns on a file without one.
            for first in handle:
                if first.strip("\r\n"):
                    break
            else:
                raise FileFormatError(f"sample file {path} has a header but no records")
            try:
                data = np.loadtxt(itertools.chain([first], handle), delimiter=",",
                                  comments=None, quotechar='"', ndmin=2)
            except ValueError as err:
                raise FileFormatError(f"sample file {path}: {_with_file_line(str(err), path)}") from None
    except (OSError, UnicodeDecodeError) as err:
        raise FileFormatError(f"cannot read sample file {path}: {err}") from err

    if data.shape[1] != len(expected):
        raise FileFormatError(f"sample file {path}: expected {len(expected)} fields "
                              f"per record, got {data.shape[1]}")
    if not np.isfinite(data).all():
        raise FileFormatError(f"sample file {path} holds a non-finite number")
    m = len(edge_ids)
    return SampleSet(flows=data[:, :m], latencies=data[:, m:])
