"""Disturbance data, moment estimation, and the ambiguity set.

The disturbance is the additive edge-latency offset.  Its distribution
is never known exactly: what we have are sample records (flows and
observed latencies, read from a CSV in one ``numpy.loadtxt`` pass), a
plug-in mean and covariance from them, and a bounded support radius
around the mean.  Robustness is measured in the Gelbrich distance on
first and second moments, whose square between ``(m1, S1)`` and
``(m2, S2)`` is ``||m1 - m2||^2 + tr(S1 + S2 - 2 (S2^1/2 S1 S2^1/2)^1/2)``:
the ambiguity ball of radius eps around the plug-in moments, intersected
with the bounded-support class, is the set the design guards against.
The worst distribution in that ball shifts the mean by eps along the
latency gradient and keeps the plug-in covariance, so the covariance
terms vanish and only the mean shift appears here; no distance is ever
computed.
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

_BALL_BLOCK = 4096
_DEGENERATE_DIRECTION = 1e-12
# Relative asymmetry and negative eigenvalue a covariance may carry from round-off.
_PSD_TOL = 1e-10
# numpy's loadtxt names the failing record "at row N", counting records
# from 0 when a cell does not convert and from 1 when a row is ragged.
_NUMPY_ROW = re.compile(r"at row (\d+)(, column)?")
_NUMPY_ADVICE = "; use `usecols` to select a subset and avoid this error"


def _clean_covariance(cov: np.ndarray) -> np.ndarray:
    """A square, finite, symmetric, PSD covariance, with round-off negatives clamped to zero.

    Round-off may leave asymmetry and negative eigenvalues up to
    ``_PSD_TOL`` relative to the largest entry or eigenvalue (at least 1);
    anything beyond that raises ``ValueError``.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got {cov.shape}")
    if not np.isfinite(cov).all():
        raise ValueError("covariance must be finite")
    scale = max(1.0, float(np.abs(cov).max(initial=0.0)))
    if float(np.abs(cov - cov.T).max(initial=0.0)) > _PSD_TOL * scale:
        raise ValueError("covariance must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals.size and eigvals[0] < -_PSD_TOL * max(float(eigvals[-1]), 1.0):
        raise ValueError(f"covariance is not positive semidefinite "
                         f"(min eigenvalue {eigvals[0]:.3e})")
    cleaned = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T
    cleaned = 0.5 * (cleaned + cleaned.T)
    cleaned.setflags(write=False)
    return cleaned


@dataclass(frozen=True)
class DisturbanceModel:
    """Plug-in moments of the latency disturbance plus its support radius.

    The mean and covariance are the center of the Gelbrich ambiguity
    ball.  ``support_radius`` bounds how far any realized disturbance
    strays from the mean (Euclidean norm); it is configuration, not
    something estimated from data.  Construction raises ``ValueError``
    unless the mean is a finite vector, the covariance a matching finite
    positive semidefinite matrix (see :func:`_clean_covariance`) and the
    support radius finite and nonnegative.
    """

    mean: np.ndarray
    cov: np.ndarray
    support_radius: float

    def __post_init__(self) -> None:
        mean = np.ascontiguousarray(np.asarray(self.mean, dtype=float))
        if mean.ndim != 1 or not np.isfinite(mean).all():
            raise ValueError("mean must be a finite vector")
        cov = _clean_covariance(self.cov)
        if cov.shape[0] != mean.shape[0]:
            raise ValueError("mean and covariance dimensions disagree")
        if not 0.0 <= self.support_radius < np.inf:
            raise ValueError("support_radius must be finite and nonnegative")
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "support_radius", float(self.support_radius))


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
        # An OS error's own text repeats the path; its strerror does not.
        reason = err.strerror if isinstance(err, OSError) else err
        raise FileFormatError(f"cannot read sample file {path}: {reason}") from err

    if data.shape[1] != len(expected):
        raise FileFormatError(f"sample file {path}: expected {len(expected)} fields "
                              f"per record, got {data.shape[1]}")
    if not np.isfinite(data).all():
        raise FileFormatError(f"sample file {path} holds a non-finite number")
    m = len(edge_ids)
    return SampleSet(flows=data[:, :m], latencies=data[:, m:])
