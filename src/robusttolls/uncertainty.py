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

Uniform draws from the support ball come in seeded blocks of 4096
(:func:`sample_uniform_ball`).  One generator, :func:`_ball_blocks`,
yields each block's unit-ball pieces (Gaussian directions, their norms
and radius factors): :func:`sample_uniform_ball` assembles points from
them, and the experiment harness projects them straight onto a latency
slope, each cell whole on one thread, so its cells see the same draws
whatever the number of threads.
"""

from __future__ import annotations

import csv
import itertools
import re
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .equilibrium import KktBlocks, LatencyModel, latency_decomposition
from .exceptions import FileFormatError, InsufficientDataError
from .network import _frozen, _locked, _vector

_BALL_BLOCK = 4096
# Relative asymmetry and negative eigenvalue a covariance may carry from round-off.
_PSD_TOL = 1e-10
# numpy's loadtxt names the failing record "at row N", counting records
# from 0 when a cell does not convert and from 1 when a row is ragged.
_NUMPY_ROW = re.compile(r"at row (\d+)(, column)?")
_NUMPY_ADVICE = "; use `usecols` to select a subset and avoid this error"


def _checked_covariance(cov: np.ndarray) -> np.ndarray:
    """A square, finite, symmetric, PSD covariance, validated and kept as given.

    Round-off may leave asymmetry up to ``_PSD_TOL`` of the largest entry
    and negative eigenvalues up to ``_PSD_TOL`` of the largest eigenvalue,
    so the rule does not depend on the units (a zero covariance passes);
    anything beyond that raises ``ValueError``.  The matrix is returned
    as ``0.5 * (cov + cov.T)``, which is ``cov`` bit for bit when it is
    symmetric.  Round-off negative eigenvalues stay: the worst case keeps
    the plug-in covariance, so no computation reads it.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got {cov.shape}")
    if not np.isfinite(cov).all():
        raise ValueError("covariance must be finite")
    top = float(np.abs(cov).max(initial=0.0))
    if float(np.abs(cov - cov.T).max(initial=0.0)) > _PSD_TOL * top:
        raise ValueError("covariance must be symmetric")
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals.size and eigvals[0] < -_PSD_TOL * float(eigvals[-1]):
        raise ValueError(f"covariance is not positive semidefinite "
                         f"(min eigenvalue {eigvals[0]:.3e})")
    return _locked(0.5 * (cov + cov.T))


@dataclass(frozen=True)
class DisturbanceModel:
    """Plug-in moments of the latency disturbance plus its support radius.

    The mean and covariance are the center of the Gelbrich ambiguity
    ball.  ``support_radius`` bounds how far any realized disturbance
    strays from the mean (Euclidean norm); it is configuration, not
    something estimated from data.  Construction raises ``ValueError``
    unless the mean is a finite vector, the covariance a matching finite
    positive semidefinite matrix (see :func:`_checked_covariance`) and the
    support radius finite and nonnegative.  The covariance is validated
    and kept as given, symmetrized; the worst case never reads it.  Mean
    and covariance are write-locked copies, so later edits to the
    caller's arrays miss them.
    """

    mean: np.ndarray
    cov: np.ndarray
    support_radius: float

    def __post_init__(self) -> None:
        mean = _frozen(self.mean)
        if mean.ndim != 1 or not np.isfinite(mean).all():
            raise ValueError("mean must be a finite vector")
        cov = _checked_covariance(self.cov)
        if cov.shape[0] != mean.shape[0]:
            raise ValueError("mean and covariance dimensions disagree")
        _check_radius(self.support_radius, "support_radius")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "support_radius", float(self.support_radius))


@dataclass(frozen=True)
class SampleSet:
    """Paired flow and latency observations, one row per record, as write-locked copies."""

    flows: np.ndarray
    latencies: np.ndarray

    def __post_init__(self) -> None:
        flows, lats = _frozen(self.flows), _frozen(self.latencies)
        if flows.ndim != 2 or lats.shape != flows.shape:
            raise ValueError("flows and latencies must be matching (records, edges) arrays")
        if flows.shape[0] < 1:
            raise ValueError("a sample set needs at least one record")
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


def _check_radius(value: float, name: str = "eps") -> None:
    """Refuse a radius that is negative, NaN or infinite, naming it ``name``."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def worst_case_mean(blocks: KktBlocks, tau: np.ndarray, model: DisturbanceModel,
                    eps: float) -> np.ndarray:
    """Mean of the worst distribution in the radius-``eps`` ambiguity ball.

    The adversary spends the whole budget shifting the mean along the
    latency slope ``q(tau)`` and leaves the covariance alone.  The slope
    scales with the demand, so any nonzero slope, however small, gives
    the direction.  Only when it is exactly zero (``R q`` equals the
    injections, so this needs zero demand) is every mean equally bad;
    then the nominal mean is returned and a ``UserWarning`` flags the
    degenerate direction.
    """
    _check_radius(eps)
    _vector(model.mean, blocks.gamma.shape[0], "the model's mean")
    return _shifted_mean(model, latency_decomposition(blocks, tau)[0], eps)


def _shifted_mean(model: DisturbanceModel, q: np.ndarray, eps: float) -> np.ndarray:
    """:func:`worst_case_mean` along the latency slope ``q``, with nothing checked."""
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        warnings.warn("worst-case disturbance direction is undefined (latency slope is zero); "
                      "returning the nominal mean", stacklevel=3)
        return model.mean.copy()
    return model.mean + eps * q / norm


def _row_norms(direction: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(direction, axis=1)``, bit for bit, without its slow row reduction.

    Below eight columns numpy sums a row's squares in order, which a
    running column sum reproduces; from eight on it sums them pairwise,
    so those rows go through numpy itself.
    """
    n = direction.shape[1]
    if n >= 8:
        return np.linalg.norm(direction, axis=1)
    squares = direction[:, 0] * direction[:, 0]
    for k in range(1, n):
        squares += direction[:, k] * direction[:, k]
    return np.sqrt(squares)


def _ball_blocks(n: int, count: int, seed: int | tuple[int, ...]
                 ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The unit-ball pieces of :func:`sample_uniform_ball`'s rows, at most 4096 at a time.

    Block ``b`` draws 4096 Gaussian directions in ``n`` dimensions, then
    4096 uniforms ``U``, from ``SeedSequence(entropy=seed, spawn_key=(b,))``;
    the last block keeps only the rows still wanted.  Each block yields
    ``(direction, norms, scale)``: the ``(rows, n)`` directions, their
    Euclidean norms (1.0 where a norm is below 1e-300) and ``U**(1/n)``.
    Row ``r`` of the unit ball is ``direction[r] / norms[r] * scale[r]``;
    nothing here forms it.  Arguments are not checked here.
    """
    for block, start in enumerate(range(0, count, _BALL_BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
        direction = rng.standard_normal((_BALL_BLOCK, n))
        take = min(_BALL_BLOCK, count - start)
        scale = rng.random(_BALL_BLOCK)[:take] ** (1.0 / n)
        norms = _row_norms(direction[:take])
        norms[norms < 1e-300] = 1.0
        yield direction[:take], norms, scale


def _is_whole(value: object) -> bool:
    """Whether ``value`` is a Python or numpy integer (and not a bool)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def sample_uniform_ball(center: np.ndarray, radius: float, count: int,
                        seed: int | tuple[int, ...]) -> np.ndarray:
    """Draw ``count`` points uniformly from a closed Euclidean ball.

    Direction comes from a normalized Gaussian, radius from
    ``radius * U^(1/n)``.  Draws are generated in fixed blocks of 4096,
    each from its own ``SeedSequence(entropy=seed, spawn_key=(block,))``
    stream, so a given seed always produces the same records no matter
    how many are requested (prefixes agree) and cells of a larger
    experiment can be generated independently.  The blocks come from
    :func:`_ball_blocks`, and each point is ``center + direction / norm *
    radius``.  The experiment harness projects the same blocks onto a
    latency slope without forming these points.  Raises
    ``ValueError`` unless ``center`` is a finite nonempty vector,
    ``radius`` finite and nonnegative and ``count`` a nonnegative integer.
    """
    center = np.asarray(center, dtype=float)
    if center.ndim != 1 or center.size == 0 or not np.isfinite(center).all():
        raise ValueError("center must be a finite nonempty vector")
    _check_radius(radius, "radius")
    if not _is_whole(count) or count < 0:
        raise ValueError(f"count must be a nonnegative integer, got {count!r}")
    out = np.empty((count, center.shape[0]))
    blocks = _ball_blocks(center.shape[0], count, seed)
    for start, (direction, norms, scale) in zip(range(0, count, _BALL_BLOCK), blocks):
        out[start:start + norms.shape[0]] = \
            center + direction / norms[:, None] * (radius * scale)[:, None]
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
