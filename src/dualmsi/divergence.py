"""KL-divergence adulteration metric and the linear functional map.

The divergence is computed between smoothed histograms of a scalar
feature with one value per row of a transmittance ``DataMatrix``: the
first LDA component (``lda_feature_extractor``, used by the CLI's
``kl-regress``) or one band column (the coconut-oil study).  The pooled
reference-level distribution is the reference; each replicate
contributes one (level, KL) point, and an ordinary least-squares line
maps adulteration percentage to divergence.

KL uses natural log (nats).  Every bin receives a small additive epsilon
before normalization so the divergence is always finite; this is a
documented deviation from the bare formula.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import Mode, load_dataset
from .errors import EmptyDataError, ValidationError, check_number
from .features import DataMatrix, build_matrix, lda_fit, project
from .jsonio import write_json


@dataclass(frozen=True)
class Distribution:
    """Normalized histogram: n+1 increasing edges, n strictly positive probs."""

    bin_edges: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if edges.ndim != 1 or probs.ndim != 1 or edges.size != probs.size + 1:
            raise ValidationError("need n+1 edges for n probabilities")
        if np.any(np.diff(edges) <= 0):
            raise ValidationError("bin edges must be strictly increasing")
        if probs.min() < 0 or abs(probs.sum() - 1.0) > 1e-12:
            raise ValidationError("probabilities must be >= 0 and sum to 1")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "probs", probs)


def histogram(
    values,
    n_bins: int = 64,
    value_range: tuple[float, float] = (0.0, 1.0),
    epsilon: float = 1e-9,
) -> Distribution:
    """Smoothed probability histogram of a 1-D value collection.

    Bins are right-exclusive except the last; values outside the range
    are clipped into the edge bins.  ``epsilon`` is added to every bin
    before renormalizing, so all probabilities are strictly positive.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptyDataError("histogram of no values")
    lo, hi = float(value_range[0]), float(value_range[1])
    if not hi > lo:
        raise ValidationError(f"bad histogram range ({lo}, {hi})")
    check_number("n_bins", n_bins, 1, integer=True)
    check_number("epsilon", epsilon, 0, strict=True)  # smoothing keeps KL finite
    clipped = np.clip(arr, lo, hi)
    counts, edges = np.histogram(clipped, bins=n_bins, range=(lo, hi))
    smoothed = counts.astype(np.float64) + epsilon
    return Distribution(bin_edges=edges, probs=smoothed / smoothed.sum())


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """KL(P || Q) in nats; zero-probability P bins contribute nothing."""
    if p.bin_edges.shape != q.bin_edges.shape or not np.array_equal(
        p.bin_edges, q.bin_edges
    ):
        raise ValidationError("distributions must share identical bin edges")
    mask = p.probs > 0
    return float(np.sum(p.probs[mask] * np.log(p.probs[mask] / q.probs[mask])))


def lda_feature_extractor(matrix: DataMatrix) -> np.ndarray:
    """The first-LDA-component value of every row, fitted on ``matrix`` itself."""
    return project(lda_fit(matrix, k=1), matrix).values[:, 0]


def adulteration_curve(
    matrix: DataMatrix,
    feature,
    reference_label: float = 0.0,
    n_bins: int = 24,
    epsilon: float = 1e-9,
) -> list[tuple[float, float]]:
    """One (adulteration %, KL) point per sample of ``matrix``.

    ``feature`` holds one scalar per matrix row; a sample's distribution
    is the histogram of its rows' values.  The reference distribution
    pools every sample at ``reference_label``; the histogram range is the
    global span of the feature so all distributions share bin edges.
    Reference replicates are included (their KL is the within-class noise
    floor).  Points follow the samples' first-appearance order.
    """
    values = np.asarray(feature, dtype=np.float64).ravel()
    if values.size != matrix.n_rows:
        raise ValidationError(f"{values.size} feature values for {matrix.n_rows} matrix rows")
    if not values.size:
        raise EmptyDataError("no samples")
    rows: dict[str, list[int]] = {}
    for i, (sid, _) in enumerate(matrix.row_meta):
        rows.setdefault(sid, []).append(i)
    levels = {sid: matrix.row_meta[idx[0]][1].adulteration_pct for sid, idx in rows.items()}
    if None in levels.values():
        unlabeled = next(sid for sid, level in levels.items() if level is None)
        raise ValidationError(f"sample {unlabeled} has no adulteration label")
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        hi = lo + 1e-9

    def dist(v: np.ndarray) -> Distribution:
        return histogram(v, n_bins=n_bins, value_range=(lo, hi), epsilon=epsilon)

    reference = [values[idx] for sid, idx in rows.items() if levels[sid] == reference_label]
    if not reference:
        raise ValidationError(f"no samples at reference level {reference_label}")
    p = dist(np.concatenate(reference))
    return [(levels[sid], kl_divergence(p, dist(values[idx]))) for sid, idx in rows.items()]


@dataclass(frozen=True)
class FunctionalMap:
    """Fitted linear map from adulteration % to divergence."""

    slope: float
    intercept: float
    r_squared: float

    def to_json(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept, "r_squared": self.r_squared}


def fit_linear(points: Sequence[tuple[float, float]]) -> FunctionalMap:
    """Ordinary least squares over (x, y) points with R^2 = 1 - SSres/SStot.

    A constant-y input fits slope 0 with R^2 defined as 0.
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValidationError("need at least 2 points to fit a line")
    x = np.array([p[0] for p in pts], dtype=np.float64)
    y = np.array([p[1] for p in pts], dtype=np.float64)
    if np.unique(x).size < 2:
        raise ValidationError("need at least 2 distinct x values")
    x_mean, y_mean = x.mean(), y.mean()
    sxx = ((x - x_mean) ** 2).sum()
    sxy = ((x - x_mean) * (y - y_mean)).sum()
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ss_res = ((y - (slope * x + intercept)) ** 2).sum()
    ss_tot = ((y - y_mean) ** 2).sum()
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return FunctionalMap(slope=float(slope), intercept=float(intercept), r_squared=float(r_squared))


def median_curve(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Per-level median KL, level-sorted; the summary the line is often fit on."""
    levels = sorted({p[0] for p in points})
    return [
        (level, float(np.median([kl for lv, kl in points if lv == level])))
        for level in levels
    ]


def write_kl_curve_csv(points: Sequence[Sequence[float]], path) -> None:
    """Curve export: ``level_pct,replicate,kl`` with replicate per level."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    counters: dict[float, int] = {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level_pct", "replicate", "kl"])
        for level, kl in points:
            rep = counters.get(level, 0)
            counters[level] = rep + 1
            writer.writerow([level, rep, repr(float(kl))])


#: Frozen reference curve for the coconut-oil functional map: 9 levels x 8
#: replicates of (adulteration %, KL divergence).  fit_linear over these
#: points reproduces slope 1.0497, intercept -1.001, R^2 0.9558; they
#: serve as the regression fixture for the oil study's published map.
REFERENCE_OIL_POINTS: tuple[tuple[float, float], ...] = (
    (0.0, 0.250521), (0.0, 0.606790), (0.0, 0.481907), (0.0, 0.741697),
    (0.0, 1.078900), (0.0, 0.573035), (0.0, 0.604304), (0.0, 1.414845),
    (5.0, 2.293758), (5.0, 3.319942), (5.0, 4.429959), (5.0, 4.653564),
    (5.0, 3.421543), (5.0, 3.638818), (5.0, 4.680160), (5.0, 3.162255),
    (10.0, 8.489514), (10.0, 12.231561), (10.0, 7.656429), (10.0, 7.580109),
    (10.0, 8.974195), (10.0, 8.112862), (10.0, 7.354100), (10.0, 9.049232),
    (15.0, 15.593018), (15.0, 16.775034), (15.0, 10.043280), (15.0, 11.345723),
    (15.0, 15.555612), (15.0, 15.297683), (15.0, 13.968130), (15.0, 13.917521),
    (20.0, 16.024179), (20.0, 21.289300), (20.0, 23.109351), (20.0, 17.539981),
    (20.0, 22.925462), (20.0, 16.413951), (20.0, 17.708264), (20.0, 21.333511),
    (25.0, 24.527434), (25.0, 23.881065), (25.0, 25.341409), (25.0, 31.581773),
    (25.0, 21.048756), (25.0, 21.527007), (25.0, 24.451449), (25.0, 28.233107),
    (30.0, 32.100611), (30.0, 22.343951), (30.0, 36.161330), (30.0, 29.444694),
    (30.0, 31.385896), (30.0, 31.012515), (30.0, 31.341316), (30.0, 31.449687),
    (35.0, 41.780420), (35.0, 38.732825), (35.0, 37.745341), (35.0, 35.544815),
    (35.0, 31.277527), (35.0, 29.313524), (35.0, 39.228179), (35.0, 35.065369),
    (40.0, 37.969747), (40.0, 36.862865), (40.0, 48.389965), (40.0, 45.173570),
    (40.0, 43.469042), (40.0, 44.188085), (40.0, 35.957859), (40.0, 39.324867),
)


# --------------------------------------------------------------------------
# Command handler (``dualmsi kl-regress``, listed in ``cli.COMMANDS``)
# --------------------------------------------------------------------------


def cmd_kl_regress(
    args, out: Path, input: str, reference_label: float = 0.0, n_bins: int = 24
) -> None:
    """KL adulteration curve + linear functional map from a dataset directory."""
    matrix = build_matrix(load_dataset(input), Mode.TRANSMITTANCE)
    points = adulteration_curve(
        matrix, lda_feature_extractor(matrix), reference_label=reference_label, n_bins=n_bins
    )
    medians = median_curve(points)
    fmap = fit_linear(points)
    write_kl_curve_csv(points, out / "kl_curve.csv")
    write_json(fmap.to_json(), out / "functional_map.json")
    write_json(fit_linear(medians).to_json(), out / "functional_map_medians.json")
    print(f"functional map: slope {fmap.slope:.4f}, intercept {fmap.intercept:.4f}, "
          f"R^2 {fmap.r_squared:.4f}")
