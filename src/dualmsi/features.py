"""Superpixel data matrices, merged-mode fusion, and PCA/LDA projections.

Rows are superpixels (block means), columns are spectral bands tagged by
mode (``R:530``, ``T:830``).  Merged matrices concatenate the reflectance
and transmittance columns of paired samples, doubling the feature count.
Fitted normalizers and projections are immutable; transforms are pure.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import Label, Mode, Sample, SpectralCube, load_dataset
from .errors import ModeMismatchError, UnpairedSampleError, ValidationError, check_number


class LabelKind(Enum):
    """What a matrix CSV's label column holds."""

    ADULTERATION = "adulteration"  # a percentage
    CLASS = "class"  # an integer colour class


@dataclass(frozen=True)
class DataMatrix:
    """Observation matrix with per-row sample/label bookkeeping."""

    values: np.ndarray
    col_labels: tuple[str, ...]
    row_meta: tuple[tuple[str, Label], ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValidationError(f"matrix must be 2-D, got shape {values.shape}")
        if values.shape[1] != len(self.col_labels):
            raise ValidationError("column label count does not match matrix width")
        if values.shape[0] != len(self.row_meta):
            raise ValidationError("row metadata count does not match matrix height")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "col_labels", tuple(self.col_labels))
        object.__setattr__(self, "row_meta", tuple(self.row_meta))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def sample_ids(self) -> tuple[str, ...]:
        """Distinct sample ids in first-appearance order."""
        seen: dict[str, None] = {}
        for sid, _ in self.row_meta:
            seen.setdefault(sid)
        return tuple(seen)

    def label_keys(self) -> np.ndarray:
        return np.array([label.key for _, label in self.row_meta])

    def rows_for(self, sample_id: str) -> np.ndarray:
        return np.array([i for i, (sid, _) in enumerate(self.row_meta) if sid == sample_id])

    def select_rows(self, index) -> "DataMatrix":
        idx = np.asarray(index)
        return DataMatrix(
            values=self.values[idx],
            col_labels=self.col_labels,
            row_meta=tuple(self.row_meta[i] for i in idx),
        )

    def with_values(self, values: np.ndarray, col_labels=None) -> "DataMatrix":
        return DataMatrix(
            values=values,
            col_labels=self.col_labels if col_labels is None else tuple(col_labels),
            row_meta=self.row_meta,
        )

    def to_csv(self, path) -> None:
        """Write ``sample_id,label,<col_labels...>`` rows, parent directory too."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "label", *self.col_labels])
            for (sid, label), row in zip(self.row_meta, self.values):
                writer.writerow([sid, label.key, *(repr(float(v)) for v in row)])

    @classmethod
    def from_csv(cls, path, label_kind: LabelKind = LabelKind.ADULTERATION) -> "DataMatrix":
        """Read a file written by :meth:`to_csv`; a malformed row or label
        (a class label must be an integer) raises ValidationError naming the
        file and line."""
        make = Label.adulteration if label_kind is LabelKind.ADULTERATION else Label.color
        values = array("d")  # the cells, row after row, parsed line by line
        meta, labels = [], {}  # one Label per distinct label field
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if not header or len(header) < 3 or header[:2] != ["sample_id", "label"]:
                    raise ValidationError(f"unexpected matrix CSV header in {path}")
                for record in reader:
                    where = f"{path} line {reader.line_num}"
                    if len(record) != len(header):
                        raise ValidationError(
                            f"{where}: {len(record)} fields, the header has {len(header)}"
                        )
                    try:
                        numbers = [float(v) for v in record[1:]]
                    except ValueError:
                        numbers = [math.nan]
                    if not all(map(math.isfinite, numbers)):
                        raise ValidationError(f"{where}: label and cells must be finite numbers")
                    raw, *vals = numbers
                    if record[1] not in labels:
                        try:
                            labels[record[1]] = make(raw)
                        except ValidationError as exc:
                            raise ValidationError(f"{where}: {exc}") from None
                    meta.append((record[0], labels[record[1]]))
                    values.extend(vals)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"matrix CSV {path} is not UTF-8: {exc}") from None
        if not meta:
            raise ValidationError(f"empty matrix CSV: {path}")
        cols = tuple(header[2:])
        rows = np.frombuffer(values).reshape(len(meta), len(cols))
        return cls(values=rows, col_labels=cols, row_meta=tuple(meta))


def superpixels(cube: SpectralCube, block: int = 10) -> np.ndarray:
    """Block-mean superpixel matrix for one cube: rows x bands.

    Blocks are scanned row-major; a 100x100 crop with block 10 yields 100
    rows.  Trailing pixels of a non-divisible frame are dropped with a
    warning.
    """
    check_number("block", block, 1, min(cube.width, cube.height), integer=True)
    ny, nx = cube.height // block, cube.width // block
    if ny * block != cube.height or nx * block != cube.width:
        warnings.warn(
            f"frame {cube.width}x{cube.height} not divisible by block {block}; "
            "trailing pixels dropped"
        )
    stack = cube.values.astype(np.float64)[:, : ny * block, : nx * block]
    blocks = stack.reshape(len(cube.band_set), ny, block, nx, block).mean(axis=(2, 4))
    return blocks.reshape(len(cube.band_set), ny * nx).T


def build_matrix(samples: Iterable[Sample], mode: Mode, block: int = 10) -> DataMatrix:
    """Stack per-sample superpixel matrices vertically into one DataMatrix.

    ``samples`` may be any iterable, a generator included: each sample is
    checked (mode, and the first sample's band set) and reduced to its
    superpixel rows as it arrives, and only those rows are kept, so a
    generator of preprocessed samples holds one cube at a time.
    """
    blocks, meta = [], []
    band_set = None
    for sample in samples:
        if sample.cube.mode is not mode:
            raise ModeMismatchError(
                f"sample {sample.id} is {sample.cube.mode.value}, expected {mode.value}"
            )
        if band_set is None:
            band_set = sample.cube.band_set
        elif sample.cube.band_set != band_set:
            raise ValidationError(f"sample {sample.id} has a different band set")
        blocks.append(superpixels(sample.cube, block=block))
        meta.extend([(sample.id, sample.label)] * blocks[-1].shape[0])
    if not blocks:
        raise ValidationError("no samples to build a matrix from")
    cols = tuple(f"{mode.tag}:{wl}" for wl in band_set)
    return DataMatrix(values=np.vstack(blocks), col_labels=cols, row_meta=tuple(meta))


def stack(matrices: Sequence[DataMatrix]) -> DataMatrix:
    """Vertically join matrices with the same columns, rows in order.

    Stacking the per-sample matrices of :func:`build_matrix` gives the
    bytes of one ``build_matrix`` call over all those samples.
    """
    if not matrices:
        raise ValidationError("no matrices to stack")
    cols = matrices[0].col_labels
    if any(m.col_labels != cols for m in matrices):
        raise ValidationError("stacked matrices must share their columns")
    return DataMatrix(
        values=np.vstack([m.values for m in matrices]),
        col_labels=cols,
        row_meta=tuple(meta for m in matrices for meta in m.row_meta),
    )


def merge(r: DataMatrix, t: DataMatrix) -> DataMatrix:
    """Horizontally join paired reflectance and transmittance matrices.

    Requires the same sample ids in the same order with equal per-sample
    row counts; row i of the result is [row i of R | row i of T].
    """
    r_ids, t_ids = r.sample_ids(), t.sample_ids()
    if r_ids != t_ids:
        missing = set(r_ids).symmetric_difference(t_ids)
        raise UnpairedSampleError(
            f"sample sets differ between modes (unpaired: {sorted(missing)[:5]})"
        )
    if len(r.row_meta) != len(t.row_meta) or any(
        a[0] != b[0] for a, b in zip(r.row_meta, t.row_meta)
    ):
        raise UnpairedSampleError("per-sample row counts differ between modes")
    if r.n_cols != t.n_cols:
        raise ValidationError(
            f"band counts differ: {r.n_cols} reflectance vs {t.n_cols} transmittance"
        )
    return DataMatrix(
        values=np.hstack([r.values, t.values]),
        col_labels=r.col_labels + t.col_labels,
        row_meta=r.row_meta,
    )


@dataclass(frozen=True)
class Normalizer:
    """Per-column min-max scaler fitted on training data only."""

    col_min: np.ndarray
    col_max: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "col_min", np.asarray(self.col_min, dtype=np.float64))
        object.__setattr__(self, "col_max", np.asarray(self.col_max, dtype=np.float64))


def band_normalize(train: DataMatrix) -> tuple[Normalizer, DataMatrix]:
    """Fit per-column min-max scaling on the training matrix and apply it."""
    norm = Normalizer(col_min=train.values.min(axis=0), col_max=train.values.max(axis=0))
    return norm, apply_normalizer(norm, train)


def apply_normalizer(norm: Normalizer, matrix: DataMatrix) -> DataMatrix:
    """Scale columns into [0, 1] using train ranges; degenerate columns map to 0.5.

    Values outside the training range are clipped.
    """
    span = norm.col_max - norm.col_min
    degenerate = span == 0
    safe_span = np.where(degenerate, 1.0, span)
    scaled = (matrix.values - norm.col_min) / safe_span
    scaled = np.clip(scaled, 0.0, 1.0)
    scaled[:, degenerate] = 0.5
    return matrix.with_values(scaled)


@dataclass(frozen=True)
class SignatureTable:
    """Per-label band means and standard deviations."""

    labels: tuple[float, ...]
    bands: tuple[str, ...]
    means: np.ndarray
    sds: np.ndarray

    def row(self, label_key: float) -> np.ndarray:
        return self.means[self.labels.index(label_key)]


def spectral_signature(matrix: DataMatrix) -> SignatureTable:
    """Average intensity (and spread) per label across every band."""
    keys = matrix.label_keys()
    labels = tuple(sorted(set(keys.tolist())))
    means = np.vstack([matrix.values[keys == k].mean(axis=0) for k in labels])
    sds = np.vstack([matrix.values[keys == k].std(axis=0) for k in labels])
    return SignatureTable(labels=labels, bands=matrix.col_labels, means=means, sds=sds)


@dataclass(frozen=True)
class Projection:
    """Fitted linear projection: mean, component rows and their spectrum.

    PCA component rows are orthonormal; eigenvalues are non-increasing.
    ``col_labels`` names the original columns so per-band loadings can be
    reported.
    """

    kind: str
    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray
    col_labels: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "components", np.asarray(self.components, dtype=np.float64))
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=np.float64))
        eig = self.eigenvalues
        if eig.size > 1 and np.any(np.diff(eig) > 1e-9 * max(1.0, abs(eig[0]))):
            raise ValidationError("eigenvalues must be non-increasing")

    @property
    def k(self) -> int:
        return self.components.shape[0]

    def loadings(self) -> np.ndarray:
        """Absolute contribution of each original column, eigenvalue-weighted."""
        weights = np.maximum(self.eigenvalues, 0.0)
        total = weights.sum() or 1.0
        return (weights[:, None] * np.abs(self.components)).sum(axis=0) / total


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: largest-|entry| of each row positive."""
    out = components.copy()
    for i, row in enumerate(out):
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            out[i] = -row
    return out


def pca_fit(matrix: DataMatrix, k: int | None = None, variance_target: float = 0.99) -> Projection:
    """Fit PCA by eigendecomposition of the sample covariance.

    ``k`` wins when given; otherwise the smallest k reaching
    ``variance_target`` of total variance is chosen.  Components use a
    deterministic sign convention so runs reproduce across platforms.
    """
    values = matrix.values
    n, d = values.shape
    if n < 2:
        raise ValidationError("PCA needs at least 2 rows")
    check_number("k", k, 1, d, optional=True, integer=True)
    mean = values.mean(axis=0)
    centered = values - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]
    if k is None:
        total = eigvals.sum()
        if total <= 0:
            k = 1
        else:
            reached = np.cumsum(eigvals) / total
            k = int(np.searchsorted(reached, variance_target - 1e-12) + 1)
            k = min(k, d)
    components = _fix_signs(eigvecs[:, :k].T)
    return Projection(
        kind="PCA",
        mean=mean,
        components=components,
        eigenvalues=eigvals[:k],
        col_labels=matrix.col_labels,
    )


def _fisher_eigh(s_b: np.ndarray, s_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of S_b v = w S_w v.

    The reduction LAPACK's ``dsygvd`` performs: S_w = L L^T, then the
    symmetric eigenproblem of L^-1 S_b L^-T, whose eigenvectors U give
    V = L^-T U.  A pivot of L at the rounding level of S_w means S_w is
    singular in floating point, and V would be noise.
    """
    if not (np.isfinite(s_b).all() and np.isfinite(s_w).all()):
        raise ValidationError("LDA scatter matrices are not finite")
    try:
        chol = np.linalg.cholesky(s_w)
    except np.linalg.LinAlgError:
        chol = None
    rounding = len(s_w) * np.finfo(float).eps * s_w.diagonal().max()
    if chol is None or np.diagonal(chol).min() ** 2 <= rounding:
        raise ValidationError("the shrunk within-class scatter is not positive definite; raise the shrinkage")
    inv = np.linalg.inv(chol)
    eigvals, u = np.linalg.eigh(inv @ s_b @ inv.T)
    return eigvals, inv.T @ u


def lda_fit(
    matrix: DataMatrix,
    k: int | None = None,
    shrinkage: float | None = None,
) -> Projection:
    """Fit Fisher LDA with shrinkage-regularized within-class scatter.

    Solves the generalized eigenproblem S_b v = w (S_w + gamma I) v with
    gamma defaulting to 1e-6 * trace(S_w)/d; merged matrices built from
    correlated superpixels make bare S_w ill-conditioned.  At most C-1
    components exist.

    The eigensolve is ``_fisher_eigh``, on numpy's LAPACK.  Non-finite
    values, or a shrunk S_w that is not numerically positive definite
    (say an explicit ``shrinkage`` near 0 on rank-deficient S_w), raise
    ValidationError.
    """
    values = matrix.values
    keys = matrix.label_keys()
    classes = np.unique(keys)
    n, d = values.shape
    if classes.size < 2:
        raise ValidationError("LDA needs at least 2 classes")
    max_k = int(classes.size - 1)
    k = check_number("k", min(max_k, d) if k is None else k, 1, max_k, integer=True)

    mean = values.mean(axis=0)
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    for cls in classes:
        members = values[keys == cls]
        if members.shape[0] < 2:
            raise ValidationError(f"class {cls} has fewer than 2 rows")
        mu = members.mean(axis=0)
        centered = members - mu
        s_w += centered.T @ centered
        offset = (mu - mean)[:, None]
        s_b += members.shape[0] * (offset @ offset.T)

    gamma = shrinkage if shrinkage is not None else 1e-6 * np.trace(s_w) / d
    if gamma <= 0:
        gamma = 1e-12
    eigvals, eigvecs = _fisher_eigh(s_b, s_w + gamma * np.eye(d))
    order = np.argsort(eigvals)[::-1][:k]
    eigvals = np.maximum(eigvals[order], 0.0)
    components = eigvecs[:, order].T
    norms = np.linalg.norm(components, axis=1, keepdims=True)
    components = _fix_signs(components / np.where(norms == 0, 1.0, norms))
    return Projection(
        kind="LDA",
        mean=mean,
        components=components,
        eigenvalues=eigvals,
        col_labels=matrix.col_labels,
    )


def project(proj: Projection, matrix: DataMatrix) -> DataMatrix:
    """Apply a fitted projection to a matrix (mean-center, then project)."""
    if matrix.n_cols != proj.mean.shape[0]:
        raise ValidationError(
            f"matrix has {matrix.n_cols} columns, projection expects {proj.mean.shape[0]}"
        )
    transformed = (matrix.values - proj.mean) @ proj.components.T
    prefix = "PC" if proj.kind == "PCA" else "LD"
    return matrix.with_values(
        transformed, col_labels=tuple(f"{prefix}{i + 1}" for i in range(proj.k))
    )


# --------------------------------------------------------------------------
# Command handler (``dualmsi matrix``, listed in ``cli.COMMANDS``)
# --------------------------------------------------------------------------


def cmd_matrix(
    args, out: Path, input: str | None = None, mode: Mode | None = None,
    reflectance: str | None = None, transmittance: str | None = None,
) -> None:
    """Build ``matrix.csv`` from one or two (paired) dataset directories."""
    if input is None and mode is None and None not in (reflectance, transmittance):
        r = build_matrix(load_dataset(reflectance), Mode.REFLECTANCE)
        t = build_matrix(load_dataset(transmittance), Mode.TRANSMITTANCE)
        matrix = merge(r, t)
    elif input is not None and reflectance is None and transmittance is None:
        matrix = build_matrix(load_dataset(input), mode or Mode.REFLECTANCE)
    else:
        raise ValidationError("config needs 'input' (and optionally 'mode') or else both "
                              "'reflectance' and 'transmittance'")
    path = out / "matrix.csv"
    matrix.to_csv(path)
    print(f"wrote {matrix.n_rows}x{matrix.n_cols} matrix to {path}")
