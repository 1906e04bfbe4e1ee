"""Domain types, the portable sample directory format, and cube utilities.

A capture of one specimen is a :class:`SpectralCube`: one (B, h, w) array
holding a monochrome frame per illumination band, in band-set order, plus
the (h, w) dark frame recorded with all LEDs off.  All types here are
immutable after construction (arrays are locked read-only) and every
operation is a pure function, so cubes and samples can be shared freely
across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DimensionMismatchError, MissingFrameError, ValidationError, check_number
from .jsonio import json_value, read_json
from .pgm import read_pgm16, write_pgm16

#: The fourteen dominant LED wavelengths of the imaging head, in nm.
TABLE1_WAVELENGTHS = (365, 405, 428, 473, 530, 575, 621, 660, 735, 770, 830, 850, 890, 940)

BIT_DEPTH = 16
RAW_MAX = 65535

#: Bytes of working memory that one block of a blocked computation may
#: use: a predict block of KNearestNeighbors, a tree node's block of
#: candidate features, a bilateral filtering pass.
WORKING_MEMORY = 8 * 2**20


class Mode(Enum):
    """Illumination geometry: light reflected off or transmitted through."""

    REFLECTANCE = "reflectance"
    TRANSMITTANCE = "transmittance"

    @property
    def tag(self) -> str:
        """Single-letter column prefix used in data matrices (R or T)."""
        return "R" if self is Mode.REFLECTANCE else "T"


@dataclass(frozen=True)
class BandSet:
    """Ordered set of band wavelengths present in a cube.

    Wavelengths must be distinct positive integers in strictly increasing
    order.  The default is the full fourteen-LED head; the device is also
    commonly run with the 365 nm UV band excluded (thirteen bands), which
    doubles to 26 columns in merged mode.
    """

    wavelengths_nm: tuple[int, ...] = TABLE1_WAVELENGTHS

    def __post_init__(self):
        wls = tuple(int(w) for w in self.wavelengths_nm)
        object.__setattr__(self, "wavelengths_nm", wls)
        if len(wls) < 1:
            raise ValidationError("band set needs at least one wavelength")
        if any(w <= 0 for w in wls):
            raise ValidationError("wavelengths must be positive")
        if any(b <= a for a, b in zip(wls, wls[1:])):
            raise ValidationError(f"wavelengths must be strictly increasing: {wls}")

    @classmethod
    def thirteen_band(cls) -> "BandSet":
        """The thirteen-band configuration (365 nm UV band excluded)."""
        return cls(tuple(w for w in TABLE1_WAVELENGTHS if w != 365))

    def __len__(self) -> int:
        return len(self.wavelengths_nm)

    def __iter__(self) -> Iterator[int]:
        return iter(self.wavelengths_nm)

    def __contains__(self, wavelength_nm: int) -> bool:
        return wavelength_nm in self.wavelengths_nm

    def index(self, wavelength_nm: int) -> int:
        return self.wavelengths_nm.index(wavelength_nm)


def _lock(arr: np.ndarray) -> np.ndarray:
    # always copy so freezing never reaches back into caller-owned arrays
    out = np.array(arr, order="C")
    out.setflags(write=False)
    return out


def _counts(arr, ndim: int, what: str) -> np.ndarray:
    """``arr`` locked as uint16 raw counts in [0, 65535] or finite float64."""
    arr = np.asarray(arr)
    if arr.ndim != ndim or 0 in arr.shape:
        raise ValidationError(f"{what} must be a non-empty {ndim}-D array, got shape {arr.shape}")
    if np.issubdtype(arr.dtype, np.integer):
        if int(arr.min()) < 0 or int(arr.max()) > RAW_MAX:
            raise ValidationError(f"raw {what} values outside [0, 65535]")
        arr = arr.astype(np.uint16, copy=False)
    elif np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64, copy=False)
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"normalized {what} contains non-finite values")
    else:
        raise ValidationError(f"unsupported {what} dtype {arr.dtype}")
    return _lock(arr)


@dataclass(frozen=True, eq=False)
class SpectralCube:
    """One capture: a (B, h, w) stack of band frames plus the dark frame.

    ``values[i]`` is the frame of ``band_set.wavelengths_nm[i]``; ``dark``
    is the (h, w) frame recorded with all LEDs off.  Both hold uint16 raw
    counts or float64 in [0, 1] (one dtype for the whole cube) and are
    locked read-only on construction.
    """

    values: np.ndarray
    dark: np.ndarray
    mode: Mode
    band_set: BandSet

    def __post_init__(self):
        values = _counts(self.values, 3, "band frames")
        dark = _counts(self.dark, 2, "dark frame")
        if values.shape[0] != len(self.band_set):
            raise ValidationError(
                f"{values.shape[0]} band frames for the bands {self.band_set.wavelengths_nm}"
            )
        if values.shape[1:] != dark.shape:
            raise DimensionMismatchError(
                f"band frames are {values.shape[1:]}, dark frame is {dark.shape}"
            )
        if values.dtype != dark.dtype:
            raise ValidationError(f"band frames are {values.dtype}, dark frame is {dark.dtype}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dark", dark)

    @property
    def width(self) -> int:
        return self.dark.shape[1]

    @property
    def height(self) -> int:
        return self.dark.shape[0]

    @property
    def is_raw(self) -> bool:
        return self.dark.dtype == np.uint16

    def frame(self, wavelength_nm: int) -> np.ndarray:
        return self.values[self.band_set.index(wavelength_nm)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectralCube):
            return NotImplemented
        return (
            self.mode == other.mode
            and self.band_set == other.band_set
            and self.values.dtype == other.values.dtype
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.dark, other.dark)
        )


@dataclass(frozen=True)
class Label:
    """Ground truth for one sample: adulteration percentage or color class.

    Exactly one of the two variants may be set.
    """

    adulteration_pct: float | None = None
    class_id: int | None = None

    def __post_init__(self):
        if (self.adulteration_pct is None) == (self.class_id is None):
            raise ValidationError("label must set exactly one of adulteration_pct/class_id")
        if self.adulteration_pct is not None:
            pct = check_number("adulteration_pct", self.adulteration_pct, 0, 100)
            object.__setattr__(self, "adulteration_pct", float(pct))
        else:
            cid = self.class_id
            if isinstance(cid, (float, np.floating)) and float(cid).is_integer():  # a CSV's 3.0
                cid = int(cid)
            object.__setattr__(self, "class_id", int(check_number("class_id", cid, 0, integer=True)))

    @classmethod
    def adulteration(cls, pct: float) -> "Label":
        return cls(adulteration_pct=pct)

    @classmethod
    def color(cls, class_id: int) -> "Label":
        return cls(class_id=class_id)

    @property
    def key(self) -> float:
        """Scalar class key used by splits, classifiers and signatures."""
        if self.adulteration_pct is not None:
            return self.adulteration_pct
        return float(self.class_id)

    def to_json(self) -> dict:
        if self.adulteration_pct is not None:
            return {"adulteration_pct": self.adulteration_pct}
        return {"class_id": self.class_id}


@dataclass(frozen=True, eq=False)
class Sample:
    """One specimen capture: id, cube and ground-truth label.

    ``provenance`` records the preprocessing stages already applied, in
    order; it lives only in memory and is not part of the disk format.
    """

    id: str
    cube: SpectralCube
    label: Label
    provenance: tuple[str, ...] = field(default=())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        return (
            self.id == other.id
            and self.label == other.label
            and self.cube == other.cube
        )


def crop(cube: SpectralCube, x: int, y: int, w: int, h: int) -> SpectralCube:
    """Crop the identical (x, y, w, h) rectangle from every band and the dark frame.

    Output pixel (i, j) of each band equals input pixel (x+i, y+j); x runs
    along width, y along height.
    """
    check_number("x", x, 0, cube.width - 1, integer=True)
    check_number("y", y, 0, cube.height - 1, integer=True)
    check_number("w", w, 1, cube.width - x, integer=True)
    check_number("h", h, 1, cube.height - y, integer=True)
    rows, cols = slice(y, y + h), slice(x, x + w)
    return replace(cube, values=cube.values[:, rows, cols], dark=cube.dark[rows, cols])


# --------------------------------------------------------------------------
# Sample directory format
#
# <dir>/manifest.json plus one 16-bit PGM per band and dark.pgm.  The
# manifest schema (keys and order) is fixed; see save_sample.
# --------------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"
DARK_NAME = "dark.pgm"


@dataclass(frozen=True)
class _BandEntry:
    wavelength_nm: int
    file: str


@dataclass(frozen=True)
class _Manifest:
    """The manifest.json schema, read by ``json_value``."""

    id: str
    mode: Mode
    label: Label
    width: int
    height: int
    bit_depth: int
    dark: str
    bands: tuple[_BandEntry, ...]


def _band_filename(wavelength_nm: int) -> str:
    return f"band_{wavelength_nm}.pgm"


def save_sample(sample: Sample, dir_path) -> None:
    """Write a raw sample to ``dir_path`` in the portable directory format.

    Emits manifest.json plus one 16-bit PGM per band and the dark frame.
    Writing is deterministic: saving the same sample twice produces
    byte-identical files.  Only raw (uint16) cubes can be persisted.
    """
    cube = sample.cube
    if not cube.is_raw:
        raise ValidationError("only raw 16-bit cubes can be saved; quantize first")
    directory = Path(dir_path)
    directory.mkdir(parents=True, exist_ok=True)

    manifest = {
        "id": sample.id,
        "mode": cube.mode.value,
        "label": sample.label.to_json(),
        "width": cube.width,
        "height": cube.height,
        "bit_depth": BIT_DEPTH,
        "dark": DARK_NAME,
        "bands": [
            {"wavelength_nm": wl, "file": _band_filename(wl)} for wl in cube.band_set
        ],
    }
    # in schema order, not sorted as write_json would
    payload = json.dumps(manifest, indent=2).encode("utf-8") + b"\n"
    (directory / MANIFEST_NAME).write_bytes(payload)
    write_pgm16(directory / DARK_NAME, cube.dark)
    for wl, values in zip(cube.band_set, cube.values):
        write_pgm16(directory / _band_filename(wl), values)


def _read_manifest(directory: Path) -> tuple[_Manifest, BandSet]:
    """The checked manifest of the sample directory ``directory`` and the
    band set it lists; reads no frame."""
    try:
        obj = read_json(directory / MANIFEST_NAME, "manifest")
    # nothing there, a directory, a file as a parent, or a NUL in the name
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError):
        raise ValidationError(f"no {MANIFEST_NAME} in {directory}") from None
    manifest = json_value(_Manifest, obj, f"manifest in {directory}")
    if manifest.bit_depth != BIT_DEPTH:
        raise ValidationError(f"unsupported bit depth {manifest.bit_depth}")
    wavelengths = sorted(entry.wavelength_nm for entry in manifest.bands)
    if len(set(wavelengths)) != len(wavelengths):
        raise ValidationError(f"duplicate wavelength in manifest: {wavelengths}")
    return manifest, BandSet(tuple(wavelengths))


def _read_sample(directory: Path, manifest: _Manifest, band_set: BandSet) -> Sample:
    """The sample whose manifest :func:`_read_manifest` read from ``directory``."""
    files = {entry.wavelength_nm: entry.file for entry in manifest.bands}

    def read_frame(file_name: str, wavelength_nm: int | None) -> np.ndarray:
        path = directory / file_name
        try:
            values = read_pgm16(path)
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError):
            raise (ValidationError(f"missing dark frame: {path}") if wavelength_nm is None
                   else MissingFrameError(wavelength_nm, path)) from None
        if values.shape != (manifest.height, manifest.width):
            raise DimensionMismatchError(
                f"{path} is {values.shape[1]}x{values.shape[0]}, "
                f"manifest says {manifest.width}x{manifest.height}"
            )
        return values

    values = np.stack([read_frame(files[wl], wl) for wl in band_set])
    dark = read_frame(manifest.dark, None)
    cube = SpectralCube(values=values, dark=dark, mode=manifest.mode, band_set=band_set)
    return Sample(id=manifest.id, cube=cube, label=manifest.label)


def load_sample(dir_path) -> Sample:
    """Load a sample directory written by :func:`save_sample`, bit-exactly."""
    directory = Path(dir_path)
    return _read_sample(directory, *_read_manifest(directory))


def save_dataset(samples, dir_path) -> int:
    """Write a dataset directory: one subdirectory per sample, named by id.

    ``samples`` may be any iterable, a generator included: each sample is
    written as it arrives (the directory with the first), so a generator
    holds one sample at a time.  A repeated id raises ValidationError before
    that sample is written; the ones before it stay.  Returns the count.
    """
    directory = Path(dir_path)
    seen = set()
    for sample in samples:
        if sample.id in seen:
            raise ValidationError(f"sample id {sample.id!r} repeats; ids must be unique in a dataset")
        seen.add(sample.id)
        save_sample(sample, directory / sample.id)
    return len(seen)


def load_dataset(dir_path) -> Iterator[Sample]:
    """Every sample subdirectory of ``dir_path`` in name order, read lazily.

    Every manifest is read and checked, and the ids too, before this
    returns, so a malformed manifest anywhere raises before any frame is
    read.  The iterator returned reads each sample's frames when it is
    asked for that sample, so a consumer that takes one sample at a time
    holds one cube at a time; a frame error raises at that sample.
    """
    directory = Path(dir_path)
    if not directory.is_dir():
        raise ValidationError(f"not a dataset directory: {directory}")
    entries = [
        (sub, *_read_manifest(sub))
        for sub in sorted(directory.iterdir())
        if (sub / MANIFEST_NAME).is_file()
    ]
    if not entries:
        raise ValidationError(f"no samples found under {directory}")
    ids = [manifest.id for _, manifest, _ in entries]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"duplicate sample ids in dataset {directory}")
    return (_read_sample(*entry) for entry in entries)
