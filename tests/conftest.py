import numpy as np
import pytest

from dualmsi.core import BandSet, Label, Mode, Sample, SpectralCube
from dualmsi.studies import CaseStudyConfig, StudyKind


def make_cube(
    values_by_band: dict[int, np.ndarray],
    dark: np.ndarray | None = None,
    mode: Mode = Mode.REFLECTANCE,
) -> SpectralCube:
    """Cube from raw per-band arrays; zero dark frame unless given."""
    wavelengths = tuple(sorted(values_by_band))
    values = np.stack([np.asarray(values_by_band[wl]) for wl in wavelengths])
    if dark is None:
        dark = np.zeros_like(values[0])
    return SpectralCube(values=values, dark=dark, mode=mode, band_set=BandSet(wavelengths))


def random_raw_sample(rng: np.random.Generator, sample_id="s", n_bands=3, size=8,
                      mode=Mode.REFLECTANCE) -> Sample:
    wavelengths = (405, 530, 660, 770, 850)[:n_bands]
    bands = {
        wl: rng.integers(0, 65536, (size, size)).astype(np.uint16) for wl in wavelengths
    }
    dark = rng.integers(0, 200, (size, size)).astype(np.uint16)
    cube = make_cube(bands, dark=dark, mode=mode)
    return Sample(id=sample_id, cube=cube, label=Label.adulteration(float(rng.integers(0, 41))))


@pytest.fixture(scope="session")
def oil_study_full():
    """Default-size oil dataset; the divergence curve needs the canonical
    100-superpixel rows per replicate."""
    from dualmsi.studies import generate_case_study

    config = CaseStudyConfig.for_kind(StudyKind.COCONUT_OIL)
    return generate_case_study(config, master_seed=0), config


@pytest.fixture(scope="session")
def turmeric_study_small():
    """Reduced turmeric dataset: 3 replicates, small frames, both modes."""
    from dualmsi.studies import generate_case_study

    config = CaseStudyConfig.for_kind(StudyKind.TURMERIC, replicates=3, width=40, height=40)
    return generate_case_study(config, master_seed=0), config
