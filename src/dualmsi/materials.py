"""Built-in material library for the synthetic case studies.

These spectra are hand-drawn smooth curves, not literature data.  They are
calibrated so the fixtures behave the way the real studies did: turmeric
and rice flour look nearly alike under reflectance but separate in
transmittance once dissolved, and the two oils drive a monotone
divergence-versus-adulteration curve.  Treat them as test fixtures.
"""

from __future__ import annotations

import numpy as np

from .synth import Curve, MaterialSpec

# Turmeric powder: yellow-orange, dark in UV/blue, bright from green out.
TURMERIC = MaterialSpec(
    name="turmeric",
    reflectance=Curve((
        (365, 0.10), (405, 0.11), (428, 0.13), (473, 0.20), (530, 0.45),
        (575, 0.62), (621, 0.70), (660, 0.72), (735, 0.75), (770, 0.76),
        (830, 0.77), (850, 0.77), (890, 0.76), (940, 0.74),
    )),
    # Dissolved curcumin absorbs strongly below ~500 nm.
    absorbance=Curve((
        (365, 1.60), (405, 1.85), (428, 2.00), (473, 1.65), (530, 0.95),
        (575, 0.55), (621, 0.35), (660, 0.25), (735, 0.16), (770, 0.13),
        (830, 0.12), (850, 0.12), (890, 0.13), (940, 0.16),
    )),
)

# Rice flour: white powder, slightly brighter than turmeric in the blue;
# in suspension it scatters mildly and nearly flat across the range.
RICE_FLOUR = MaterialSpec(
    name="rice_flour",
    reflectance=Curve((
        (365, 0.18), (405, 0.20), (428, 0.23), (473, 0.29), (530, 0.51),
        (575, 0.64), (621, 0.71), (660, 0.73), (735, 0.76), (770, 0.77),
        (830, 0.78), (850, 0.78), (890, 0.77), (940, 0.75),
    )),
    absorbance=Curve((
        (365, 0.70), (405, 0.66), (428, 0.62), (473, 0.56), (530, 0.50),
        (575, 0.46), (621, 0.43), (660, 0.41), (735, 0.38), (770, 0.37),
        (830, 0.36), (850, 0.35), (890, 0.35), (940, 0.36),
    )),
)

# Coconut oil: nearly clear, mild absorption rising into the NIR.
COCONUT_OIL = MaterialSpec(
    name="coconut_oil",
    reflectance=Curve.constant(0.35),
    absorbance=Curve((
        (365, 0.60), (405, 0.45), (428, 0.38), (473, 0.30), (530, 0.26),
        (575, 0.24), (621, 0.22), (660, 0.21), (735, 0.22), (770, 0.23),
        (830, 0.26), (850, 0.28), (890, 0.32), (940, 0.38),
    )),
)

# Palm oil: carotenoid-rich, strong blue-green absorption.
PALM_OIL = MaterialSpec(
    name="palm_oil",
    reflectance=Curve((
        (365, 0.08), (428, 0.10), (530, 0.18), (621, 0.45), (735, 0.55),
        (940, 0.50),
    )),
    absorbance=Curve((
        (365, 1.30), (405, 1.60), (428, 1.75), (473, 1.60), (530, 1.10),
        (575, 0.62), (621, 0.40), (660, 0.25), (735, 0.20), (770, 0.20),
        (830, 0.22), (850, 0.24), (890, 0.28), (940, 0.34),
    )),
)

# Uniform white reference used to fit spatial/spectral corrections.
WHITE_REFERENCE = MaterialSpec(
    name="white_reference",
    reflectance=Curve.constant(0.95),
    absorbance=Curve.constant(0.02),
)


PALETTE_SIZE = 24


def color_chart_material(class_id: int) -> MaterialSpec:
    """One of the 24 palette colors as a smooth single-bump albedo curve.

    The palette is laid out as three rows of eight hues: the column moves
    the spectral bump from 380 nm out to 940 nm and the row broadens it
    while lifting the baseline, giving 24 distinct, well-spaced spectra.
    """
    if not 0 <= class_id < PALETTE_SIZE:
        raise ValueError(f"palette has {PALETTE_SIZE} colors, got class {class_id}")
    row, col = divmod(class_id, 8)
    mu = 380.0 + col * (560.0 / 7.0)
    sigma = 45.0 + row * 20.0
    amp = 0.55 - row * 0.12
    base = 0.10 + row * 0.14
    grid = np.arange(350.0, 961.0, 10.0)
    albedo = base + amp * np.exp(-((grid - mu) ** 2) / (2.0 * sigma**2))
    return MaterialSpec(
        name=f"chart_color_{class_id:02d}",
        reflectance=Curve(tuple(zip(grid, albedo))),
        absorbance=Curve.constant(0.5),
    )
