"""Seeded cohort inputs for the CLI workload, made with numpy alone.

Examinee e answers gap i correctly with probability
sigmoid(theta_e + lam * u_{e,p(i)} - b_i): abilities theta and passage
latents u are standard normal, difficulties b uniform on [-0.5, 0.5]. Gaps
of one passage share u, so their outcome columns lie closer together than
gaps of different passages. These inputs never pass through
``clozedep.simulate``, so a change to the simulator cannot change them.
"""

from __future__ import annotations

import numpy as np


def cohort_cells(
    rng: np.random.Generator, m: int, passages: int, gaps: int, dependence: float
) -> np.ndarray:
    """An m x (passages * gaps) uint8 response grid with planted passage latents."""
    theta = rng.standard_normal((m, 1))
    latent = rng.standard_normal((m, passages))
    difficulty = rng.uniform(-0.5, 0.5, passages * gaps)
    z = theta + dependence * np.repeat(latent, gaps, axis=1) - difficulty
    p = 1.0 / (1.0 + np.exp(-z))
    return (rng.random(p.shape) < p).astype(np.uint8)


def cohort_csv(cells: np.ndarray) -> bytes:
    """The grid as CSV bytes, without header row or id column."""
    m, n = cells.shape
    text = np.full((m, 2 * n), ord(","), dtype=np.uint8)
    text[:, 0::2] = cells + ord("0")
    text[:, -1] = ord("\n")
    return text.tobytes()
