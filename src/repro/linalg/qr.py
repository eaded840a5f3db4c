"""Random orthonormal initialization."""

from __future__ import annotations

import numpy as np

from repro.util.rng import as_generator


def random_orthonormal(rows: int, cols: int, random_state=None) -> np.ndarray:
    """Draw a ``rows×cols`` matrix with orthonormal columns.

    Used to initialize the common factor ``H`` and ``V`` (Algorithm 2/3,
    line 1) — a Haar-ish initialization obtained by QR of a Gaussian matrix.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError(f"dimensions must be positive, got {rows}x{cols}")
    if cols > rows:
        raise ValueError(
            f"cannot build {cols} orthonormal columns in dimension {rows}"
        )
    rng = as_generator(random_state)
    gaussian = rng.standard_normal((rows, cols))
    Q, upper = np.linalg.qr(gaussian)
    # Fix the sign ambiguity so results are reproducible across BLAS builds.
    signs = np.sign(np.diag(upper))
    signs[signs == 0] = 1.0
    return Q * signs
