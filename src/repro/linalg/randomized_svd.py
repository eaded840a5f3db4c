"""Randomized SVD — Algorithm 1 of the DPar2 paper (Halko et al. [20]).

Given ``A`` of shape ``I×J`` and a target rank ``R``:

1. draw a Gaussian test matrix ``Omega`` of shape ``J×(R+s)``,
2. form ``Y = (A Aᵀ)^q A Omega`` (power iterations sharpen the captured
   subspace when the singular spectrum decays slowly),
3. orthonormalize ``Q ← qr(Y)``,
4. project ``B = Qᵀ A`` (small: ``(R+s)×J``),
5. take the truncated SVD of ``B`` and lift the left factor back by ``Q``.

Cost is ``O(I J R)`` versus ``O(I J min(I, J))`` for a full SVD — this is
the asymmetry DPar2's compression stage exploits.

Steps 2–5 exist once, in :func:`_rsvd`, for every operand the library
feeds them: one matrix or a ``(b, m, J)`` stack of equal-shape slices
(:func:`~repro.linalg.kernels.batched_randomized_svd`), dense, a
:class:`~repro.sparse.csr.CsrMatrix` or a
:class:`~repro.sparse.stacked.StackedCsr`, on numpy or a device ``xp``.
The pipeline only asks its operand for three products — ``A·X``,
``Aᵀ·X`` and ``Qᵀ·A`` — so the sparse operands run their SpMM kernels
and nothing else differs.  Step 1 is :func:`_draw_sketches`, the one place
the sketch width is validated and the Gaussian test matrices drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.array_module import get_xp
from repro.sparse.csr import CsrMatrix
from repro.sparse.stacked import StackedCsr
from repro.util.rng import as_generator
from repro.util.validation import check_matrix, check_rank


@dataclass(frozen=True)
class RandomizedSVDResult:
    """Rank-``R`` factors ``A ≈ U @ diag(singular_values) @ Vᵀ``.

    ``U`` has orthonormal columns (``I×R``), ``singular_values`` is a
    non-increasing non-negative 1-D array of length ``R``, and ``V`` has
    orthonormal columns (``J×R``).
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray

    @property
    def rank(self) -> int:
        return self.singular_values.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Materialize the rank-``R`` approximation ``U S Vᵀ``."""
        return (self.U * self.singular_values) @ self.V.T

    def sigma_matrix(self) -> np.ndarray:
        """The diagonal matrix ``S`` (paper's ``Bk`` / ``E``)."""
        return np.diag(self.singular_values)


def randomized_svd(
    matrix,
    rank: int,
    *,
    oversampling: int = 5,
    power_iterations: int = 1,
    random_state=None,
    xp=None,
) -> RandomizedSVDResult:
    """Approximate the top-``rank`` SVD of ``matrix`` (Algorithm 1).

    Parameters
    ----------
    matrix:
        Dense 2-D array of shape ``(I, J)`` — a host ndarray, or an
        ``xp``-native array when a non-default ``xp`` is given (native
        inputs skip host validation; the caller vouches for them) — or a
        :class:`~repro.sparse.csr.CsrMatrix`, whose two big products run as
        SpMM (``O(nnz·(R+s))`` instead of ``O(I·J·(R+s))``) on any backend
        via the module's sparse surface.
    rank:
        Target rank ``R``; capped implicitly by ``min(I, J)``.
    oversampling:
        Extra sketch columns ``s``; 5–10 is the standard choice.
    power_iterations:
        Exponent ``q`` in ``(A Aᵀ)^q A Omega``. Each step multiplies by
        ``A`` and ``Aᵀ`` once, with a QR re-orthonormalization in between to
        avoid the numerical collapse of repeated squaring.
    random_state:
        Seed or generator for the Gaussian test matrix (always a host
        numpy generator, whatever the backend).
    xp:
        Compute backend (:func:`repro.linalg.array_module.get_xp` spec).
        The default numpy module runs the historical code path — same
        calls, same bits.  Other modules run the pipeline on their device;
        the returned factors are always host ndarrays.

    Returns
    -------
    RandomizedSVDResult
        With exactly ``min(rank, I, J)`` components, in ``matrix``'s float
        dtype (float32 inputs stay float32; everything else runs float64).
        A CSR input agrees with its densified run to floating-point
        rounding: only the summation order inside each product differs.

    Notes
    -----
    The Gaussian sketch is always *drawn* in float64 and then cast, so a
    float32 run consumes the identical generator stream and sees the same
    sketch to within rounding — float32/float64 results are comparable for
    a fixed seed, and every backend consumes the identical sketch.
    """
    xp = get_xp(xp)
    if isinstance(matrix, CsrMatrix):
        A, dtype = matrix, matrix.dtype
    elif xp.is_native(matrix) and not isinstance(matrix, np.ndarray):
        A, dtype = matrix, xp.numpy_dtype(matrix)
    else:
        A = check_matrix(matrix, "matrix", dtype=None)
        dtype = A.dtype
    effective_rank, omegas = _draw_sketches(
        [as_generator(random_state)],
        rank,
        A.shape,
        dtype,
        oversampling=oversampling,
        power_iterations=power_iterations,
    )
    U, sigma, Vt = _rsvd(A, omegas[0], effective_rank, power_iterations, xp)
    return _host_result(xp.to_numpy(U), xp.to_numpy(sigma), xp.to_numpy(Vt))


def _draw_sketches(
    generators,
    rank: int,
    shape,
    dtype,
    *,
    oversampling: int,
    power_iterations: int,
) -> tuple[int, np.ndarray]:
    """Step 1 of Algorithm 1 for one or more ``(I, J)`` operands.

    Validates ``rank``, ``oversampling`` and ``power_iterations`` and
    returns the effective rank ``min(rank, I, J)`` with a host
    ``(len(generators), J, width)`` stack of Gaussian test matrices,
    ``width = min(rank + oversampling, I, J)``, one drawn in float64 from
    each generator and cast to ``dtype`` — so a slice sees the same sketch
    whichever bucket it lands in.
    """
    rows, cols = shape
    effective_rank = min(check_rank(rank), rows, cols)
    if oversampling < 0:
        raise ValueError(f"oversampling must be >= 0, got {oversampling}")
    if power_iterations < 0:
        raise ValueError(f"power_iterations must be >= 0, got {power_iterations}")
    width = min(effective_rank + oversampling, rows, cols)
    omegas = np.empty((len(generators), cols, width), dtype=dtype)
    for pos, rng in enumerate(generators):
        omegas[pos] = rng.standard_normal((cols, width))
    return effective_rank, omegas


def _rsvd(A, omega, rank: int, power_iterations: int, xp):
    """Steps 2–5 of Algorithm 1 on a matrix or a ``(b, m, J)`` stack.

    ``A`` is dense (host or ``xp``-native), a
    :class:`~repro.sparse.csr.CsrMatrix` or a
    :class:`~repro.sparse.stacked.StackedCsr`; ``omega`` is its host
    sketch (``(J, width)``, or ``(b, J, width)`` for a stack).  Every step
    is one ``xp`` call on the whole operand: numpy's stacked linalg
    gufuncs run the same LAPACK routine per 2-D sub-array, so a stack
    reproduces the per-matrix results bit for bit, and on the numpy
    module each call *is* the numpy function the historical code used.
    A sparse operand's products stay on its own kernels — host SpMM on
    numpy, ``xp.spmm`` over its cached native handle on a device — and
    the transposed products read its cached transpose.  Returns the
    ``xp``-native ``(U, σ, Vᵀ)`` truncated to ``rank``.
    """
    if isinstance(A, (CsrMatrix, StackedCsr)):
        def product(X):
            return A.matmul_dense(X, xp=xp)

        def t_product(X):
            return A.t_matmul_dense(X, xp=xp)

        def project(Q):
            return xp.transpose(t_product(Q))
    else:
        A = xp.asarray(A)

        def product(X):
            return xp.matmul(A, X)

        def t_product(X):
            return xp.matmul(xp.transpose(A), X)

        def project(Q):
            return xp.matmul(xp.transpose(Q), A)

    Q, _ = xp.qr(product(xp.asarray(omega)))
    for _ in range(power_iterations):
        # Re-orthonormalize between the Aᵀ and A applications; without it the
        # columns of Y align with the top singular vector and precision dies.
        Z, _ = xp.qr(t_product(Q))
        Q, _ = xp.qr(product(Z))
    U_small, sigma, Vt = xp.svd(project(Q), full_matrices=False)
    return xp.matmul(Q, U_small[..., :rank]), sigma[..., :rank], Vt[..., :rank, :]


def _host_result(U: np.ndarray, sigma: np.ndarray, Vt: np.ndarray) -> RandomizedSVDResult:
    """Truncated host factors of one matrix as a :class:`RandomizedSVDResult`."""
    return RandomizedSVDResult(
        U=np.ascontiguousarray(U),
        singular_values=sigma.copy(),
        V=np.ascontiguousarray(Vt.T),
    )
