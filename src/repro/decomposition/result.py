"""Result containers shared by every PARAFAC2 solver.

A PARAFAC2 model of an irregular tensor ``{Xk}`` is
``Xk ≈ Uk Sk Vᵀ`` with ``Uk = Qk H`` (column-orthogonal ``Qk``, common
``H`` and ``V``, diagonal ``Sk``).  The container stores the common factors
plus either the explicit ``Qk`` or their implicit factorized form — DPar2
never materializes ``Qk`` internally, but exposes ``U(k)`` on demand.
:func:`residuals_from_projections` is the one exact-residual kernel every
solver, fitness and anomaly score shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparse.ops import slice_squared_norm
from repro.tensor.irregular import IrregularTensor


def residuals_from_projections(
    norms_sq, P, H: np.ndarray, S: np.ndarray, V: np.ndarray
) -> np.ndarray:
    """One exact ``‖Xk − Qk H Sk Vᵀ‖²`` per slice, in float64.

    For column-orthonormal ``Qk`` the residual is
    ``‖Xk‖² − 2⟨Pk, H Sk⟩ + ⟨(H Sk)ᵀ(H Sk), VᵀV⟩`` with ``Pk = Qkᵀ Xk V``:
    ``norms_sq`` holds the ``‖Xk‖²``, ``P`` the ``(K, R, R)`` stack of
    ``Pk`` and ``S`` the rows ``diag(Sk)``.  Fitness, the competitors'
    stopping criteria, DPar2's exact-convergence ablation and the slice
    anomaly scores all go through here.

    ``Pk``, ``VᵀV`` and ``H Sk`` are float64 before any reduction over
    ``J`` or ``R`` (callers form ``Pk``'s product with ``V`` in float64):
    the three terms are ``‖Xk‖²``-scale and cancel, and an ill-conditioned
    ``H Sk`` amplifies float32 rounding of ``VᵀV`` past the residual
    itself.  Even in float64 the rounding error scales with
    ``‖Xk‖² + ‖H Sk‖²·‖V‖²``, not with the residual.  Values are not
    clamped; a sum of them may round below zero.
    """
    P, H, S, V = (np.asarray(M, dtype=np.float64) for M in (P, H, S, V))
    HS = H[None, :, :] * S[:, None, :]  # K x R x R: the H Sk
    cross = np.einsum("kij,kij->k", P, HS)
    model = np.einsum("kij,ij->k", np.swapaxes(HS, 1, 2) @ HS, V.T @ V)
    return np.asarray(norms_sq, dtype=np.float64) - 2.0 * cross + model


@dataclass
class IterationRecord:
    """Per-iteration trace: criterion value and wall-clock seconds."""

    iteration: int
    criterion: float
    seconds: float


@dataclass
class Parafac2Result:
    """Factors of a fitted PARAFAC2 model plus bookkeeping.

    Attributes
    ----------
    Q:
        List of ``Ik×R`` column-orthogonal matrices ``Qk``.
    H:
        ``R×R`` common matrix (``Uk = Qk H``).
    S:
        ``K×R`` array whose ``k``-th row holds ``diag(Sk)``.
    V:
        ``J×R`` common right factor.
    method:
        Solver name (``"dpar2"``, ``"parafac2_als"``, …).
    n_iterations:
        ALS sweeps actually performed.
    converged:
        Whether the stopping tolerance was reached before the iteration cap.
    preprocess_seconds / iterate_seconds:
        Wall-clock split the paper reports separately (Fig. 9).
    preprocessed_bytes:
        Size of whatever the method keeps around after preprocessing
        (Fig. 10); for methods without preprocessing this is the input size.
    history:
        Per-iteration convergence-criterion trace.
    stats:
        Solver-specific execution statistics (plain JSON-able dict).
        Every solver records its ``"rank"`` entry here (see
        :func:`~repro.decomposition.initialization.rank_report`); the
        sharded DPar2 coordinator adds ``"sharding"``: the cell/shard
        layout, the load-imbalance ratio, and the measured allreduce bytes
        per sweep.  Not persisted by :meth:`save`.
    """

    Q: list[np.ndarray]
    H: np.ndarray
    S: np.ndarray
    V: np.ndarray
    method: str = "unknown"
    n_iterations: int = 0
    converged: bool = False
    preprocess_seconds: float = 0.0
    iterate_seconds: float = 0.0
    preprocessed_bytes: int = 0
    history: list[IterationRecord] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        rank = self.H.shape[0]
        if self.H.shape != (rank, rank):
            raise ValueError(f"H must be square, got {self.H.shape}")
        if self.V.ndim != 2 or self.V.shape[1] != rank:
            raise ValueError(f"V must be J x {rank}, got {self.V.shape}")
        if self.S.ndim != 2 or self.S.shape != (len(self.Q), rank):
            raise ValueError(
                f"S must be K x {rank} = {len(self.Q)} x {rank}, got {self.S.shape}"
            )
        for k, Qk in enumerate(self.Q):
            if Qk.ndim != 2 or Qk.shape[1] != rank:
                raise ValueError(
                    f"Q[{k}] must have {rank} columns, got shape {Qk.shape}"
                )

    # ------------------------------------------------------------------ #
    # model access
    # ------------------------------------------------------------------ #

    @property
    def rank(self) -> int:
        return self.H.shape[0]

    @property
    def n_slices(self) -> int:
        return len(self.Q)

    @property
    def total_seconds(self) -> float:
        """End-to-end running time (the x-axis of Fig. 1)."""
        return self.preprocess_seconds + self.iterate_seconds

    def U(self, k: int) -> np.ndarray:
        """Temporal factor ``Uk = Qk H`` of slice ``k``."""
        return self.Q[k] @ self.H

    def S_matrix(self, k: int) -> np.ndarray:
        """Diagonal matrix ``Sk``."""
        return np.diag(self.S[k])

    def reconstruct_slice(self, k: int) -> np.ndarray:
        """``X̂k = Qk H Sk Vᵀ``."""
        return self.Q[k] @ (self.H * self.S[k]) @ self.V.T

    def reconstruct(self) -> IrregularTensor:
        """Materialize every reconstructed slice as an irregular tensor."""
        return IrregularTensor(
            [self.reconstruct_slice(k) for k in range(self.n_slices)], copy=False
        )

    # ------------------------------------------------------------------ #
    # quality metrics
    # ------------------------------------------------------------------ #

    def slice_residuals_squared(self, tensor: IrregularTensor) -> np.ndarray:
        """One ``‖Xk − X̂k‖_F²`` per slice against the *original* data.

        Forms ``Pk = Qkᵀ Xk V`` slice by slice (CSR slices through SpMM)
        and hands it to :func:`residuals_from_projections`; nothing
        slice-sized is reconstructed.
        """
        if tensor.n_slices != self.n_slices:
            raise ValueError(
                f"tensor has {tensor.n_slices} slices, model has {self.n_slices}"
            )
        if tensor.n_columns != self.V.shape[0]:
            raise ValueError(
                f"tensor has J={tensor.n_columns}, model V has {self.V.shape[0]} rows"
            )
        V64 = np.asarray(self.V, dtype=np.float64)
        P = np.empty((self.n_slices, self.rank, self.rank))
        norms_sq = np.empty(self.n_slices)
        for k, Xk in enumerate(tensor):
            QtX = self.Q[k].T @ Xk  # R x J; a CSR slice multiplies by SpMM
            P[k] = QtX.astype(np.float64, copy=False) @ V64
            norms_sq[k] = slice_squared_norm(Xk)
        return residuals_from_projections(norms_sq, P, self.H, self.S, V64)

    def residual_squared(self, tensor: IrregularTensor) -> float:
        """``Σk ‖Xk − X̂k‖_F²`` against the *original* data."""
        # Rounding can push a tiny positive residual below zero.
        return max(float(self.slice_residuals_squared(tensor).sum()), 0.0)

    def fitness(self, tensor: IrregularTensor) -> float:
        """The paper's fitness: ``1 − Σ‖Xk − X̂k‖² / Σ‖Xk‖²``."""
        denom = tensor.squared_norm()
        if denom == 0.0:
            return 1.0
        return 1.0 - self.residual_squared(tensor) / denom

    def factor_nbytes(self) -> int:
        """Bytes needed to store the model factors themselves."""
        return (
            sum(Qk.nbytes for Qk in self.Q)
            + self.H.nbytes
            + self.S.nbytes
            + self.V.nbytes
        )

    # ------------------------------------------------------------------ #
    # persistence (delegates to the serving payload format)
    # ------------------------------------------------------------------ #

    def save(self, path, *, config=None) -> None:
        """Persist the model as a manifest + ``.npy`` segment directory.

        The payload is the same schema-versioned format
        :class:`~repro.serve.store.FactorStore` publishes registry versions
        in (see :func:`repro.serve.store.write_model`), so a model saved
        here can be inspected, memmap-loaded, or copied into a registry
        unchanged.  ``config`` (a
        :class:`~repro.util.config.DecompositionConfig`) rides along in the
        manifest, giving dtype *and* hyper-parameter round-trip.
        """
        from repro.serve.store import write_model

        write_model(path, self, config=config)

    @classmethod
    def load(cls, path, *, mmap: bool = True) -> "Parafac2Result":
        """Load a model saved by :meth:`save` (memmap-backed by default).

        Use :func:`repro.serve.store.read_model` instead when the stored
        config or manifest metadata is needed alongside the factors.
        """
        from repro.serve.store import read_model

        return read_model(path, mmap=mmap).result
