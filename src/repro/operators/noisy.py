"""Noise-injected ReFloat operator (Section VI-D, Fig. 10).

Random telegraph noise (RTN) perturbs each ReRAM cell's conductance; with
error correction disabled, every analog MVM sees fresh multiplicative noise on
the stored matrix values.  We model it the standard way (cf. [3], [32], [47]):
``g -> g * (1 + delta)``, ``delta ~ N(0, sigma^2)``, redrawn per apply.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.refloat import DEFAULT_SPEC, ReFloatSpec
from repro.operators.refloat_op import ReFloatOperator
from repro.solvers.base import csr_matvec
from repro.util.rng import SeedLike, default_rng
from repro.util.validation import check_in_range

__all__ = ["NoisyReFloatOperator"]


class NoisyReFloatOperator:
    """ReFloat SpMV with per-apply multiplicative conductance noise.

    Parameters
    ----------
    A : sparse matrix
    spec : ReFloatSpec
    sigma : float
        Relative RTN deviation (the paper sweeps 0.1% .. 25%).
    seed : int | Generator | None
    fresh_per_apply : bool
        True (default): redraw noise each matvec (no error correction).
        False: freeze one noise realisation (a miscalibrated-but-stable
        array, useful as an ablation).
    """

    def __init__(self, A, spec: ReFloatSpec = DEFAULT_SPEC, sigma: float = 0.0,
                 seed: SeedLike = None, fresh_per_apply: bool = True,
                 blocked=None):
        check_in_range(sigma, "sigma", 0.0, 1.0)
        self._base = ReFloatOperator(A, spec, blocked=blocked)
        self.spec = spec
        self.sigma = float(sigma)
        self.rng = default_rng(seed)
        self.fresh_per_apply = fresh_per_apply
        self.shape = self._base.shape
        self.A = self._base.A
        if not fresh_per_apply and sigma > 0:
            self._frozen = self._draw()
        else:
            self._frozen = None

    def _draw(self) -> np.ndarray:
        return 1.0 + self.sigma * self.rng.standard_normal(self.A.nnz)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Quantise the input, then multiply by this apply's noisy matrix.

        One draw per apply (none when frozen): the conductances
        ``A.data * factor`` go straight to the SpMV kernel as its values
        (:func:`repro.solvers.base.csr_matvec`), so no matrix is built.
        """
        xq = self._base.quantize_input(x, reuse=True)
        if self.sigma == 0.0:
            return csr_matvec(self.A, xq)
        return csr_matvec(self.A, xq, data=self._noisy_data())

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Batched :meth:`matvec` with ONE conductance realisation per batch.

        A batched apply models one operand program serving all ``k`` inputs
        back-to-back, so the whole batch sees the same RTN draw (with
        ``fresh_per_apply``, the next batch redraws).  With ``sigma == 0``
        this is bit-identical per column to the matvec path.
        """
        Xq = self._base.quantize_input_batch(X, reuse=True)
        if self.sigma == 0.0:
            return self.A @ Xq
        noisy = sp.csr_matrix((self._noisy_data(), self.A.indices,
                               self.A.indptr), shape=self.shape)
        return noisy @ Xq

    def _noisy_data(self) -> np.ndarray:
        """This apply's conductances: the stored values times one draw."""
        factor = self._draw() if self.fresh_per_apply else self._frozen
        return self.A.data * factor

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NoisyReFloatOperator(sigma={self.sigma}, {self.spec})"
