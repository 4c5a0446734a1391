"""Bold diagrammatic coefficients for diagonal-quartic couplings.

First order combines the tadpole and exchange contractions; second order the
ring and second-order-exchange ones. Orders k >= 3 have no closed form here
and are rejected. Coefficients by order and their truncated sums come from
``BoldSeries.build``, the one entry point that checks the order. A
coefficient that overflows raises NonFinite naming its order.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DimensionMismatch, NonFinite, UnsupportedOrder
from .matrices import ENTRY_LIMIT, SpdMatrix, SymMatrix

MAX_ORDER = 2


def _prepare(g, v):
    g = SpdMatrix.coerce(g)
    v = SymMatrix.coerce(v)
    if g.n != v.n:
        raise DimensionMismatch(f"G has dimension {g.n}, coupling has {v.n}")
    return g, v


def _coefficient(order: int, mat: np.ndarray) -> SymMatrix:
    """The order's coefficient as a matrix value; NonFinite naming the order
    where an entry overflowed or left the range a matrix value holds."""
    if not np.abs(mat).max() <= ENTRY_LIMIT:
        raise NonFinite(f"bold self-energy overflows at order {order}")
    return SymMatrix(mat)


def sigma1(g: SpdMatrix, v: SymMatrix) -> SymMatrix:
    """First-order bold self-energy.

    (S1)_ij = -1/2 (sum_k v_ik G_kk) delta_ij - v_ij G_ij
    """
    g, v = _prepare(g, v)
    gm, vm = g.mat, v.mat
    with np.errstate(over="ignore", invalid="ignore"):
        return _coefficient(1, -0.5 * np.diag(vm @ np.diag(gm)) - vm * gm)


def sigma2(g: SpdMatrix, v: SymMatrix) -> SymMatrix:
    """Second-order bold self-energy.

    (S2)_ij = 1/2 G_ij (sum_kl v_ik (G_kl)^2 v_lj)
              + sum_kl v_ik G_kj G_kl G_li v_jl
    """
    g, v = _prepare(g, v)
    gm, vm = g.mat, v.mat
    with np.errstate(over="ignore", invalid="ignore"):
        ring = 0.5 * gm * (vm @ (gm * gm) @ vm)
        exchange = np.einsum("ik,kj,kl,li,jl->ij", vm, gm, gm, gm, vm, optimize=True)
        return _coefficient(2, ring + exchange)


@dataclass(frozen=True)
class BoldSeries:
    """Coefficients Sigma^(k) and Phi^(k) = (1/2k) Tr[G Sigma^(k)] up to the
    requested order."""

    order: int
    sigma_terms: tuple
    phi_terms: tuple

    @classmethod
    def build(cls, g: SpdMatrix, v: SymMatrix, order: int = MAX_ORDER) -> "BoldSeries":
        """Series through ``order``, an integer in 1..MAX_ORDER (not a bool)."""
        integer = isinstance(order, Integral) and not isinstance(order, bool)
        if not integer or not 1 <= order <= MAX_ORDER:
            raise UnsupportedOrder(f"bold order must be an integer in 1..{MAX_ORDER}, got {order!r}")
        g = SpdMatrix.coerce(g)
        sigmas = tuple(sigma(g, v) for sigma in (sigma1, sigma2)[:order])
        # an overflowing Phi^(k) is inf here; coupled_sum reports it
        with np.errstate(over="ignore", invalid="ignore"):
            phis = tuple(
                float(np.trace(g.mat @ sig.mat)) / (2.0 * k)
                for k, sig in enumerate(sigmas, start=1)
            )
        return cls(order=order, sigma_terms=sigmas, phi_terms=phis)

    def truncated_phi(self, eps: float) -> float:
        return coupled_sum(eps, self.phi_terms)

    def truncated_sigma(self, eps: float) -> SymMatrix:
        return SymMatrix(coupled_sum(eps, [sig.mat for sig in self.sigma_terms]))


def coupled_sum(eps: float, terms, first: int = 1, total=0.0):
    """total + sum_k eps^k terms[k - first] over k = first, first + 1, ...,
    added in that order.

    Raises NonFinite, naming eps and the order, where a power, a product or
    the sum overflows; no numpy warning escapes.
    """
    for k, term in enumerate(terms, start=first):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                total = total + eps**k * term
        except OverflowError:  # eps**k of a Python float
            total = np.inf
        if not np.all(np.isfinite(total)):
            raise NonFinite(f"bold coupling {eps:.6g} overflows at order {k}")
    return total
