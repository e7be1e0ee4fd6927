"""Sector geometry in the rho-plane (lambda = rho^n).

The rho-plane splits into 2n angular sectors of opening pi/n. Inside a
fixed sector the real parts Re(rho * omega_k) of the n-th roots of unity
admit a strict ordering; the ordered frame (omegas, Omega) drives the
system conjugation and all large-|rho| asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = ["SectorFrame", "sector_frame"]


@dataclass(frozen=True)
class SectorFrame:
    """Ordered root-of-unity frame for one sector.

    Attributes:
        n: problem order.
        kappa: sector index, 1..2n; sector is arg rho in (pi(kappa-1)/n, pi kappa/n).
        omegas: the n-th roots of unity, ordered so Re(rho omega) is strictly
            increasing along the sector midpoint ray.
    """

    n: int
    kappa: int
    omegas: np.ndarray
    Omega: np.ndarray = field(init=False, repr=False)
    Omega_inv: np.ndarray = field(init=False, repr=False)
    mid_ray: complex = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n
        om = np.asarray(self.omegas, dtype=complex)
        Omega = np.array([[om[k] ** j for k in range(n)] for j in range(n)],
                         dtype=complex)
        # inverse of the root-of-unity Vandermonde is its scaled conjugate
        Omega_inv = np.array([[om[k] ** (-j) for j in range(n)] for k in range(n)],
                             dtype=complex) / n
        object.__setattr__(self, "Omega", Omega)
        object.__setattr__(self, "Omega_inv", Omega_inv)
        mid = np.exp(1j * np.pi * (self.kappa - 0.5) / n)
        object.__setattr__(self, "mid_ray", complex(mid))

    @property
    def grow_mask(self):
        """grow[j, k] is True where Re(rho (omega_j - omega_k)) > 0 in-sector.

        Those are the component pairs whose kernels must be integrated from
        x = 1 to stay bounded.
        """
        re = np.real(self.mid_ray * self.omegas)
        return re[:, None] > re[None, :] + 1e-12


def sector_frame(n, kappa):
    """Build the ordered frame for sector Gamma_kappa.

    Roots are sorted by Re(rho_mid * omega) at the midpoint ray
    rho_mid = exp(i pi (kappa - 1/2)/n); the ordering is strict there.
    """
    if n < 2:
        raise ValidationError("n", "order must be >= 2")
    if not 1 <= kappa <= 2 * n:
        raise ValidationError("kappa", f"sector index must be in 1..{2 * n}")
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    mid = np.exp(1j * np.pi * (kappa - 0.5) / n)
    keys = np.real(mid * roots)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    if np.min(np.diff(sorted_keys)) < 1e-9:
        raise ValidationError("kappa", "ordering tie on the midpoint ray")
    return SectorFrame(n=n, kappa=kappa, omegas=roots[order])
