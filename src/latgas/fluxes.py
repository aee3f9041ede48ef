"""Macroscopic fluxes by exact summation over pairs of tilted sites.

Psi and Phi are expectations of the instantaneous pair currents under the
product measure pi_{rho,u} x pi_{rho,u}.  Derivatives are centered finite
differences with one Richardson step; the flux curvature gamma at the corner
(0,0) of the domain is obtained by extrapolating along rho = eps^2, u = 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .models import microscopic_fluxes
from .thermo import (DomainPolygon, NewtonLog, invert_parameters_grid,
                     pair_moments)


class NormalizationWarning(UserWarning):
    """Psi_{rho u}(0,0) deviates from 1; a time rescale would be needed."""


FD_STEP = 1e-3          # base step; Richardson combines h and h/2


def _richardson(f, x, y, h, mode):
    """Second-order centered differences extrapolated once (h, h/2)."""

    def d(hh):
        if mode == "uu":
            return (f(x, y + hh) - 2 * f(x, y) + f(x, y - hh)) / hh ** 2
        if mode == "rho_u":
            return (f(x + hh, y + hh) - f(x + hh, y - hh)
                    - f(x - hh, y + hh) + f(x - hh, y - hh)) / (4 * hh ** 2)
        raise ValueError(mode)

    d1, d2 = d(h), d(h / 2)
    return (4.0 * d2 - d1) / 3.0


@dataclass
class FluxPair:
    """Evaluable macroscopic fluxes of one model with FD partials.

    ``Phi`` is centered so that Phi(0,0) = 0, which the intermediate scaling
    requires; ``Phi_raw`` keeps the plain pair-current expectation.
    """

    model: object
    domain: DomainPolygon
    gamma: float = field(init=False)
    psi_ru_origin: float = field(init=False)
    # the (2, k, k) pair-current tables of Psi and Phi_raw
    _tabs: np.ndarray = field(init=False, repr=False)
    _site: np.ndarray = field(init=False, repr=False)
    _phi_origin: float = field(init=False, repr=False)
    # the tilt solves made by this flux (``build_entropy`` reads it)
    newton: NewtonLog = field(init=False, default_factory=NewtonLog,
                              repr=False, compare=False)

    def __post_init__(self):
        psi, phi, _, _ = microscopic_fluxes(self.model)
        self._tabs = np.array([psi, phi], dtype=float)
        self._site = self.model.site_table
        # Phi_raw on the boundary segment rho=0: corner extrapolation
        self._phi_origin = _corner_limit(lambda r, u: self._raw(r, u)[1])
        self.gamma = 0.5 * _corner_limit(
            lambda r, u: _richardson(lambda a, b: self._raw(a, b)[1],
                                     r, u, FD_STEP, "uu"))
        self.psi_ru_origin = _corner_limit(
            lambda r, u: _richardson(lambda a, b: self._raw(a, b)[0],
                                     r, u, FD_STEP, "rho_u"))
        if abs(self.psi_ru_origin - 1.0) > 1e-6:
            warnings.warn(
                f"Psi_ru(0,0) = {self.psi_ru_origin:.8f} != 1; rescale time",
                NormalizationWarning)

    def _tilted(self, rho, u):
        rho = np.asarray(rho, dtype=float)
        u = np.asarray(u, dtype=float)
        shape = np.broadcast(rho, u).shape
        # the rho=0 edge is a chemical-potential limit; back off by a hair
        rho_eval = np.maximum(np.broadcast_to(rho, shape).astype(float), 1e-11)
        sol = invert_parameters_grid(self.model, rho_eval, u)
        self.newton.record(sol)
        return sol.p.reshape(-1, self.model.nstates), shape

    def _pair_moments(self, rho, u):
        """``thermo.pair_moments`` of Psi's and Phi_raw's tables at the
        solved tilt, and the shape of the points."""
        p, shape = self._tilted(rho, u)
        return pair_moments(self._site, p, self._tabs), shape

    def _raw(self, rho, u):
        """(Psi, Phi_raw) by exact double sums; accepts arrays."""
        out, shape = self._pair_moments(rho, u)
        return out[0].reshape(shape), out[3].reshape(shape)

    def _raw_with_grads(self, rho, u, site_cov=False):
        """Fluxes plus exact first partials via the covariance chain rule.

        d/dtau of E[f] under the tilted pair measure is Cov(f, eta_1+eta_2),
        and (tau, theta) -> (rho, u) has Jacobian equal to the single-site
        covariance matrix, so no finite differencing is involved.  This stays
        well defined arbitrarily close to the rho = 0 edge.  With
        ``site_cov`` the single-site (Var eta, Cov, Var zeta) of the same
        tilt are returned as well.  Psi and Phi equal ``_raw``'s bitwise.
        """
        out, shape = self._pair_moments(rho, u)
        rows = [row.reshape(shape) for row in out]
        pairs = [tuple(rows[0:3]), tuple(rows[3:6])]
        if site_cov:
            return pairs, tuple(rows[6:])
        return pairs

    def bundle(self, rho, u):
        """(Psi, Phi, Psi_rho, Psi_u, Phi_rho, Phi_u) from one tilt solve."""
        (psi, pr, pu), (phi, fr, fu) = self._raw_with_grads(rho, u)
        return psi, phi - self._phi_origin, pr, pu, fr, fu

    # -- flux values ------------------------------------------------------
    def Psi(self, rho, u):
        return self._raw(rho, u)[0]

    def Phi(self, rho, u):
        return self._raw(rho, u)[1] - self._phi_origin

    def Phi_raw(self, rho, u):
        return self._raw(rho, u)[1]

    # -- first partials (exact sums, no finite differences) ---------------
    def Psi_rho(self, rho, u):
        return self._raw_with_grads(rho, u)[0][1]

    def Psi_u(self, rho, u):
        return self._raw_with_grads(rho, u)[0][2]

    def Phi_rho(self, rho, u):
        return self._raw_with_grads(rho, u)[1][1]

    def Phi_u(self, rho, u):
        return self._raw_with_grads(rho, u)[1][2]

    def gradients(self, rho, u):
        """(Psi_rho, Psi_u, Phi_rho, Phi_u) in one evaluation."""
        (_, pr, pu), (_, fr, fu) = self._raw_with_grads(rho, u)
        return pr, pu, fr, fu

    def Phi_uu(self, rho, u):
        return _richardson(self.Phi, rho, u, FD_STEP, "uu")

    def Psi_rho_u(self, rho, u):
        return _richardson(self.Psi, rho, u, FD_STEP, "rho_u")

    def export_csv(self, path, rho_grid, u_grid):
        """Write a `rho,u,Psi,Phi,Psi_rho,Psi_u,Phi_rho,Phi_u` table over
        every pair of the two grids."""
        self.export_points_csv(path, [(r, u) for r in rho_grid
                                      for u in u_grid])

    def export_points_csv(self, path, points):
        """Write the same table for the listed (rho, u) points only, from
        one ``bundle`` over all of them."""
        rho, u = np.reshape(np.asarray(points, dtype=float), (-1, 2)).T
        # \r\n line ends, as the csv module writes them
        np.savetxt(path, np.column_stack((rho, u, *self.bundle(rho, u))),
                   fmt="%.12g", delimiter=",", newline="\r\n",
                   header="rho,u,Psi,Phi,Psi_rho,Psi_u,Phi_rho,Phi_u",
                   comments="")


_CORNER_EPS = 0.2 / 2.0 ** np.arange(3)   # eps of the Richardson levels


def _corner_limit(f):
    """Limit of f(eps^2, 0) as eps -> 0 by Richardson in eps^2.

    The corner (0,0) sits on the domain boundary, so quantities there are
    defined as limits along rho = eps^2; the low-density expansion makes the
    error analytic in rho = eps^2.
    """
    vals = np.array([float(f(e ** 2, 0.0)) for e in _CORNER_EPS])
    # vals(e) = L + c1 e^2 + c2 e^4 + ...
    for k in range(1, len(_CORNER_EPS)):
        fac = 4.0 ** k
        vals = (fac * vals[1:] - vals[:-1]) / (fac - 1.0)
    return float(vals[0])


def macroscopic_flux(model):
    """Build the FluxPair of a model (requires conditions (A),(C)-(E))."""
    return FluxPair(model, DomainPolygon.from_model(model))


def onsager_residual(model, rho, u, flux=None):
    """Defect of the reciprocity relation

    Psi_u Var(zeta) - Phi_u Cov(eta,zeta) = Phi_rho Var(eta) - Psi_rho Cov(eta,zeta)

    with all moments evaluated by exact sums under pi_{rho,u}.
    """
    fp = flux if flux is not None else macroscopic_flux(model)
    ((_, pr, pu), (_, fr, fu)), (var_e, cov, var_z) = fp._raw_with_grads(
        rho, u, site_cov=True)
    lhs = pu * var_z - fu * cov
    rhs = fr * var_e - pr * cov
    return float(abs(lhs - rhs))
