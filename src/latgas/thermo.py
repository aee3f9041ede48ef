"""Equilibrium thermodynamics of a spin model: tilted single-site measures,
log moment generating function G and its Legendre transform, and the Newton
inversion from densities (rho, u) back to chemical potentials (tau, theta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull


class OutOfDomain(ValueError):
    pass


class NonConvergence(RuntimeError):
    pass


def tilted(model, tau, theta):
    """Tilted single-site measure pi_{tau,theta} at every (tau, theta).

    Returns ``(p, xm, Z)`` with ``p`` of shape ``(..., k)``; the log moment
    generating function is ``G = xm + log(Z)``.
    """
    pi = model.pi
    logpi = np.log(pi, where=pi > 0, out=np.full(model.nstates, -np.inf))
    x = (np.asarray(tau, dtype=float)[..., None] * model.eta
         + np.asarray(theta, dtype=float)[..., None] * model.zeta + logpi)
    xm = x.max(axis=-1, keepdims=True)
    w = np.exp(x - xm)
    Z = w.sum(axis=-1)
    return w / Z[..., None], xm[..., 0], Z


def log_mgf(model, tau, theta):
    """G(tau, theta) = log sum_w exp(tau*eta + theta*zeta) pi(w)."""
    _, xm, Z = tilted(model, tau, theta)
    return xm + np.log(Z)


def gibbs_measure(model, tau, theta):
    """Single-site tilted probability vector pi_{tau,theta}."""
    return tilted(model, tau, theta)[0]


def moments(model, tau, theta):
    """Mean vector (rho, u) and covariance matrix of (eta, zeta) under the tilt."""
    p = gibbs_measure(model, tau, theta)
    m = np.array([p @ model.eta, p @ model.zeta])
    ee = p @ (model.eta * model.eta)
    ez = p @ (model.eta * model.zeta)
    zz = p @ (model.zeta * model.zeta)
    cov = np.array([[ee - m[0] ** 2, ez - m[0] * m[1]],
                    [ez - m[0] * m[1], zz - m[1] ** 2]])
    return m, cov


@dataclass(frozen=True)
class DomainPolygon:
    """Convex hull of the (eta, zeta) support points of a model."""

    vertices: np.ndarray      # (m, 2), counterclockwise
    equations: np.ndarray     # (m, 3): a*rho + b*u + c <= 0 inside

    @classmethod
    def from_model(cls, model):
        pts = model.support_points()
        hull = ConvexHull(pts)
        verts = pts[hull.vertices]
        verts.setflags(write=False)
        eqs = hull.equations.copy()
        eqs.setflags(write=False)
        return cls(verts, eqs)

    def contains(self, rho, u, margin=0.0):
        """True where (rho, u) is at distance >= margin inside every face."""
        rho = np.asarray(rho, dtype=float)
        u = np.asarray(u, dtype=float)
        vals = (self.equations[:, 0] * rho[..., None]
                + self.equations[:, 1] * u[..., None] + self.equations[:, 2])
        return np.all(vals <= -margin, axis=-1)

    def interior_margin(self, rho, u):
        """Signed distance to the boundary (positive inside)."""
        rho = np.asarray(rho, dtype=float)
        u = np.asarray(u, dtype=float)
        vals = (self.equations[:, 0] * rho[..., None]
                + self.equations[:, 1] * u[..., None] + self.equations[:, 2])
        return -np.max(vals, axis=-1)

    @property
    def rho_max(self):
        return float(np.max(self.vertices[:, 0]))

    @property
    def u_max(self):
        return float(np.max(np.abs(self.vertices[:, 1])))


@dataclass(frozen=True)
class CanonicalParams:
    tau: float
    theta: float
    rho: float
    u: float
    G: float


def invert_parameters_grid(model, rho, u, tol=1e-12, max_iter=100):
    """Vectorized Newton solve of grad G(tau, theta) = (rho, u).

    Works on arrays of targets; the Hessian of G is the (eta, zeta)
    covariance, positive definite in the interior of the domain.
    """
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    shape = np.broadcast(rho, u).shape
    rho_f = np.broadcast_to(rho, shape).reshape(-1)
    u_f = np.broadcast_to(u, shape).reshape(-1)
    npts = rho_f.size
    tau = np.zeros(npts)
    theta = np.zeros(npts)
    eta, zeta = model.eta, model.zeta
    ok = np.zeros(npts, dtype=bool)
    for _ in range(max_iter):
        p, xm, Z = tilted(model, tau, theta)
        m_rho = p @ eta
        m_u = p @ zeta
        f1 = m_rho - rho_f
        f2 = m_u - u_f
        ok = (np.abs(f1) < tol) & (np.abs(f2) < tol)
        if ok.all():
            break
        # 2x2 Newton step with the covariance matrix
        c11 = p @ (eta * eta) - m_rho ** 2
        c12 = p @ (eta * zeta) - m_rho * m_u
        c22 = p @ (zeta * zeta) - m_u ** 2
        det = c11 * c22 - c12 * c12
        det = np.where(np.abs(det) < 1e-300, np.nan, det)
        dtau = (c22 * f1 - c12 * f2) / det
        dtheta = (-c12 * f1 + c11 * f2) / det
        # trust region keeps iterates from overshooting towards the boundary
        step = np.hypot(dtau, dtheta)
        lim = np.minimum(1.0, 5.0 / np.maximum(step, 1e-300))
        tau -= lim * dtau
        theta -= lim * dtheta
    if not ok.all():
        bad = int(np.argmax(~ok))
        raise NonConvergence(
            f"Newton failed at (rho,u)=({rho_f[bad]:.6g},{u_f[bad]:.6g})")
    # the last iteration tilted at the returned (tau, theta)
    G = xm + np.log(Z)
    return tau.reshape(shape), theta.reshape(shape), G.reshape(shape)


def invert_parameters(model, rho, u, domain=None, tol=1e-12, max_iter=100):
    """Recover CanonicalParams for a single interior point (rho, u)."""
    dom = domain if domain is not None else DomainPolygon.from_model(model)
    if not bool(dom.contains(rho, u, margin=1e-13)) or dom.interior_margin(rho, u) <= 0:
        raise OutOfDomain(f"({rho}, {u}) is not in the interior of the domain")
    tau, theta, G = invert_parameters_grid(model, rho, u, tol=tol, max_iter=max_iter)
    return CanonicalParams(float(tau), float(theta), float(rho), float(u), float(G))


def thermo_entropy(model, rho, u, domain=None):
    """Legendre transform S(rho,u) = rho*tau + u*theta - G(tau,theta)."""
    cp = invert_parameters(model, rho, u, domain=domain)
    return rho * cp.tau + u * cp.theta - cp.G


def entropy_gradient(model, rho, u, domain=None):
    """Gradient of the thermodynamic entropy, equal to (tau, theta)."""
    cp = invert_parameters(model, rho, u, domain=domain)
    return np.array([cp.tau, cp.theta])


def entropy_hessian(model, rho, u, domain=None):
    """Hessian of S, the inverse of the covariance matrix G''."""
    cp = invert_parameters(model, rho, u, domain=domain)
    _, cov = moments(model, cp.tau, cp.theta)
    return np.linalg.inv(cov)
