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
    generating function is ``G = xm + log(Z)``.  The work runs with the
    states on the leading axis (``p`` is a view of that array): every pass
    is elementwise over the points, and ``Z`` sums the states one at a time,
    so no point's measure depends on the others in the call.
    """
    pi = model.pi
    logpi = np.log(pi, where=pi > 0, out=np.full(model.nstates, -np.inf))
    tau = np.asarray(tau, dtype=float)
    theta = np.asarray(theta, dtype=float)
    col = (model.nstates,) + (1,) * max(tau.ndim, theta.ndim)
    x = model.eta.reshape(col) * tau + model.zeta.reshape(col) * theta
    x += logpi.reshape(col)
    xm = x.max(axis=0)
    x -= xm
    w = np.exp(x, out=x)
    Z = w[0].copy()
    for row in w[1:]:
        Z += row
    w /= Z
    return w.transpose(*range(1, w.ndim), 0), xm, Z


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


class Tilt(tuple):
    """``(tau, theta, G)`` of a tilt inversion, with what the solve saw.

    Unpacks as the three arrays.  ``p`` holds the tilted measures of each
    point's last Newton iteration (shape ``(..., k)``, the same rows
    ``tilted(model, tau, theta)`` gives), ``iterations`` the largest number
    of Newton iterations (tilt evaluations) any point took and ``residual``
    the worst relative density residual ``|m_rho - rho| / rho`` at exit.
    """

    def __new__(cls, tau, theta, G, p, iterations, residual):
        self = super().__new__(cls, (tau, theta, G))
        self.p, self.iterations, self.residual = p, iterations, residual
        return self


@dataclass
class NewtonLog:
    """Running record of tilt inversions: calls, the largest Newton
    iteration count and the worst relative density residual."""

    calls: int = 0
    iterations: int = 0
    residual: float = 0.0

    def record(self, sol):
        self.calls += 1
        self.iterations = max(self.iterations, sol.iterations)
        self.residual = max(self.residual, sol.residual)

    def reset(self):
        self.calls, self.iterations, self.residual = 0, 0, 0.0


def invert_parameters_grid(model, rho, u, tol=1e-12, max_iter=100):
    """Vectorized Newton solve of grad G(tau, theta) = (rho, u).

    Works on arrays of targets; the Hessian of G is the (eta, zeta)
    covariance, positive definite in the interior of the domain.  Returns
    a ``Tilt``.

    A point stops once ``|m_rho - rho| < tol * min(1, rho)`` and
    ``|m_u - u| < tol``, relative in rho so that low densities keep their
    digits.  Below the reference density ``m0 = E_pi[eta]`` the solve
    starts from the low-density asymptote ``tau = log(rho / m0)``
    (``theta = 0``), else from (0, 0).  Converged points leave the working
    arrays, which are compacted only in iterations where some point
    converged; every point takes the same arithmetic whatever else shares
    the call.
    """
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    shape = np.broadcast(rho, u).shape
    rho_f = np.broadcast_to(rho, shape).reshape(-1)
    u_f = np.broadcast_to(u, shape).reshape(-1)
    npts = rho_f.size
    eta, zeta = model.eta, model.zeta
    # weights of the five state sums: m_rho, m_u and the second moments
    wts = np.array([eta, zeta, eta * eta, eta * zeta, zeta * zeta], dtype=float)
    m0 = float(model.pi @ eta)
    tau = np.zeros(npts)
    np.log(rho_f / m0, out=tau, where=(rho_f > 0) & (rho_f < m0))
    theta = np.zeros(npts)
    tol_rho = tol * np.minimum(1.0, rho_f)
    out_tau, out_theta, out_G = np.empty(npts), np.empty(npts), np.empty(npts)
    out_p = np.empty((model.nstates, npts))
    # the working arrays: positions, targets and iterates of open points
    idx, r, v, tr = np.arange(npts), rho_f, u_f, tol_rho
    iterations, worst = 0, 0.0
    for it in range(max_iter):
        if not idx.size:
            break
        p, xm, Z = tilted(model, tau, theta)
        pT = p.T    # (k, points), contiguous
        mom = wts[:, :1] * pT[0]
        for j in range(1, model.nstates):
            mom += wts[:, j:j + 1] * pT[j]
        f1 = mom[0] - r
        f2 = mom[1] - v
        ok = (np.abs(f1) < tr) & (np.abs(f2) < tol)
        if ok.any():
            done = idx[ok]
            out_tau[done], out_theta[done] = tau[ok], theta[ok]
            # G from the last iteration's tilt at the returned (tau, theta)
            out_G[done] = xm[ok] + np.log(Z[ok])
            out_p[:, done] = pT[:, ok]
            worst = max(worst, float(np.max(np.abs(f1[ok]) / r[ok])))
            iterations = it + 1
            keep = ~ok
            idx = idx[keep]
            if not idx.size:
                break
            r, v, tr = r[keep], v[keep], tr[keep]
            tau, theta, mom = tau[keep], theta[keep], mom[:, keep]
            f1, f2 = f1[keep], f2[keep]
        # 2x2 Newton step with the covariance matrix
        m_rho, m_u = mom[0], mom[1]
        c11 = mom[2] - m_rho ** 2
        c12 = mom[3] - m_rho * m_u
        c22 = mom[4] - m_u ** 2
        det = c11 * c22 - c12 * c12
        det = np.where(np.abs(det) < 1e-300, np.nan, det)
        dtau = (c22 * f1 - c12 * f2) / det
        dtheta = (-c12 * f1 + c11 * f2) / det
        # trust region keeps iterates from overshooting towards the boundary
        step = np.hypot(dtau, dtheta)
        lim = np.minimum(1.0, 5.0 / np.maximum(step, 1e-300))
        tau -= lim * dtau
        theta -= lim * dtheta
    if idx.size:
        raise NonConvergence(
            f"Newton failed at (rho,u)=({rho_f[idx[0]]:.6g},{u_f[idx[0]]:.6g})")
    return Tilt(out_tau.reshape(shape), out_theta.reshape(shape),
                out_G.reshape(shape),
                out_p.T.reshape(shape + (model.nstates,)),
                iterations, worst)


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
