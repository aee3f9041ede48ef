"""Equilibrium thermodynamics of a spin model: tilted single-site measures,
log moment generating function G and its Legendre transform, and the Newton
inversion from densities (rho, u) back to chemical potentials (tau, theta).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from . import native


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
    return _tilted_site(model.site_table, tau, theta)


def _tilted_site(site, tau, theta):
    """``tilted`` from the rows of ``model.site_table``."""
    tau = np.asarray(tau, dtype=float)
    theta = np.asarray(theta, dtype=float)
    col = (site.shape[1],) + (1,) * max(tau.ndim, theta.ndim)
    x = site[1].reshape(col) * tau + site[2].reshape(col) * theta
    x += site[0].reshape(col)
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


def _sum_terms(a, w):
    """``a[0] w[0] + a[1] w[1] + ...`` summed left to right, the order the
    compiled kernels use."""
    s = a[0] * w[0]
    for j in range(1, len(a)):
        s += a[j] * w[j]
    return s


def _invert_py(site, m0, rho, u, tol, max_iter):
    """Newton solve of every point in numpy; the reference for the compiled
    ``invert_tilt``.  Returns ``(res, p, iterations, worst, bad)``: the
    ``(3, n)`` rows tau, theta, G, the ``(n, k)`` measures, and the index of
    the first point that did not converge (-1 if all did)."""
    npts = rho.size
    wts = site[1:]
    tau = np.zeros(npts)
    np.log(rho / m0, out=tau, where=(rho > 0) & (rho < m0))
    theta = np.zeros(npts)
    tol_rho = tol * np.minimum(1.0, rho)
    res = np.empty((3, npts))
    out_p = np.empty((site.shape[1], npts))
    # the working arrays: positions, targets and iterates of open points
    idx, r, v, tr = np.arange(npts), rho, u, tol_rho
    iterations, worst = 0, 0.0
    for it in range(max_iter):
        if not idx.size:
            break
        p, xm, Z = _tilted_site(site, tau, theta)
        pT = p.T    # (k, points), contiguous
        mom = _sum_terms(pT, wts.T[:, :, None])
        f1 = mom[0] - r
        f2 = mom[1] - v
        ok = (np.abs(f1) < tr) & (np.abs(f2) < tol)
        if ok.any():
            done = idx[ok]
            res[0, done], res[1, done] = tau[ok], theta[ok]
            # G from the last iteration's tilt at the returned (tau, theta)
            res[2, done] = xm[ok] + np.log(Z[ok])
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
        c11 = mom[2] - m_rho * m_rho
        c12 = mom[3] - m_rho * m_u
        c22 = mom[4] - m_u * m_u
        det = c11 * c22 - c12 * c12
        det = np.where(np.abs(det) < 1e-300, np.nan, det)
        dtau = (c22 * f1 - c12 * f2) / det
        dtheta = (-c12 * f1 + c11 * f2) / det
        # trust region keeps iterates from overshooting towards the boundary
        step = np.hypot(dtau, dtheta)
        lim = np.minimum(1.0, 5.0 / np.maximum(step, 1e-300))
        tau -= lim * dtau
        theta -= lim * dtheta
    bad = int(idx[0]) if idx.size else -1
    return res, out_p.T, iterations, worst, bad


def _pair_moments_py(site, p, tabs):
    """Pair expectations in numpy by the compiled ``pair_moments`` loops:
    every sum runs over the states in order, elementwise over the points."""
    e, z, ee, ez, zz = site[1:]
    cols = [p[:, a] for a in range(p.shape[1])]
    k = len(cols)
    out = np.empty((3 * len(tabs) + 3, p.shape[0]))
    mean_e, mean_z = _sum_terms(cols, e), _sum_terms(cols, z)
    c11 = _sum_terms(cols, ee) - mean_e * mean_e
    c12 = _sum_terms(cols, ez) - mean_e * mean_z
    c22 = _sum_terms(cols, zz) - mean_z * mean_z
    det = c11 * c22 - c12 * c12
    for t, tab in enumerate(tabs):
        q = [_sum_terms(cols, tab[a]) for a in range(k)]      # (tab p)_a
        r = [_sum_terms(cols, tab[:, b]) for b in range(k)]   # (p tab)_b
        val = _sum_terms(cols, q)
        # Cov(f, eta_1 + eta_2) and Cov(f, zeta_1 + zeta_2)
        both = [r[b] * cols[b] + q[b] * cols[b] for b in range(k)]
        d_tau = _sum_terms(both, e) - 2.0 * mean_e * val
        d_theta = _sum_terms(both, z) - 2.0 * mean_z * val
        out[3 * t] = val
        out[3 * t + 1] = (d_tau * c22 - d_theta * c12) / det
        out[3 * t + 2] = (-d_tau * c12 + d_theta * c11) / det
    out[-3], out[-2], out[-1] = c11, c12, c22
    return out


# The Newton solve of _invert_py and the pair sums of _pair_moments_py.
# Every value is formed by the same operations in the same order as the
# numpy loops; only exp and log come from the C library instead of numpy's
# own, which may round differently in the last bit.  Built without FMA
# contraction so the result does not depend on the compiler.
_TILT_SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* site: (6, k) rows log pi, eta, zeta, eta^2, eta zeta, zeta^2 */
static double sum_terms(const double *a, const double *w, int64_t k)
{
    double s = a[0] * w[0];
    for (int64_t j = 1; j < k; j++)
        s += a[j] * w[j];
    return s;
}

/* res: (3, n) tau, theta, G; p: (n, k); stats: iterations, worst relative
   density residual.  Returns the first point that did not converge, or -1.
   Points go in blocks, iterations outer and the block's open points inner,
   so the processor overlaps the independent points' dependency chains;
   tau and theta live in res from the seed on. */
#define BLOCK 256
int64_t invert_tilt(int64_t k, const double *site, double m0, int64_t n,
                    const double *rho, const double *u, double tol,
                    int64_t max_iter, double *res, double *p, double *stats)
{
    const double *logpi = site, *w = site + k;
    double *tau = res, *theta = res + n, *G = res + 2 * n;
    int64_t open[BLOCK], iterations = 0;
    double worst = 0.0;
    for (int64_t b0 = 0; b0 < n; b0 += BLOCK) {
        int64_t nopen = n - b0 < BLOCK ? n - b0 : BLOCK;
        for (int64_t q = 0; q < nopen; q++) {
            int64_t i = b0 + q;
            double r = rho[i];
            open[q] = i;
            tau[i] = r > 0 && r < m0 ? log(r / m0) : 0.0;
            theta[i] = 0.0;
        }
        for (int64_t it = 0; it < max_iter && nopen; it++) {
            int64_t kept = 0;
            for (int64_t q = 0; q < nopen; q++) {
                int64_t i = open[q];
                double r = rho[i], *x = p + i * k, mom[5];
                for (int64_t j = 0; j < k; j++)
                    x[j] = w[j] * tau[i] + w[k + j] * theta[i] + logpi[j];
                /* the max propagates NaN, as numpy's does */
                double xm = x[0];
                for (int64_t j = 1; j < k; j++)
                    if (!(x[j] <= xm) && xm == xm)
                        xm = x[j];
                /* exp(0) = 1 exactly: the largest state needs no call */
                double Z = 0.0;
                for (int64_t j = 0; j < k; j++) {
                    x[j] = x[j] - xm == 0.0 ? 1.0 : exp(x[j] - xm);
                    Z += x[j];
                }
                for (int64_t j = 0; j < k; j++)
                    x[j] = x[j] / Z;
                for (int c = 0; c < 5; c++)
                    mom[c] = sum_terms(x, w + c * k, k);
                double f1 = mom[0] - r, f2 = mom[1] - u[i];
                if (fabs(f1) < tol * (r < 1.0 ? r : 1.0) && fabs(f2) < tol) {
                    G[i] = xm + log(Z);
                    if (fabs(f1) / r > worst)
                        worst = fabs(f1) / r;
                    iterations = it + 1 > iterations ? it + 1 : iterations;
                    continue;
                }
                /* 2x2 Newton step with the covariance matrix */
                double c11 = mom[2] - mom[0] * mom[0];
                double c12 = mom[3] - mom[0] * mom[1];
                double c22 = mom[4] - mom[1] * mom[1];
                double det = c11 * c22 - c12 * c12;
                if (fabs(det) < 1e-300)
                    det = NAN;
                double dtau = (c22 * f1 - c12 * f2) / det;
                double dtheta = (-c12 * f1 + c11 * f2) / det;
                /* trust region keeps iterates from overshooting; the step
                   is cut only above length 5, and |dtau| + |dtheta| <= 5
                   bounds the length without calling hypot */
                double lim = 1.0;
                if (!(fabs(dtau) + fabs(dtheta) <= 5.0)) {
                    double step = hypot(dtau, dtheta);
                    lim = 5.0 / (step > 1e-300 ? step : 1e-300);
                    lim = lim < 1.0 ? lim : 1.0;
                }
                tau[i] = tau[i] - lim * dtau;
                theta[i] = theta[i] - lim * dtheta;
                open[kept++] = i;
            }
            nopen = kept;
        }
        if (nopen)
            return open[0];
    }
    stats[0] = (double)iterations;
    stats[1] = worst;
    return -1;
}

/* out: (3 ntab + 3, n) rows val, d_rho, d_u per (k, k) table of tabs, then
   the site covariances c11, c12, c22 */
void pair_moments(int64_t k, const double *site, int64_t n, const double *p,
                  int64_t ntab, const double *tabs, double *out)
{
    const double *e = site + k, *z = site + 2 * k;
    double q[k], r[k], both[k];
    for (int64_t i = 0; i < n; i++) {
        const double *pi = p + i * k;
        double mean_e = sum_terms(pi, e, k), mean_z = sum_terms(pi, z, k);
        double c11 = sum_terms(pi, site + 3 * k, k) - mean_e * mean_e;
        double c12 = sum_terms(pi, site + 4 * k, k) - mean_e * mean_z;
        double c22 = sum_terms(pi, site + 5 * k, k) - mean_z * mean_z;
        double det = c11 * c22 - c12 * c12;
        for (int64_t t = 0; t < ntab; t++) {
            const double *tab = tabs + t * k * k;
            for (int64_t a = 0; a < k; a++) {
                q[a] = pi[0] * tab[a * k];
                r[a] = pi[0] * tab[a];
                for (int64_t b = 1; b < k; b++) {
                    q[a] += pi[b] * tab[a * k + b];
                    r[a] += pi[b] * tab[b * k + a];
                }
            }
            double val = sum_terms(pi, q, k);
            for (int64_t b = 0; b < k; b++)
                both[b] = r[b] * pi[b] + q[b] * pi[b];
            double d_tau = sum_terms(both, e, k) - 2.0 * mean_e * val;
            double d_theta = sum_terms(both, z, k) - 2.0 * mean_z * val;
            out[3 * t * n + i] = val;
            out[(3 * t + 1) * n + i] = (d_tau * c22 - d_theta * c12) / det;
            out[(3 * t + 2) * n + i] = (-d_tau * c12 + d_theta * c11) / det;
        }
        out[3 * ntab * n + i] = c11;
        out[(3 * ntab + 1) * n + i] = c12;
        out[(3 * ntab + 2) * n + i] = c22;
    }
}
"""


def _ctypes_tilt(lib):
    """``(invert, pair_moments)`` around the compiled kernels, with the
    signatures of the numpy ones."""
    i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    inv, pm = lib.invert_tilt, lib.pair_moments
    inv.argtypes = [i64, ptr, dbl, i64, ptr, ptr, dbl, i64, ptr, ptr, ptr]
    inv.restype = i64
    pm.argtypes = [i64, ptr, i64, ptr, i64, ptr, ptr]
    pm.restype = None

    def invert(site, m0, rho, u, tol, max_iter):
        k, npts = site.shape[1], rho.size
        res, p, stats = np.empty((3, npts)), np.empty((npts, k)), np.zeros(2)
        bad = inv(k, site.ctypes.data, m0, npts, rho.ctypes.data,
                  u.ctypes.data, tol, max_iter, res.ctypes.data,
                  p.ctypes.data, stats.ctypes.data)
        return res, p, int(stats[0]), float(stats[1]), bad

    def pair_moments(site, p, tabs):
        k, npts = site.shape[1], p.shape[0]
        site = np.ascontiguousarray(site, dtype=float)
        p = np.ascontiguousarray(p, dtype=float)
        tabs = np.ascontiguousarray(tabs, dtype=float)
        out = np.empty((3 * len(tabs) + 3, npts))
        pm(k, site.ctypes.data, npts, p.ctypes.data, len(tabs),
           tabs.ctypes.data, out.ctypes.data)
        return out

    return invert, pair_moments


TILT = native.Kernel("tilt", _TILT_SOURCE, _ctypes_tilt,
                     (_invert_py, _pair_moments_py))


_NEWTON_TOL, _NEWTON_MAX_ITER = 1e-12, 100   # ``invert_parameters_grid``


def invert_parameters_grid(model, rho, u):
    """Vectorized Newton solve of grad G(tau, theta) = (rho, u).

    Works on arrays of targets; the Hessian of G is the (eta, zeta)
    covariance, positive definite in the interior of the domain.  Returns
    a ``Tilt``.

    A point stops once ``|m_rho - rho| < tol * min(1, rho)`` and
    ``|m_u - u| < tol`` (``_NEWTON_TOL``), relative in rho so that low
    densities keep their digits.  Below the reference density
    ``m0 = E_pi[eta]`` the solve starts from the low-density asymptote
    ``tau = log(rho / m0)`` (``theta = 0``), else from (0, 0).  Each point
    takes the same arithmetic whatever else shares the call.  The solve
    runs in a compiled kernel when a C compiler works (``TILT.backend``),
    in numpy otherwise; the two differ only in the last bits of exp and
    log.
    """
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    shape = np.broadcast(rho, u).shape
    rho_f = np.ascontiguousarray(np.broadcast_to(rho, shape).reshape(-1))
    u_f = np.ascontiguousarray(np.broadcast_to(u, shape).reshape(-1))
    site = model.site_table
    m0 = float(model.pi @ model.eta)
    res, p, iterations, worst, bad = TILT.impl[0](
        site, m0, rho_f, u_f, _NEWTON_TOL, _NEWTON_MAX_ITER)
    if bad >= 0:
        raise NonConvergence(
            f"Newton failed at (rho,u)=({rho_f[bad]:.6g},{u_f[bad]:.6g})")
    return Tilt(res[0].reshape(shape), res[1].reshape(shape),
                res[2].reshape(shape), p.reshape(shape + (model.nstates,)),
                iterations, worst)


def pair_moments(site, p, tabs):
    """Expectations of pair currents under product tilted measures.

    ``site`` is ``model.site_table``, ``p`` the ``(n, k)`` tilted measures
    and ``tabs`` a stack of ``(k, k)`` pair-current tables f(a, b).  Returns
    a ``(3 len(tabs) + 3, n)`` array: for each table the value
    ``sum_ab p_a f(a, b) p_b`` and its exact partials in rho and u (the
    covariance chain rule), then the single-site ``Var eta``,
    ``Cov(eta, zeta)`` and ``Var zeta``.  Every sum runs over the states in
    a fixed order, so a point's values do not depend on the other points.
    """
    k = site.shape[1]
    if not (site.shape == (6, k) and np.ndim(p) == 2 and np.shape(p)[1] == k
            and np.ndim(tabs) == 3 and np.shape(tabs)[1:] == (k, k)):
        raise ValueError(f"need a (6, k) site table, (n, k) measures and "
                         f"(ntab, k, k) tables; got {site.shape}, "
                         f"{np.shape(p)} and {np.shape(tabs)}")
    return TILT.impl[1](site, p, tabs)


def invert_parameters(model, rho, u):
    """Recover CanonicalParams for a single interior point (rho, u)."""
    dom = DomainPolygon.from_model(model)
    if not bool(dom.contains(rho, u, margin=1e-13)) or dom.interior_margin(rho, u) <= 0:
        raise OutOfDomain(f"({rho}, {u}) is not in the interior of the domain")
    tau, theta, G = invert_parameters_grid(model, rho, u)
    return CanonicalParams(float(tau), float(theta), float(rho), float(u), float(G))


def thermo_entropy(model, rho, u):
    """Legendre transform S(rho,u) = rho*tau + u*theta - G(tau,theta)."""
    cp = invert_parameters(model, rho, u)
    return rho * cp.tau + u * cp.theta - cp.G


def entropy_gradient(model, rho, u):
    """Gradient of the thermodynamic entropy, equal to (tau, theta)."""
    cp = invert_parameters(model, rho, u)
    return np.array([cp.tau, cp.theta])


def entropy_hessian(model, rho, u):
    """Hessian of S, the inverse of the covariance matrix G''."""
    cp = invert_parameters(model, rho, u)
    _, cov = moments(model, cp.tau, cp.theta)
    return np.linalg.inv(cov)
