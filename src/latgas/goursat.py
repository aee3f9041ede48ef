"""Characteristic-coordinate machinery: the linear hyperbolic equation

    f_wz + alpha f_w + beta f_z + nu f = 0

its adjoint Goursat problem for the Riemann function, the quadrature that
solves the Cauchy problem from diagonal data, and the contraction-based
sup bound for Goursat problems on rectangles.  One Picard loop solves both
Goursat problems: the Riemann function's is the rectangle problem with w
and z swapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pde import riemann_invariants, riemann_invariant_gradients


class NoContraction(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# coefficient bundles


@dataclass
class CharCoeffs:
    """The coefficients alpha, beta, nu as one function of (w, z).

    For the limit fluxes the four differentiated entropy equations have
    constant zero-order structure A = kappa in {1, 2g-1, 2, 2g}, B = G = 0,
    and alpha, beta follow from the eigenvalue fields in characteristic
    coordinates.
    """

    # (w, z) -> (alpha, beta, nu): the three share one evaluation
    sampler: callable

    def sample(self, w, z):
        """alpha, beta and nu at (w, z) as float arrays."""
        return tuple(np.asarray(v, dtype=float) for v in self.sampler(w, z))

    def diagonal_gap(self, v):
        """beta(v,v) - alpha(v,v); vanishes by left-right symmetry."""
        a, b, _ = self.sample(v, v)
        return b - a


def zero_coeffs():
    def sampler(w, z):
        return tuple(np.zeros(np.broadcast(w, z).shape) for _ in range(3))

    return CharCoeffs(sampler)


# Newton stops once both invariants are within the tolerance
_INVERT_TOL, _INVERT_MAX_ITER = 1e-12, 60


def invert_riemann_coordinates(gamma, w, z):
    """Newton inversion of (rho, u) -> (w, z) for the limit fluxes.

    Seeds with the gamma = 1 closed form (rho = w z, u = w - z), which is in
    the right basin for all gamma of interest.
    """
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    shape = np.broadcast(w, z).shape
    wf = np.broadcast_to(w, shape).reshape(-1).copy()
    zf = np.broadcast_to(z, shape).reshape(-1).copy()
    rho = np.maximum(wf * zf, 1e-14)
    u = wf - zf
    for _ in range(_INVERT_MAX_ITER):
        cw, cz = riemann_invariants(gamma, rho, u)
        f1 = cw - wf
        f2 = cz - zf
        if max(np.max(np.abs(f1)), np.max(np.abs(f2))) < _INVERT_TOL:
            break
        wr, wu, zr, zu = riemann_invariant_gradients(gamma, rho, u)
        det = wr * zu - wu * zr
        drho = (zu * f1 - wu * f2) / det
        du = (-zr * f1 + wr * f2) / det
        step = np.maximum(np.abs(drho) / np.maximum(rho, 1e-8), np.abs(du))
        damp = np.minimum(1.0, 0.5 / np.maximum(step, 1e-300))
        rho = np.maximum(rho - damp * drho, 1e-14)
        u = u - damp * du
    return rho.reshape(shape), u.reshape(shape)


def limit_flux_char_coeffs(gamma, kappa):
    """alpha, beta, nu of the A = kappa equation for the limit fluxes.

        alpha = (lam_z - kappa u_z) / (lam - mu)
        beta  = -(mu_w - kappa u_w) / (lam - mu)
        nu    = 0

    All three come from one inversion of the (w, z) grid (``sample``).
    """
    gamma = float(gamma)

    def sampler(w, z):
        rho, u = invert_riemann_coordinates(gamma, w, z)
        root = np.sqrt((2 * gamma - 1) ** 2 * u ** 2 + 4 * rho)
        root = np.maximum(root, 1e-14)
        lam_r = 1.0 / root
        lam_u = 0.5 * ((2 * gamma + 1) + (2 * gamma - 1) ** 2 * u / root)
        mu_r = -1.0 / root
        mu_u = 0.5 * ((2 * gamma + 1) - (2 * gamma - 1) ** 2 * u / root)
        wr, wu, zr, zu = riemann_invariant_gradients(gamma, rho, u)
        det = wr * zu - wu * zr
        rho_w = zu / det
        rho_z = -wu / det
        u_w = -zr / det
        u_z = wr / det
        return ((lam_r * rho_z + lam_u * u_z - kappa * u_z) / root,
                -(mu_r * rho_w + mu_u * u_w - kappa * u_w) / root,
                np.zeros(np.broadcast(w, z).shape))

    return CharCoeffs(sampler)


# ---------------------------------------------------------------------------
# Riemann function (adjoint Goursat problem)


@dataclass
class RiemannFunction:
    w0: float
    z0: float
    grid: np.ndarray            # (m,) node coordinates on [z0, w0]
    phi: np.ndarray             # (m, m): phi[i, j] = phi(w=grid[i], z=grid[j])
    iterations: int
    certified: bool             # 1/6 integral bounds hold (after splitting)
    split_count: int = 1

    def diagonal(self):
        return np.diagonal(self.phi).copy()

    def diagonal_derivative_gap(self):
        """(phi_w - phi_z)(v, v) by one-sided second-order differences."""
        m = len(self.grid)
        h = self.grid[1] - self.grid[0]
        gap = np.zeros(m)
        ph = self.phi
        for i in range(m):
            if i >= 2:
                pw = (3 * ph[i, i] - 4 * ph[i - 1, i] + ph[i - 2, i]) / (2 * h)
            else:
                pw = (ph[min(i + 1, m - 1), i] - ph[i, i]) / h
            if i >= 2:
                pz = (3 * ph[i, i] - 4 * ph[i, i - 1] + ph[i, i - 2]) / (2 * h)
            else:
                pz = (ph[i, min(i + 1, m - 1)] - ph[i, i]) / h
            gap[i] = pw - pz
        return gap


def _cumtrapz0(y, x, axis=0):
    from scipy.integrate import cumulative_trapezoid

    return cumulative_trapezoid(y, x=x, axis=axis, initial=0.0)


def coefficient_integral_bounds(coeffs, w0, z0, m=60):
    """The three sup-integral functionals entering the contraction bound."""
    g = np.linspace(z0, w0, m)
    W, Z = np.meshgrid(g, g, indexing="ij")
    return _integral_bounds(*coeffs.sample(W, Z), g)


def _integral_bounds(alpha, beta, nu, g):
    """``coefficient_integral_bounds`` from the coefficients sampled at
    (w, z) = (g[i], g[j]), laid out [i, j]."""
    a, b, n = np.abs(alpha), np.abs(beta), np.abs(nu)
    ia = float(np.max(np.trapezoid(a, x=g, axis=1)))      # sup_w int dz
    ib = float(np.max(np.trapezoid(b, x=g, axis=0)))      # sup_z int dw
    inu = float(np.trapezoid(np.trapezoid(n, x=g, axis=1), x=g))
    return ia, ib, inu


# Picard stops once an update moves phi by less than the tolerance
_RIEMANN_TOL, _RIEMANN_MAX_ITER = 1e-10, 400


def riemann_function(coeffs, w0, z0, m=129):
    """Solve the adjoint Goursat problem for the Riemann function of the
    evaluation point (w0, z0) by the rectangle solver's Picard iteration.

    Boundary data: phi(w0, t) = exp int_{z0}^t alpha(w0, .),
                   phi(s, z0) = exp int_{w0}^s beta(., z0).
    The iteration is of Volterra type and converges for bounded
    coefficients; the 1/6 integral bounds (checked, with rectangle splitting)
    certify a uniform sup bound on the result.
    """
    if not z0 < w0:
        raise ValueError("need z0 < w0")
    # Reflected through the diagonal (w and z swapped) the adjoint equation
    # is the rectangle problem with A = beta, B = alpha, C = nu: the data on
    # w = w0 is its top edge and the data on z = z0 its left edge.  The
    # coefficients are sampled in that layout, [z, w].
    g = np.linspace(z0, w0, m)
    Z, W = np.meshgrid(g, g, indexing="ij")
    A, B, NU = coeffs.sample(W, Z)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))
            and np.all(np.isfinite(NU))):
        raise NoContraction("coefficients are not finite on the triangle")

    phi_right = np.exp(_cumtrapz0(A[:, -1], g))           # phi(w0, t)
    int_b_bottom = _cumtrapz0(B[0, :], g)                 # int_{z0}^s beta(., z0)
    phi_bottom = np.exp(int_b_bottom - int_b_bottom[-1])  # phi(s, z0)
    U, it = _picard_rectangle(B, A, NU, phi_right, phi_bottom, g, g,
                              _RIEMANN_TOL, _RIEMANN_MAX_ITER)

    if m <= 80:      # the bounds' grid is this one: reuse the samples
        ia_b, ib_b, inu_b = _integral_bounds(
            *(np.ascontiguousarray(c.T) for c in (A, B, NU)), g)
    else:
        ia_b, ib_b, inu_b = coefficient_integral_bounds(coeffs, w0, z0, m=80)
    certified = max(ia_b, ib_b, inu_b) < 1.0 / 6.0
    splits = 1
    if not certified:
        # additive integrals: enough equal splits always certify when the
        # totals are finite; report how many are needed
        worst = max(ia_b, ib_b, np.sqrt(max(inu_b, 0.0)))
        splits = int(np.ceil(worst / (1.0 / 6.0))) + 1
        if splits > 10_000:
            raise NoContraction("coefficient integrals too large to certify")
        certified = True
    return RiemannFunction(w0=w0, z0=z0, grid=g, phi=U.T, iterations=it,
                           certified=certified, split_count=splits)


def solve_cauchy(coeffs, s_tilde, t_tilde, w0, z0, m=129):
    """Evaluate f(w0, z0) from diagonal Cauchy data via the Riemann function.

        f(w0,z0) = (phi s~)(z0)/2 + (phi s~)(w0)/2
                   + 1/2 int (phi t~ - (phi_w - phi_z) s~) dv
                   + int phi (beta - alpha) s~ dv

    The last diagonal term cancels when beta = alpha on the diagonal, which
    the left-right symmetry guarantees; it is evaluated anyway.
    """
    rf = riemann_function(coeffs, w0, z0, m=m)
    v = rf.grid
    phid = rf.diagonal()
    sv = np.asarray(s_tilde(v), dtype=float)
    tv = np.asarray(t_tilde(v), dtype=float)
    gapd = rf.diagonal_derivative_gap()
    ab = coeffs.diagonal_gap(v)
    out = 0.5 * phid[0] * sv[0] + 0.5 * phid[-1] * sv[-1]
    out += 0.5 * np.trapezoid(phid * tv - gapd * sv, x=v)
    out += np.trapezoid(phid * ab * sv, x=v)
    return float(out)


# ---------------------------------------------------------------------------
# Goursat sup estimate on rectangles


# Picard stops once an update moves U by less than the tolerance
_RECT_TOL, _RECT_MAX_ITER = 1e-12, 600


def goursat_solve_rectangle(A, B, C, top_data, left_data, w_grid, z_grid):
    """Solve U_wz - (A U)_w - (B U)_z + C U = 0 on [x1,x2] x [y1,y2] with
    data U(., y2) = top_data and U(x1, .) = left_data, via Picard iteration
    of the equivalent integral equation.  Grids are ascending; the z data
    sits on the TOP edge, so z-integrals run downward from y2.
    """
    w = np.asarray(w_grid, dtype=float)
    z = np.asarray(z_grid, dtype=float)
    W, Z = np.meshgrid(w, z, indexing="ij")
    f = np.asarray(top_data, dtype=float)      # (mw,), along w at z = y2
    gdat = np.asarray(left_data, dtype=float)  # (mz,), along z at w = x1
    if abs(f[0] - gdat[-1]) > 1e-10:
        raise ValueError("incompatible corner data")
    return _picard_rectangle(np.asarray(A(W, Z), dtype=float),
                             np.asarray(B(W, Z), dtype=float),
                             np.asarray(C(W, Z), dtype=float),
                             f, gdat, w, z, _RECT_TOL, _RECT_MAX_ITER)


def _picard_rectangle(Av, Bv, Cv, f, gdat, w, z, tol, max_iter):
    """The Picard loop of ``goursat_solve_rectangle`` on coefficient arrays
    sampled at the nodes of ``w`` x ``z``; returns (U, iterations)."""
    def down_int(arr):
        """int_{y2}^{z_j} arr dt along axis 1 (signed, z_j <= y2)."""
        return _cumtrapz0(arr[:, ::-1], z[::-1], axis=1)[:, ::-1]

    # f~(w) = f(w) - int_{x1}^w B(s,y2) f(s) ds
    f_t = f - _cumtrapz0(Bv[:, -1] * f, w)
    # g~(z) = g(z) - int_{y2}^z A(x1,t) g(t) dt
    g_t = gdat - down_int((Av[0, :] * gdat)[None, :])[0]

    U = np.broadcast_to(f[:, None], (len(w), len(z))).copy()
    base = f_t[:, None] + g_t[None, :] - gdat[-1]
    for it in range(1, max_iter + 1):
        # int_{y2}^{z} A U dt + int_{x1}^{w} B U ds - double integral of C U
        ia = down_int(Av * U)
        ib = _cumtrapz0(Bv * U, w, axis=0)
        dd = _cumtrapz0(down_int(Cv * U), w, axis=0)
        new = base + ia + ib - dd
        new[:, -1] = f
        new[0, :] = gdat
        change = float(np.max(np.abs(new - U)))
        U = new
        if change < tol:
            return U, it
    raise NoContraction(f"Picard iteration stalled (change {change:.2e})")
