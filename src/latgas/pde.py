"""Smooth-regime solvers and diagnostics for the two-by-two system

    d_t rho + d_x Psi(rho,u) = 0
    d_t u   + d_x Phi(rho,u) = 0

covering the universal low-density limit (Psi = rho*u, Phi = rho + gamma*u^2),
model fluxes from exact summation, and the rescaled fluxes at finite n.
Includes eigenstructure, explicit Riemann invariants, genuine nonlinearity and
the globally convex entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field
from .fluxes import FluxPair


class ComplexEigenvalues(ValueError):
    pass


class DegenerateGamma(ValueError):
    pass


class BlowupBeforeT(RuntimeError):
    def __init__(self, msg, run):
        super().__init__(msg)
        self.run = run


class DomainExit(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# flux views


_CLIP_TOL = 1e-12    # ``clip`` raises DomainExit for states further outside


class LimitFlux:
    """Universal limit fluxes Psi = rho*u, Phi = rho + gamma*u^2 on rho >= 0."""

    def __init__(self, gamma):
        self.gamma = float(gamma)
        self.name = f"limit(gamma={gamma:g})"

    def Psi(self, rho, u):
        return np.asarray(rho) * np.asarray(u)

    def Phi(self, rho, u):
        return np.asarray(rho) + self.gamma * np.asarray(u) ** 2

    def bundle(self, rho, u):
        """(Psi, Phi, Psi_rho, Psi_u, Phi_rho, Phi_u), broadcast once."""
        rho = np.asarray(rho, dtype=float)
        u = np.asarray(u, dtype=float)
        pr, pu = (a.copy() for a in np.broadcast_arrays(u, rho))
        return (rho * u, rho + self.gamma * u ** 2, pr, pu, np.ones(pr.shape),
                2.0 * self.gamma * pr)

    def contains(self, rho, u, margin=0.0):
        return np.asarray(rho) >= margin

    def clip(self, rho, u):
        rho = np.asarray(rho, dtype=float)
        if np.any(rho < -_CLIP_TOL):
            raise DomainExit(f"rho dropped to {rho.min():.3e}")
        return np.maximum(rho, 0.0), np.asarray(u, dtype=float)


class ModelFluxView:
    """Adapter exposing a FluxPair with vectorized values and its bundle."""

    def __init__(self, flux_pair):
        self.fp = flux_pair
        self.gamma = flux_pair.gamma
        self.newton = flux_pair.newton
        self.name = f"model({flux_pair.model.name})"

    def Psi(self, rho, u):
        return self.fp.Psi(rho, u)

    def Phi(self, rho, u):
        return self.fp.Phi(rho, u)

    def bundle(self, rho, u):
        """(Psi, Phi, Psi_rho, Psi_u, Phi_rho, Phi_u) in one tilt solve."""
        return self.fp.bundle(rho, u)

    def contains(self, rho, u, margin=0.0):
        return self.fp.domain.contains(rho, u, margin=margin)

    def clip(self, rho, u):
        rho = np.asarray(rho, dtype=float)
        u = np.asarray(u, dtype=float)
        margin = self.fp.domain.interior_margin(rho, u)
        if np.any(margin < -_CLIP_TOL):
            raise DomainExit(f"state left the domain by {-margin.min():.3e}")
        # pull offending points back onto the boundary by a convex nudge
        bad = margin < 0
        if np.any(bad):
            c = self.fp.domain.vertices.mean(axis=0)
            lam = 1e-9
            rho = np.where(bad, (1 - lam) * rho + lam * c[0], rho)
            u = np.where(bad, (1 - lam) * u + lam * c[1], u)
        return rho, u


class ScaledFluxView:
    """Rescaled fluxes Psi^n(r,u) = n^{3b} Psi(n^{-2b} r, n^{-b} u),
    Phi^n(r,u) = n^{2b} Phi(n^{-2b} r, n^{-b} u); they converge to the
    limit fluxes with parameter gamma as n grows."""

    def __init__(self, base, n, beta):
        if isinstance(base, FluxPair):
            raise TypeError("ScaledFluxView needs a flux view: wrap the "
                            "FluxPair in ModelFluxView")
        self.base = base
        self.newton = getattr(base, "newton", None)
        self.n = float(n)
        self.beta = float(beta)
        self.gamma = base.gamma
        self.a_r = self.n ** (-2 * self.beta)   # density contraction
        self.a_u = self.n ** (-self.beta)
        self.name = f"scaled({base.name}, n={n:g}, beta={beta:g})"

    def Psi(self, rho, u):
        return self.base.Psi(self.a_r * np.asarray(rho), self.a_u * np.asarray(u)) \
            / (self.a_r * self.a_u)

    def Phi(self, rho, u):
        return self.base.Phi(self.a_r * np.asarray(rho), self.a_u * np.asarray(u)) \
            / self.a_r

    def contains(self, rho, u, margin=0.0):
        return self.base.contains(self.a_r * np.asarray(rho),
                                  self.a_u * np.asarray(u), margin=margin)

    def clip(self, rho, u):
        r2, u2 = self.base.clip(self.a_r * np.asarray(rho),
                                self.a_u * np.asarray(u))
        return r2 / self.a_r, u2 / self.a_u

    def bundle(self, rho, u):
        psi, phi, pr, pu, fr, fu = self.base.bundle(self.a_r * np.asarray(rho),
                                                    self.a_u * np.asarray(u))
        return (psi / (self.a_r * self.a_u), phi / self.a_r, pr / self.a_u,
                pu / self.a_r, fr, fu / self.a_u)


# ---------------------------------------------------------------------------
# eigenstructure and invariants


@dataclass
class EigenData:
    lam: float
    mu: float
    r: np.ndarray
    s: np.ndarray
    l: np.ndarray
    m: np.ndarray


def wave_speeds(flux, rho, u):
    """Both characteristic speeds (lam >= mu), vectorized."""
    return _speeds(*flux.bundle(rho, u)[2:])


def _speeds(pr, pu, fr, fu, strict=True):
    """Eigenvalues (lam >= mu) of the Jacobian [[pr, pu], [fr, fu]]."""
    disc = (fu - pr) ** 2 + 4.0 * fr * pu
    if strict and np.any(disc < -1e-14):
        raise ComplexEigenvalues(f"discriminant {np.min(disc):.3e} < 0")
    root = np.sqrt(np.maximum(disc, 0.0))
    lam = 0.5 * (pr + fu + root)
    mu = 0.5 * (pr + fu - root)
    return lam, mu


def eigenstructure(flux, rho, u):
    """Eigen-decomposition of the flux Jacobian at a single state.

    Right eigenvectors are (lam - Phi_u, Phi_rho); left ones (Phi_rho,
    lam - Psi_rho); closed forms throughout, so residuals sit at rounding
    level for the limit fluxes and FD level for model fluxes.
    """
    pr, pu, fr, fu = (float(np.asarray(v)) for v in flux.bundle(rho, u)[2:])
    disc = (fu - pr) ** 2 + 4.0 * fr * pu
    if disc < -1e-14:
        raise ComplexEigenvalues(f"discriminant {disc:.3e} < 0 at ({rho},{u})")
    root = np.sqrt(max(disc, 0.0))
    lam = 0.5 * (pr + fu + root)
    mu = 0.5 * (pr + fu - root)
    r = np.array([lam - fu, fr])
    s = np.array([mu - fu, fr])
    l = np.array([fr, lam - pr])
    m = np.array([fr, mu - pr])

    # fall back to the off-diagonal row when Phi_rho degenerates
    if abs(fr) < 1e-13:
        r = np.array([pu, lam - pr])
        s = np.array([pu, mu - pr])
        l = np.array([lam - fu, pu])
        m = np.array([mu - fu, pu])

    def unit(v):
        nrm = np.linalg.norm(v)
        return v / nrm if nrm > 0 else v

    return EigenData(lam, mu, unit(r), unit(s), unit(l), unit(m))


def riemann_invariants(gamma, rho, u):
    """Explicit Riemann invariants of the limit system, normalized so that
    w(0,u) = u for u > 0 and z(0,u) = -u for u < 0.  Undefined at
    gamma = 3/4 where the exponents blow up.
    """
    gamma = float(gamma)
    if abs(gamma - 0.75) < 1e-12:
        raise DegenerateGamma("Riemann invariant exponents degenerate at gamma=3/4")
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(rho < 0):
        raise ValueError("rho must be nonnegative")
    a = (2 * gamma - 1) / (4 * gamma - 3)
    b = (2 * gamma - 2) / (4 * gamma - 3)
    root = np.sqrt((2 * gamma - 1) ** 2 * u ** 2 + 4 * rho)
    den = 4 * gamma - 2
    with np.errstate(divide="ignore", invalid="ignore"):
        w = ((root + (2 * gamma - 1) * u) / den) ** a \
            * (root - (2 * gamma - 2) * u) ** b
        z = ((root - (2 * gamma - 1) * u) / den) ** a \
            * (root + (2 * gamma - 2) * u) ** b
    # 0^a for a>0 gives 0; patch nan from 0*inf style corner cases
    w = np.where(np.isnan(w) & (root == 0), 0.0, w)
    z = np.where(np.isnan(z) & (root == 0), 0.0, z)
    return w, z


def riemann_invariant_gradients(gamma, rho, u):
    """Analytic gradients (w_rho, w_u, z_rho, z_u) of the invariants."""
    gamma = float(gamma)
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    a = (2 * gamma - 1) / (4 * gamma - 3)
    b = (2 * gamma - 2) / (4 * gamma - 3)
    root = np.sqrt((2 * gamma - 1) ** 2 * u ** 2 + 4 * rho)
    w, z = riemann_invariants(gamma, rho, u)
    P = root + (2 * gamma - 1) * u
    Q = root - (2 * gamma - 1) * u
    M1 = root - (2 * gamma - 2) * u
    M2 = root + (2 * gamma - 2) * u
    w_rho = w * (a / P + b / M1) * 2.0 / root
    z_rho = z * (a / Q + b / M2) * 2.0 / root
    dru = (2 * gamma - 1) ** 2 * u / root
    w_u = w * (a * (dru + (2 * gamma - 1)) / P + b * (dru - (2 * gamma - 2)) / M1)
    z_u = z * (a * (dru - (2 * gamma - 1)) / Q + b * (dru + (2 * gamma - 2)) / M2)
    return w_rho, w_u, z_rho, z_u


def z_level_set(gamma, c, u):
    """rho(u) on the level set z(rho, u) = c > 0 of the Riemann invariant z,
    at every u of an array.

    z is homogeneous of degree 1, z(lam^2 rho, lam u) = lam z(rho, u), so
    the level set is rho = c^2 q(u / c), where q solves z(q, s) = 1.
    Newton's method finds q from the gamma = 1 curve q = 1 + s, and each
    point stops on its own step, so its value does not depend on the other
    points in the call.  The level set is exactly 0 for u <= -c, where it
    has merged into rho = 0.  Needs gamma > 3/4.
    """
    if gamma <= 0.75:
        raise ValueError(f"level sets need gamma > 3/4, got {gamma}")
    u = np.asarray(u, dtype=float)
    s = u.reshape(-1) / c
    q = np.where(s > -1.0, 1.0 + s, 0.0)
    todo = np.flatnonzero(q)
    for _ in range(60):
        if todo.size == 0:
            break
        qt, st = q[todo], s[todo]
        with np.errstate(divide="ignore", invalid="ignore"):
            z = riemann_invariants(gamma, qt, st)[1]
            z_q = riemann_invariant_gradients(gamma, qt, st)[2]
        step = (z - 1.0) / z_q
        q[todo] = qt = np.maximum(qt - step, 0.5 * qt)
        todo = todo[np.abs(step) > 1e-13 * np.maximum(qt, 1.0)]
    return (c * c * q).reshape(u.shape)


def level_line(gamma, w_value, u_grid):
    """The level line u -> rho(u) of w(rho, u) = w_value > 0; NaN where it
    does not cross u (u > w_value).  Left-right symmetry gives
    w(rho, u) = z(rho, -u), so it is a level set of z.  Needs gamma > 3/4.
    """
    u = np.asarray(u_grid, dtype=float)
    return np.where(u > w_value, np.nan, z_level_set(gamma, w_value, -u))


def genuine_nonlinearity(gamma, rho, u):
    """(grad lam . r, grad mu . s) for the limit system.

    Direct computation from the closed-form eigenstructure places the zero
    set of grad(lam).r on the parabola

        rho = -gamma (2 gamma - 1)^2 (gamma + 1)^{-2} u^2,   u <= 0

    (u >= 0 for the mu family), which meets rho >= 0 only when gamma < 0;
    for gamma >= 0 both fields are nonzero away from the origin.
    """
    flux = LimitFlux(gamma)
    h = 1e-6            # the finite-difference step of the speed gradients

    def lam_mu(rr, uu):
        return wave_speeds(flux, rr, uu)

    lam_r = (lam_mu(rho + h, u)[0] - lam_mu(max(rho - h, 0.0), u)[0]) / \
        (h + min(h, rho))
    lam_u = (lam_mu(rho, u + h)[0] - lam_mu(rho, u - h)[0]) / (2 * h)
    mu_r = (lam_mu(rho + h, u)[1] - lam_mu(max(rho - h, 0.0), u)[1]) / \
        (h + min(h, rho))
    mu_u = (lam_mu(rho, u + h)[1] - lam_mu(rho, u - h)[1]) / (2 * h)
    e = eigenstructure(flux, rho, u)
    gn_lam = float(lam_r * e.r[0] + lam_u * e.r[1])
    gn_mu = float(mu_r * e.s[0] + mu_u * e.s[1])
    return gn_lam, gn_mu


def convex_entropy(rho, u):
    """The globally convex Lax entropy S = rho*log(rho) + u^2/2 (rho > 0)."""
    rho = np.asarray(rho, dtype=float)
    return rho * np.log(rho) + 0.5 * np.asarray(u) ** 2


def convex_entropy_hessian(rho, u):
    """(S_rr, S_ru, S_uu) of the convex entropy: diag(1/rho, 1)."""
    rho = np.asarray(rho, dtype=float)
    shape = np.broadcast(rho, u).shape
    return 1.0 / rho, np.zeros(shape), np.ones(shape)


def convex_entropy_pde_residual(flux, rho, u, hessian=convex_entropy_hessian):
    """Residual Psi_u S_rr + (Phi_u - Psi_rho) S_ru - Phi_rho S_uu of the Lax
    entropy equation for ``flux``, with (S_rr, S_ru, S_uu) = hessian(rho, u).

    It vanishes where S is an entropy of the system: for the convex entropy
    that holds for every limit flux, and fails for fluxes with another
    Jacobian structure (e.g. the two-lane model).
    """
    _, _, pr, pu, fr, fu = flux.bundle(rho, u)
    s_rr, s_ru, s_uu = hessian(rho, u)
    return pu * s_rr + (fu - pr) * s_ru - fr * s_uu


# ---------------------------------------------------------------------------
# solvers


@dataclass
class SolverRun:
    m: int
    scheme: str
    cfl: float
    snapshots: list            # [(t, Field rho, Field u)]
    blowup_time: float = None
    steps: int = 0
    flux_name: str = ""

    def at(self, t):
        for tt, fr, fu in self.snapshots:
            if abs(tt - t) < 1e-12:
                return fr, fu
        raise KeyError(f"no snapshot at t={t}")

    @property
    def final(self):
        return self.snapshots[-1]


def _minmod(a, b):
    out = np.where((a * b) > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)
    return out


def _muscl_step(flux, R, U, dt, dx):
    """One MUSCL-Hancock step with local Lax-Friedrichs interface flux.

    The fluxes are evaluated twice per step, each time on a stacked array:
    once on all cell faces (left faces, then right faces) for the half-step
    predictor, and once on all interface states (left, then right states),
    whose bundle gives both the interface fluxes and the wave speeds.
    """

    def slopes(q):
        dl = q - np.roll(q, 1)
        dr = np.roll(q, -1) - q
        return _minmod(dl, dr)

    m = R.size
    sR, sU = slopes(R), slopes(U)
    # face values inside each cell: [left faces, right faces]
    RF = np.concatenate([R - 0.5 * sR, R + 0.5 * sR])
    UF = np.concatenate([U - 0.5 * sU, U + 0.5 * sU])
    psi, phi = flux.bundle(RF, UF)[:2]
    # half-step predictor, applied to both faces
    RF -= np.tile(0.5 * dt / dx * (psi[m:] - psi[:m]), 2)
    UF -= np.tile(0.5 * dt / dx * (phi[m:] - phi[:m]), 2)
    # interface i+1/2: left state from cell i, right state from cell i+1
    lr, lu = RF[m:], UF[m:]
    rr, ru = np.roll(RF[:m], -1), np.roll(UF[:m], -1)
    psi, phi, *jac = flux.bundle(np.concatenate([lr, rr]),
                                 np.concatenate([lu, ru]))
    lam, mu = _speeds(*jac, strict=False)
    speed = np.maximum(np.abs(lam), np.abs(mu))
    a = np.maximum(speed[:m], speed[m:])
    flux_rho = 0.5 * (psi[:m] + psi[m:]) - 0.5 * a * (rr - lr)
    flux_u = 0.5 * (phi[:m] + phi[m:]) - 0.5 * a * (ru - lu)
    R_new = R - dt / dx * (flux_rho - np.roll(flux_rho, 1))
    U_new = U - dt / dx * (flux_u - np.roll(flux_u, 1))
    return R_new, U_new


def _dx4(q, dx):
    """Fourth-order central first derivative on the periodic grid."""
    return (8.0 * (np.roll(q, -1) - np.roll(q, 1))
            - (np.roll(q, -2) - np.roll(q, 2))) / (12.0 * dx)


def _spectral_filter(q):
    """Weak exponential filter exp(-36 k^16) acting only on the highest
    Fourier modes."""
    qh = np.fft.rfft(q)
    k = np.arange(qh.size) / max(qh.size - 1, 1)
    qh *= np.exp(-36.0 * k ** 16)
    return np.fft.irfft(qh, n=q.size)


def _central4_step(flux, R, U, dt, dx):
    def rhs(rr, uu):
        psi, phi = flux.bundle(rr, uu)[:2]
        return -_dx4(psi, dx), -_dx4(phi, dx)

    k1 = rhs(R, U)
    k2 = rhs(R + 0.5 * dt * k1[0], U + 0.5 * dt * k1[1])
    k3 = rhs(R + 0.5 * dt * k2[0], U + 0.5 * dt * k2[1])
    k4 = rhs(R + dt * k3[0], U + dt * k3[1])
    R_new = R + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    U_new = U + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return _spectral_filter(R_new), _spectral_filter(U_new)


_MAX_STEPS = 2_000_000      # step budget of one solve


def solve(flux, rho0, u0, t_end, m=None, scheme="muscl", cfl=0.4,
          snapshot_times=(), blowup_factor=50.0):
    """Method-of-lines/finite-volume solution on the periodic unit torus.

    ``rho0``/``u0`` may be Fields or callables of x.  Snapshots are taken at
    the requested macroscopic times plus t_end.  Gradient blow-up (tracked
    through max |d_x u|) raises ``BlowupBeforeT`` with the run, its
    ``blowup_time`` recorded.
    """
    if m is None:
        m = rho0.m if isinstance(rho0, Field) else 256
    x = np.arange(m) / m

    def _init(f):
        if isinstance(f, Field):
            return f.resample(m).values.copy() if f.m != m else f.values.copy()
        if callable(f):
            return np.asarray(f(x), dtype=float) + np.zeros(m)
        return np.asarray(f, dtype=float).copy()

    R, U = _init(rho0), _init(u0)
    if R.shape != (m,) or U.shape != (m,):
        raise ValueError("initial data does not match the grid")
    if not np.all(flux.contains(R, U)):
        raise DomainExit("initial data outside the flux domain")
    dx = 1.0 / m
    stepper = _muscl_step if scheme == "muscl" else _central4_step
    if scheme not in ("muscl", "central4"):
        raise ValueError(f"unknown scheme {scheme!r}")

    grad0 = max(np.max(np.abs(np.roll(U, -1) - np.roll(U, 1))) / (2 * dx), 1.0)
    targets = sorted(set(float(t) for t in snapshot_times) | {float(t_end)})
    run = SolverRun(m=m, scheme=scheme, cfl=cfl, snapshots=[], flux_name=flux.name)
    t = 0.0
    if targets and abs(targets[0]) < 1e-15:
        run.snapshots.append((0.0, Field(R.copy(), 0.0, "rho"),
                              Field(U.copy(), 0.0, "u")))
        targets = targets[1:]
    for target in targets:
        while t < target - 1e-14:
            lam, mu = wave_speeds(flux, R, U)
            speed = max(float(np.max(np.abs(lam))), float(np.max(np.abs(mu))), 1e-12)
            dt = min(cfl * dx / speed, target - t)
            R, U = stepper(flux, R, U, dt, dx)
            R, U = flux.clip(R, U)
            t += dt
            run.steps += 1
            gmax = np.max(np.abs(np.roll(U, -1) - np.roll(U, 1))) / (2 * dx)
            if gmax > blowup_factor * grad0:
                run.blowup_time = t
                run.snapshots.append((t, Field(R.copy(), t, "rho"),
                                      Field(U.copy(), t, "u")))
                raise BlowupBeforeT(f"gradient blow-up at t={t:.6g}", run)
            if run.steps > _MAX_STEPS:
                raise RuntimeError("step budget exhausted")
        run.snapshots.append((target, Field(R.copy(), target, "rho"),
                              Field(U.copy(), target, "u")))
    return run


def smooth_solution_oracle(flux, rho0, u0, t, m_out=256, m_fine=2048,
                           scheme="muscl", snapshot_times=()):
    """Richardson-extrapolated fine-grid reference solution.

    Solves on m_fine and m_fine/2 points and combines them at the scheme's
    order on the shared coarse nodes, then resamples to m_out.
    """
    order = 2 if scheme == "muscl" else 4
    times = tuple(sorted(set(snapshot_times) | {t}))
    runs = {}
    for mm in (m_fine, m_fine // 2):
        r0 = Field(rho0(np.arange(mm) / mm)) if callable(rho0) else rho0.resample(mm)
        v0 = Field(u0(np.arange(mm) / mm)) if callable(u0) else u0.resample(mm)
        runs[mm] = solve(flux, r0, v0, times[-1], m=mm, scheme=scheme,
                         snapshot_times=times)
    fac = 2.0 ** order
    out = {}
    for tt in times:
        rf, uf = runs[m_fine].at(tt)
        rc, uc = runs[m_fine // 2].at(tt)
        rho_x = (fac * rf.values[::2] - rc.values) / (fac - 1.0)
        u_x = (fac * uf.values[::2] - uc.values) / (fac - 1.0)
        out[tt] = (Field(rho_x, tt, "rho").resample(m_out),
                   Field(u_x, tt, "u").resample(m_out))
    return out if len(times) > 1 else out[t]
