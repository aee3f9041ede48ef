"""Construction of the cutoff Lax entropy/flux pair.

The entropy S solves the linear hyperbolic equation

    Psi_u S_rr + (Phi_u - Psi_r) S_ru - Phi_r S_uu = 0

with Cauchy data S(r,0) = s(r), S_u(r,0) = 0 on the non-characteristic line
u = 0, where s is the two-knot profile vanishing below r_lo and linear above
r_hi.  Characteristic curves through (r,0) split the domain into D1 (below),
D2 (above) and the transition wedge D3; S is identically 0 on D1(r_lo) and
rho - (r_hi-r_lo)/log(r_hi/r_lo) on D2(r_hi), which makes J = S_rho a cutoff
indicator.  First and second partials are obtained by marching their own
differentiated equations with the matching Cauchy data rather than by
differencing S.
"""

from __future__ import annotations

import bisect
import ctypes
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import PchipInterpolator

from . import native
from .pde import LimitFlux, riemann_invariants, z_level_set
from .thermo import TILT


class SingularStart(ValueError):
    pass


class InconsistentOverlap(RuntimeError):
    pass


DEFAULT_RATIO = float(np.exp(4.0))   # r_hi / r_lo
D1, D2, D3 = 1, 2, 3


def cutoff_profile(r_lo, r_hi, r):
    """Initial entropy profile s and its derivative s' (C^1 at both knots).

    s = 0 below r_lo, (r log(r/r_lo) - (r - r_lo))/log(r_hi/r_lo) between the
    knots, and r - (r_hi - r_lo)/log(r_hi/r_lo) above r_hi.
    """
    if not (0 < r_lo < r_hi):
        raise ValueError("need 0 < r_lo < r_hi")
    r = np.asarray(r, dtype=float)
    logq = np.log(r_hi / r_lo)
    mid = (r >= r_lo) & (r < r_hi)
    hi = r >= r_hi
    s = np.zeros_like(r)
    sp = np.zeros_like(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(mid, (r * np.log(np.maximum(r, 1e-300) / r_lo)
                           - (r - r_lo)) / logq, s)
        sp = np.where(mid, np.log(np.maximum(r, 1e-300) / r_lo) / logq, sp)
    s = np.where(hi, r - (r_hi - r_lo) / logq, s)
    sp = np.where(hi, 1.0, sp)
    if s.ndim == 0:
        return float(s), float(sp)
    return s, sp


def char_slope(flux, rho, u):
    """Right-hand side of the characteristic ODE d rho / d u."""
    _, _, pr, pu, fr, fu = flux.bundle(rho, u)
    gap = fu - pr
    disc = np.maximum(gap ** 2 + 4.0 * fr * pu, 0.0)
    return (np.sqrt(disc) - gap) / (2.0 * fr)


def tabulated_slope(flux, rho_max, u_max, n_rho=500, n_u=128):
    """Bilinear interpolant of the characteristic slope field.

    Model-backed fluxes need a tilt solve per evaluation; tabulating once
    makes curve integration cheap.  Evaluations outside the box clamp to it.
    The lookup is scalar and takes the cell and weights as scipy's
    ``RegularGridInterpolator`` (linear) does, so it gives the same values.
    """
    rho = np.linspace(0.0, rho_max, n_rho)
    uu = np.linspace(-u_max, u_max, n_u)
    vals = np.empty((n_rho, n_u))
    for rows in _row_blocks(n_rho, n_u):
        vals[rows] = char_slope(flux, rho[rows, None], uu)
    vals = vals.tolist()
    rho, uu = rho.tolist(), uu.tolist()

    def cell(grid, x):
        i = min(max(bisect.bisect_right(grid, x) - 1, 0), len(grid) - 2)
        return i, (x - grid[i]) / (grid[i + 1] - grid[i])

    def slope(rr, u):
        i, y0 = cell(rho, min(max(rr, 0.0), rho_max))
        j, y1 = cell(uu, min(max(u, -u_max), u_max))
        lo, hi = vals[i], vals[i + 1]
        return (lo[j] * (1 - y0) * (1 - y1) + lo[j + 1] * (1 - y0) * y1
                + hi[j] * y0 * (1 - y1) + hi[j + 1] * y0 * y1)

    return slope


def characteristic_curve(flux, r, u_max, u_min=None, slope_fn=None):
    """Integrate the characteristic through (r, 0) over [u_min, u_max].

    RK4 with steps refined near the degenerate corner (0,0); the curve is
    clamped at rho = 0 once it exits below.  Returns (u, rho) arrays with u
    ascending.
    """
    if r <= 0:
        raise SingularStart("the characteristic ODE is singular at r = 0")
    if u_min is None:
        u_min = -u_max
    if slope_fn is None:
        slope_fn = lambda rr, u: float(char_slope(flux, max(rr, 0.0), u))

    def run(direction, u_end):
        span = abs(u_end)
        if span == 0:
            return [0.0], [r]
        n = max(400, int(span * 400))
        # smaller steps near u = 0 where the slope ~ sqrt(rho) varies fastest
        base = span / n
        us = [0.0]
        rhos = [r]
        u, rho = 0.0, r
        while abs(u) < span - 1e-15:
            h = base * min(1.0, 0.1 + abs(u) / max(span, 1e-12) * 0.9
                           + np.sqrt(rho / (r + 1.0)))
            h = min(h, span - abs(u))
            h *= direction

            def f(uu, rr):
                return slope_fn(max(rr, 0.0), uu)

            k1 = f(u, rho)
            k2 = f(u + h / 2, rho + h / 2 * k1)
            k3 = f(u + h / 2, rho + h / 2 * k2)
            k4 = f(u + h, rho + h * k3)
            rho = rho + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            u = u + h
            if rho <= 0.0:
                # the curve has merged into the boundary; extend flat
                us += [u, direction * span]
                rhos += [0.0, 0.0]
                break
            us.append(u)
            rhos.append(rho)
        return us, rhos

    u_neg, rho_neg = run(-1.0, abs(u_min))
    u_pos, rho_pos = run(+1.0, abs(u_max))
    us = np.array(u_neg[::-1] + u_pos[1:])
    rhos = np.array(rho_neg[::-1] + rho_pos[1:])
    uniq = np.concatenate([[True], np.diff(us) > 0])
    return us[uniq], rhos[uniq]


def limit_curve(gamma, r, u):
    """The limit flux's characteristic through (r, 0), at every u of an
    array: the level set z(rho, u) = z(r, 0) of the Riemann invariant z
    (``z_level_set``), exactly 0 for u <= -z(r, 0).  Needs gamma > 3/4,
    where z is the invariant carried along the characteristics
    ``char_slope`` follows.
    """
    if r <= 0:
        raise SingularStart("the characteristic ODE is singular at r = 0")
    return z_level_set(gamma, float(riemann_invariants(gamma, r, 0.0)[1]), u)


@dataclass
class CharGeometry:
    """Characteristic curves through (r_lo, 0) and (r_hi, 0) plus Lemma-style
    sandwich constants fitted from the curves.

    For the limit flux (gamma > 3/4) a curve is the closed-form level set
    ``limit_curve``, evaluated wherever it is asked for.  For a model flux
    it is integrated by RK4 on a tabulated slope field and interpolated.
    """

    flux: object
    r_lo: float
    r_hi: float
    u_max: float
    curves: dict = field(init=False, default_factory=dict)
    C1: float = field(init=False)
    C2: float = field(init=False)

    def __post_init__(self):
        self._slope_fn = None
        self._closed_form = (isinstance(self.flux, LimitFlux)
                             and self.flux.gamma > 0.75)
        if not isinstance(self.flux, LimitFlux):
            # model-backed fluxes: tabulate the slope field once
            r_cap = 4.0 * self.r_hi
            while not bool(np.all(self.flux.contains(r_cap, 0.0))) \
                    and r_cap > self.r_hi:
                r_cap *= 0.8
            box = r_cap + 3.0 * np.sqrt(r_cap) * self.u_max
            for _ in range(50):
                if bool(np.all(self.flux.contains(box, self.u_max * 1.1))):
                    break
                box *= 0.9
            self._slope_fn = tabulated_slope(self.flux, box, self.u_max * 1.1)
        for r in (self.r_lo, self.r_hi):
            self._add_curve(r)
        self._fit_constants()

    def _add_curve(self, r):
        if self._closed_form:
            self.curves[r] = partial(limit_curve, self.flux.gamma, r)
            return
        us, rhos = characteristic_curve(self.flux, r, self.u_max * 1.05,
                                        slope_fn=self._slope_fn)
        self.curves[r] = PchipInterpolator(us, rhos, extrapolate=True)

    def sigma(self, u, r):
        if r not in self.curves:
            self._add_curve(r)
        return np.maximum(self.curves[r](u), 0.0)

    def _fit_constants(self):
        """Sandwich constants: r + C1 sqrt(r) u <= sigma <= r + C2 sqrt(r) u
        on u <= 0 (fitted, not asserted against any reference values)."""
        ratios = []
        for r in (self.r_lo, self.r_hi):
            us = np.linspace(-self.u_max, -1e-3, 60)
            sig = self.sigma(us, r)
            live = sig > 0
            if np.any(live):
                ratios.append((sig[live] - r) / (np.sqrt(r) * us[live]))
        allr = np.concatenate(ratios) if ratios else np.array([1.0])
        self.C1 = float(np.max(allr))
        self.C2 = float(np.min(allr))

    def classify(self, rho, u):
        """Partition labels: D1 below sigma(-|u|; r_lo), D2 above
        sigma(|u|; r_hi), D3 in between (boundary closed into D3)."""
        rho = np.asarray(rho, dtype=float)
        u = np.asarray(u, dtype=float)
        lo = self.sigma(-np.abs(u), self.r_lo)
        hi = self.sigma(np.abs(u), self.r_hi)
        out = np.full(np.broadcast(rho, u).shape, D3, dtype=np.int8)
        out = np.where(rho < lo, D1, out)
        out = np.where(rho > hi, D2, out)
        return out


# ---------------------------------------------------------------------------
# finite-difference operators (4th order with one-sided edges)


def _stencil(offsets, d):
    """Finite-difference weights for the d-th derivative on integer offsets."""
    import math

    offsets = np.asarray(offsets, dtype=float)
    p = len(offsets)
    A = np.vander(offsets, p, increasing=True).T
    b = np.zeros(p)
    b[d] = float(math.factorial(d))
    return np.linalg.solve(A, b)


def _edge_weights(d):
    """(6, 2) weights of the two one-sided rows at the left edge (on
    f[..., :6]) and, mirrored with the parity of d, at the right edge."""
    left = np.stack([_stencil(range(6), d), _stencil(range(-1, 5), d)], axis=1)
    return left, (-1) ** d * left[::-1, ::-1]


_D1_LEFT, _D1_RIGHT = _edge_weights(1)
_D2_LEFT, _D2_RIGHT = _edge_weights(2)


def d1_4(f, h):
    """4th-order first derivative along the last axis."""
    out = np.empty_like(f)
    out[..., 2:-2] = (f[..., :-4] - 8 * f[..., 1:-3]
                      + 8 * f[..., 3:-1] - f[..., 4:]) / (12 * h)
    out[..., :2] = f[..., :6] @ _D1_LEFT / h
    out[..., -2:] = f[..., -6:] @ _D1_RIGHT / h
    return out


def d2_4(f, h):
    """4th-order second derivative along the last axis."""
    out = np.empty_like(f)
    out[..., 2:-2] = (-f[..., :-4] + 16 * f[..., 1:-3] - 30 * f[..., 2:-2]
                      + 16 * f[..., 3:-1] - f[..., 4:]) / (12 * h ** 2)
    out[..., :2] = f[..., :6] @ _D2_LEFT / h ** 2
    out[..., -2:] = f[..., -6:] @ _D2_RIGHT / h ** 2
    return out


def _hyper6(f):
    """Sixth difference on the cells 3:-3 (it is zero nearer the edges),
    used as weak grid-scale damping."""
    return (f[..., :-6] - 6 * f[..., 1:-5] + 15 * f[..., 2:-4]
            - 20 * f[..., 3:-3] + 15 * f[..., 4:-2]
            - 6 * f[..., 5:-1] + f[..., 6:])


# ---------------------------------------------------------------------------
# coefficient rows of the entropy equation and its derivatives
#
# The differentiated equations for S_rho, S_u, S_rr, S_ru carry lower-order
# terms A f_rho + B f_u + G f (+ source times the coupled field).  A provider
# is built for one rho grid and the fields to march, and ``rows(u)`` returns
# the main rows (Psi_u, Phi_u - Psi_rho, Phi_rho) as a fresh (3, n_rho) array
# and the stacked (A, B, G, source) rows as a (4, n_fields, n_rho) array.


def _partners(names):
    """Row of the field each equation's source term multiplies: S_rr and
    S_ru couple to each other when both march, every other field to itself
    with a zero source."""
    partner = np.arange(len(names))
    if "S_rr" in names and "S_ru" in names:
        i, j = names.index("S_rr"), names.index("S_ru")
        partner[i], partner[j] = j, i
    return partner


class LimitRows:
    """Exact rows of the limit fluxes: Psi_u = rho, Phi_u - Psi_rho =
    (2 gamma - 1) u and Phi_rho = 1; the lower-order terms reduce to a
    constant A = kappa in {1, 2gamma-1, 2, 2gamma} (0 for S itself) with
    B = G = 0 and no source, the same at every u."""

    def __init__(self, flux, rho, names):
        g = flux.gamma
        kappa = {"S": 0.0, "S_rho": 1.0, "S_u": 2 * g - 1.0, "S_rr": 2.0,
                 "S_ru": 2 * g}
        self.rho, self.names, self.gamma = rho, tuple(names), g
        self.pu = np.maximum(rho, 1e-9)
        self.low = np.zeros((4, len(names), rho.size))
        self.low[0] = np.array([kappa[k] for k in names])[:, None]

    def rows(self, u):
        main = np.empty((3, self.rho.size))
        main[0], main[1], main[2] = self.pu, 2.0 * self.gamma * u - u, 1.0
        return main, self.low


class ModelRows:
    """Model-flux rows tabulated at ``nodes`` u levels over [u_lo, u_hi] and
    interpolated linearly in u in between.

    The lower-order coefficients involve rho- and u-derivatives of the ratios
    Psi_u/Phi_rho etc., formed by differencing flux bundles on a 9-point
    offset pattern; everything at one node comes from a single stacked
    bundle, so one tilt solve.
    """

    PU_FLOOR = 1e-9
    # the 9-point offset pattern in multiples of h: C, R+, R-, U+, U-,
    # R+U+, R+U-, R-U+, R-U- (rho offset, u offset)
    _OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1),
                (-1, 1), (-1, -1))

    def __init__(self, flux, rho, names, u_lo, u_hi, nodes=150):
        self.rho, self.names = rho, tuple(names)
        pad = 0.02 * (u_hi - u_lo) + 1e-9
        self.u_nodes = np.linspace(u_lo - pad, u_hi + pad, nodes)
        # per node: the 3 main rows, then the 4 nf lower-order rows
        self._table = np.empty((nodes, 3 + 4 * len(names), rho.size))
        for t, u in zip(self._table, self.u_nodes):
            t[...] = self._node_rows(flux, u)

    def _node_rows(self, flux, u):
        rho = self.rho
        h = 0.5 * (rho[1] - rho[0])
        rm = np.maximum(rho - h, 1e-9)
        rp = rho + h
        r_at = {0: rho, 1: rp, -1: rm}
        R = np.stack([r_at[i] for i, _ in self._OFFSETS])
        U = np.stack([np.full_like(rho, u + j * h) for _, j in self._OFFSETS])
        _, _, pr, pu, fr, fu = (np.asarray(a, dtype=float) for a in
                                flux.bundle(np.maximum(R, 1e-9), U))
        pu_f = np.maximum(pu, self.PU_FLOOR)
        gap = fu - pr
        # the ratio fields entering the lower-order coefficients, (9, n) each
        pu_fr, gap_fr = pu / fr, gap / fr
        gap_pu, fr_pu = gap / pu_f, fr / pu_f

        def dr(f):
            return (f[1] - f[2]) / (rp - rm)

        def du(f):
            return (f[3] - f[4]) / (2 * h)

        def drr(f):
            a, b, c = rm, rho, rp
            return 2.0 * (f[2] / ((b - a) * (c - a)) - f[0] / ((b - a) * (c - b))
                          + f[1] / ((c - a) * (c - b)))

        def dru(f):
            return ((f[5] - f[6]) / (2 * h) - (f[7] - f[8]) / (2 * h)) \
                / (rp - rm)

        fr, pu = fr[0], pu[0]
        dr_pf, dr_gf, du_gp, du_fp = dr(pu_fr), dr(gap_fr), du(gap_pu), du(fr_pu)
        zero = np.zeros_like(rho)
        low = {"S": (zero, zero, zero, zero),
               "S_rho": (fr * dr_pf, fr * dr_gf, zero, zero),
               "S_u": (pu * du_gp, -pu * du_fp, zero, zero),
               "S_rr": (2 * fr * dr_pf, 2 * fr * dr_gf, -fr * drr(pu_fr),
                        -fr * drr(gap_fr)),
               "S_ru": (pu * du_gp + fr * dr_pf, fr * dr_gf - pu * du_fp,
                        pu * du_fp * dr_gf + fr * dru(gap_fr),
                        -(pu * du_fp * dr_pf + fr * dru(pu_fr)))}
        coupled = _partners(self.names) != np.arange(len(self.names))
        return [pu, gap[0], fr] + [low[k][m] if m < 3 or c else zero
                                   for m in range(4)
                                   for k, c in zip(self.names, coupled)]

    def rows(self, u):
        x = np.clip((u - self.u_nodes[0])
                    / (self.u_nodes[1] - self.u_nodes[0]),
                    0, len(self.u_nodes) - 1 - 1e-12)
        j = int(x)
        w = x - j
        both = (1.0 - w) * self._table[j] + w * self._table[j + 1]
        return both[:3], both[3:].reshape(4, len(self.names), -1)


# ---------------------------------------------------------------------------
# the u-marching solver


def _numpy_stepper(state, nf, h, damp, partner, pin_rows, pin_vals):
    """The numpy RK4 step on ``state``: the reference for the compiled one,
    and the fallback without a C compiler."""
    pin_cells = pin_vals.shape[1]

    def apply_pin(x):
        x[pin_rows, -pin_cells:] = pin_vals
        return x

    def rhs(x, rows):
        # f' = g, g' = (pu f_rr + gap g_r + A f_r + B g + G f
        #               + src f[partner]) / fr, plus the damping on every row
        (pu, gap, inv_fr), (A, B, G, src) = rows
        f, g = x[:nf], x[nf:]
        f_r, g_r = np.split(d1_4(x, h), 2)
        dx = np.concatenate([g, (pu * d2_4(f, h) + gap * g_r
                                 + (A * f_r + B * g + G * f)
                                 + src * f[partner]) * inv_fr])
        if damp:
            dx[..., 3:-3] += damp * _hyper6(x)
        return dx

    def step(du, r0, rh, r1):
        k1 = rhs(state, r0)
        k2 = rhs(apply_pin(state + du / 2 * k1), rh)
        k3 = rhs(apply_pin(state + du / 2 * k2), rh)
        k4 = rhs(apply_pin(state + du * k3), r1)
        state[...] = apply_pin(state + du / 6 * (k1 + 2 * k2 + 2 * k3 + k4))

    return step


# One RK4 step of the march, in place on the stacked state.  Every value is
# formed by the same operations in the same order as _numpy_stepper, except
# that the one-sided edge rows sum their six products left to right where
# numpy's matrix product may round differently in the last bit.  Built
# without FMA contraction so the result does not depend on the compiler;
# vectorizing the element-wise loops (-O3) leaves every value unchanged.
_STEP_SOURCE = r"""
#include <stdint.h>

/* Interior stencils of d1_4, d2_4 and _hyper6 at cell j of row f */
#define D1(f, j) (((f)[(j) - 2] - 8.0 * (f)[(j) - 1] + 8.0 * (f)[(j) + 1] \
                   - (f)[(j) + 2]) / c[1])
#define D2(f, j) ((-(f)[(j) - 2] + 16.0 * (f)[(j) - 1] - 30.0 * (f)[j] \
                   + 16.0 * (f)[(j) + 1] - (f)[(j) + 2]) / c[3])
#define H6(f, j) ((f)[(j) - 3] - 6.0 * (f)[(j) - 2] + 15.0 * (f)[(j) - 1] \
                  - 20.0 * (f)[j] + 15.0 * (f)[(j) + 1] - 6.0 * (f)[(j) + 2] \
                  + (f)[(j) + 3])

/* derivative of order d (1 or 2) at cell j of row f, one-sided rows within
   two cells of an edge; c: h, 12 h, h^2, 12 h^2, damp; w: the (6, 2) left
   and right edge weights of the first, then of the second derivative */
static double deriv(const double *f, int64_t j, int64_t n, int d,
                    const double *c, const double *w)
{
    if (j >= 2 && j < n - 2)
        return d == 1 ? D1(f, j) : D2(f, j);
    const double *row = j < 2 ? f : f + n - 6;
    int64_t q = j < 2 ? j : j - (n - 2);
    w += (d - 1) * 24 + (j < 2 ? 0 : 12);
    double s = 0.0;
    for (int k = 0; k < 6; k++)
        s += row[k] * w[2 * k + q];
    return s / (d == 1 ? c[0] : c[2]);
}

static void rhs(const double *restrict x, double *restrict dx, int64_t nf,
                int64_t n, const double *c, const double *w,
                const double *restrict main, const double *restrict low,
                const int64_t *partner)
{
    const double *pu = main, *gap = main + n, *inv_fr = main + 2 * n;
    double damp = c[4];
    for (int64_t i = 0; i < nf; i++) {
        const double *f = x + i * n, *g = x + (nf + i) * n;
        const double *fp = x + partner[i] * n;
        const double *A = low + i * n, *B = low + (nf + i) * n;
        const double *G = low + (2 * nf + i) * n;
        const double *src = low + (3 * nf + i) * n;
        double *df = dx + i * n, *dg = dx + (nf + i) * n;
        for (int64_t j = 0; j < n; j++) {
            if (j == 3 && n > 6)
                j = n - 3;          /* the interior runs below */
            df[j] = g[j];
            dg[j] = (pu[j] * deriv(f, j, n, 2, c, w)
                     + gap[j] * deriv(g, j, n, 1, c, w)
                     + (A[j] * deriv(f, j, n, 1, c, w) + B[j] * g[j]
                        + G[j] * f[j])
                     + src[j] * fp[j]) * inv_fr[j];
        }
        if (damp != 0.0)
            for (int64_t j = 3; j < n - 3; j++) {
                df[j] = g[j] + damp * H6(f, j);
                dg[j] = (pu[j] * D2(f, j) + gap[j] * D1(g, j)
                         + (A[j] * D1(f, j) + B[j] * g[j] + G[j] * f[j])
                         + src[j] * fp[j]) * inv_fr[j] + damp * H6(g, j);
            }
        else
            for (int64_t j = 3; j < n - 3; j++) {
                df[j] = g[j];
                dg[j] = (pu[j] * D2(f, j) + gap[j] * D1(g, j)
                         + (A[j] * D1(f, j) + B[j] * g[j] + G[j] * f[j])
                         + src[j] * fp[j]) * inv_fr[j];
            }
    }
}

static void pin(double *x, int64_t n, const int64_t *rows, int64_t npin,
                int64_t cells, const double *vals)
{
    for (int64_t p = 0; p < npin; p++)
        for (int64_t j = 0; j < cells; j++)
            x[rows[p] * n + n - cells + j] = vals[p * cells + j];
}

/* work holds 3 (2 nf, n) arrays; main* are the (3, n) rows pu, gap, 1/fr
   and low* the (4, nf, n) rows A, B, G, src at u, u + du/2 and u + du */
void rk4_step(double *state, double *work, int64_t nf, int64_t n,
              const double *c, const double *w, const int64_t *partner,
              const int64_t *pin_rows, int64_t npin, int64_t pin_cells,
              const double *pin_vals, double du, const double *main0,
              const double *low0, const double *mainh, const double *lowh,
              const double *main1, const double *low1)
{
    int64_t size = 2 * nf * n;
    double *restrict k = work, *restrict acc = work + size;
    double *restrict stage = work + 2 * size;
    double half = du / 2, sixth = du / 6;

    rhs(state, k, nf, n, c, w, main0, low0, partner);
    for (int64_t e = 0; e < size; e++) {
        acc[e] = k[e];
        stage[e] = state[e] + half * k[e];
    }
    pin(stage, n, pin_rows, npin, pin_cells, pin_vals);
    rhs(stage, k, nf, n, c, w, mainh, lowh, partner);
    for (int64_t e = 0; e < size; e++) {
        acc[e] = acc[e] + 2.0 * k[e];
        stage[e] = state[e] + half * k[e];
    }
    pin(stage, n, pin_rows, npin, pin_cells, pin_vals);
    rhs(stage, k, nf, n, c, w, mainh, lowh, partner);
    for (int64_t e = 0; e < size; e++) {
        acc[e] = acc[e] + 2.0 * k[e];
        stage[e] = state[e] + du * k[e];
    }
    pin(stage, n, pin_rows, npin, pin_cells, pin_vals);
    rhs(stage, k, nf, n, c, w, main1, low1, partner);
    for (int64_t e = 0; e < size; e++)
        state[e] = state[e] + sixth * (acc[e] + k[e]);
    pin(state, n, pin_rows, npin, pin_cells, pin_vals);
}
"""


def _ctypes_stepper(lib):
    """A stepper factory around the compiled RK4 step, with
    ``_numpy_stepper``'s signature."""
    fn = lib.rk4_step
    i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    fn.argtypes = ([ptr, ptr, i64, i64, ptr, ptr, ptr, ptr, i64, i64, ptr, dbl]
                   + [ptr] * 6)
    fn.restype = None
    weights = np.concatenate([_D1_LEFT, _D1_RIGHT, _D2_LEFT, _D2_RIGHT],
                             axis=None)

    def c_stepper(state, nf, h, damp, partner, pin_rows, pin_vals):
        n = state.shape[-1]
        n_pin, pin_cells = pin_vals.shape
        partner = np.ascontiguousarray(partner, dtype=np.int64)
        pin_rows = np.ascontiguousarray(pin_rows, dtype=np.int64)
        pin_vals = np.ascontiguousarray(pin_vals, dtype=float)
        if not (state.dtype == np.float64 and state.flags.c_contiguous
                and state.flags.writeable and state.shape == (2 * nf, n)
                and n >= 6):
            raise ValueError(f"march state must be a writeable C-contiguous "
                             f"float64 array of shape ({2 * nf}, n >= 6)")
        if not (partner.shape == (nf,) and np.all(partner >= 0)
                and np.all(partner < nf)):
            raise ValueError(f"partner rows must lie in 0..{nf - 1}")
        if not (pin_rows.shape == (n_pin,) and pin_cells <= n
                and np.all(pin_rows >= 0) and np.all(pin_rows < 2 * nf)):
            raise ValueError(f"pinned rows must lie in 0..{2 * nf - 1} and "
                             f"pin at most {n} cells")
        consts = np.array([h, 12 * h, h ** 2, 12 * h ** 2, damp])
        work = np.empty(3 * state.size)
        head = (state.ctypes.data, work.ctypes.data, nf, n,
                consts.ctypes.data, weights.ctypes.data, partner.ctypes.data,
                pin_rows.ctypes.data, n_pin, pin_cells, pin_vals.ctypes.data)

        def step(du, r0, rh, r1):
            # the rows come from a provider through _march_system's rows(),
            # which checks its fields: (3, n) and (4, nf, n) C-contiguous
            # float64 by construction
            fn(*head, du, *(a.ctypes.data for rows in (r0, rh, r1)
                            for a in rows))

        # the kernel holds their addresses: keep them alive with the step
        step.arrays = (state, work, consts, partner, pin_rows, pin_vals)
        return step

    return c_stepper


MARCH = native.Kernel("march", _STEP_SOURCE, _ctypes_stepper, _numpy_stepper)


# March step: _CFL h over the largest characteristic speed of the strip.
# For a Fourier mode at angle t = k h, the march's principal part
# f_uu = (Psi_u f_rr + gap f_ru) / Phi_rho has the eigenvalues
#     i [gap s1 +- sqrt(gap^2 s1^2 + 4 Phi_rho Psi_u s2)] / (2 Phi_rho h),
# with s1 = (8 sin t - sin 2t) / 6 the symbol of d1_4 (peak 1.372) and
# s2 = (30 - 32 cos t + 2 cos 2t) / 12 that of -d2_4 (peak 16/3 at t = pi).
# Since s1^2 <= s2, the eigenvalues are at most sqrt(16/3) = 2.309 times
# the largest speed over h.  RK4 reaches 2 sqrt(2) up the imaginary axis,
# so the limit is 2 sqrt(2) / 2.309 = sqrt(6)/2 = 1.22; where gap dominates
# it is 2 sqrt(2) / 1.372 = 2.06.  The damping and the lower-order rows
# are left out; the march blows up at 2.0 on criterion 7's table.  The step
# is 0.85 of the limit, about 1.04.
_CFL = 0.85 * np.sqrt(6.0) / 2.0
_PIN_CELLS = 4       # right-edge cells re-imposed from pin_right


def _march_system(coeffs, fields0, u_levels, hyper, pin_right=None,
                  stats=None):
    """March the coupled Cauchy problems upward in u, storing each level.

    ``coeffs`` is a ``LimitRows`` or ``ModelRows`` provider for the fields
    of ``fields0``, an ordered dict name -> (f0, g0); the sources couple the
    fields that ``_partners`` pairs.  The left-moving characteristic enters
    through the right edge of the strip; ``pin_right`` supplies the exact
    (f, g) values there (the deep-D2 closed forms), which are re-imposed on
    the outermost ``_PIN_CELLS`` cells at every stage.  All fields march as
    one (2 nf, n_rho) array, f rows then g rows, and each RK4 step runs in
    the compiled kernel when a C compiler works, in numpy otherwise;
    ``stats``, if given, receives the step count, the march seconds, the
    coefficient seconds and which step kernel ran.
    """
    rho = coeffs.rho
    h = rho[1] - rho[0]
    names = list(fields0.keys())
    if tuple(names) != coeffs.names:
        raise ValueError(f"coefficient rows for {coeffs.names}, "
                         f"fields {tuple(names)}")
    nf = len(names)
    state = np.array([fields0[k][0] for k in names]
                     + [fields0[k][1] for k in names], dtype=float)
    levels = np.empty((len(u_levels),) + state.shape)
    levels[0] = state

    pin = [k for k in names if k in (pin_right or {})]
    pin_rows = np.array([names.index(k) + j * nf for j in (0, 1)
                         for k in pin], dtype=np.int64)
    pin_vals = np.array([pin_right[k][j][-_PIN_CELLS:] for j in (0, 1)
                         for k in pin]).reshape(len(pin_rows), _PIN_CELLS)

    cache = {}
    coeff_s = 0.0

    def rows(u):    # ((pu, gap, 1/fr) as (3, n_rho), (A, B, G, source) rows)
        nonlocal coeff_s
        key = round(float(u), 14)
        if key not in cache:
            t0 = time.perf_counter()
            main, low = coeffs.rows(u)
            main[2] = 1.0 / main[2]
            if len(cache) > 16:
                cache.clear()
            cache[key] = (main, low)
            coeff_s += time.perf_counter() - t0
        return cache[key]

    # the 6th-difference kernel is negative semidefinite, so adding it
    # damps grid-scale modes at rate ~ hyper/h
    damp = hyper / h * 0.015625  # / 64
    step = MARCH.impl(state, nf, h, damp, _partners(names), pin_rows,
                      pin_vals)

    # conservative speed estimate over the strip
    (pu, gap, fr), _ = coeffs.rows(u_levels[-1])
    disc = np.sqrt(np.maximum(gap ** 2 + 4 * fr * pu, 0.0))
    speed_cap = float(np.max((disc + np.abs(gap)) / (2 * fr))) + 1e-9

    t_start = time.perf_counter()
    u = float(u_levels[0])
    steps = 0
    for lev, target in enumerate(u_levels[1:], start=1):
        target = float(target)
        while u < target - 1e-14:
            du = min(_CFL * h / speed_cap, target - u)
            step(du, rows(u), rows(u + du / 2), rows(u + du))
            u += du
            steps += 1
        levels[lev] = state
    if stats is not None:
        stats.update(march_steps=steps, coefficient_s=coeff_s,
                     march_s=time.perf_counter() - t_start,
                     march_kernel=MARCH.backend)
    return ({k: levels[:, i] for i, k in enumerate(names)},
            {k: levels[:, nf + i] for i, k in enumerate(names)})


# ---------------------------------------------------------------------------
# the assembled table


_KINK_FRAC = 0.14    # the kink band's width relative to the knot radius


@dataclass
class EntropyTable:
    rho: np.ndarray          # (nr,)
    u: np.ndarray            # (nu,) symmetric about 0
    S: np.ndarray            # (nu, nr)
    F: np.ndarray
    S_rho: np.ndarray
    S_u: np.ndarray
    S_rr: np.ndarray
    S_ru: np.ndarray
    S_uu: np.ndarray
    labels: np.ndarray       # (nu, nr) in {1,2,3}
    Psi: np.ndarray          # (nu, nr) the density flux on the grid
    r_lo: float
    r_hi: float
    gamma: float
    n: float = None
    beta: float = None
    flux: object = None
    geometry: CharGeometry = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def J(self):
        """Cutoff function J = S_rho (I = 1 - J)."""
        return self.S_rho

    @property
    def I(self):
        return 1.0 - self.S_rho

    def meshgrid(self):
        return np.meshgrid(self.rho, self.u)

    def interior_mask(self, margin_cells=5, singular_margin_cells=8):
        """D3 cells whose residual stencil avoids both the partition
        boundary and the kink characteristics through (r_lo,0), (r_hi,0).

        The entropy is C^1 but not C^2 across the characteristics emanating
        from the profile knots; the classical equation holds off them, so
        residuals are only meaningful at a distance.  The excluded band has a
        fixed physical width (``_KINK_FRAC`` times the knot radius) plus a
        stencil-width allowance, so refinement studies measure a fixed region.
        """
        ok = _erode(self.labels == D3, margin_cells)
        rho = self.rho
        h_r = rho[1] - rho[0]
        h_u = self.u[1] - self.u[0]
        # the curves depend on u alone: one column, broadcast over rho
        au = np.abs(self.u)[:, None]
        for r in (self.r_lo, self.r_hi):
            for branch in (-1.0, +1.0):
                sig = self.geometry.sigma(branch * au, r)
                slope = np.abs(np.gradient(sig, h_u, axis=0))
                width = np.maximum(
                    singular_margin_cells * (h_r + slope * h_u),
                    _KINK_FRAC * (r + np.sqrt(r) * au))
                ok &= np.abs(rho - sig) > width
            # the down-branch kink merges into rho = 0 at a corner where the
            # construction degenerates; exclude a fixed ball around it
            uu = np.linspace(0, self.u[-1], 400)
            sig = self.geometry.sigma(-uu, r)
            hit = np.nonzero(sig <= 1e-12)[0]
            if hit.size:
                u_merge = uu[hit[0]]
                rad = 0.55 * np.sqrt(r)
                ok &= (rho ** 2 + (au - u_merge) ** 2) > rad ** 2
        ok[:singular_margin_cells + 2, :] = False
        ok[-singular_margin_cells - 2:, :] = False
        ok[:, :margin_cells + 2] = False
        ok[:, -margin_cells - 2:] = False
        return ok

    def _flux_rows(self):
        """(rows, bundle) over blocks of u rows of the table's grid."""
        for rows in _row_blocks(*self.S.shape):
            yield rows, self.flux.bundle(self.rho, self.u[rows, None])

    def pde_residual(self):
        """Relative defect of the entropy equation measured by 4th-order
        differences of the stored S field."""
        h_r = self.rho[1] - self.rho[0]
        h_u = self.u[1] - self.u[0]
        S_rr = d2_4(self.S, h_r)
        S_uu = d2_4(self.S.T, h_u).T
        S_ru = d1_4(d1_4(self.S, h_r).T, h_u).T
        res = np.empty_like(self.S)
        scale = 0.0
        for rows, (_, _, pr, pu, fr, fu) in self._flux_rows():
            a = pu * S_rr[rows]
            b = (fu - pr) * S_ru[rows]
            c = fr * S_uu[rows]
            res[rows] = a + b - c
            scale = max(scale, np.max(np.abs(a) + np.abs(b) + np.abs(c)))
        res /= max(scale, 1e-300)
        return res

    def flux_compat_error(self):
        """Relative error of both entropy-flux relations on D3 interior."""
        h_r = self.rho[1] - self.rho[0]
        h_u = self.u[1] - self.u[0]
        F_r = d1_4(self.F, h_r)
        F_u = d1_4(self.F.T, h_u).T
        mask = self.interior_mask()
        scale = err_r = err_u = 0.0
        for rows, (_, _, pr, pu, fr, fu) in self._flux_rows():
            S_rho, S_u, m = self.S_rho[rows], self.S_u[rows], mask[rows]
            rhs_r = pr * S_rho + fr * S_u
            rhs_u = pu * S_rho + fu * S_u
            scale = max(scale, np.max(np.abs(rhs_r)), np.max(np.abs(rhs_u)))
            # the largest error over the largest scale: division keeps order
            err_r = max(err_r, np.abs(F_r[rows] - rhs_r)[m].max(initial=0.0))
            err_u = max(err_u, np.abs(F_u[rows] - rhs_u)[m].max(initial=0.0))
        scale = max(scale, 1e-300)
        return float(max(err_r / scale, err_u / scale))

    def to_csv(self, path):
        RR, UU = self.meshgrid()
        cols = (RR, UU, self.S, self.F, self.S_rho, self.S_u, self.S_rr,
                self.S_ru, self.S_uu, self.labels)
        # \r\n line ends, as the csv module writes them
        np.savetxt(path, np.column_stack([c.ravel() for c in cols]),
                   fmt=["%.10g"] * 9 + ["%d"], delimiter=",", newline="\r\n",
                   header="rho,u,S,F,S_rho,S_u,S_rr,S_ru,S_uu,domain_label",
                   comments="")


_BLOCK_CELLS = 1 << 14


def _row_blocks(n_rows, n_cols):
    """Slices of whole rows, about ``_BLOCK_CELLS`` cells each: the
    full-grid passes over a table and the slope tabulation run block by
    block so that their temporaries (a tilt solve's among them) stay
    small."""
    step = max(1, _BLOCK_CELLS // max(n_cols, 1))
    return [slice(a, a + step) for a in range(0, n_rows, step)]


def _erode(mask, cells):
    out = mask.copy()
    for sh in range(1, cells + 1):
        for ax in (0, 1):
            out &= np.roll(mask, sh, axis=ax)
            out &= np.roll(mask, -sh, axis=ax)
    return out


_HYPER = 2.0         # the march's sixth-difference damping


def build_entropy(flux, r_lo, r_hi, n=None, beta=0.5, u_max=None, n_rho=None,
                  n_u=None, cells_per_rlo=48):
    """Construct the full entropy table for a flux (optionally rescaled).

    When ``n`` is given the construction runs against the rescaled fluxes
    with exponent ``beta``; by scale invariance this is the finite-n cutoff
    entropy expressed in scaled variables, with the same initial profile.
    For a model flux the diagnostics record the tilt solves made during the
    build: ``tilt_solves``, ``newton_iterations`` (the largest count),
    ``newton_residual`` (the worst relative density residual) and
    ``tilt_kernel`` (``"c"`` or ``"python"``).
    """
    from .pde import ScaledFluxView

    view = flux if n is None else ScaledFluxView(flux, n, beta)
    # the tilt solves of a model flux, counted from here for the diagnostics
    newton = getattr(view, "newton", None)
    if newton is not None:
        newton.reset()
    if u_max is None:
        u_max = 0.3 * np.sqrt(r_hi)
    geom = CharGeometry(view, r_lo, r_hi, u_max)
    rho_max = float(geom.sigma(u_max, r_hi) * 1.05 + 2.0 * np.sqrt(r_hi))
    # stay inside the flux domain (relevant for model fluxes at small n)
    hi = rho_max
    if not bool(np.all(view.contains(hi, u_max))):
        lo = float(geom.sigma(u_max, r_hi))
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if bool(np.all(view.contains(mid, u_max))):
                lo = mid
            else:
                hi = mid
        rho_max = 0.995 * lo
    if rho_max < float(geom.sigma(u_max, r_hi)) * 1.01:
        raise ValueError(
            "flux domain too small for the requested u_max; the deep-D2 "
            "inflow strip does not fit, reduce u_max or r_hi")
    if n_rho is None:
        n_rho = int(rho_max / (r_lo / cells_per_rlo)) + 1
        n_rho = min(max(n_rho, 400), 6000)
    if n_u is None:
        n_u = max(int(80 * u_max / np.sqrt(r_lo)), 120)
        n_u = min(n_u, 400)
    rho = np.linspace(0.0, rho_max, n_rho)
    u_pos = np.linspace(0.0, u_max, n_u)

    logq = np.log(r_hi / r_lo)
    s0, sp0 = cutoff_profile(r_lo, r_hi, rho)
    names = ("S", "S_rho", "S_u", "S_rr", "S_ru")
    t0 = time.perf_counter()
    if isinstance(view, LimitFlux):
        coeffs = LimitRows(view, rho, names)
    else:
        coeffs = ModelRows(view, rho, names, 0.0, u_max)
    table_s = time.perf_counter() - t0
    (pu0, _, fr0), _ = coeffs.rows(0.0)
    h = rho[1] - rho[0]
    band = (rho >= r_lo) & (rho < r_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio0 = np.where(rho > 0, pu0 / np.maximum(rho, 1e-300) / fr0, 1.0)
    # S_u and S_ru initial u-derivatives, incl. the jump terms at the knots
    g_su = np.where(band, ratio0 / logq, 0.0)
    dratio0 = d1_4(np.where(rho > 0, ratio0, 1.0), h)
    g_sru = np.where(band, dratio0 / logq, 0.0)
    for r_knot, sign in ((r_lo, +1.0), (r_hi, -1.0)):
        j = int(np.round(r_knot / h))
        frac = r_knot / h - j
        amp = sign * ratio0[min(j, n_rho - 1)] / logq / h
        if 0 <= j < n_rho:
            g_sru[j] += (1 - frac) * amp
        if 0 <= j + 1 < n_rho:
            g_sru[j + 1] += frac * amp
    with np.errstate(divide="ignore", invalid="ignore"):
        f_srr = np.where(band, 1.0 / np.maximum(rho, 1e-300) / logq, 0.0)

    fields0 = {
        "S": (s0, np.zeros_like(rho)),
        "S_rho": (sp0, np.zeros_like(rho)),
        "S_u": (np.zeros_like(rho), g_su),
        "S_rr": (f_srr, np.zeros_like(rho)),
        "S_ru": (np.zeros_like(rho), g_sru),
    }
    # exact deep-D2 values, imposed at the right edge (inflow boundary)
    zero = np.zeros_like(rho)
    pin_right = {
        "S": (rho - (r_hi - r_lo) / logq, zero),
        "S_rho": (np.ones_like(rho), zero),
        "S_u": (zero, zero),
        "S_rr": (zero, zero),
        "S_ru": (zero, zero),
    }
    march = {}
    out, out_g = _march_system(coeffs, fields0, u_pos, _HYPER,
                               pin_right=pin_right, stats=march)

    # mirror: S, S_rho, S_rr even in u; S_u, S_ru odd
    def mirror(arr, parity):
        return np.concatenate([parity * arr[:0:-1], arr], axis=0)

    u_full = np.concatenate([-u_pos[:0:-1], u_pos])
    S = mirror(out["S"], +1)
    S_rho = mirror(out["S_rho"], +1)
    S_u = mirror(out["S_u"], -1)
    S_rr = mirror(out["S_rr"], +1)
    S_ru = mirror(out["S_ru"], -1)
    del out, out_g, coeffs   # the march levels and rows; keep the peak down

    # S_uu from the equation; entropy flux from F_u = Psi_u S_rho + Phi_u
    # S_u with F(.,0) = 0; the flux fields are taken block by block
    PsiRR = np.empty_like(S)
    S_uu = np.empty_like(S)
    integrand = np.empty_like(S)
    for rows in _row_blocks(*S.shape):
        PsiRR[rows], _, pr, pu, fr, fu = view.bundle(rho, u_full[rows, None])
        S_uu[rows] = (pu * S_rr[rows] + (fu - pr) * S_ru[rows]) / fr
        integrand[rows] = pu * S_rho[rows] + fu * S_u[rows]
    nu_pos = len(u_pos)
    F = np.empty_like(S)
    # the rho columns integrate apart; blocks of them bound the temporaries
    for cols in _row_blocks(n_rho, nu_pos):
        upper = cumulative_simpson(integrand[nu_pos - 1:, cols],
                                   x=u_full[nu_pos - 1:], initial=0.0, axis=0)
        F[nu_pos - 1:, cols] = upper
        F[:nu_pos, cols] = -upper[::-1]  # F odd in u
    del integrand

    labels = geom.classify(rho, u_full[:, None])
    lin = np.broadcast_to(rho - (r_hi - r_lo) / logq, S.shape)

    # seam diagnostics: marched values vs the exact closed forms away from D3
    diag = {}
    far1 = _erode(labels == D1, 4)
    far2 = _erode(labels == D2, 4)
    diag["overlap_D1"] = float(np.max(np.abs(S[far1]), initial=0.0))
    diag["overlap_D2"] = float(np.max(np.abs(S[far2] - lin[far2]), initial=0.0))
    diag["overlap_D2_Srho"] = float(np.max(np.abs(S_rho[far2] - 1.0), initial=0.0))
    diag["overlap_D1_F"] = float(np.max(np.abs(F[far1]), initial=0.0))
    diag["overlap_D2_F"] = float(np.max(np.abs(F[far2] - PsiRR[far2]), initial=0.0))
    diag["C1"], diag["C2"] = geom.C1, geom.C2
    # coefficient_s: coefficient tables before the march plus rows built in it
    march["coefficient_s"] += table_s
    diag.update(march)
    if newton is not None:
        diag.update(tilt_solves=newton.calls,
                    newton_iterations=newton.iterations,
                    newton_residual=newton.residual,
                    tilt_kernel=TILT.backend)

    tol_overlap = 5e-3 * max(1.0, np.max(np.abs(S)))
    if max(diag["overlap_D1"], diag["overlap_D2"]) > tol_overlap:
        raise InconsistentOverlap(
            f"Cauchy solution disagrees with the closed forms: {diag}")

    # assemble the piecewise-defined table: closed forms off the wedge
    in1 = labels == D1
    in2 = labels == D2
    for arr, val1, val2 in ((S, 0.0, lin), (S_rho, 0.0, 1.0), (S_u, 0.0, 0.0),
                            (S_rr, 0.0, 0.0), (S_ru, 0.0, 0.0),
                            (S_uu, 0.0, 0.0), (F, 0.0, PsiRR)):
        arr[in1] = (val1[in1] if isinstance(val1, np.ndarray) else val1)
        arr[in2] = (val2[in2] if isinstance(val2, np.ndarray) else val2)

    return EntropyTable(rho=rho, u=u_full, S=S, F=F, S_rho=S_rho, S_u=S_u,
                        S_rr=S_rr, S_ru=S_ru, S_uu=S_uu, labels=labels, Psi=PsiRR,
                        r_lo=r_lo, r_hi=r_hi, gamma=view.gamma,
                        n=n, beta=(beta if n is not None else None),
                        flux=view, geometry=geom, diagnostics=diag)


# ---------------------------------------------------------------------------
# bound verification


_SUPPORT_TOL = 1e-8   # the largest support leak (|quantity| outside D3)


@dataclass
class BoundFit:
    name: str
    constant: float
    argmax: tuple
    support_leak: float

    def ok(self):
        return np.isfinite(self.constant) and self.support_leak <= _SUPPORT_TOL


@dataclass
class BoundReport:
    fits: dict
    table: EntropyTable = None

    def summary(self):
        lines = ["entropy bound report"]
        for k, f in self.fits.items():
            lines.append(f"  {k:<12s} C = {f.constant:10.4g}  "
                         f"support leak = {f.support_leak:.2e}  at {f.argmax}")
        return "\n".join(lines)


def verify_bounds(table):
    """Fit the smallest constants in the derivative/flux bounds on the grid.

    Bounds verified (indicator = D3(r_lo, r_hi) wedge):
      1. |S_rho - 1_{D2}|            <= C
      2. |S_u|                       <= C (sqrt(r_hi)-sqrt(r_lo))/log(r_hi/r_lo)
      3. |S_rr|                      <= C / log(..) / (r_lo + rho)
      4. |S_ru|                      <= C / log(..) / (sqrt(r_lo)+sqrt(rho)+|u|)
      5. |S_uu|                      <= C / log(..)
      6. |F - Psi S_rho|             <= C sqrt(r_hi)/log(..) (r_hi + u^2)
      7. |1 - S_rho|                 <= C        (cutoff boundedness)
    Constants are fitted, never asserted against reference values.
    """
    RR, UU = table.meshgrid()
    logq = np.log(table.r_hi / table.r_lo)
    ind3 = table.labels == D3
    ind2 = (table.labels == D2).astype(float)

    quantities = {
        "S_rho-1D2": (np.abs(table.S_rho - ind2), np.ones_like(RR)),
        "S_u": (np.abs(table.S_u),
                np.full_like(RR, (np.sqrt(table.r_hi) - np.sqrt(table.r_lo)) / logq)),
        "S_rr": (np.abs(table.S_rr), 1.0 / logq / (table.r_lo + RR)),
        "S_ru": (np.abs(table.S_ru),
                 1.0 / logq / (np.sqrt(table.r_lo) + np.sqrt(RR) + np.abs(UU))),
        "S_uu": (np.abs(table.S_uu), np.full_like(RR, 1.0 / logq)),
        "F-PsiS_rho": (np.abs(table.F - table.Psi * table.S_rho),
                       np.sqrt(table.r_hi) / logq * (table.r_hi + UU ** 2)),
        "1-S_rho": (np.abs(1.0 - table.S_rho), np.ones_like(RR)),
    }
    fits = {}
    for name, (lhs, envelope) in quantities.items():
        if name == "1-S_rho":
            c = float(np.max(lhs))
            i, j = np.unravel_index(int(np.argmax(lhs)), lhs.shape)
            fits[name] = BoundFit(name, c, (float(RR[i, j]), float(UU[i, j])), 0.0)
            continue
        ratio = np.where(ind3, lhs / envelope, 0.0)
        c = float(np.max(ratio))
        i, j = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
        leak = float(np.max(lhs[~ind3], initial=0.0))
        fits[name] = BoundFit(name, c, (float(RR[i, j]), float(UU[i, j])), leak)
    return BoundReport(fits=fits, table=table)


def max_box_in_d1(table):
    """Largest M with {rho v |u| <= M} inside D1(r_lo) (cutoff-box check)."""
    geom = table.geometry
    lo, hi = 0.0, table.r_lo
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if geom.sigma(-mid, table.r_lo) > mid:
            lo = mid
        else:
            hi = mid
    return lo
