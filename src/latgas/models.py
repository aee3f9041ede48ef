"""Interacting-particle models: single-site spin space, jump rates, reference
measure, and validation of the structural conditions (conservation,
irreducibility, left-right symmetry, stationarity of the asymmetric part,
reversibility of the symmetric part, gradient form of the symmetric fluxes).

A model carries two conserved site quantities: a particle count ``eta`` and a
signed slope ``zeta``.  The slope is rescaled at build time so that its
conditional variance on the empty level is one.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


class ModelError(ValueError):
    """Raised when a model specification violates a structural invariant."""


EXACT_TOL = 1e-12


def _frozen(a, dtype=None):
    a = np.asarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpinModel:
    """Finite single-site state space with conserved maps and rate tables.

    ``zeta`` is already scaled by ``v0``; ``zeta_raw`` keeps the half-integer
    lattice values so that conserved totals can be tracked in exact integer
    arithmetic (units of ``v0/2``).
    """

    name: str
    labels: tuple
    eta: np.ndarray          # (k,) ints >= 0
    zeta: np.ndarray         # (k,) floats, v0-scaled
    zeta_raw: np.ndarray     # (k,) floats on Z or Z+1/2
    v0: float
    pi: np.ndarray           # (k,) reference probabilities
    r: np.ndarray            # (k,k,k,k) asymmetric rates
    s: np.ndarray            # (k,k,k,k) symmetric rates
    involution: np.ndarray   # (k,) permutation R
    phi_offset: float = 0.0  # additive constant matching the literature form of Phi

    @property
    def nstates(self):
        return len(self.labels)

    @cached_property
    def site_table(self):
        """The read-only ``(6, k)`` rows the tilt kernels read: ``log pi``
        (``-inf`` where ``pi = 0``), then the weights of the five moment sums
        ``eta``, ``zeta``, ``eta^2``, ``eta zeta`` and ``zeta^2``.  Built on
        first use, once per model."""
        pi, eta, zeta = self.pi, self.eta, self.zeta
        logpi = np.log(pi, where=pi > 0, out=np.full(self.nstates, -np.inf))
        return _frozen([logpi, eta, zeta, eta * eta, eta * zeta, zeta * zeta],
                       dtype=float)

    @property
    def zeta_half_units(self):
        """Integer representation of zeta_raw in units of 1/2."""
        return np.rint(2.0 * self.zeta_raw).astype(np.int64)

    def support_points(self):
        """(eta, zeta) pairs carried by states of positive reference weight."""
        keep = self.pi > 0
        return np.column_stack([self.eta[keep], self.zeta[keep]])

    def __post_init__(self):
        k = len(self.labels)
        for name in ("eta", "zeta", "zeta_raw", "pi", "involution"):
            if getattr(self, name).shape != (k,):
                raise ModelError(f"{name} must have shape ({k},)")
        if self.r.shape != (k, k, k, k) or self.s.shape != (k, k, k, k):
            raise ModelError("rate tables must have shape (k,k,k,k)")
        if np.any(self.r < 0) or np.any(self.s < 0):
            raise ModelError("negative jump rate")
        if abs(self.pi.sum() - 1.0) > EXACT_TOL or np.any(self.pi < 0):
            raise ModelError("pi is not a probability vector")
        R = self.involution
        if sorted(R.tolist()) != list(range(k)) or np.any(R[R] != np.arange(k)):
            raise ModelError("involution is not a self-inverse permutation")
        if np.max(np.abs(self.pi[R] - self.pi)) > EXACT_TOL:
            raise ModelError("pi is not invariant under the involution")
        if np.any(self.eta[R] != self.eta):
            raise ModelError("eta must be invariant under the involution")
        if np.max(np.abs(self.zeta[R] + self.zeta)) > EXACT_TOL:
            raise ModelError("zeta must change sign under the involution")
        # non-degeneracy on the empty level: zeta must actually fluctuate
        empty = (self.eta == 0) & (self.pi > 0)
        if not np.any(empty):
            raise ModelError("no states with eta=0 in the support")
        p0 = self.pi[empty] / self.pi[empty].sum()
        if p0[np.abs(self.zeta[empty]) < EXACT_TOL].sum() > 1.0 - 1e-9:
            raise ModelError("zeta is degenerate on the eta=0 level")
        var0 = np.sum(p0 * self.zeta[empty] ** 2) - np.sum(p0 * self.zeta[empty]) ** 2
        if abs(var0 - 1.0) > 1e-9:
            raise ModelError("v0 scaling broken: Var(zeta | eta=0) != 1")


def _scale_v0(eta, zeta_raw, pi):
    """Fix v0 so the conditional variance of zeta on the eta=0 level is one."""
    empty = (np.asarray(eta) == 0) & (np.asarray(pi) > 0)
    p0 = np.asarray(pi)[empty] / np.asarray(pi)[empty].sum()
    z0 = np.asarray(zeta_raw)[empty]
    var = np.sum(p0 * z0 ** 2) - np.sum(p0 * z0) ** 2
    if var <= 0:
        raise ModelError("zeta has zero conditional variance on eta=0")
    return 1.0 / np.sqrt(var)


def _pm1_model():
    # states ordered (-1, 0, +1); eta = 1-|w|, zeta = w
    labels = ("-1", "0", "+1")
    eta = [0, 1, 0]
    zraw = [-1.0, 0.0, 1.0]
    pi = [1 / 3, 1 / 3, 1 / 3]
    k = 3
    r = np.zeros((k, k, k, k))
    i = {"-1": 0, "0": 1, "+1": 2}
    r[i["-1"], i["+1"], i["+1"], i["-1"]] = 2.0
    r[i["-1"], i["0"], i["0"], i["-1"]] = 1.0
    r[i["0"], i["+1"], i["+1"], i["0"]] = 1.0
    s = np.zeros((k, k, k, k))
    for a in range(k):
        for b in range(k):
            if a != b:
                s[a, b, b, a] = 1.0
    R = np.array([2, 1, 0])
    v0 = _scale_v0(eta, zraw, pi)
    # E[phi] at the origin is -1; the literature closed form rho+u^2 has it at 0
    return SpinModel("pm1", labels, _frozen(eta, int), _frozen(np.array(zraw) * v0),
                     _frozen(zraw), v0, _frozen(pi, float), _frozen(r), _frozen(s),
                     _frozen(R, int), phi_offset=1.0)


def _two_lane_model(gamma=0.3):
    """Two-lane model with one particle lane (n=1) and half-integer slopes.

    States are (eta, zeta_raw) in {0,1} x {-1/2,+1/2}.  The asymmetric rates
    are the minimal family satisfying the structural conditions with
    macroscopic fluxes rho(1-rho)u and (rho-gamma)(1-u^2):

      * particle hop right   rate 1/2 + (z1+z2)/4
      * particle hop left    rate 1/2 - (z1+z2)/4
      * slope swap (+,-)->(-,+)  rate c + (e1+e2-2*gamma)/2
      * slope swap (-,+)->(+,-)  rate c - (e1+e2-2*gamma)/2

    with z in v0-units (+-1), e the particle counts, and c a constant chosen
    large enough to keep all rates positive for the supplied gamma.
    """
    labels = ("0-", "0+", "1-", "1+")
    eta = [0, 0, 1, 1]
    zraw = [-0.5, 0.5, -0.5, 0.5]
    pi = [0.25] * 4
    v0 = _scale_v0(eta, zraw, pi)
    zu = np.array(zraw) * v0  # = (-1, +1, -1, +1)
    k = 4
    r = np.zeros((k, k, k, k))
    cg = max(gamma, 1.0 - gamma) + 0.5
    for a, b in product(range(k), range(k)):
        e1, z1 = eta[a], zu[a]
        e2, z2 = eta[b], zu[b]
        if e1 == 1 and e2 == 0:
            ap = labels.index(("0-" if z1 < 0 else "0+"))
            bp = labels.index(("1-" if z2 < 0 else "1+"))
            r[a, b, ap, bp] = 0.5 + (z1 + z2) / 4.0
        if e1 == 0 and e2 == 1:
            ap = labels.index(("1-" if z1 < 0 else "1+"))
            bp = labels.index(("0-" if z2 < 0 else "0+"))
            r[a, b, ap, bp] = 0.5 - (z1 + z2) / 4.0
        if z1 > 0 and z2 < 0:
            ap = labels.index(("0-" if e1 == 0 else "1-"))
            bp = labels.index(("0+" if e2 == 0 else "1+"))
            r[a, b, ap, bp] = cg + (e1 + e2 - 2.0 * gamma) / 2.0
        if z1 < 0 and z2 > 0:
            ap = labels.index(("0+" if e1 == 0 else "1+"))
            bp = labels.index(("0-" if e2 == 0 else "1-"))
            r[a, b, ap, bp] = cg - (e1 + e2 - 2.0 * gamma) / 2.0
    if np.any(r < 0):
        raise ModelError(f"two-lane rates negative for gamma={gamma}")
    s = np.zeros((k, k, k, k))
    for a in range(k):
        for b in range(k):
            if a != b:
                s[a, b, b, a] = 1.0
    R = np.array([1, 0, 3, 2])
    return SpinModel(f"two-lane(gamma={gamma:g})", labels, _frozen(eta, int),
                     _frozen(zu), _frozen(zraw), v0, _frozen(pi, float),
                     _frozen(r), _frozen(s), _frozen(R, int), phi_offset=0.0)


def build_model(spec, **params):
    """Construct a SpinModel from a built-in name, a config file, or a dict.

    Built-ins: ``"pm1"`` (three-state exchange model) and ``"two-lane"``
    (takes ``gamma``, default 0.3).  A path ending in ``.ini``/``.cfg`` or a
    dict supplies explicit tables, see :func:`model_from_config`.
    """
    if isinstance(spec, dict):
        return model_from_dict(spec)
    if not isinstance(spec, str):
        raise ModelError(f"unrecognized model spec {spec!r}")
    low = spec.strip().lower()
    if low in ("pm1", "pm1-model", "{-1,0,+1}"):
        return _pm1_model()
    if low.startswith("two-lane") or low.startswith("twolane"):
        gamma = params.get("gamma")
        if gamma is None:
            # allow "two-lane, gamma=0.3" style strings
            gamma = 0.3
            for tok in low.replace(";", ",").split(","):
                tok = tok.strip()
                if tok.startswith("gamma"):
                    gamma = float(tok.split("=")[1])
        return _two_lane_model(float(gamma))
    if low.endswith(".ini") or low.endswith(".cfg"):
        return model_from_config(spec)
    raise ModelError(f"unknown model name {spec!r}")


def model_from_dict(d):
    labels = tuple(d["labels"])
    k = len(labels)
    idx = {lab: i for i, lab in enumerate(labels)}

    def table(entries):
        t = np.zeros((k, k, k, k))
        for key, rate in entries.items():
            src, dst = key.split("->")
            a, b = (idx[x.strip()] for x in src.split(","))
            ap, bp = (idx[x.strip()] for x in dst.split(","))
            t[a, b, ap, bp] = float(rate)
        return t

    eta = np.array([d["eta"][lab] for lab in labels], dtype=int)
    zraw = np.array([float(Fraction(str(d["zeta"][lab]))) for lab in labels])
    pi = np.array([float(Fraction(str(d["pi"][lab]))) for lab in labels])
    pi = pi / pi.sum()
    R = np.array([idx[d["involution"][lab]] for lab in labels], dtype=int)
    v0 = _scale_v0(eta, zraw, pi)
    return SpinModel(d.get("name", "custom"), labels, _frozen(eta, int),
                     _frozen(zraw * v0), _frozen(zraw), v0, _frozen(pi, float),
                     _frozen(table(d.get("r", {}))), _frozen(table(d.get("s", {}))),
                     _frozen(R, int), phi_offset=float(d.get("phi_offset", 0.0)))


def model_from_config(path):
    """Read a model from a sectioned key/value file.

    Sections: ``[omega]`` (states, eta, zeta, involution), ``[measure]``
    (pi), ``[rates.r]`` and ``[rates.s]`` with entries ``a,b->c,d = rate``.
    """
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep case, states may be case sensitive
    read = cp.read(path)
    if not read:
        raise ModelError(f"cannot read model config {path!r}")
    for sec in cp.sections():
        if sec not in ("omega", "measure", "rates.r", "rates.s", "meta"):
            raise ModelError(f"unknown config section [{sec}]")
    try:
        labels = [x.strip() for x in cp["omega"]["states"].split(",")]
        d = {
            "name": cp.get("meta", "name", fallback="custom"),
            "labels": labels,
            "eta": {lab: int(x) for lab, x in
                    zip(labels, cp["omega"]["eta"].split(","))},
            "zeta": {lab: x.strip() for lab, x in
                     zip(labels, cp["omega"]["zeta"].split(","))},
            "involution": {lab: x.strip() for lab, x in
                           zip(labels, cp["omega"]["involution"].split(","))},
            "pi": {lab: x.strip() for lab, x in
                   zip(labels, cp["measure"]["pi"].split(","))},
            "r": dict(cp["rates.r"]) if cp.has_section("rates.r") else {},
            "s": dict(cp["rates.s"]) if cp.has_section("rates.s") else {},
            "phi_offset": cp.getfloat("meta", "phi_offset", fallback=0.0),
        }
    except KeyError as e:
        raise ModelError(f"model config missing key {e}") from e
    return model_from_dict(d)


# ---------------------------------------------------------------------------
# exhaustive enumeration of small tori


class TooLarge(ModelError):
    """An exhaustive enumeration would exceed its configuration limit."""


def configurations(model, n, limit):
    """All k^n configurations of n sites, row i holding the base-k digits of
    i (first site most significant); raises TooLarge beyond ``limit``."""
    k = model.nstates
    total = k ** n
    if total > limit:
        raise TooLarge(f"{k}^{n} = {total} configurations exceed {limit}")
    return np.array(np.unravel_index(np.arange(total), (k,) * n)).T


def transitions(confs, rates):
    """Every positive-rate pair jump on the torus of the rows of ``confs``.

    Returns the row indices of source and target configurations and the
    rate, ordered by (a, b, a', b', bond): the jump (a, b) -> (a', b') on
    the bond (j, j+1 mod n).
    """
    n = confs.shape[1]
    k = rates.shape[0]
    stride = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    src, dst, rate = [], [], []
    for a, b, ap, bp in zip(*np.nonzero(rates > 0)):
        for j in range(n):
            jp = (j + 1) % n
            sel = np.nonzero((confs[:, j] == a) & (confs[:, jp] == b))[0]
            src.append(sel)
            dst.append(sel + (ap - a) * stride[j] + (bp - b) * stride[jp])
            rate.append(np.full(sel.size, rates[a, b, ap, bp]))
    if not src:
        return (np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),)
    return np.concatenate(src), np.concatenate(dst), np.concatenate(rate)


def level_totals(model, confs):
    """Conserved totals (N, Z2) of each configuration, Z2 in units of 1/2."""
    return (model.eta[confs].sum(axis=1),
            model.zeta_half_units[confs].sum(axis=1))


# ---------------------------------------------------------------------------
# structural condition checks


@dataclass
class ConditionResult:
    passed: bool
    residual: float
    tol: float
    detail: str = ""


@dataclass
class ConditionReport:
    model: str
    block_len: int
    conservation: ConditionResult = None
    irreducibility: ConditionResult = None
    lr_symmetry: ConditionResult = None
    asym_stationarity: ConditionResult = None
    sym_reversibility: ConditionResult = None
    gradient_flux: ConditionResult = None
    kappa: np.ndarray = None
    chi: np.ndarray = None

    def all_passed(self):
        return all(getattr(self, n).passed for n in (
            "conservation", "irreducibility", "lr_symmetry",
            "asym_stationarity", "sym_reversibility", "gradient_flux"))

    def summary(self):
        lines = [f"condition report: {self.model} (block_len={self.block_len})"]
        for key, tag in [("conservation", "A"), ("irreducibility", "B"),
                         ("lr_symmetry", "C"), ("asym_stationarity", "D"),
                         ("sym_reversibility", "E"), ("gradient_flux", "F")]:
            c = getattr(self, key)
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  ({tag}) {key:<18s} {status}  residual={c.residual:.3e}"
                         + (f"  [{c.detail}]" if c.detail else ""))
        return "\n".join(lines)


def microscopic_fluxes(model):
    """Instantaneous pair currents (psi, phi) of both generator parts.

    Returns four (k,k) tables: asymmetric eta/zeta currents and the symmetric
    ones, with the sign convention that the current flows from the left site
    of the bond into the right one.
    """
    k = model.nstates
    d_eta = model.eta[None, None, None, :] - model.eta[None, :, None, None]
    d_zeta = model.zeta[None, None, None, :] - model.zeta[None, :, None, None]
    psi = np.einsum("abcd,abcd->ab", model.r, np.broadcast_to(d_eta, model.r.shape))
    phi = np.einsum("abcd,abcd->ab", model.r, np.broadcast_to(d_zeta, model.r.shape))
    psi_s = np.einsum("abcd,abcd->ab", model.s, np.broadcast_to(d_eta, model.s.shape))
    phi_s = np.einsum("abcd,abcd->ab", model.s, np.broadcast_to(d_zeta, model.s.shape))
    return psi, phi, psi_s, phi_s


def _check_conservation(model):
    k = model.nstates
    worst = 0.0
    z2 = model.zeta_half_units
    for a, b, ap, bp in product(range(k), repeat=4):
        if model.r[a, b, ap, bp] > 0 or model.s[a, b, ap, bp] > 0:
            de = abs(model.eta[a] + model.eta[b] - model.eta[ap] - model.eta[bp])
            dz = abs(z2[a] + z2[b] - z2[ap] - z2[bp])
            worst = max(worst, float(de + dz))
    return ConditionResult(worst <= EXACT_TOL, worst, EXACT_TOL)


def _check_lr_symmetry(model):
    R = model.involution
    r_ref = model.r[R][:, R][:, :, R][:, :, :, R].transpose(1, 0, 3, 2)
    s_ref = model.s[R][:, R][:, :, R][:, :, :, R].transpose(1, 0, 3, 2)
    worst = max(np.max(np.abs(r_ref - model.r)), np.max(np.abs(s_ref - model.s)))
    return ConditionResult(worst <= EXACT_TOL, float(worst), EXACT_TOL)


def _check_asym_stationarity(model):
    # Q(w1,w2) = sum_{w1',w2'} [pi(w1')pi(w2')/(pi(w1)pi(w2)) r(w1',w2';w1,w2)
    #                           - r(w1,w2;w1',w2')]
    pi = model.pi
    ratio_in = np.einsum("c,d,cdab->ab", pi, pi, model.r) / np.outer(pi, pi)
    out = model.r.sum(axis=(2, 3))
    Q = ratio_in - out
    # cyclic sum Q(i,j) + Q(j,k) + Q(k,i) over all triples
    worst = float(np.max(np.abs(Q[:, :, None] + Q[None, :, :] + Q.T[:, None, :])))
    return ConditionResult(worst <= EXACT_TOL, worst, EXACT_TOL)


def _check_sym_reversibility(model):
    pi = model.pi
    lhs = np.einsum("a,b,abcd->abcd", pi, pi, model.s)
    worst = float(np.max(np.abs(lhs - lhs.transpose(2, 3, 0, 1))))
    return ConditionResult(worst <= EXACT_TOL, worst, EXACT_TOL)


def _fit_site_potential(model, pair_flux, gauge_zero_on_empty):
    """Least-squares solve pair_flux(w1,w2) = f(w1) - f(w2) for a site function."""
    k = model.nstates
    rows, rhs = [], []
    for a, b in product(range(k), range(k)):
        row = np.zeros(k)
        row[a] += 1.0
        row[b] -= 1.0
        rows.append(row)
        rhs.append(pair_flux[a, b])
    # gauge: pin either the eta=0 states or the pi-mean to zero
    if gauge_zero_on_empty:
        for i in np.nonzero(model.eta == 0)[0]:
            row = np.zeros(k)
            row[i] = 1.0
            rows.append(row)
            rhs.append(0.0)
    else:
        rows.append(model.pi.copy())
        rhs.append(0.0)
    A = np.array(rows)
    b = np.array(rhs)
    f, *_ = np.linalg.lstsq(A, b, rcond=None)
    fitted = f[:, None] - f[None, :]
    resid = float(np.max(np.abs(fitted - pair_flux)))
    return f, resid


def _check_gradient_flux(model):
    _, _, psi_s, phi_s = microscopic_fluxes(model)
    kappa, res_k = _fit_site_potential(model, psi_s, True)
    chi, res_c = _fit_site_potential(model, phi_s, False)
    worst = max(res_k, res_c)
    return ConditionResult(worst <= EXACT_TOL, worst, EXACT_TOL), kappa, chi


def _check_irreducibility(model, n):
    """Strong connectivity of every (N, Z) level set on the torus of size n."""
    confs = configurations(model, n, 4 ** 8)
    src, dst, _ = transitions(confs, model.r + model.s)
    total = len(confs)
    graph = csr_matrix((np.ones(len(src)), (src, dst)), shape=(total, total))
    _, labels_cc = connected_components(graph, directed=True, connection="strong")
    # irreducible iff strong components coincide with the (N,Z) level sets
    _, level = np.unique(np.column_stack(level_totals(model, confs)), axis=0,
                         return_inverse=True)
    pairs = np.unique(np.column_stack([level, labels_cc]), axis=0)
    bad = int(np.count_nonzero(np.bincount(pairs[:, 0]) > 1))
    res = ConditionResult(bad == 0, float(bad), 0.0,
                          detail=f"{bad} disconnected level sets" if bad else
                          f"all level sets strongly connected at n={n}")
    return res


def validate_conditions(model, block_len=6):
    """Check all structural conditions; failures are reported, never raised."""
    if block_len > 8:
        raise ModelError("block_len must be <= 8")
    rep = ConditionReport(model.name, block_len)
    rep.conservation = _check_conservation(model)
    rep.irreducibility = _check_irreducibility(model, block_len)
    rep.lr_symmetry = _check_lr_symmetry(model)
    rep.asym_stationarity = _check_asym_stationarity(model)
    rep.sym_reversibility = _check_sym_reversibility(model)
    rep.gradient_flux, rep.kappa, rep.chi = _check_gradient_flux(model)
    return rep
