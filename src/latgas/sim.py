"""Continuous-time Markov chain simulation of the particle system on the
discrete torus, driven by the generator  lambda(n) L + kappa(n) K.

The event engine uses uniformization: every bond carries a Poisson clock at
the maximal bond rate, candidate events are accepted with probability
(channel rate)/(max rate) given the current pair of spins.  This is exact in
law and costs O(1) per candidate.  Randomness comes from counter-based
Philox streams so replicas are independent and trajectories replayable;
snapshots store the stream state, so a restart continues the same trajectory.

Candidate events are drawn and applied in chunks of ``_EVENT_CHUNK`` by the
record ``EVENTS`` (see ``latgas.native``).  A chunk takes all its bonds
first, as ``rng.integers(0, n, dtype=np.int64)`` would, then one uniform per
event, as ``rng.random`` would; so the chunk boundary is part of the stream,
and changing ``_EVENT_CHUNK`` changes every trajectory.  The compiled pass
draws through the generator's own bit generator: numpy's 32-bit Lemire rule
for the bonds, into a reused uint32 buffer, then each uniform as its event
is applied.  That rule holds for n < 2^32, so ``simulate`` refuses larger
lattices.  An event's channel is the number of the pair's cumulative
thresholds at or below its uniform; the channel table's last column maps
the pair to itself, so a rejection needs no branch.  The twin (numpy draws,
then the interpreted loop) gives identical trajectories and leaves the same
stream state, and ``EVENTS.backend`` reports which one is in use.  The tail
sampler's sites come from the record ``SITES``, which draws through the
generator's own bit generator in the same way, so its values and the stream
it leaves equal those of its numpy twin.
"""

from __future__ import annotations

import ctypes
import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from . import native
# TooLarge is re-exported: callers catch it as sim.TooLarge
from .models import TooLarge, configurations, transitions
from .thermo import (DomainPolygon, OutOfDomain, gibbs_measure,
                     invert_parameters_grid)


_EVENT_CHUNK = 20_000_000


@dataclass
class ScalingPlan:
    """Speed-up exponents and mesoscopic block size.

    Eulerian mode runs the asymmetric part at n and the symmetric part at
    n^(1+delta); intermediate mode multiplies both by n^beta and scales the
    density profiles down by n^(-2 beta) (resp. n^(-beta) for the slope).
    """

    mode: str = "eulerian"
    beta: float = 0.0
    delta: float = 0.25
    l: int = None
    strict: bool = False

    def __post_init__(self):
        if self.mode not in ("eulerian", "intermediate"):
            raise ValueError(f"unknown scaling mode {self.mode!r}")
        if self.mode == "eulerian":
            self.beta = 0.0
        elif self.beta <= 0:
            raise ValueError("intermediate mode needs beta > 0")
        if self.strict and self.mode == "intermediate":
            # admissible exponent region of the intermediate-scaling theorem
            if not (2 * self.delta - 8 * self.beta > 1 and
                    self.delta + 3 * self.beta < 1):
                raise ValueError(
                    f"(beta, delta)=({self.beta},{self.delta}) outside the "
                    "strict region {2d-8b>1, d+3b<1}")

    def lambda_speed(self, n):
        return float(n) ** (1.0 + self.beta)

    def kappa_speed(self, n):
        return float(n) ** (1.0 + self.beta + self.delta)

    def block_size(self, n):
        if self.l is not None:
            l = int(self.l)
        else:
            l = int(np.ceil(n ** 0.6))
        if self.strict and self.mode == "intermediate":
            lo = n ** ((1 + self.delta + 5 * self.beta) / 3.0)
            hi = n ** (self.delta - self.beta)
            if not (lo <= l <= hi):
                raise ValueError(f"block size {l} outside [{lo:.1f}, {hi:.1f}]")
        if 2 * l >= n:
            raise ValueError(f"block size {l} too large for n={n}")
        return l

    def scale_profile_values(self, rho_vals, u_vals, n):
        f_r = float(n) ** (-2.0 * self.beta)
        f_u = float(n) ** (-self.beta)
        return rho_vals * f_r, u_vals * f_u

    def field_scale(self, n):
        """(n^{2 beta}, n^{beta}) factors turning block averages into fields."""
        return float(n) ** (2.0 * self.beta), float(n) ** self.beta


def weight_function(x):
    """C^2 averaging bump a(x) = (15/16)(1-x^2)^2 on (-1,1), total weight 1."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 1.0, (15.0 / 16.0) * (1.0 - x ** 2) ** 2, 0.0)


def philox_stream(seed, stream=0):
    key = np.array([np.uint64(seed & (2 ** 64 - 1)), np.uint64(stream)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class LatticeState:
    spins: np.ndarray            # uint8 state indices on the torus
    time: float
    seed: int
    rng: np.random.Generator = field(repr=False)
    total_eta: int = 0
    total_zeta2: int = 0         # zeta totals in exact units of v0/2
    events: int = 0
    accepted: int = 0
    trajectory_hash: str = ""

    @property
    def n(self):
        return self.spins.size

    def recompute_totals(self, model):
        N = int(model.eta[self.spins].sum())
        Z2 = int(model.zeta_half_units[self.spins].sum())
        return N, Z2

    def totals(self, model):
        """(N, Z) with Z in physical (v0-scaled) units."""
        return self.total_eta, 0.5 * self.total_zeta2 * model.v0

    def update_hash(self):
        h = hashlib.blake2b(digest_size=16)
        h.update(self.spins.tobytes())
        h.update(struct.pack("<qqd", self.events, self.accepted, self.time))
        prev = bytes.fromhex(self.trajectory_hash) if self.trajectory_hash else b""
        h.update(prev)
        self.trajectory_hash = h.hexdigest()


def draw_states(cum, draws):
    """States by inverse CDF: a uniform draw's state is the number of
    cumulative weights ``cum[..., :-1]`` strictly below it (``searchsorted``'s
    left rule).  ``cum`` is one table (k,) for all draws or one row (n, k)
    per draw of ``draws`` (n,).  The last weight is never compared, so a draw
    above a cumsum that rounded below 1 still lands on the last state."""
    spins = np.zeros(np.shape(draws), dtype=np.intp)
    for c in np.moveaxis(cum[..., :-1], -1, 0):
        spins += draws > c
    return spins


# Draws through the generator's own bitgen_t (numpy/random/bitgen.h), so
# each site takes the double that Generator.random would give it and the
# stream continues where numpy's would; the state is draw_states' rule.
_SITES_SOURCE = r"""
#include <stdint.h>

typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

void draw_sites(bitgen_t *bg, int64_t m, const double *cum, int64_t k,
                const double *eta, const double *zeta,
                double *eta_out, double *zeta_out)
{
    for (int64_t i = 0; i < m; i++) {
        double d = bg->next_double(bg->state);
        int64_t s = 0;
        for (int64_t q = 0; q < k - 1; q++)
            s += d > cum[q];
        eta_out[i] = eta[s];
        zeta_out[i] = zeta[s];
    }
}
"""


def _draw_sites_py(rng, cum, eta, zeta, eta_out, zeta_out):
    """``rng.random`` over the output shape, ``draw_states``, then the two
    lookups: the reference, and the fallback without a C compiler."""
    spins = draw_states(cum, rng.random(eta_out.shape))
    np.take(eta, spins, out=eta_out)
    np.take(zeta, spins, out=zeta_out)


def _ctypes_sites(lib):
    """The compiled pass with ``_draw_sites_py``'s signature."""
    fn = lib.draw_sites
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [ptr, i64, ptr, i64, ptr, ptr, ptr, ptr]
    fn.restype = None

    def draw_sites(rng, cum, eta, zeta, eta_out, zeta_out):
        bitgen = rng.bit_generator
        with bitgen.lock:       # as numpy holds it while it draws
            fn(bitgen.ctypes.bit_generator, eta_out.size, cum.ctypes.data,
               cum.size, eta.ctypes.data, zeta.ctypes.data,
               eta_out.ctypes.data, zeta_out.ctypes.data)

    return draw_sites


SITES = native.Kernel("sites", _SITES_SOURCE, _ctypes_sites, _draw_sites_py)


def draw_sites(rng, cum, eta, zeta, eta_out, zeta_out):
    """Fill ``eta_out`` and ``zeta_out`` with ``eta[s]`` and ``zeta[s]`` of
    independent sites, ``s`` drawn from the cumulative weights ``cum`` by
    ``draw_states`` on ``rng.random`` draws taken in the outputs' C order.
    Every backend leaves the same values and the same ``rng`` state."""
    k = np.size(cum)
    if k < 1:
        raise ValueError("cum must hold at least one weight")
    for name, a in (("cum", cum), ("eta", eta), ("zeta", zeta)):
        _require(a, np.float64, (k,), name)
    for name, a in (("eta_out", eta_out), ("zeta_out", zeta_out)):
        _require(a, np.float64, np.shape(eta_out), name)
        if not a.flags.writeable:
            raise ValueError(f"{name} must be writeable")
    SITES.impl(rng, cum, eta, zeta, eta_out, zeta_out)


def sample_local_equilibrium(model, rho_profile, u_profile, n, plan, seed,
                             stream=0):
    """Independent site draws from the tilted measures along a profile."""
    x = np.arange(n) / n
    rho_vals = np.asarray(rho_profile(x) if callable(rho_profile)
                          else rho_profile, dtype=float) + np.zeros(n)
    u_vals = np.asarray(u_profile(x) if callable(u_profile)
                        else u_profile, dtype=float) + np.zeros(n)
    rho_vals, u_vals = plan.scale_profile_values(rho_vals, u_vals, n)
    dom = DomainPolygon.from_model(model)
    if not np.all(dom.contains(rho_vals, u_vals, margin=1e-12)):
        bad = np.argmin(dom.interior_margin(rho_vals, u_vals))
        raise OutOfDomain(
            f"scaled profile leaves the domain at site {bad}: "
            f"({rho_vals[bad]:.4g}, {u_vals[bad]:.4g})")
    p = invert_parameters_grid(model, rho_vals, u_vals).p
    rng = philox_stream(seed, stream)
    spins = draw_states(np.cumsum(p, axis=1), rng.random(n)).astype(np.uint8)
    st = LatticeState(spins=spins, time=0.0, seed=seed, rng=rng)
    st.total_eta, st.total_zeta2 = st.recompute_totals(model)
    st.update_hash()
    return st


# ---------------------------------------------------------------------------
# event engine


class ConservationViolated(RuntimeError):
    pass


# numpy's int64 ``integers(0, n)`` for 1 <= n < 2^32 (random_bounded_uint64_fill):
# no draw at all for n = 1, else buffered_bounded_lemire_uint32 with the
# bound rng = n - 1, one next_uint32 per try.  apply_events fills a chunk's
# bonds first, then draws each event's uniform as Generator.random would and
# applies it, so the stream is that of _apply_events_py.  The channel is the
# number of thresholds <= u; column nchan of out_a/out_b is the identity.
_KERNEL_SOURCE = r"""
#include <stdint.h>

typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

void fill_bonds(bitgen_t *bg, uint32_t rng, int64_t m, uint32_t *bonds)
{
    if (rng == 0) {
        for (int64_t i = 0; i < m; i++)
            bonds[i] = 0;
        return;
    }
    const uint32_t excl = rng + 1;
    const uint32_t threshold = (UINT32_MAX - rng) % excl;
    for (int64_t i = 0; i < m; i++) {
        uint64_t x = (uint64_t)bg->next_uint32(bg->state) * excl;
        while ((uint32_t)x < threshold)
            x = (uint64_t)bg->next_uint32(bg->state) * excl;
        bonds[i] = (uint32_t)(x >> 32);
    }
}

int64_t apply_events(bitgen_t *bg, uint8_t *spins, int64_t n,
                     uint32_t *bonds, int64_t m, const double *cum,
                     const uint8_t *out_a, const uint8_t *out_b,
                     int64_t nchan, int64_t k)
{
    fill_bonds(bg, (uint32_t)(n - 1), m, bonds);
    int64_t accepted = 0;
    for (int64_t i = 0; i < m; i++) {
        double u = bg->next_double(bg->state);
        int64_t j = bonds[i];
        int64_t jp = j + 1 == n ? 0 : j + 1;
        int64_t c = (int64_t)spins[j] * k + spins[jp];
        const double *row = cum + c * nchan;
        int64_t q = 0;
        for (int64_t r = 0; r < nchan; r++)
            q += row[r] <= u;
        accepted += q != nchan;
        spins[j] = out_a[c * (nchan + 1) + q];
        spins[jp] = out_b[c * (nchan + 1) + q];
    }
    return accepted;
}
"""

_MAX_SITES = 2 ** 32 - 1    # numpy draws bonds by another rule from 2^32 on


def _fill_bonds_py(rng, n, bonds):
    """Fill ``bonds`` with ``rng.integers(0, n)`` draws, as ``dtype=np.int64``
    would give them."""
    bonds[:] = rng.integers(0, n, size=bonds.size, dtype=np.int64)


def _apply_events_py(rng, spins, bonds, cum, out_a, out_b, nchan, k):
    """Draw ``bonds.size`` candidate events (all bonds into ``bonds``, then
    one uniform each), apply them in order and return the number accepted:
    the interpreted reference loop, and the fallback without a C compiler."""
    n = spins.shape[0]
    _fill_bonds_py(rng, n, bonds)
    us = rng.random(bonds.size)
    s, cum = spins.tolist(), cum.tolist()
    out_a, out_b = out_a.tolist(), out_b.tolist()
    accepted = 0
    for j, x in zip(bonds.tolist(), us.tolist()):
        jp = j + 1 if j + 1 < n else 0
        c = s[j] * k + s[jp]
        q = sum(t <= x for t in cum[c])
        accepted += q != nchan
        s[j] = out_a[c][q]
        s[jp] = out_b[c][q]
    spins[:] = s
    return accepted


def _ctypes_events(lib):
    """``(fill_bonds, apply_events)`` around the compiled pass, with the
    signatures of the Python ones; both draw through ``rng``'s own bit
    generator under its lock, as numpy does."""
    fill, run = lib.fill_bonds, lib.apply_events
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fill.argtypes = [ptr, ctypes.c_uint32, i64, ptr]
    fill.restype = None
    run.argtypes = [ptr, ptr, i64, ptr, i64, ptr, ptr, ptr, i64, i64]
    run.restype = i64

    def fill_bonds(rng, n, bonds):
        if not 1 <= n <= _MAX_SITES:
            raise ValueError(f"bonds need 1 <= n <= {_MAX_SITES}, got {n}")
        bitgen = rng.bit_generator
        with bitgen.lock:
            fill(bitgen.ctypes.bit_generator, n - 1, bonds.size,
                 bonds.ctypes.data)

    def apply_events(rng, spins, bonds, cum, out_a, out_b, nchan, k):
        bitgen = rng.bit_generator
        with bitgen.lock:
            return run(bitgen.ctypes.bit_generator, spins.ctypes.data,
                       spins.size, bonds.ctypes.data, bonds.size,
                       cum.ctypes.data, out_a.ctypes.data, out_b.ctypes.data,
                       nchan, k)

    return fill_bonds, apply_events


EVENTS = native.Kernel("events", _KERNEL_SOURCE, _ctypes_events,
                       (_fill_bonds_py, _apply_events_py))


def _require(a, dtype, shape, name):
    if not (isinstance(a, np.ndarray) and a.dtype == dtype
            and a.shape == shape and a.flags.c_contiguous):
        raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype)} "
                         f"array of shape {shape}")


def _check_lattice(spins, cum, out_a, out_b, nchan, k):
    """Reject a lattice or channel table the compiled kernel would index
    out of bounds."""
    _require(spins, np.uint8, (np.size(spins),), "spins")
    if not spins.flags.writeable:
        raise ValueError("spins must be writeable")
    _require(cum, np.float64, (k * k, nchan), "cum")
    for name, table in (("out_a", out_a), ("out_b", out_b)):
        _require(table, np.uint8, (k * k, nchan + 1), name)
    for name, a in (("spins", spins), ("out_a", out_a), ("out_b", out_b)):
        if a.size and int(a.max()) >= k:
            raise ValueError(f"{name} holds state {int(a.max())}, "
                             f"outside 0..{k - 1}")


def _bind_events(rng, spins, cum, out_a, out_b, nchan, k):
    """Check the lattice and channel table once; returns ``apply(bonds)``,
    which draws ``bonds.size`` candidate events from ``rng`` (their bonds
    into the uint32 buffer ``bonds``), applies them in order and returns
    the number accepted."""
    nchan, k = int(nchan), int(k)
    _check_lattice(spins, cum, out_a, out_b, nchan, k)
    kernel = EVENTS.impl[1]

    def apply(bonds):
        return kernel(rng, spins, bonds, cum, out_a, out_b, nchan, k)

    return apply


class _ChannelTable:
    """Per-pair jump channels with cumulative acceptance thresholds.  A
    uniform draw u takes channel q, the number of thresholds ``cum[c, q]``
    at or below u; column ``nchan`` of ``out_a``/``out_b`` maps the pair to
    itself, so a draw above every threshold is a rejection."""

    def __init__(self, model, lam, kap):
        k = model.nstates
        rate = lam * model.r + kap * model.s      # (k,k,k,k)
        pair_rates = rate.reshape(k * k, k * k)
        self.k = k
        nchan = int((pair_rates > 0).sum(axis=1).max())
        self.nchan = max(nchan, 1)
        self.cum = np.zeros((k * k, self.nchan))
        pair = np.arange(k * k)[:, None] + np.zeros(self.nchan + 1, int)
        self.out_a = (pair // k).astype(np.uint8)
        self.out_b = (pair % k).astype(np.uint8)
        self.bond_rate = float(pair_rates.sum(axis=1).max())
        for c in range(k * k):
            rates = pair_rates[c]
            idx = np.nonzero(rates)[0]
            acc = 0.0
            for q, target in enumerate(idx):
                acc += rates[target] / self.bond_rate
                self.cum[c, q] = acc
                self.out_a[c, q] = target // k
                self.out_b[c, q] = target % k
            # pad with the last threshold: a draw at or above it counts every
            # column and lands on the identity
            self.cum[c, len(idx):] = acc


def simulate(state, model, plan, t_end, observe_at=(), observer=None,
             check_conservation=True):
    """Advance the chain to macroscopic time t_end (exact in law).

    ``observer(state)`` fires at every time in ``observe_at`` (plus t_end if
    listed); times must be nondecreasing from state.time.
    """
    if t_end < state.time - 1e-15:
        raise ValueError("t_end precedes the current state time")
    n = state.n
    if n > _MAX_SITES:
        raise ValueError(f"the event kernel draws bonds for n <= {_MAX_SITES} "
                         f"sites, got n = {n}")
    lam = plan.lambda_speed(n)
    kap = plan.kappa_speed(n)
    table = _ChannelTable(model, lam, kap)
    total_rate = n * table.bond_rate
    stops = sorted(set(float(t) for t in observe_at) | {float(t_end)})
    stops = [t for t in stops if t > state.time + 1e-15]
    apply = None
    bonds = np.empty(0, dtype=np.uint32)    # reused across chunks and stops
    for t_stop in stops:
        dt = t_stop - state.time
        n_events = int(state.rng.poisson(total_rate * dt))
        remaining = n_events
        while remaining > 0:
            if apply is None:
                apply = _bind_events(state.rng, state.spins, table.cum,
                                     table.out_a, table.out_b, table.nchan,
                                     table.k)
            # the chunk boundary is part of the stream: numpy draws all of a
            # chunk's bonds before its uniforms
            chunk = min(remaining, _EVENT_CHUNK)
            if bonds.size < chunk:
                bonds = np.empty(chunk, dtype=np.uint32)
            acc = apply(bonds[:chunk])
            state.events += chunk
            state.accepted += int(acc)
            remaining -= chunk
        state.time = t_stop
        if check_conservation:
            N, Z2 = state.recompute_totals(model)
            if N != state.total_eta or Z2 != state.total_zeta2:
                raise ConservationViolated(
                    f"conservation violated: ({state.total_eta},{state.total_zeta2})"
                    f" -> ({N},{Z2})")
        state.update_hash()
        if observer is not None and (t_stop in observe_at or not observe_at):
            observer(state)
            apply = None    # the observer may have touched the lattice
    return state


# ---------------------------------------------------------------------------
# explicit generators at tiny size


_MAX_STATES = 4096


def generator_matrix(model, n, part="L"):
    """Dense generator of the chosen part on the full configuration space."""
    confs = configurations(model, n, _MAX_STATES)
    if part not in ("L", "K"):
        raise ValueError("part must be 'L' or 'K'")
    src, dst, w = transitions(confs, model.r if part == "L" else model.s)
    G = np.zeros((len(confs), len(confs)))
    np.add.at(G, (src, dst), w)
    np.add.at(G, (src, src), -w)
    return G


def product_measure_vector(model, n, tau, theta):
    """Stationary product weights pi^n_{tau,theta} on the configuration space."""
    p1 = gibbs_measure(model, tau, theta)
    return np.prod(p1[configurations(model, n, _MAX_STATES)], axis=1)


# ---------------------------------------------------------------------------
# block averages and empirical fields


def block_average(values, l, x, n=None):
    """Weighted mesoscopic average (1/l) sum_j a((nx-j)/l) xi_j at point x."""
    values = np.asarray(values, dtype=float)
    if n is None:
        n = values.size
    x = np.atleast_1d(np.asarray(x, dtype=float))
    center = x * n
    offs = np.arange(-int(np.ceil(l)) + 1, int(np.ceil(l)))
    j = (np.round(center)[:, None].astype(np.int64) + offs[None, :])
    wts = weight_function((center[:, None] - j) / l) / l
    vals = values[np.mod(j, n)]
    out = (wts * vals).sum(axis=1)
    return out if out.size > 1 else float(out[0])


def empirical_fields(state, model, plan, m):
    """Scaled block-averaged density and slope fields on an m-point grid."""
    from .fields import Field

    n = state.n
    l = plan.block_size(n)
    f_r, f_u = plan.field_scale(n)
    xs = np.arange(m) / m
    eta_vals = model.eta[state.spins].astype(float)
    zeta_vals = model.zeta[state.spins]
    rho_hat = f_r * block_average(eta_vals, l, xs, n)
    u_hat = f_u * block_average(zeta_vals, l, xs, n)
    return (Field(rho_hat, state.time, "rho"), Field(u_hat, state.time, "u"))


# ---------------------------------------------------------------------------
# snapshot I/O


_MAGIC = b"LGS1"
_VERSION = 2
_HEAD = struct.Struct("<4sIQIQd")      # magic, version, n, k, seed, time
# events, accepted, trajectory digest, then the Philox bit generator: key,
# counter, output buffer, buffer position, has_uint32, uinteger
_STATE = struct.Struct("<qq16s2Q4Q4QqII")


def snapshot_rows(fields_by_time):
    """The (t, x, rho, u) rows of a list of (t, rho Field, u Field)."""
    blocks = [np.column_stack([np.full(fr.m, t), fr.x(), fr.values, fu.values])
              for t, fr, fu in fields_by_time]
    return np.concatenate(blocks) if blocks else np.empty((0, 4))


def write_snapshot_csv(path, fields_by_time):
    """CSV rows `t,x,rho_hat,u_hat` for a list of (t, rho Field, u Field)."""
    np.savetxt(path, snapshot_rows(fields_by_time), fmt="%.10g",
               delimiter=",", header="t,x,rho_hat,u_hat", comments="")


def dump_state(path, state, model):
    """Write the spins, counters, trajectory hash and Philox stream state;
    ``load_state`` then resumes the run exactly where it stopped."""
    gen = state.rng.bit_generator.state
    if gen["bit_generator"] != "Philox":
        raise ValueError("only Philox streams can be dumped")
    # an all-zero digest stands for a state never hashed
    digest = (bytes.fromhex(state.trajectory_hash) if state.trajectory_hash
              else bytes(16))
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(_MAGIC, _VERSION, state.n, model.nstates,
                            state.seed & (2 ** 64 - 1), state.time))
        fh.write(_STATE.pack(state.events, state.accepted, digest,
                             *gen["state"]["key"], *gen["state"]["counter"],
                             *gen["buffer"], gen["buffer_pos"],
                             gen["has_uint32"], gen["uinteger"]))
        fh.write(state.spins.tobytes())


def load_state(path, model):
    with open(path, "rb") as fh:
        head = fh.read(_HEAD.size)
        if len(head) != _HEAD.size or head[:4] != _MAGIC:
            raise ValueError("not a lattice snapshot file")
        _, ver, n, k, seed, time = _HEAD.unpack(head)
        if ver != _VERSION:
            raise ValueError(f"snapshot format version {ver} is not supported "
                             f"(only {_VERSION}, which stores the random "
                             "stream needed for an exact restart)")
        if k != model.nstates:
            raise ValueError("snapshot was written for a different model")
        body = fh.read(_STATE.size)
        spins = np.frombuffer(fh.read(n), dtype=np.uint8).copy()
    if len(body) != _STATE.size or spins.size != n:
        raise ValueError("truncated snapshot file")
    if n and int(spins.max()) >= k:
        raise ValueError("snapshot holds a state outside the model")
    (events, accepted, digest, *words, buffer_pos, has_uint32,
     uinteger) = _STATE.unpack(body)
    bitgen = np.random.Philox()
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"key": np.array(words[0:2], dtype=np.uint64),
                  "counter": np.array(words[2:6], dtype=np.uint64)},
        "buffer": np.array(words[6:10], dtype=np.uint64),
        "buffer_pos": buffer_pos, "has_uint32": has_uint32,
        "uinteger": uinteger}
    st = LatticeState(spins=spins, time=time, seed=seed,
                      rng=np.random.Generator(bitgen), events=events,
                      accepted=accepted,
                      trajectory_hash="" if digest == bytes(16)
                      else digest.hex())
    st.total_eta, st.total_zeta2 = st.recompute_totals(model)
    return st
