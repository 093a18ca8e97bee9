"""Periodic Liouvillian engine for bichromatic driving.

In the frame rotating at the strong field the master equation has a
generator that is periodic at the beat detuning delta = Delta3 - Delta1:

    L(t) = l0 + lp * exp(+i delta t) + lm * exp(-i delta t)

with l0 holding the strong-field Hamiltonian and the dissipators, and
lp / lm the weak-field sideband couplings.  Density matrices are
column-stacked into vectors (rho_gg, rho_eg, rho_ge, rho_ee).

The periodic steady state is found by harmonic balance,

    (l0 - i k delta) rho_k + lp rho_{k-1} + lm rho_{k+1} = 0.

Only rho_0 carries trace, and trace 1, so the unknowns are the traceless
parts x_k = rho_k - |g><g| delta_k0 in coordinates (x_eg, x_ge, x_ee):
|g><g| moves to the right-hand side of rows k = 0, +-1.  Negated, that
is the resolvent below at nu = 0, seeded with the generator on |g><g|:
one sweep, a matrix continued fraction (Risken, The Fokker-Planck
Equation, ch. 9), solves both.  The cutoff climbs the ladder below,
doubling from 8, until the edge harmonics fall below EDGE_TOL of rho_0.

The emission spectrum needs the beat-phase average of the two-time
correlation <sigma+(t0+tau) sigma-(t0)>.  Expanded in harmonics of the
beat (Sambe space; Sambe, PRA 7, 2203 (1973)), the averaged regression
vector x_k(tau) evolves under a time-independent block-tridiagonal
generator, so its Laplace transform at z = i nu solves

    (i nu + i k delta - l0) x_k - lp x_{k-1} - lm x_{k+1} = x_k(0)

and the spectrum is 2 Re x_0[ge] (Ficek & Freedhoff, PRA 48, 3092
(1993)).  The seed x_k(0) = sigma- rho_k - sum_m s_m rho_{k-m}, with
s_m = <sigma->_m, removes the non-decaying coherent part; what it
removes are the elastic lines |s_m|^2 at Delta1 - m delta, reported
exactly as discrete weights.  The seed and every x_k are traceless, so
this solve too runs in the traceless coordinates, where the generator's
trace mode (and with it every singular block at nu = -k delta) is
absent.  The harmonic cutoff is chosen on a subsample of the grid, then
the whole grid is solved in one batched Thomas sweep that keeps, per
frequency, only the last elimination step and the affine map from x_0
to the edge harmonic.  The sweep runs both halves (k > 0 and k < 0) in
one loop: swapping x_eg and x_ge (Pi) makes the k < 0 half an image of
the k > 0 half, since Pi lm Pi has the zero pattern of lp.  Each
coupling has two non-zero entries, and l0 never couples x_eg to x_ge,
so every block is an arrow around x_ee, eliminated entry by entry on
(2, n) arrays.  A cutoff is accepted when both edge harmonics are within
EDGE_TOL of the largest x_0 on the grid: the steady state and the
spectrum share that one tolerance.  One ladder loop, _ladder, makes
every such choice, for the steady state, the subsample and the whole
grid.  Rows that share a Liouvillian and differ in the beat only, as a
scan's rows do, climb it together, those pending at one cutoff in one
sweep, and a singular row fails alone.  Where a full-grid pass follows
the choice (a spectrum or map row on more than SUBSAMPLE points) the
ladder climbs by 1.5x, since that pass costs far more than the
subsample's rungs and 2x would overshoot the cutoff it needs, and the
whole grid climbs on from the subsample's choice until it passes too;
where the choosing solve is itself the result (the steady state, the
etalon rows of a scan, a grid no larger than the subsample) it doubles,
since there each rung is a solve of its own.  A spectrum is the one-row
case of _spectra, the path of a map's rows, which settles (_accepted)
their (value, issue) pairs: a truncation warns, or fails under --strict.

Weak-field convention: the weak record stores the half splitting G, so
the bare coupling in the Hamiltonian is kappa_w = 2G.  The dipole
matrix element of the inner dressed transition is 1/2, which makes the
effective secular coupling G and splits each dressed line by 2G.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bloch import Spectrum, _require_cover
from .emitter import TWO_PI, BichromaticDrive, EmitterParams
from .errors import (
    BifluorError,
    DegenerateDriveError,
    SingularSystemError,
    TruncationError,
    TruncationWarning,
    ValidationError,
)

__all__ = [
    "PeriodicLiouvillian",
    "PeriodicState",
    "build_periodic_liouvillian",
    "periodic_steady_state",
    "emission_spectrum",
]

# basis order (g, e)
IDENTITY = np.eye(2, dtype=complex)
SIGMA_M = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_P = SIGMA_M.conj().T
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
NUMBER = SIGMA_P @ SIGMA_M
# a traceless vector x is _FROM_TRACELESS @ x[1:], since x_gg = -x_ee
_FROM_TRACELESS = np.array([[0, 0, -1], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)

EDGE_TOL = 1e-8  # edge harmonic over the central one at which a cutoff is accepted
CUTOFF_CEILING = 4096  # largest harmonic cutoff of the spectrum resolvent
SUBSAMPLE = 64  # grid points on which the resolvent cutoff is chosen
_STEADY_CEILING = 4096  # largest harmonic cutoff of the periodic steady state


def __getattr__(name: str):
    """``solve_ivp``, imported on request only.

    bench/layers.py wraps that name here, and nothing in the package calls
    it, so scipy.integrate stays out of the package import.  The name is
    not stored in the module, whose bindings the wrapping must leave as
    they were.
    """
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2x2 matrices: the same products, without its overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def spre(a: np.ndarray) -> np.ndarray:
    """Superoperator for left multiplication, rho -> a rho."""
    return _kron(IDENTITY, a)


def spost(b: np.ndarray) -> np.ndarray:
    """Superoperator for right multiplication, rho -> rho b."""
    return _kron(b.T, IDENTITY)


def dissipator(l_op: np.ndarray) -> np.ndarray:
    """Lindblad dissipator L . L+ - (L+L . + . L+L)/2 as a superoperator."""
    ldl = l_op.conj().T @ l_op
    return spre(l_op) @ spost(l_op.conj().T) - 0.5 * (spre(ldl) + spost(ldl))


# every Liouvillian adds these two, so they are built once and shared read-only
_DECAY = dissipator(SIGMA_M)
_DEPHASING = dissipator(SIGMA_Z)
_DECAY.setflags(write=False)
_DEPHASING.setflags(write=False)


def drive_hamiltonians(drive: BichromaticDrive) -> tuple[np.ndarray, np.ndarray]:
    """Static part h0 and e^{+i delta t} coefficient hp, rad/ns.

    h0 = Omega sigma_x - Delta1 |e><e| in the strong-drive frame; the
    weak field enters as hp e^{+i delta t} + hp^dag e^{-i delta t} with
    hp = 2 G exp(-i phase) sigma-.
    """
    om = TWO_PI * drive.strong.rabi
    d1 = TWO_PI * drive.strong.detuning
    kap = 2.0 * TWO_PI * drive.weak.rabi
    h0 = om * (SIGMA_P + SIGMA_M) - d1 * NUMBER
    hp = kap * np.exp(-1j * drive.relative_phase) * SIGMA_M
    return h0, hp


@dataclass(frozen=True)
class PeriodicLiouvillian:
    """Harmonic components of the periodic generator (4x4 blocks)."""

    l0: np.ndarray
    lp: np.ndarray
    lm: np.ndarray
    delta: float  # beat detuning, rad/ns
    emitter: EmitterParams
    drive: BichromaticDrive

    def __post_init__(self):
        for m in (self.l0, self.lp, self.lm):
            m.setflags(write=False)


@dataclass(frozen=True)
class PeriodicState:
    """Fourier components rho_k of the periodic steady state.

    ``harmonics`` has shape (2*cutoff + 1, 4); row cutoff + k holds the
    vectorized rho_k.  rho_0 has unit trace, every other harmonic is
    traceless, and rho_{-k} is the adjoint of rho_k.
    """

    harmonics: np.ndarray
    cutoff: int
    delta: float  # rad/ns

    def __post_init__(self):
        self.harmonics.setflags(write=False)

    def harmonic(self, k: int) -> np.ndarray:
        if abs(k) > self.cutoff:
            return np.zeros(4, dtype=complex)
        return self.harmonics[self.cutoff + k]

    def harmonic_matrix(self, k: int) -> np.ndarray:
        return self.harmonic(k).reshape(2, 2, order="F")

    def rho_at(self, times) -> np.ndarray:
        """Vectorized rho(t) = sum_k rho_k e^{i k delta t}; shape (4, n)."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        k = np.arange(-self.cutoff, self.cutoff + 1)
        phases = np.exp(1j * self.delta * np.outer(k, t))
        return self.harmonics.T @ phases


def build_periodic_liouvillian(
    emitter: EmitterParams, drive: BichromaticDrive
) -> PeriodicLiouvillian:
    """Assemble l0, lp, lm for a bichromatic drive.

    Requires a non-zero beat detuning; equal-frequency (degenerate)
    drives are handled by scans.degenerate_spectrum instead.
    """
    if drive.delta == 0.0:
        raise DegenerateDriveError(
            "beat detuning is zero; use scans.degenerate_spectrum for "
            "equal-frequency drives"
        )
    h0, hp = drive_hamiltonians(drive)
    l0 = (
        -1j * (spre(h0) - spost(h0))
        + emitter.gamma_sp * _DECAY
        + 0.5 * emitter.gamma_pd * _DEPHASING
    )
    lp = -1j * (spre(hp) - spost(hp))
    lm = -1j * (spre(hp.conj().T) - spost(hp.conj().T))
    return PeriodicLiouvillian(
        l0=l0, lp=lp, lm=lm, delta=TWO_PI * drive.delta, emitter=emitter, drive=drive
    )


def _traceless(pl: PeriodicLiouvillian):
    """l0, lp, lm acting on the traceless subspace, coordinates (x_eg, x_ge, x_ee)."""
    return tuple(op[1:] @ _FROM_TRACELESS for op in (pl.l0, pl.lp, pl.lm))


def _solve_balance(pl: PeriodicLiouvillian, cutoff: int, delta=None) -> np.ndarray:
    """Harmonic balance at a fixed cutoff >= 1: the Sambe resolvent at nu = 0.

    Its seed is the generator acting on |g><g| (module docstring): l0, lp
    and lm's column gg at k = 0, +1 and -1.  ``delta`` (rad/ns) may hold
    the beats of drives that share l0, lp and lm: a trailing axis.
    """
    beats = np.atleast_1d(pl.delta if delta is None else delta)
    seed = np.zeros((2 * cutoff + 1, 3, beats.size), dtype=complex)
    seed[cutoff - 1 : cutoff + 2] = np.stack([pl.lm, pl.l0, pl.lp])[:, 1:, :1]
    harm = _FROM_TRACELESS @ _sambe_resolvent(pl, seed, 0.0 * beats, cutoff, beats, harmonics=True)
    harm[cutoff, 0] += 1.0
    return harm if np.ndim(delta) else harm[..., 0]


def _steady_states(pls) -> list:
    """Periodic steady states of drives that differ in the beat only.

    The drives climb _ladder from cutoff 8, doubling up to _STEADY_CEILING,
    each judged by its edge harmonics against its own ||rho_0||; the drives
    pending at one cutoff share one batched _solve_balance.  Returns each
    drive's PeriodicState, or its TruncationError at _STEADY_CEILING or its
    SingularSystemError.
    """
    beats = np.array([pl.delta for pl in pls])

    def solve(idx, k):
        harm = _solve_balance(pls[0], k, beats[idx])
        ref, edge = np.linalg.norm(harm[k], axis=0), np.linalg.norm(harm[[0, -1]], axis=1).max(0)
        return zip(np.moveaxis(harm, -1, 0), (edge / ref).tolist())

    rows = _ladder(solve, [8] * len(pls), _STEADY_CEILING, "harmonic balance")
    return [
        issue or PeriodicState(harmonics=value[1].copy(), cutoff=value[0], delta=pl.delta)
        for pl, (value, issue) in zip(pls, rows)
    ]


def periodic_steady_state(pl: PeriodicLiouvillian) -> PeriodicState:
    """Periodic steady state, the one-drive case of _steady_states.

    The cutoff starts at 8 and doubles until the edge harmonic is below
    ``EDGE_TOL * ||rho_0||``, or raises TruncationError at _STEADY_CEILING.
    """
    (state,) = _steady_states([pl])
    if isinstance(state, Exception):
        raise state
    return state


def _filon_weights(theta: np.ndarray):
    """Panel weights for quadratic interpolatory oscillatory quadrature.

    Not used by emission_spectrum; kept with half_fourier while
    bench/layers.py still traces both names.

    For one panel [0, 2h] with nodes at 0, h, 2h the integral of
    f(tau) e^{-i nu tau} is h * (w0 f0 + w1 f1 + w2 f2) with the f
    values taken at the nodes and theta = nu h.  Exact for quadratic f,
    any theta; the error does not grow with nu, unlike plain Simpson.
    """
    th = np.asarray(theta, dtype=float)
    small = np.abs(th) < 0.25
    # series moments m_k = int_0^2 x^k e^{-i th x} dx for small theta
    mu = -1j * th
    m_series = []
    for k in range(3):
        acc = np.zeros_like(mu)
        term = np.ones_like(mu)  # mu^n / n!
        for n in range(0, 18):
            acc = acc + term * (2.0 ** (k + n + 1)) / (k + n + 1)
            term = term * mu / (n + 1)
        m_series.append(acc)
    # closed-form moments for large theta
    mu_safe = np.where(small, -1j, mu)
    e2 = np.exp(2.0 * mu_safe)
    m0c = (e2 - 1.0) / mu_safe
    m1c = 2.0 * e2 / mu_safe - m0c / mu_safe
    m2c = 4.0 * e2 / mu_safe - 2.0 * m1c / mu_safe
    m0 = np.where(small, m_series[0], m0c)
    m1 = np.where(small, m_series[1], m1c)
    m2 = np.where(small, m_series[2], m2c)
    w0 = 0.5 * (m2 - 3.0 * m1 + 2.0 * m0)
    w1 = 2.0 * m1 - m2
    w2 = 0.5 * (m2 - m1)
    return w0, w1, w2


def half_fourier(tau: np.ndarray, values: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """integral_0^T values(tau) e^{-i nu tau} d tau on a uniform grid.

    ``tau`` must be uniform with an odd number of points (an even
    number of panels).  Evaluated per frequency with oscillation-exact
    panel weights; complex result.  Not used by emission_spectrum, and
    kept only because bench/layers.py wraps it, until the benchmark drops
    its floquet.half_fourier.s metric.
    """
    tau = np.asarray(tau, dtype=float)
    values = np.asarray(values, dtype=complex)
    nu = np.asarray(nu, dtype=float)
    n = tau.size
    if n < 3 or n % 2 == 0:
        raise ValidationError("need an odd number of tau samples")
    h = tau[1] - tau[0]
    out = np.empty(nu.shape, dtype=complex)
    block = max(1, int(4e6 // n))
    for start in range(0, nu.size, block):
        nub = nu[start : start + block]
        w0, w1, w2 = _filon_weights(nub * h)
        phase = np.exp(-1j * np.outer(nub, tau))
        p = phase * values[None, :]
        s_even_head = p[:, 0:-2:2].sum(axis=1)
        s_odd = p[:, 1::2].sum(axis=1)
        s_even_tail = p[:, 2::2].sum(axis=1)
        rot = np.exp(1j * nub * h)
        out[start : start + block] = h * (
            w0 * s_even_head + w1 * rot * s_odd + w2 * rot**2 * s_even_tail
        )
    return out


def _incoherent_seed(state: PeriodicState, cutoff: int) -> np.ndarray:
    """x_k(0) = sigma- rho_k - sum_m s_m rho_{k-m} for |k| <= cutoff.

    Every x_k(0) is traceless, since only rho_0 carries trace, and is
    returned as (x_eg, x_ge, x_ee): shape (2 * cutoff + 1, 3), row
    cutoff + k holding harmonic k.
    """
    c = state.cutoff
    harm = state.harmonics
    full = -np.stack(
        [np.convolve(harm[:, 1], harm[:, j]) for j in range(4)], axis=1
    )  # harmonics -2c .. 2c
    full[c : 3 * c + 1] += harm @ spre(SIGMA_M).T
    seed = np.zeros((2 * cutoff + 1, 3), dtype=complex)
    n = min(cutoff, 2 * c)
    seed[cutoff - n : cutoff + n + 1] = full[2 * c - n : 2 * c + n + 1, 1:]
    return seed


# lm, the e^{-i delta t} coupling, feeds x_{k+1} into the coherence _S and the
# population _H, from _H and the other coherence _F.  l0 couples _H to both
# coherences but never _S to _F, so every block of the sweep is an arrow: two
# spokes that touch only the hub.
(_S, _H), (_, _F) = np.nonzero((spre(SIGMA_P) - spost(SIGMA_P))[1:] @ _FROM_TRACELESS)
# coordinates of the up half, and of the down half with the coherences swapped
_HALVES = np.array([[_S, _F, _H], [_F, _S, _H]])


def _sambe_resolvent(pl, seed: np.ndarray, nu, cutoff: int, delta=None, harmonics=False):
    """Batched Sambe-space resolvent: x_0 at every nu and the edge norms.

    ``nu`` may be complex with Im nu < 0, i.e. Re z > 0 for z = i nu,
    where the resolvent is analytic.  ``delta`` is the beat in rad/ns,
    pl.delta by default, and ``seed`` has shape (2 * cutoff + 1, 3); either
    may instead hold one value per element of ``nu`` (a trailing axis),
    for drives that share l0, lp and lm and differ in the beat only.

    The regression vectors are traceless, so they are solved in the
    coordinates (x_eg, x_ge, x_ee) of the traceless subspace, where the
    trace mode of the generator is absent: every 3x3 block is regular,
    also where nu = -k delta.  Returns x_0 in those coordinates, shape
    (3, n), and at every nu the larger norm of the two edge harmonics,
    shape (n,), for the caller to compare with the norms of x_0.

    Both halves are eliminated toward k = 0 in one loop, on arrays whose
    first axis is the half.  In the down half's coordinates the two
    coherences are swapped (Pi), which turns it into an up half: Pi lm Pi
    couples like lp, Pi lp Pi like lm, and Pi l0 Pi keeps l0's zeros.  In
    these coordinates (spoke 0, spoke 1, hub 2) the outward coupling
    fills (0, 2) and (2, 1), the inward one (1, 2) and (2, 0), and every
    block, Schur term included, is an arrow solved by scalar formulas.
    The map from x_0 to the edge harmonic has rank one after two steps,
    so it is carried as a scalar affine map.  With ``harmonics`` (the
    steady state, _solve_balance) every step is kept, and every x_k, found
    outward from x_0, is returned instead: shape (2 * cutoff + 1, 3, n).
    """
    l0, lp, lm = _traceless(pl)
    up, down = (np.ix_(p, p) for p in _HALVES)
    neg = -np.stack([l0[up], l0[down]])  # axes (half, row, col)
    o02, o21 = np.stack([lm[up], lp[down]])[:, [0, 2], [2, 1]].T[..., None]  # outward
    i12, i20 = np.stack([lp[up], lm[down]])[:, [1, 2], [2, 0]].T[..., None]  # inward
    c02, c20, c12, c21 = neg[:, [0, 2, 1, 2], [2, 0, 2, 1]].T[..., None]
    # the next block's Schur term o02 inv22 i20 at (0, 0), o02 inv21 i12 at
    # (0, 2), o21 inv12 i20 at (2, 0), o21 inv11 i12 at (2, 2); the signs of
    # inv21 = -vw and inv12 = -uw are folded into m02 and m20
    m00, m02, m20, m22 = o02 * i20, -o02 * i12, -o21 * i20, o21 * i12
    c1221, ni12 = c12 * c21, -i12
    d0, d1, d2 = (1j * np.asarray(nu) + neg[:, i, i, None] for i in range(3))
    ks = np.arange(cutoff + 1)
    seed = seed if seed.ndim == 3 else seed[..., None]
    seeds = np.stack([seed[cutoff + ks][:, _HALVES[0]], seed[cutoff - ks][:, _HALVES[1]]], axis=2)
    shift = 1j * (pl.delta if delta is None else delta) * np.array([[1.0], [-1.0]])
    s00 = s02 = s20 = s22 = z0 = z1 = z2 = 0.0
    steps = []  # factors of block cutoff, and of every block with ``harmonics``

    def outward(step, hub, spoke):  # x_j = inv_j inward x_{j-1} + z_j, from (hub, spoke 0)_{j-1}
        u0, vw, inv11, w, uw, z0, z1, z2 = step
        e1, e2 = i12 * hub, i20 * spoke
        h = w * e2 - vw * e1
        return z0 - u0 * h, inv11 * e1 - uw * e2 + z1, h + z2
    for j in range(cutoff, 0, -1):
        # x_j = inv (inward x_{j-1} + r), r = seed_j + outward z_{j+1}, z_j = inv r
        t = j * shift
        p1 = 1.0 / (d1 + t)
        a02, a20 = c02 - s02, c20 - s20
        p0 = 1.0 / (d0 + t - s00)
        u0, v0, u1, v1 = a02 * p0, a20 * p0, c12 * p1, c21 * p1
        w = 1.0 / (d2 + t - s22 - v0 * a02 - c1221 * p1)  # inv22
        r0, r1, r2 = seeds[j]
        r0 = r0 + o02 * z2
        z2 = w * (r2 + o21 * z1 - v0 * r0 - v1 * r1)
        z0, z1 = p0 * r0 - u0 * z2, p1 * r1 - u1 * z2
        vw, uw = v1 * w, u1 * w
        inv11 = p1 + u1 * vw
        s00, s02, s20, s22 = m00 * w, m02 * vw, m20 * uw, m22 * inv11
        # (hub, spoke 0) of block j is (w, -u0 w) eta_j + (z2, z0), with
        # eta_j = bq hub_{j-1} + i20 spoke_{j-1}
        if harmonics or j == cutoff:
            steps.append((u0, vw, inv11, w, uw, z0, z1, z2))
        elif j == cutoff - 1:  # (hub, spoke 0)_{c-1} = lead (gain eta_j + acc) + tail
            lead, tail, gain, acc = (w, -u0 * w), (z2, z0), 1.0, 0.0
        else:  # eta_{j+1} = w (bq - i20 u0) eta_j + bq z2 + i20 z0
            acc = acc + gain * (bq * z2 + i20 * z0)
            gain = gain * w * (bq - i20 * u0)
        bq = ni12 * v1
    # k = 0: one arrow whose spokes are the up half's spoke 0 (_S) and the
    # down half's (_F), around the shared hub
    a02, a20 = c02 - s02, c20 - s20
    p0 = 1.0 / (d0 - s00)
    v0 = a20 * p0
    r0, _, r2 = seeds[0]
    r0 = r0 + o02 * z2
    hub = (r2[0] + (o21 * z1 - v0 * r0).sum(axis=0)) / (d2[0] - (s22 + v0 * a02).sum(axis=0))
    spokes = p0 * (r0 - a02 * hub)
    x0 = np.empty((3, hub.size), dtype=complex)
    x0[_HALVES[:, 0]], x0[_H] = spokes, hub
    if harmonics:  # outward from k = 0, both halves at once
        x, out = (spokes, None, hub), []
        for step in reversed(steps):
            out.append(x := outward(step, x[2], x[0]))
        out = np.array(out)  # (k - 1, coordinate, half, nu); each _HALVES row is its own inverse
        xs = np.concatenate([out[::-1, _HALVES[1], 1], x0[None], out[:, _HALVES[0], 0]])
    if not np.all(np.isfinite(xs if harmonics else x0)):
        raise SingularSystemError("resolvent solve hit a singular block")
    if harmonics:
        return xs
    if cutoff == 0:
        return x0, np.zeros(hub.size)
    pair = (hub, spokes)
    if cutoff > 1:
        eta = gain * (bq * hub + i20 * spokes) + acc
        pair = (lead[0] * eta + tail[0], lead[1] * eta + tail[1])
    edge = np.linalg.norm(outward(steps[0], *pair), axis=0)
    return x0, edge.max(axis=0)


def _edge_residual(x0: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """Edge norms over the largest norm of x_0, the quantity EDGE_TOL bounds."""
    return edge / max(np.linalg.norm(x0, axis=0).max(), 1e-300)


def _truncation(what: str, cutoff: int, resid: float) -> TruncationError:
    """The error of a ``what`` solve that reached its ceiling unconverged."""
    return TruncationError(
        f"{what} not converged at harmonic cutoff {cutoff}: "
        f"edge harmonic {resid:.3e} of the central one",
        residual=resid,
    )


def _ladder(solve, starts, ceiling: int, what: str, fine: bool = False) -> list:
    """The one cutoff ladder: per row ((cutoff, value), issue), or (None, issue).

    ``solve(idx, cutoff)`` solves the rows ``idx`` at one cutoff in one
    batch and returns each row's (value, edge residual).  A row starts at
    its entry of ``starts`` and climbs, doubling or, if ``fine``, by 1.5x
    (module docstring), until its residual is within EDGE_TOL or it reaches
    ``ceiling``; there it keeps its value, with the TruncationError of the
    ``what`` solve as its issue if unconverged (else None).  The rows
    pending at the smallest cutoff share one solve.  A batch that hits a
    singular block is solved again row by row at that cutoff, so only a
    singular row fails: no value, a SingularSystemError as its issue.
    """
    out, pending = [None] * len(starts), dict(enumerate(starts))
    while pending:
        cutoff = min(pending.values())
        batches = [[i for i, k in pending.items() if k == cutoff]]
        for idx in batches:  # a singular batch appends its rows, one per batch
            try:
                solved = solve(idx, cutoff)
            except SingularSystemError as exc:
                if len(idx) > 1:
                    batches += [[i] for i in idx]
                else:
                    out[idx[0]] = None, SingularSystemError(f"{what} solve failed: {exc}")
                    del pending[idx[0]]
                continue
            for i, (value, resid) in zip(idx, solved):
                if resid > EDGE_TOL and cutoff < ceiling:
                    pending[i] = min(cutoff + max(cutoff // 2 if fine else cutoff, 1), ceiling)
                    continue
                truncation = _truncation(what, cutoff, resid) if resid > EDGE_TOL else None
                out[i] = (cutoff, value), truncation
                del pending[i]
    return out


def _batched_resolvent(rows, idx, nu, cutoff):
    """x_0 and edge norms of the rows ``idx`` at ``nu``, in one sweep.

    The (PeriodicLiouvillian, PeriodicState) ``rows`` share l0, lp and
    lm, so they are laid out on one axis with a beat and a seed per
    element.  Returns (row, (x0, edge)) pairs; a singular block raises
    SingularSystemError for the whole batch.
    """
    pls, states = zip(*(rows[i] for i in idx))
    seed = np.stack([_incoherent_seed(st, cutoff) for st in states], axis=2)
    beats = np.array([pl.delta for pl in pls])
    if len(idx) > 1:  # one row's seed and beat broadcast over nu
        seed = np.repeat(seed, nu.size, axis=2)
        beats = np.repeat(beats, nu.size)
    x0, edge = _sambe_resolvent(pls[0], seed, np.tile(nu, len(idx)), cutoff, beats)
    x0, edge = x0.reshape(3, len(idx), nu.size), edge.reshape(len(idx), nu.size)
    return [(i, (x0[:, r], edge[r])) for r, i in enumerate(idx)]


def _resolvent_cutoffs(rows, nu, starts=None, full_pass=False) -> list:
    """Resolvent cutoff and x_0 at ``nu`` of rows as in _batched_resolvent.

    The rows climb _ladder up to CUTOFF_CEILING, by 1.5x with
    ``full_pass``, else doubling.  A row starts at its entry of ``starts``,
    by default its steady-state cutoff (0 without a weak field), and is
    judged by its edge harmonics against its own largest x_0.  Returns per
    row ((cutoff, x0), the TruncationError of an unconverged ceiling or
    None), or (None, its SingularSystemError).
    """
    if starts is None:
        starts = [min(st.cutoff, CUTOFF_CEILING) if pl.lp.any() else 0 for pl, st in rows]

    def solve(idx, cutoff):
        pairs = _batched_resolvent(rows, idx, nu, cutoff)
        return [(x0, float(_edge_residual(x0, edge).max())) for _i, (x0, edge) in pairs]

    return _ladder(solve, starts, CUTOFF_CEILING, "resolvent", full_pass)


def _check_coverage(pl: PeriodicLiouvillian, grid: np.ndarray) -> None:
    """Raise CoverageError unless ``grid`` covers pl's lines (see emission_spectrum)."""
    drive = pl.drive
    d1 = drive.strong.detuning
    span = np.hypot(2.0 * drive.strong.rabi, d1)  # Mollow sidebands at d1 +- span
    if drive.weak.rabi > 0.0:
        span = max(span, abs(drive.delta))
    _require_cover(grid, d1, span + 2.0 * drive.weak.rabi, 3.0, pl.emitter)


def _accepted(value, issue):
    """A row's ``value``, or its error ``issue``: the one place a truncation is settled.

    An ``issue`` beside a ``value`` is a truncation: a TruncationWarning while
    the value stands, or the row's error where a warnings filter raises it.
    """
    if issue is None:
        return value
    if value is None:
        return issue
    try:
        warnings.warn(str(issue), TruncationWarning, stacklevel=2)
    except TruncationWarning:
        return issue
    return value


def _full_grid_spectrum(task):
    """(Spectrum, its TruncationError or None), or (None, error), of one row.

    ``task`` is (pl, state, grid, choice), ``choice`` the row's
    _resolvent_cutoffs entry on the subsample.  Unless that is the whole
    grid, the whole grid is the gate: it climbs on from the subsample's
    cutoff along the same 1.5x ladder.  Neither warns nor raises, so it
    runs alike in a process pool.
    """
    pl, state, grid, (value, issue) = task
    d1 = pl.drive.strong.detuning
    if grid.size > SUBSAMPLE and value is not None:
        nu = TWO_PI * (grid - d1)
        ((value, issue),) = _resolvent_cutoffs([(pl, state)], nu, [value[0]], True)
    if value is None:
        return None, issue
    cutoff, x0 = value
    # the ge component, whose trace against sigma+ gives the correlation
    intensity = 2.0 * x0[1].real
    weights = np.abs(state.harmonics[:, 1]) ** 2
    orders = np.arange(-state.cutoff, state.cutoff + 1)
    delta_ghz = pl.delta / TWO_PI
    lines = sorted(
        (float(d1 - m * delta_ghz), float(wt))
        for m, wt in zip(orders, weights)
        if wt > 0.0
    )
    try:
        spec = Spectrum(
            freq=grid,
            intensity=intensity,
            elastic_weight=float(weights.sum()),
            elastic_lines=tuple(lines),
            resolvent_cutoff=cutoff,
        )
    except BifluorError as exc:  # an invalid spectrum fails this row only
        return None, exc
    return spec, issue


def _spectra(rows, grid: np.ndarray, detuning: float, mapper=map) -> list:
    """Spectra of rows as in _batched_resolvent on ``grid`` (GHz): each a Spectrum or its error.

    ``detuning``, the strong drive's, is the origin of the frequencies.
    The rows choose their cutoffs together on SUBSAMPLE evenly spread
    points, by 1.5x unless that is the whole grid; ``mapper`` (map, or a
    process pool's) runs each row's _full_grid_spectrum, and _accepted
    settles the results in row order.
    """
    sub = np.unique(np.linspace(0, grid.size - 1, SUBSAMPLE).round().astype(int))
    nu = TWO_PI * (grid - detuning)[sub]
    choices = _resolvent_cutoffs(rows, nu, full_pass=grid.size > SUBSAMPLE)
    tasks = [(*row, grid, choice) for row, choice in zip(rows, choices)]
    return [_accepted(*row) for row in mapper(_full_grid_spectrum, tasks)]


def emission_spectrum(
    pl: PeriodicLiouvillian,
    state: PeriodicState,
    grid: np.ndarray,
) -> Spectrum:
    """Beat-averaged emission spectrum on ``grid`` (GHz, relative to the transition).

    Solves the Laplace-domain correlation in harmonic (Sambe) space at
    every grid frequency at once (see the module docstring), as the
    one-row case of _spectra, the path of every map row too.  The
    harmonic cutoff starts at ``state.cutoff`` and climbs until both
    edge harmonics fall below EDGE_TOL of the largest x_0: first on
    SUBSAMPLE grid points, then on the whole grid, which climbs on from
    the cutoff so chosen while it fails.  A grid larger than the
    subsample climbs by 1.5x, so that its full-grid pass overshoots
    less; a smaller one is its own subsample and doubles.  At
    CUTOFF_CEILING without convergence the ceiling result is returned with
    a TruncationWarning (raised as TruncationError by an error filter).
    The accepted cutoff is the result's ``resolvent_cutoff``.
    The elastic lines are |<sigma->_m|^2 at Delta1 - m delta for every
    steady-state harmonic m.  The grid must cover Delta1 +- (the larger
    of the Mollow sideband offset sqrt((2 Omega)^2 + Delta1^2) and the
    beat |delta|, plus 2 G and three linewidths); otherwise a
    CoverageError is raised.
    """
    grid = np.asarray(grid, dtype=float)
    _check_coverage(pl, grid)
    (spec,) = _spectra([(pl, state)], grid, pl.drive.strong.detuning)
    if isinstance(spec, Exception):
        raise spec
    return spec
