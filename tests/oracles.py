"""Independent reference implementations used to pin test values.

Nothing here shares numerical machinery with the package: density
matrices are vectorized row-major, time evolution uses midpoint
matrix exponentials on a fixed partition of the beat period, the
periodic steady state comes from a dense eigendecomposition of the
one-beat map or from one dense solve of the truncated harmonic
balance, two-time correlations are assembled explicitly with the
elastic part removed point by point as a product of mean values, and
spectra are plain Simpson transforms.  These routines are slow on
purpose; the suite freezes their outputs and keeps a few small live
cross-checks.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import expm

TWO_PI = 2.0 * np.pi

# row-major vec(rho) = (rho_gg, rho_ge, rho_eg, rho_ee), basis g=0, e=1
_ID = np.eye(2, dtype=complex)
_SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
_SP = _SM.conj().T
_SZ = np.diag([-1.0, 1.0]).astype(complex)
_NUM = np.diag([0.0, 1.0]).astype(complex)


def _left(a: np.ndarray) -> np.ndarray:
    return np.kron(a, _ID)


def _right(b: np.ndarray) -> np.ndarray:
    return np.kron(_ID, b.T)


def _lindblad(op: np.ndarray) -> np.ndarray:
    anti = op.conj().T @ op
    return _left(op) @ _right(op.conj().T) - 0.5 * (_left(anti) + _right(anti))


def generator_parts(t1_ps, t2_ps, rabi, detuning, weak_rabi, weak_detuning, phase=0.0):
    """Static, e^{+i delta t} and e^{-i delta t} parts of the generator.

    Rates in 1/ns, couplings in rad/ns; the strong drive enters as
    rabi*(sp+sm), the weak one through kappa = twice its half
    splitting, matching the physical daughter spacing convention.
    """
    gamma_sp = 1000.0 / t1_ps
    gamma_pd = 1000.0 / t2_ps - 500.0 / t1_ps
    om = TWO_PI * rabi
    d1 = TWO_PI * detuning
    kap = 2.0 * TWO_PI * weak_rabi
    delta = TWO_PI * (weak_detuning - detuning)

    h0 = om * (_SP + _SM) - d1 * _NUM
    hp = kap * np.exp(-1j * phase) * _SM

    def commutator(h):
        return -1j * (_left(h) - _right(h))

    l0 = commutator(h0) + gamma_sp * _lindblad(_SM) + 0.5 * gamma_pd * _lindblad(_SZ)
    lp = commutator(hp)
    lm = commutator(hp.conj().T)
    return l0, lp, lm, delta


def sambe_dense_solve(l0, lp, lm, delta, seed, nu):
    """Every harmonic of the truncated Sambe resolvent, one dense solve per nu.

    Solves (i nu + i k delta - l0) x_k - lp x_{k-1} - lm x_{k+1} = seed_k
    for |k| <= cutoff, the 3 (2 cutoff + 1) unknowns assembled into one
    matrix.  The parts come from generator_parts; ``seed`` holds
    row-major vectors of zero trace, shape (2 cutoff + 1, 4).  The
    unknowns are the traceless coordinates (ge, eg, ee), with gg = -ee
    and the redundant gg row dropped, so the system stays regular at
    nu = -k delta.  Returns row-major vectors, shape (len(nu), 2 cutoff + 1, 4).
    """
    size = seed.shape[0]
    cutoff = (size - 1) // 2
    embed = np.array([[0, 0, -1], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    r0, rp, rm = (m[1:] @ embed for m in (l0, lp, lm))
    coupled = (
        np.kron(np.eye(size), r0)
        + np.kron(np.eye(size, k=-1), rp)  # x_{k-1} into row k
        + np.kron(np.eye(size, k=1), rm)  # x_{k+1} into row k
    )
    orders = np.repeat(np.arange(-cutoff, cutoff + 1), 3)
    rhs = seed[:, 1:].ravel()
    out = []
    for f in np.atleast_1d(nu):
        x = np.linalg.solve(np.diag(1j * (f + orders * delta)) - coupled, rhs)
        out.append(x.reshape(size, 3) @ embed.T)
    return np.array(out)


def balance_matrix(l0, lp, lm, delta, cutoff):
    """Dense harmonic-balance matrix of the truncated periodic steady state.

    Rows are (l0 - i k delta) rho_k + lp rho_{k-1} + lm rho_{k+1} = 0 for
    |k| <= cutoff in all four row-major coordinates of every harmonic,
    4 (2 cutoff + 1) unknowns.  The parts come from generator_parts.  The
    generator keeps the trace, so the trace of row k reads -i k delta tr
    rho_k = 0: every harmonic but rho_0 is traceless, and the gg row of
    k = 0, which that makes redundant, is replaced by tr rho_0 = 1.
    """
    size = 2 * cutoff + 1
    orders = np.repeat(np.arange(-cutoff, cutoff + 1), 4)
    matrix = (
        np.kron(np.eye(size), l0)
        + np.kron(np.eye(size, k=-1), lp)  # rho_{k-1} into row k
        + np.kron(np.eye(size, k=1), lm)  # rho_{k+1} into row k
        - np.diag(1j * delta * orders)
    )
    gg = 4 * cutoff  # the gg row of k = 0
    matrix[gg] = 0.0
    matrix[gg, [gg, gg + 3]] = 1.0
    return matrix


def balance_dense_solve(l0, lp, lm, delta, cutoff):
    """Every harmonic of the truncated periodic steady state, one dense solve.

    Solves balance_matrix against tr rho_0 = 1.  Returns row-major
    vectors, shape (2 cutoff + 1, 4).
    """
    rhs = np.zeros(4 * (2 * cutoff + 1), dtype=complex)
    rhs[4 * cutoff] = 1.0
    return np.linalg.solve(balance_matrix(l0, lp, lm, delta, cutoff), rhs).reshape(-1, 4)


def _beat_propagators(l0, lp, lm, delta, period, n_steps):
    dt = period / n_steps
    mids = (np.arange(n_steps) + 0.5) * dt
    props = []
    for tm in mids:
        ell = l0 + lp * np.exp(1j * delta * tm) + lm * np.exp(-1j * delta * tm)
        props.append(expm(ell * dt))
    return props, dt


def brute_periodic_state(l0, lp, lm, delta, period, n_steps):
    """Steady density matrices at the step boundaries of one beat."""
    props, dt = _beat_propagators(l0, lp, lm, delta, period, n_steps)
    mono = np.eye(4, dtype=complex)
    for p in props:
        mono = p @ mono
    evals, evecs = np.linalg.eig(mono)
    idx = int(np.argmin(np.abs(evals - 1.0)))
    rho = evecs[:, idx]
    rho = rho / (rho[0] + rho[3])
    path = np.empty((n_steps + 1, 4), dtype=complex)
    path[0] = rho
    for j, p in enumerate(props):
        path[j + 1] = p @ path[j]
    return props, dt, path


def brute_spectrum(
    t1_ps,
    t2_ps,
    rabi,
    detuning,
    weak_rabi,
    weak_detuning,
    freqs,
    tau_max=20.0,
    n_steps=2048,
    n_t0=8,
    phase=0.0,
):
    """Incoherent emission spectrum by direct two-time propagation.

    Returns (freqs, intensity) with the same normalization as the
    package: the integral over all frequencies plus the elastic weight
    equals the mean excited population.  For a monochromatic drive
    pass weak_rabi=0 and any weak_detuning != detuning.
    """
    l0, lp, lm, delta = generator_parts(
        t1_ps, t2_ps, rabi, detuning, weak_rabi, weak_detuning, phase
    )
    if delta == 0.0:
        raise ValueError("degenerate drive has no beat period")
    period = TWO_PI / abs(delta)
    props, dt, path = brute_periodic_state(l0, lp, lm, delta, period, n_steps)
    if n_steps % n_t0:
        raise ValueError("n_t0 must divide n_steps")

    sig_t = path[:n_steps, 2]  # <sigma-> at the boundaries, one beat
    offsets = np.arange(n_t0) * (n_steps // n_t0)
    n_tau = int(np.ceil(tau_max / dt))
    if n_tau % 2:
        n_tau += 1

    seed_op = _left(_SM)
    batch = np.zeros((4, n_t0), dtype=complex)
    corr = np.zeros((n_tau + 1, n_t0), dtype=complex)
    total = int(offsets[-1]) + n_tau
    for m in range(total + 1):
        if m <= offsets[-1]:
            for j in np.nonzero(offsets == m)[0]:
                batch[:, j] = seed_op @ path[m]
        live = np.nonzero(offsets <= m)[0]
        taus = m - offsets[live]
        ok = taus <= n_tau
        corr[taus[ok], live[ok]] = batch[1, live[ok]]
        if m < total:
            batch[:, live] = props[m % n_steps] @ batch[:, live]

    tau = np.arange(n_tau + 1) * dt
    elapsed = offsets[None, :] + np.arange(n_tau + 1)[:, None]
    elastic = np.conj(sig_t[elapsed % n_steps]) * sig_t[offsets][None, :]
    gbar = (corr - elastic).mean(axis=1)

    freqs = np.asarray(freqs, dtype=float)
    out = np.empty(freqs.size)
    for i, f in enumerate(freqs):
        nu = TWO_PI * (f - detuning)
        out[i] = 2.0 * np.real(simpson(gbar * np.exp(-1j * nu * tau), dx=dt))
    return freqs, out


def brute_mollow_spectrum(t1_ps, t2_ps, rabi, detuning, freqs, tau_max=20.0, dt=2e-4):
    """Monochromatic spectrum by expm stepping of the static generator."""
    l0, _, _, _ = generator_parts(t1_ps, t2_ps, rabi, detuning, 0.0, detuning + 1.0)
    evals, evecs = np.linalg.eig(l0)
    idx = int(np.argmin(np.abs(evals)))
    rho = evecs[:, idx]
    rho = rho / (rho[0] + rho[3])

    n_tau = int(np.ceil(tau_max / dt))
    if n_tau % 2:
        n_tau += 1
    step = expm(l0 * dt)
    vec = _left(_SM) @ rho
    sig = rho[2]
    corr = np.empty(n_tau + 1, dtype=complex)
    for m in range(n_tau + 1):
        corr[m] = vec[1]
        vec = step @ vec
    gbar = corr - np.conj(sig) * sig

    tau = np.arange(n_tau + 1) * dt
    freqs = np.asarray(freqs, dtype=float)
    out = np.empty(freqs.size)
    for i, f in enumerate(freqs):
        nu = TWO_PI * (f - detuning)
        out[i] = 2.0 * np.real(simpson(gbar * np.exp(-1j * nu * tau), dx=dt))
    return freqs, out


def brute_quartet_populations(
    t1_ps, t2_ps, rabi, detuning, weak_rabi, weak_detuning, phase=0.0, n_steps=2048
):
    """Beat-averaged projections onto the doubly dressed sublevels.

    The basis is rebuilt locally: dressed doublet of the strong drive,
    split by the resonant inner-transition coupling, with the lower
    component of each sublevel rotating at the beat.
    """
    l0, lp, lm, delta = generator_parts(
        t1_ps, t2_ps, rabi, detuning, weak_rabi, weak_detuning, phase
    )
    period = TWO_PI / abs(delta)
    _, dt, path = brute_periodic_state(l0, lp, lm, delta, period, n_steps)

    theta = 0.5 * np.arctan2(2.0 * rabi, -detuning)
    split = np.hypot(2.0 * rabi, detuning)
    upper = np.array([np.sin(theta), np.cos(theta)], dtype=complex)
    lower = np.array([np.cos(theta), -np.sin(theta)], dtype=complex)
    kap = 2.0 * TWO_PI * weak_rabi
    w_in = -kap * np.exp(1j * phase) * np.sin(theta) ** 2
    dpair = TWO_PI * (split + (weak_detuning - detuning))
    phi = 0.5 * np.arctan2(2.0 * abs(w_in), dpair)
    beta = np.angle(w_in)
    c, s = np.cos(phi), np.sin(phi)

    acc = 0.0
    for j in range(n_steps):
        t = j * dt
        vec = c * upper + s * np.exp(1j * beta) * np.exp(-1j * delta * t) * lower
        rho = path[j].reshape(2, 2)
        acc += np.real(vec.conj() @ rho @ vec)
    p_plus = acc / n_steps
    return float(p_plus), float(1.0 - p_plus)


def pair_ladder_min_separation(rabi, g, delta1, delta2_values, rungs=70):
    """Daughter separation from a dense two-mode ladder, pair physics only.

    The strong field is kept exact through the dressed doublet; the
    weak field couples each upper state to the lower state one rung
    over through the inner-transition matrix element.  Assembled and
    diagonalized densely, separation read off as the gap between the
    two levels closest to the tracked rung center.
    """
    theta = 0.5 * np.arctan2(2.0 * rabi, -delta1)
    split = np.hypot(2.0 * rabi, delta1)
    geff = 2.0 * g * np.sin(theta) ** 2
    values = np.atleast_1d(np.asarray(delta2_values, dtype=float))
    out = []
    for d2 in values:
        beat = (d2 - 2.0 * rabi) - delta1
        dpair = split + beat
        dim = 2 * rungs
        ham = np.zeros((dim, dim))
        for m in range(rungs):
            mu = -0.5 * delta1 + (m - rungs // 2 - 0.5) * beat
            i = 2 * m
            ham[i, i] = mu + 0.5 * dpair
            ham[i + 1, i + 1] = mu - 0.5 * dpair
            ham[i, i + 1] = geff
            ham[i + 1, i] = geff
        evals = np.sort(np.linalg.eigvalsh(ham))
        mu0 = -0.5 * delta1 - 0.5 * beat
        near = np.argsort(np.abs(evals - mu0))[:2]
        out.append(2.0 * abs(evals[near[0]] - evals[near[1]]))
    res = np.asarray(out)
    return res if res.size > 1 else float(res[0])


def airy_transmission(etalon, freq):
    """Airy function of a planar etalon, 1 at its transmission peaks."""
    freq = np.asarray(freq, dtype=float)
    coef = (2.0 * etalon.finesse / np.pi) ** 2
    s = np.sin(np.pi * (freq - etalon.center_ghz) / etalon.fsr_ghz)
    return 1.0 / (1.0 + coef * s * s)


def window_weight(freqs, intensity, center=0.0, half=0.5):
    mask = np.abs(np.asarray(freqs) - center) <= half + 1e-12
    return float(simpson(np.asarray(intensity)[mask], x=np.asarray(freqs)[mask]))
