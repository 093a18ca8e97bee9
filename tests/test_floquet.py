"""Bichromatic periodic steady state and its emission spectrum."""

import ast
import inspect
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    balance_dense_solve,
    brute_periodic_state,
    brute_spectrum,
    generator_parts,
    sambe_dense_solve,
    window_weight,
)
from bifluor import bloch, floquet
from bifluor.bloch import mollow_spectrum
from bifluor.dressed import subharmonic_shift
from bifluor.emitter import BichromaticDrive, DriveField, EmitterParams
from bifluor.errors import (
    CoverageError,
    DegenerateDriveError,
    TruncationError,
    TruncationWarning,
)
from bifluor.floquet import (
    build_periodic_liouvillian,
    emission_spectrum,
    periodic_steady_state,
)
from bifluor.scans import degenerate_spectrum, detuning_map, subharmonic_axis

# weight of the incoherent spectrum inside +-0.5 GHz of the drive, frozen
# from the time-propagation oracle on the +-9 GHz, 0.01 GHz grid
WINDOW_WEIGHT_WEAK_ON = 0.015898008435


def steady(emitter, drive):
    pl = build_periodic_liouvillian(emitter, drive)
    return pl, periodic_steady_state(pl)


def test_equal_detunings_are_rejected(emitter, strong):
    drive = BichromaticDrive(strong=strong, weak=DriveField(detuning=0.0, rabi=0.87))
    with pytest.raises(DegenerateDriveError):
        build_periodic_liouvillian(emitter, drive)


def test_steady_state_matches_time_propagation(emitter, drive):
    _, state = steady(emitter, drive)
    l0, lp, lm, delta = generator_parts(390.0, 424.0, 2.9, 0.0, 0.87, -5.8)
    period = 2.0 * np.pi / abs(delta)
    _, dt, path = brute_periodic_state(l0, lp, lm, delta, period, 4096)
    times = np.arange(path.shape[0]) * dt
    rho = state.rho_at(times)
    engine = np.stack([rho[0], rho[2], rho[1], rho[3]], axis=1)
    assert np.abs(engine - path).max() < 1e-7


def test_steady_state_is_physical(emitter, drive):
    _, state = steady(emitter, drive)
    times = np.linspace(0.0, 1.0, 257)
    rho = state.rho_at(times)
    assert np.abs(rho[0] + rho[3] - 1.0).max() < 1e-12
    assert np.abs(rho[1] - np.conj(rho[2])).max() < 1e-12
    assert np.abs(np.imag(rho[0])).max() < 1e-12
    assert rho[3].real.min() > 0.0


def test_harmonic_matrix_reshapes_the_harmonic(emitter, drive):
    _, state = steady(emitter, drive)
    vec = state.harmonic(1)
    mat = state.harmonic_matrix(1)
    assert mat.shape == (2, 2)
    assert mat[0, 0] == vec[0] and mat[1, 1] == vec[3]


def test_weak_field_off_reduces_to_mollow(emitter, strong, fine_grid):
    drive = BichromaticDrive(strong=strong, weak=DriveField(detuning=-5.8, rabi=0.0))
    pl, state = steady(emitter, drive)
    spec = emission_spectrum(pl, state, fine_grid)
    ref = mollow_spectrum(emitter, strong, fine_grid)
    rel = np.linalg.norm(spec.intensity - ref.intensity) / np.linalg.norm(ref.intensity)
    assert rel < 1e-3


def test_spectrum_matches_time_propagation_oracle(emitter, drive):
    grid = np.linspace(-9.0, 9.0, 181)
    pl, state = steady(emitter, drive)
    spec = emission_spectrum(pl, state, grid)
    _, ref = brute_spectrum(390.0, 424.0, 2.9, 0.0, 0.87, -5.8, grid)
    rel = np.linalg.norm(spec.intensity - ref) / np.linalg.norm(ref)
    assert rel < 1e-3


def test_central_window_weight_pinned(emitter, drive, fine_grid):
    pl, state = steady(emitter, drive)
    spec = emission_spectrum(pl, state, fine_grid)
    win = np.abs(fine_grid) <= 0.5 + 1e-12
    weight = window_weight(fine_grid[win], spec.intensity[win])
    assert weight == pytest.approx(WINDOW_WEIGHT_WEAK_ON, rel=1e-4)


def test_grid_must_cover_both_triplets(emitter, drive):
    pl, state = steady(emitter, drive)
    with pytest.raises(CoverageError):
        emission_spectrum(pl, state, np.linspace(-2.0, 2.0, 81))


def test_grid_must_cover_the_detuned_strong_sidebands(emitter):
    # the strong sidebands sit at 4 +- hypot(5.8, 4) = -3.05 and 11.05 GHz,
    # so 2 Omega alone would accept [-4.67, 12.67] with four of the nine
    # secular lines outside it
    drive = random_drive(2.9, 4.0, 0.87, 3.0)
    pl, state = steady(emitter, drive)
    with pytest.raises(CoverageError):
        emission_spectrum(pl, state, np.linspace(-4.67, 12.67, 175))
    emission_spectrum(pl, state, np.linspace(-6.0, 14.0, 201))


def test_one_function_checks_grid_coverage():
    # the Bloch and the Floquet engine share one coverage rule: one
    # function holds its tolerance and raises its CoverageError
    raisers = [
        func.name
        for module in (bloch, floquet)
        for func in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(func, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == "CoverageError" for n in ast.walk(func))
    ]
    assert len(raisers) == 1


def test_cutoff_doubling_leaves_the_spectrum_unchanged(emitter, drive, fine_grid):
    # a steady state solved at four times the cutoff makes the resolvent
    # start at a cutoff four times the steady state's, for the reference
    # drive and for the tiny beat of small_delta
    for drive, grid in ((drive, fine_grid), (small_delta_drive(emitter), WIDE_GRID)):
        pl, state = steady(emitter, drive)
        k = 4 * state.cutoff
        harmonics = floquet._solve_balance(pl, k)
        wide = floquet.PeriodicState(harmonics=harmonics, cutoff=k, delta=pl.delta)
        assert wide.cutoff == 4 * state.cutoff
        base = emission_spectrum(pl, state, grid)
        doubled = emission_spectrum(pl, wide, grid)
        assert doubled.resolvent_cutoff >= k
        rel = np.abs(doubled.intensity - base.intensity).max() / base.intensity.max()
        assert rel < 1e-9
        assert doubled.elastic_weight == pytest.approx(base.elastic_weight, rel=1e-12)


def order5_row():
    """One order-5 row of the reference subharmonic scan: drive and grid."""
    g = 0.5 * np.sqrt(0.359) * 2.9
    d3 = -(2.0 * 2.9 / 5.0 + subharmonic_shift(5, 2.9, 0.359))
    drive = BichromaticDrive(
        strong=DriveField(detuning=0.0, rabi=2.9), weak=DriveField(detuning=d3, rabi=g)
    )
    return drive, np.linspace(-9.0, 9.0, 515)


def test_cutoff_ceiling_warns_and_strict_raises(emitter, monkeypatch):
    drive, grid = order5_row()
    pl, state = steady(emitter, drive)
    monkeypatch.setattr(floquet, "CUTOFF_CEILING", 4)
    with pytest.warns(TruncationWarning, match="harmonic cutoff 4"):
        emission_spectrum(pl, state, grid)
    with pytest.raises(TruncationError) as info, warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        emission_spectrum(pl, state, grid)
    assert info.value.residual > 1e-8


# --- cutoff selection: a ladder on a subsample, the full grid as the gate

WIDE_GRID = np.round(np.arange(-1200, 1201) * 0.01, 2)  # the small_delta grid


def small_delta_drive(emitter):
    """The drive of degenerate_spectrum(..., alpha=0.36, method="small_delta")."""
    lw = emitter.gamma_sp / (2.0 * np.pi)
    return BichromaticDrive(
        strong=DriveField(detuning=0.0, rabi=2.9), weak=DriveField(detuning=lw / 20.0, rabi=0.87)
    )


@pytest.fixture()
def resolvent_calls(monkeypatch):
    """Every spectrum _sambe_resolvent call made during the test, as (pl, nu, cutoff).

    The steady state's calls, those with ``harmonics``, are not listed.
    """
    calls = []
    solve = floquet._sambe_resolvent

    def spy(pl, seed, nu, cutoff, delta=None, harmonics=False):
        if not harmonics:
            calls.append((pl, nu, cutoff))
        return solve(pl, seed, nu, cutoff, delta, harmonics)

    monkeypatch.setattr(floquet, "_sambe_resolvent", spy)
    return calls


def small_delta(emitter, strong):
    return degenerate_spectrum(emitter, strong, 0.36, WIDE_GRID, method="small_delta")


def gate_residual(pl, nu, cutoff):
    """Edge residual of one direct resolvent call on ``nu``."""
    seed = floquet._incoherent_seed(periodic_steady_state(pl), cutoff)
    x0, edge = floquet._sambe_resolvent(pl, seed, nu, cutoff)
    return float(np.max(edge / np.linalg.norm(x0, axis=0).max()))


@pytest.mark.parametrize("case", ["reference", "small_delta"])
def test_one_full_grid_pass_at_the_smallest_passing_cutoff(
    emitter, strong, drive, fine_grid, resolvent_calls, case
):
    if case == "reference":
        pl, state = steady(emitter, drive)
        emission_spectrum(pl, state, fine_grid)
        grid = fine_grid
    else:
        small_delta(emitter, strong)
        grid = WIDE_GRID
    full = [call for call in resolvent_calls if call[1].size == grid.size]
    assert len(full) == 1
    rungs = [k for _pl, nu, k in resolvent_calls if nu.size < grid.size]
    assert len(rungs) > 1  # the ladder climbed on the subsample
    pl, nu, cutoff = full[0]
    assert cutoff == rungs[-1] > periodic_steady_state(pl).cutoff
    assert gate_residual(pl, nu, cutoff) <= 1e-8
    assert gate_residual(pl, nu, rungs[-2]) > 1e-8  # the rung below fails the full grid
    if case == "small_delta":
        assert cutoff < 256  # where doubling stopped


@pytest.mark.parametrize("case", ["reference", "small_delta", "phase_average"])
def test_the_spectrum_carries_its_accepted_cutoff(
    emitter, strong, drive, fine_grid, resolvent_calls, case
):
    if case == "reference":
        pl, state = steady(emitter, drive)
        spec = emission_spectrum(pl, state, fine_grid)
    else:
        spec = degenerate_spectrum(emitter, strong, 0.36, WIDE_GRID, method=case)
    if case == "phase_average":  # a Bloch spectrum: no resolvent
        assert spec.resolvent_cutoff == 0 and resolvent_calls == []
        return
    assert spec.resolvent_cutoff == resolvent_calls[-1][2]  # the full-grid pass
    if case == "reference":
        assert spec.resolvent_cutoff == 12
    else:
        assert spec.resolvent_cutoff < 256


@pytest.mark.parametrize("case", ["spectrum", "map_row"])
def test_a_small_grid_is_solved_once_per_cutoff(emitter, strong, drive, resolvent_calls, case):
    # a grid of at most SUBSAMPLE points is its own subsample: the doubling's
    # last solve is the spectrum, not solved again in a full-grid pass
    grid = np.linspace(-9.0, 9.0, 41)
    if case == "spectrum":
        pl, state = steady(emitter, drive)
        spec = emission_spectrum(pl, state, grid)
    else:
        delta2 = np.array([drive.weak.detuning + 2.0 * strong.rabi])
        spec = detuning_map(emitter, strong, drive.weak.rabi, delta2, grid)
        assert spec.failures == () and list(spec.cutoffs) == [16]
    assert [k for _pl, nu, k in resolvent_calls if nu.size == grid.size] == [8, 16]
    if case == "map_row":
        pl, state = steady(emitter, drive)
        ref = emission_spectrum(pl, state, grid)
        assert np.array_equal(spec.intensity[0], ref.intensity)


def gate_residual(pl, nu, cutoff):
    """The largest edge norm over the largest norm of x_0 on ``nu``: what EDGE_TOL bounds."""
    seed = floquet._incoherent_seed(periodic_steady_state(pl), cutoff)
    x0, edge = floquet._sambe_resolvent(pl, seed, nu, cutoff)
    return edge.max() / np.linalg.norm(x0, axis=0).max()


def test_the_full_grid_gate_decides(emitter, strong, resolvent_calls, monkeypatch):
    # a two-point subsample (the grid ends) picks too small a cutoff; the
    # whole grid then climbs on from it, one 1.5x rung per failed pass, to
    # the same cutoff and the same bits, without choosing on a subsample again
    base = small_delta(emitter, strong)
    monkeypatch.setattr(floquet, "SUBSAMPLE", 2)
    resolvent_calls.clear()
    coarse = small_delta(emitter, strong)
    calls = list(resolvent_calls)
    full = [(pl, nu, k) for pl, nu, k in calls if nu.size == WIDE_GRID.size]
    cutoffs = [k for _pl, _nu, k in full]
    assert len(full) > 1
    assert cutoffs[-1] == coarse.resolvent_cutoff == base.resolvent_cutoff
    assert np.array_equal(coarse.intensity, base.intensity)
    assert all(gate_residual(*call) > 1e-8 for call in full[:-1])
    assert cutoffs[1:] == [k + k // 2 for k in cutoffs[:-1]]
    first = [nu.size for _pl, nu, _k in calls].index(WIDE_GRID.size)
    assert all(nu.size == WIDE_GRID.size for _pl, nu, _k in calls[first:])


def test_resolvent_memory_does_not_grow_with_the_cutoff(emitter):
    pl, state = steady(emitter, small_delta_drive(emitter))
    nu = 2.0 * np.pi * WIDE_GRID
    peaks = {}
    for cutoff in (16, 256):
        seed = floquet._incoherent_seed(state, cutoff)
        tracemalloc.start()
        try:
            floquet._sambe_resolvent(pl, seed, nu, cutoff)
            peaks[cutoff] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[256] < 2.0 * peaks[16]


# --- invariants of the resolvent engine, over emitter and drive parameters

lifetimes = st.tuples(st.floats(200.0, 1000.0), st.floats(0.3, 1.0)).map(
    lambda t: (t[0], t[1] * 2.0 * t[0])
)


def random_drive(rabi, d1, weak_rabi, beat, phase=0.0):
    return BichromaticDrive(
        strong=DriveField(detuning=d1, rabi=rabi),
        weak=DriveField(detuning=d1 + beat, rabi=weak_rabi),
        relative_phase=phase,
    )


def covering_grid(emitter, drive, points=241):
    """Grid symmetric about zero that covers every line of ``drive``."""
    lw = 1.0 / (2.0 * np.pi * emitter.t2_ns)
    span = max(2.0 * drive.strong.rabi, abs(drive.delta))
    half = abs(drive.strong.detuning) + span + 2.0 * drive.weak.rabi + 3.0 * lw + 0.5
    return np.linspace(-half, half, points)


def spectrum_of(emitter, drive, grid):
    pl, state = steady(emitter, drive)
    return emission_spectrum(pl, state, grid)


drives = st.tuples(
    st.floats(1.0, 4.0),  # strong half splitting Omega
    st.floats(-1.5, 1.5),  # Delta1
    st.floats(0.1, 1.0),  # weak half splitting G
    st.floats(1.0, 8.0) | st.floats(-8.0, -1.0),  # beat Delta3 - Delta1
)


@settings(max_examples=25, deadline=None)
@given(lifetimes, drives, st.floats(0.0, 6.2))
def test_the_couplings_have_the_sparsity_the_sweep_uses(times, params, phase):
    pl = build_periodic_liouvillian(EmitterParams(*times), random_drive(*params, phase=phase))
    l0, lp, lm = floquet._traceless(pl)
    eg, ge, ee = range(3)
    assert (floquet._S, floquet._F, floquet._H) == (eg, ge, ee)
    assert set(zip(*np.nonzero(lp))) == {(ge, ee), (ee, eg)}
    assert set(zip(*np.nonzero(lm))) == {(eg, ee), (ee, ge)}
    swap = np.ix_([ge, eg, ee], [ge, eg, ee])  # Pi
    assert np.array_equal(lm[swap] != 0.0, lp != 0.0)
    assert l0[eg, ge] == 0.0 and l0[ge, eg] == 0.0


@settings(max_examples=25, deadline=None)
@given(
    lifetimes,
    st.floats(1.0, 4.0),
    st.floats(0.2, 1.5) | st.floats(-1.5, -0.2),  # Delta1 != 0
    st.floats(0.1, 1.0),
    st.floats(1.0, 8.0) | st.floats(-8.0, -1.0),
    st.floats(0.1, 6.2),  # relative phase != 0
    st.sampled_from([1, 2, 16]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_resolvent_matches_a_dense_solve(
    times, rabi, d1, weak_rabi, beat, phase, cutoff, key, harmonics
):
    em = EmitterParams(*times)
    pl = build_periodic_liouvillian(em, random_drive(rabi, d1, weak_rabi, beat, phase))
    parts = generator_parts(*times, rabi, d1, weak_rabi, d1 + beat, phase)
    rng = np.random.default_rng(key)
    # exactly on nu = -k delta, where only the traceless blocks stay regular, and off it
    nu = np.concatenate([-np.arange(-2, 3) * pl.delta, rng.uniform(-60.0, 60.0, 3)])
    orders = np.arange(-cutoff, cutoff + 1)[:, None]
    full = rng.standard_normal((orders.size, 3)) + 1j * rng.standard_normal((orders.size, 3))
    # a seed on one half only makes that half's edge harmonic the larger one
    for seed in (full, full * (orders <= 0), full * (orders >= 0)):
        eg, ge, ee = seed.T  # row-major (gg, ge, eg, ee), gg = -ee
        dense = sambe_dense_solve(*parts, np.stack([-ee, ge, eg, ee], axis=1), nu)
        ref = dense[:, :, [2, 1, 3]]  # (eg, ge, ee) of every harmonic
        if harmonics:  # every x_k, back-substituted outward from x_0
            xs = floquet._sambe_resolvent(pl, seed, nu, cutoff, harmonics=True)
            assert xs.shape == (orders.size, 3, nu.size)
            assert np.abs(xs.transpose(2, 0, 1) - ref).max() <= 1e-12 * np.abs(ref).max()
            continue
        x0, edge = floquet._sambe_resolvent(pl, seed, nu, cutoff)
        scale = np.abs(ref[:, cutoff]).max()
        assert np.abs(x0.T - ref[:, cutoff]).max() <= 1e-12 * scale
        norms = np.linalg.norm(ref, axis=2)
        ref_edge = np.maximum(norms[:, 0], norms[:, -1]) / norms[:, cutoff].max()
        assert np.abs(edge / norms[:, cutoff].max() - ref_edge).max() <= 1e-12


beats = st.floats(1.0, 8.0) | st.floats(-8.0, -1.0)


@settings(max_examples=25, deadline=None)
@given(
    lifetimes, drives, st.floats(0.0, 6.2), st.sampled_from([1, 2, 16]), st.lists(beats, max_size=4)
)
def test_steady_state_matches_a_dense_solve(times, params, phase, cutoff, more_beats):
    rabi, d1, weak_rabi, beat = params
    em = EmitterParams(*times)
    pl = build_periodic_liouvillian(em, random_drive(*params, phase=phase))
    parts = generator_parts(*times, rabi, d1, weak_rabi, d1 + beat, phase)
    harm = floquet._solve_balance(pl, cutoff)
    assert harm.shape == (2 * cutoff + 1, 4)
    ref = balance_dense_solve(*parts, cutoff)[:, [0, 2, 1, 3]]  # row-major to column-stacked
    assert np.abs(harm - ref).max() <= 1e-12 * np.linalg.norm(ref[cutoff])
    # drives that differ in the beat only: one batched solve, one doubling loop
    pls = [pl] + [
        build_periodic_liouvillian(em, random_drive(rabi, d1, weak_rabi, b, phase))
        for b in more_beats
    ]
    batch = floquet._solve_balance(pl, cutoff, np.array([p.delta for p in pls]))
    for j, p in enumerate(pls):
        one = floquet._solve_balance(p, cutoff)
        assert np.abs(batch[..., j] - one).max() <= 1e-14 * np.linalg.norm(one[cutoff])
    for p, state in zip(pls, floquet._steady_states(pls)):
        alone = periodic_steady_state(p)
        assert state.cutoff == alone.cutoff and state.delta == p.delta
        assert np.abs(state.harmonics - alone.harmonics).max() <= 1e-14 * np.linalg.norm(
            alone.harmonic(0)
        )


def test_each_drive_unconverged_at_the_ceiling_gets_its_own_error(emitter, monkeypatch):
    # the reference scan's rows converge at cutoffs 8 and 16, so a ceiling
    # of 8 splits one batch into accepted states and errors
    g = 0.5 * np.sqrt(0.359) * 2.9
    axis = subharmonic_axis(2.9)
    pls = [build_periodic_liouvillian(emitter, random_drive(2.9, 0.0, g, d3)) for d3 in axis]
    cutoffs = [state.cutoff for state in floquet._steady_states(pls)]
    assert 8 in cutoffs and max(cutoffs) > 8
    monkeypatch.setattr(floquet, "_STEADY_CEILING", 8)
    for pl, cutoff, state in zip(pls, cutoffs, floquet._steady_states(pls)):
        if cutoff == 8:
            assert isinstance(state, floquet.PeriodicState) and state.cutoff == 8
        else:
            assert isinstance(state, TruncationError) and state.residual > floquet.EDGE_TOL
            with pytest.raises(TruncationError, match="cutoff 8"):
                periodic_steady_state(pl)


@settings(max_examples=25, deadline=None)
@given(lifetimes, drives, st.floats(0.1, 6.2))
def test_spectrum_does_not_depend_on_relative_phase(times, params, phase):
    em = EmitterParams(*times)
    base = random_drive(*params)
    grid = covering_grid(em, base)
    ref = spectrum_of(em, base, grid)
    turned = spectrum_of(em, random_drive(*params, phase=phase), grid)
    assert np.abs(turned.intensity - ref.intensity).max() <= 1e-10 * ref.intensity.max()
    assert turned.elastic_weight == pytest.approx(ref.elastic_weight, rel=1e-10, abs=1e-15)


@settings(max_examples=25, deadline=None)
@given(lifetimes, drives)
def test_flipping_both_detunings_mirrors_the_spectrum(times, params):
    em = EmitterParams(*times)
    rabi, d1, weak_rabi, beat = params
    drive = random_drive(rabi, d1, weak_rabi, beat)
    grid = covering_grid(em, drive)
    ref = spectrum_of(em, drive, grid)
    flipped = spectrum_of(em, random_drive(rabi, -d1, weak_rabi, -beat), grid)
    mirrored = flipped.intensity[::-1]
    assert np.abs(mirrored - ref.intensity).max() <= 1e-10 * ref.intensity.max()
    assert flipped.elastic_weight == pytest.approx(ref.elastic_weight, rel=1e-10, abs=1e-15)


@settings(max_examples=25, deadline=None)
@given(lifetimes, drives)
def test_swapping_the_roles_of_the_lasers_leaves_the_spectrum(times, params):
    # strong Omega at Delta1 and weak G at Delta3 are weak Omega / 2 at Delta1 and
    # strong 2 G at Delta3: the same fields, seen from the other laser's frame
    em = EmitterParams(*times)
    rabi, d1, weak_rabi, beat = params
    drive = random_drive(rabi, d1, weak_rabi, beat)
    swapped = random_drive(2.0 * weak_rabi, d1 + beat, 0.5 * rabi, -beat)
    reach = max(abs(d.strong.detuning) + np.hypot(2.0 * d.strong.rabi, d.strong.detuning)
                + 2.0 * d.weak.rabi for d in (drive, swapped))
    half = reach + abs(beat) + 3.0 / (2.0 * np.pi * em.t2_ns) + 0.5
    grid = np.linspace(-half, half, 481)
    # the two frames truncate differently, each within EDGE_TOL: tightened
    # here, so the comparison sees the identity, not the two truncations
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floquet, "EDGE_TOL", 1e-13)
        ref, turned = spectrum_of(em, drive, grid), spectrum_of(em, swapped, grid)
    assert np.abs(turned.intensity - ref.intensity).max() <= 1e-12 * ref.intensity.max()
    # elastic lines by their order m, at Delta1 + m (Delta3 - Delta1).  A weight
    # |s_m|^2 with |s_m| <= 1/2 moves by at most the roundoff of s_m, and the
    # steady state's roundoff is a few ulps of its unit trace: that is the floor
    lines = [{round((f - d1) / beat): w for f, w in s.elastic_lines} for s in (ref, turned)]
    top = max(lines[0].values())
    floor = 4.0 * np.finfo(float).eps
    for m in lines[0].keys() | lines[1].keys():
        assert abs(lines[0].get(m, 0.0) - lines[1].get(m, 0.0)) <= 1e-12 * top + floor
    for f, _w in turned.elastic_lines:
        assert abs((f - d1) / beat - round((f - d1) / beat)) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(st.floats(200.0, 800.0), st.floats(0.3, 2.0)).map(lambda t: (t[0], t[1] * t[0])),
    st.floats(-2.0, 2.0),  # Delta1
    st.floats(0.5, 6.0) | st.floats(-6.0, -0.5),  # beat Delta3 - Delta1
    st.floats(0.0, 6.2),
)
def test_the_spectrum_is_never_negative(times, d1, beat, phase):
    # a power spectrum: any dip below zero is truncation error, which EDGE_TOL bounds
    em = EmitterParams(*times)
    drive = random_drive(2.9, d1, 0.87, beat, phase)
    spec = spectrum_of(em, drive, np.linspace(-20.0, 20.0, 4001))
    assert spec.intensity.min() >= -floquet.EDGE_TOL * spec.intensity.max()


@settings(max_examples=25, deadline=None)
@given(
    lifetimes,
    st.floats(0.5, 5.0),
    st.floats(-2.0, 2.0),
    st.floats(0.5, 6.0) | st.floats(-6.0, -0.5),
)
def test_weak_field_off_equals_the_bloch_spectrum(times, rabi, d1, beat):
    em = EmitterParams(*times)
    strong = DriveField(detuning=d1, rabi=rabi)
    drive = BichromaticDrive(strong=strong, weak=DriveField(detuning=d1 + beat, rabi=0.0))
    lw = 1.0 / (2.0 * np.pi * em.t2_ns)
    grid = np.linspace(-1.0, 1.0, 201) * (np.hypot(2.0 * rabi, d1) + 6.0 * lw) + d1
    spec = spectrum_of(em, drive, grid)
    ref = mollow_spectrum(em, strong, grid)
    assert np.abs(spec.intensity - ref.intensity).max() <= 1e-10 * ref.intensity.max()
    assert spec.elastic_weight == pytest.approx(ref.elastic_weight, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.floats(-7.0, -1.0), st.floats(0.2, 1.0))
@example(d3=-(1.16 + subharmonic_shift(5, 2.9, 0.359)), weak_rabi=0.5 * np.sqrt(0.359) * 2.9)
def test_elastic_weight_is_the_beat_averaged_coherence(d3, weak_rabi):
    # order-5 rows carry coherence harmonics far beyond |m| = 4
    em = EmitterParams(t1=390.0, t2=424.0)
    drive = random_drive(2.9, 0.0, weak_rabi, d3)
    pl, state = steady(em, drive)
    spec = emission_spectrum(pl, state, covering_grid(em, drive))
    samples = 4 * state.cutoff + 1
    times = np.arange(samples) * (2.0 * np.pi / abs(pl.delta)) / samples
    coherence = state.rho_at(times)[1]  # <sigma->(t) = rho_eg(t)
    assert spec.elastic_weight == pytest.approx(np.mean(np.abs(coherence) ** 2), rel=1e-12)
    assert sum(w for _f, w in spec.elastic_lines) == pytest.approx(spec.elastic_weight, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(lifetimes, drives, st.floats(0.0, 6.2))
def test_steady_state_solves_the_full_balance_equations(times, params, phase):
    # the solve runs in traceless coordinates; check all four rows, trace row included
    pl, state = steady(EmitterParams(*times), random_drive(*params, phase=phase))
    c, rho = state.cutoff, state.harmonics
    k = np.arange(1 - c, c)[:, None]
    resid = rho[1:-1] @ pl.l0.T - 1j * k * pl.delta * rho[1:-1]
    resid += rho[:-2] @ pl.lp.T + rho[2:] @ pl.lm.T
    rho0 = state.harmonic(0)
    scale = np.linalg.norm(pl.l0, 2) * np.linalg.norm(rho0)
    assert np.abs(resid).max() <= 1e-12 * scale
    assert rho0[0] + rho0[3] == pytest.approx(1.0, abs=1e-14)
    for m in range(c + 1):
        adjoint = state.harmonic_matrix(m).conj().T
        assert np.abs(state.harmonic_matrix(-m) - adjoint).max() <= 1e-12 * np.linalg.norm(rho0)
