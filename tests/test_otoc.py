"""OTOC engine checks: trace/W-route agreement, estimator limits, initial states."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from charge_oracles import charge_map
from fock_oracles import complete_fock_basis
from ladderxx import core, otoc
from ladderxx.core import (
    LadderParams,
    SectorBasis,
    bit_position,
    build_hamiltonian,
    derive_seed,
    diagonalize,
    diagonalize_sectors,
    sample_disorder,
    sigma_z_operator,
)
from ladderxx.fits import ErrorSignal, FitResult
from ladderxx.otoc import (
    InitialState,
    OtocSeries,
    default_decay_times,
    default_lightcone_times,
    exact_otoc,
    fock_state,
    haar_state,
    multi_distance_otoc_values,
    sampled_otoc,
)
from ladderxx.wavefront import WavefrontGrid


def make_eig(L, alpha=1.0, h=1.0, seed=1, independent_legs=False):
    params = LadderParams(L=L, alpha=alpha, h=h)
    basis = SectorBasis(L)
    dis = sample_disorder(params, seed, independent_legs=independent_legs)
    return basis, diagonalize(build_hamiltonian(params, dis, basis))


def make_sector_eig(L, alpha=1.0, h=1.0, seed=1):
    """The basis, and one realization's full and charge-sector eigensystems."""
    params = LadderParams(L=L, alpha=alpha, h=h)
    basis = SectorBasis(L)
    H = build_hamiltonian(params, sample_disorder(params, seed), basis)
    return basis, diagonalize(H), diagonalize_sectors(H)


def identity_sectors(basis):
    """A ChargeEigenSystem with V_q = 1 and E_q = 0: enough for the block layout."""
    charges, counts = np.unique(basis.charge_labels.charge, return_counts=True)
    return core.ChargeEigenSystem(
        basis, {int(q): (np.zeros(m), np.eye(m)) for q, m in zip(charges, counts)}
    )


def expm_otoc(H, d_i, d_1, t):
    """Fully independent reference: Pade matrix exponential, dense products."""
    n = H.shape[0]
    U = scipy.linalg.expm(-1j * H * t)
    X = U.conj().T @ np.diag(d_i) @ U
    return (np.trace(X @ np.diag(d_1) @ X @ np.diag(d_1)) / n).real


def heisenberg_reference(eig, op_i, op_1, states, times):
    """Reference for `sampled_otoc`: F_j(t) = <psi_j| A sz_1 A sz_1 |psi_j> with
    A = U+(t) sz_i U(t) applied to the state block in the computational basis,
    by four eigenbasis round trips per time step."""
    V, E = eig.eigenvectors, eig.eigenvalues
    d_i, d_1 = op_i[:, None], op_1[:, None]
    psi = np.stack([s.amplitudes for s in states], axis=1)
    out = np.empty((len(states), len(times)), dtype=complex)
    for k, t in enumerate(times):
        w = np.exp(-1j * E * t)[:, None]

        def heisenberg_apply(x):
            c = (V.T @ x) * w
            y = (V @ c) * d_i
            c = (V.T @ y) * w.conj()
            return V @ c

        x = heisenberg_apply(d_1 * psi)
        x = heisenberg_apply(d_1 * x)
        out[:, k] = np.sum(psi.conj() * x, axis=0)
    return out


def full_row_reference(eig, probe_ops, op_1, times):
    """Reference for `multi_distance_otoc_values`: all N rows of
    W(t) = 2 G G^dagger - 1 with G = V (exp(-i E t) * V[up, :]^T), S = [Re G, Im G],
    Re W = 2 S S^T - 1 and Im W = 2 (X - X^T) with X = Im G Re G^T, and
    F_i = (1/N) sum_ab (d_i)_a (d_i)_b |W_ab|^2 without the chiral mirror."""
    V, E, n = eig.eigenvectors, eig.eigenvalues, eig.dim
    D = np.asarray(probe_ops, dtype=float)
    V_up = V[op_1 > 0, :].T
    m = V_up.shape[1]
    eye = np.eye(n)
    values = np.empty((D.shape[0], len(times)))
    defect = 0.0
    for k, t in enumerate(times):
        C = np.exp(-1j * E * t)[:, None] * V_up
        S = V @ np.concatenate([C.real, C.imag], axis=1)
        W_re = 2.0 * (S @ S.T) - eye
        X = S[:, m:] @ S[:, :m].T
        W_im = 2.0 * (X - X.T)
        Q = W_re * W_re + W_im * W_im
        defect = max(defect, abs(Q.sum() / n - 1.0))
        values[:, k] = np.sum((D @ Q) * D, axis=1) / n
    return values, defect


# Frozen values from the expm reference above (L=3 pairs, run once and pinned).
CLEAN_L3_PAIRS = [(0.5, 0.5244233693482946), (1.0, 0.05849352530825291), (2.0, 0.1202365012722026)]
DISORDERED_L3_PAIRS = [(1.0, 0.12359971276563511), (3.0, 0.14010586527361787)]


# ---------------------------------------------------------------- exact

def test_exact_otoc_equals_one_at_t0():
    basis, eig = make_eig(3)
    series = exact_otoc(
        eig, sigma_z_operator(basis, 1, 3), sigma_z_operator(basis, 1, 1), [0.0]
    )
    assert abs(series.values[0] - 1.0) < 1e-10


def test_exact_otoc_same_site_at_t0():
    basis, eig = make_eig(3)
    d = sigma_z_operator(basis, 1, 1)
    series = exact_otoc(eig, d, d, [0.0])
    assert abs(series.values[0] - 1.0) < 1e-10


def test_exact_otoc_frozen_clean_values():
    params = LadderParams(L=3, alpha=1.0, h=0.0)
    basis = SectorBasis(3)
    eig = diagonalize(build_hamiltonian(params, sample_disorder(params, 0), basis))
    d_i = sigma_z_operator(basis, 1, 3)
    d_1 = sigma_z_operator(basis, 1, 1)
    times = [t for t, _ in CLEAN_L3_PAIRS]
    series = exact_otoc(eig, d_i, d_1, times)
    for (t, expected), got in zip(CLEAN_L3_PAIRS, series.values):
        assert abs(got.real - expected) < 1e-9, f"t={t}"
    assert series.meta["defect"] < 1e-12


def test_exact_otoc_frozen_disordered_values():
    params = LadderParams(L=3, alpha=0.7, h=1.5)
    basis = SectorBasis(3)
    eig = diagonalize(build_hamiltonian(params, sample_disorder(params, 42), basis))
    d_i = sigma_z_operator(basis, 2, 2)
    d_1 = sigma_z_operator(basis, 1, 1)
    series = exact_otoc(eig, d_i, d_1, [t for t, _ in DISORDERED_L3_PAIRS])
    for (t, expected), got in zip(DISORDERED_L3_PAIRS, series.values):
        assert abs(got.real - expected) < 1e-9, f"t={t}"


def test_exact_otoc_matches_expm_reference():
    params = LadderParams(L=4, alpha=1.3, h=2.0)
    basis = SectorBasis(4)
    H = build_hamiltonian(params, sample_disorder(params, 8), basis)
    eig = diagonalize(H)
    d_i = sigma_z_operator(basis, 2, 3)
    d_1 = sigma_z_operator(basis, 1, 1)
    for t in (0.7, 2.2):
        series = exact_otoc(eig, d_i, d_1, [t])
        assert abs(series.values[0].real - expm_otoc(H.dense(), d_i, d_1, t)) < 1e-9


def test_exact_otoc_is_real_and_bounded():
    basis, eig = make_eig(4, h=1.0, seed=5)
    series = exact_otoc(
        eig,
        sigma_z_operator(basis, 1, 4),
        sigma_z_operator(basis, 1, 1),
        default_decay_times(30),
    )
    assert np.max(np.abs(series.values.imag)) <= 1e-10
    assert np.max(np.abs(series.values)) <= 1.0 + 1e-9


@settings(max_examples=20, deadline=None)
@given(
    L=st.integers(min_value=2, max_value=4),
    alpha=st.floats(min_value=0.0, max_value=3.0),
    h=st.floats(min_value=0.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_exact_otoc_is_bounded_and_one_at_t0(L, alpha, h, seed):
    basis, eig, sectors = make_sector_eig(L, alpha=alpha, h=h, seed=seed)
    times = np.concatenate([[0.0], default_decay_times(12)])
    d_i, d_1 = sigma_z_operator(basis, 1, L), sigma_z_operator(basis, 1, 1)
    series = exact_otoc(eig, d_i, d_1, times)
    assert abs(series.values[0] - 1.0) <= 1e-12
    assert np.all(np.abs(series.values) <= 1.0 + 1e-12)
    assert np.all(series.values.real >= -1.0 - 1e-12)
    w_values, _ = multi_distance_otoc_values(sectors, d_i[None, :], d_1, times)
    assert np.max(np.abs(series.values - w_values[0])) <= 1e-10


def test_exact_otoc_raises_on_a_perturbed_eigensystem():
    basis, eig = make_eig(5, h=4.0, seed=5)
    noise = 1e-7 * np.random.default_rng(0).standard_normal(eig.eigenvectors.shape)
    perturbed = core.EigenSystem(eig.eigenvalues, eig.eigenvectors + noise)
    d_i, d_1 = sigma_z_operator(basis, 1, 5), sigma_z_operator(basis, 1, 1)
    times = default_decay_times(10)
    assert exact_otoc(eig, d_i, d_1, times).meta["defect"] < 1e-12
    with pytest.raises(RuntimeError, match="defect"):
        exact_otoc(perturbed, d_i, d_1, times)


def perturbed(eig):
    """eig with 1e-7 Gaussian noise on its eigenvectors (every sector block)."""
    rng = np.random.default_rng(0)
    if isinstance(eig, core.ChargeEigenSystem):
        noisy = {q: (E, V + 1e-7 * rng.standard_normal(V.shape)) for q, (E, V) in eig.sectors.items()}
        return core.ChargeEigenSystem(eig.basis, noisy)
    noise = 1e-7 * rng.standard_normal(eig.eigenvectors.shape)
    return core.EigenSystem(eig.eigenvalues, eig.eigenvectors + noise)


@pytest.mark.parametrize("route", ["exact", "w-sectors", "sampled"])
def test_every_route_names_non_orthonormal_eigenvectors(route):
    # Before, the W-route blamed the chiral mirror and sampled_otoc returned
    # values without an error.
    basis, dense, sectors = make_sector_eig(5, h=4.0, seed=5)
    d_i, d_1 = sigma_z_operator(basis, 1, 5), sigma_z_operator(basis, 1, 1)
    times = default_decay_times(10)
    states = [haar_state(basis, 0), fock_state(basis, 1)]
    call = {
        "exact": lambda eig: exact_otoc(eig, d_i, d_1, times),
        "w-sectors": lambda eig: multi_distance_otoc_values(eig, d_i[None, :], d_1, times),
        "sampled": lambda eig: sampled_otoc(eig, d_i, d_1, states, times),
    }[route]
    eig = sectors if route == "w-sectors" else dense
    call(eig)
    with pytest.raises(RuntimeError, match="the eigenvectors are not orthonormal enough"):
        call(perturbed(eig))


@pytest.mark.parametrize("name", ["exact_otoc", "sampled_otoc"])
def test_full_eigensystem_routes_refuse_a_charge_eigensystem(name, monkeypatch):
    basis, _, sectors = make_sector_eig(3)
    d_i, d_1 = sigma_z_operator(basis, 1, 3), sigma_z_operator(basis, 1, 1)
    state = haar_state(basis, 0)

    def no_rotation(*args):
        pytest.fail("an operator was rotated before the eigensystem was checked")

    monkeypatch.setattr(otoc, "_eigenbasis_diagonal", no_rotation)
    call = {
        "exact_otoc": lambda: exact_otoc(sectors, d_i, d_1, [0.0, 1.0]),
        "sampled_otoc": lambda: sampled_otoc(sectors, d_i, d_1, [state], [0.0, 1.0]),
    }[name]
    with pytest.raises(TypeError, match=f"{name} needs the full EigenSystem of diagonalize"):
        call()


def test_w_route_refuses_a_full_eigensystem(monkeypatch):
    # The W-route runs on charge sectors only; a ladder with independent
    # legs has none, and its full eigensystem is refused before any work.
    basis, eig = make_eig(3, independent_legs=True)
    d_i, d_1 = sigma_z_operator(basis, 1, 3), sigma_z_operator(basis, 1, 1)

    def no_memory_check(*args):
        pytest.fail("the W-route checked its memory before its eigensystem")

    monkeypatch.setattr(otoc, "check_memory", no_memory_check)
    with pytest.raises(TypeError, match="needs the ChargeEigenSystem of diagonalize_sectors"):
        multi_distance_otoc_values(eig, d_i[None, :], d_1, [0.0, 1.0])


def test_exact_otoc_makes_no_w_route_call(monkeypatch):
    basis, eig = make_eig(3, seed=6)

    def no_w_route(*args):
        pytest.fail("exact_otoc called the W-route")

    monkeypatch.setattr(otoc, "multi_distance_otoc_values", no_w_route)
    series = exact_otoc(
        eig, sigma_z_operator(basis, 1, 3), sigma_z_operator(basis, 1, 1), [0.0, 1.0]
    )
    assert series.meta["defect"] < 1e-12


def test_exact_otoc_rejects_wrong_dimension():
    basis, eig = make_eig(3)
    with pytest.raises(ValueError):
        exact_otoc(eig, np.ones(7), sigma_z_operator(basis, 1, 1), [0.0])


def trace_route_reference(eig, op_i, op_1, times):
    """The trace route of `exact_otoc` with a fresh complex temporary for every
    intermediate of every step: the same ufuncs and GEMMs in the same order."""
    V, E, n = eig.eigenvectors, eig.eigenvalues, eig.dim
    A = V.T @ (op_i[:, None] * V)
    B = V.T @ (op_1[:, None] * V)
    values = np.empty(len(times), dtype=complex)
    for k, t in enumerate(times):
        u = np.exp(1j * E * t)
        At = (u[:, None] * A) * u.conj()[None, :]
        P = At.real @ B + 1j * (At.imag @ B)
        values[k] = np.sum(P * P.T) / n
    return values


@pytest.mark.parametrize("L,h,seed", [(2, 1.0, 7), (3, 8.0, 6), (4, 1.0, 5), (5, 2.0, 4), (6, 4.0, 3)])
def test_exact_otoc_is_bitwise_the_unbuffered_trace_route(L, h, seed):
    basis, eig = make_eig(L, h=h, seed=seed)
    d_i, d_1 = sigma_z_operator(basis, 1, L), sigma_z_operator(basis, 1, 1)
    times = np.concatenate([[0.0], default_decay_times()])
    got = exact_otoc(eig, d_i, d_1, times).values
    want = trace_route_reference(eig, d_i, d_1, times)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def nan_poisoned(eig):
    if isinstance(eig, core.ChargeEigenSystem):
        q = max(eig.sectors, key=lambda q: eig.sectors[q][0].size)
        E, V = eig.sectors[q]
        V = V.copy()
        V[3, 5] = np.nan
        return core.ChargeEigenSystem(eig.basis, {**eig.sectors, q: (E, V)})
    V = eig.eigenvectors.copy()
    V[3, 5] = np.nan
    return core.EigenSystem(eig.eigenvalues, V)


def test_exact_otoc_raises_on_a_nan_eigensystem():
    basis, eig = make_eig(3, seed=6)
    d_i, d_1 = sigma_z_operator(basis, 1, 3), sigma_z_operator(basis, 1, 1)
    with pytest.raises(RuntimeError, match="defect .* reached nan"):
        exact_otoc(nan_poisoned(eig), d_i, d_1, [0.5, 1.0])


def peak_and_estimate(monkeypatch, call):
    """The tracemalloc peak of call() and the bytes its one memory check asked for."""
    estimates = []

    def recording_check(caller, n, copies, fixed_bytes=0):
        estimates.append(copies * 8 * n * n + fixed_bytes)

    monkeypatch.setattr(otoc, "check_memory", recording_check)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == 1
    return peak, estimates[0]


def warm_memo(eig, basis):
    """Rotate two operators that the OTOC under test does not use into eig's memo."""
    for site in (2, 3):
        otoc._eigenbasis_diagonal(eig, sigma_z_operator(basis, 2, site))


def assert_peak_within_held_estimate(monkeypatch, basis, eig, copies, call, warm=False, fixed=0):
    """The memory check asks for copies and fixed bytes plus what eig holds:
    V, allocated before tracing starts, and the memo's entries for other
    operators, here rotated under tracing when warm. The traced peak stays
    below all but V."""
    one = 8 * basis.dim**2

    def warmed_call():
        if warm:
            warm_memo(eig, basis)
        call()

    peak, estimate = peak_and_estimate(monkeypatch, warmed_call)
    held = 1.0 + 2 * warm
    assert estimate == pytest.approx((copies + held) * one + fixed)
    assert peak < (copies + held - 1.0) * one + fixed


@pytest.mark.parametrize("L", [5, 6])
def test_exact_peak_memory_stays_below_its_estimate(L, monkeypatch):
    basis, eig = make_eig(L, h=4.0, seed=3)
    d_i, d_1 = sigma_z_operator(basis, 1, L), sigma_z_operator(basis, 1, 1)
    assert_peak_within_held_estimate(
        monkeypatch, basis, eig, otoc.EXACT_COPIES,
        lambda: exact_otoc(eig, d_i, d_1, default_decay_times()), fixed=otoc.FIXED_BYTES,
    )


@pytest.mark.parametrize("route", ["exact", "sampled"])
@pytest.mark.parametrize("L", [5, 6])
def test_peak_memory_with_a_warm_memo_stays_below_its_estimate(L, route, monkeypatch):
    # Two other operators' rotations stay in the memo while a call rotates
    # its own: at L = 6 sampled_otoc's traced peak rises by about one copy.
    basis, eig = make_eig(L, h=4.0, seed=3)
    d_i, d_1 = sigma_z_operator(basis, 1, L), sigma_z_operator(basis, 1, 1)
    times = default_decay_times()
    copies, fixed, call = {
        "exact": (otoc.EXACT_COPIES, otoc.FIXED_BYTES, lambda: exact_otoc(eig, d_i, d_1, times)),
        "sampled": (
            max(otoc.SAMPLED_COPIES, 2 + (otoc.SAMPLED_COPIES_PER_STATE + 2) * times.size / basis.dim),
            0,
            lambda: sampled_otoc(eig, d_i, d_1, [haar_state(basis, 0)], times),
        ),
    }[route]
    assert_peak_within_held_estimate(monkeypatch, basis, eig, copies, call, warm=True, fixed=fixed)


@pytest.mark.parametrize("L", [5, 6])
def test_sampled_peak_memory_after_exact_otoc_counts_the_memo_once(L, monkeypatch):
    # decay's order: the exact OTOC leaves A~ and B~ in the memo, and the
    # sampled estimators of the same pair rotate nothing.
    basis, eig = make_eig(L, h=4.0, seed=3)
    d_i, d_1 = sigma_z_operator(basis, 1, L), sigma_z_operator(basis, 1, 1)
    times = default_decay_times()
    exact_otoc(eig, d_i, d_1, times)
    M = 64
    states = [haar_state(basis, j) for j in range(M)]
    steps = max(1, min(times.size, otoc._CHUNK_COLUMNS // (4 * M)))
    copies = max(
        otoc.SAMPLED_COPIES, 2 + (otoc.SAMPLED_COPIES_PER_STATE * M + 2) * steps / basis.dim
    )
    one = 8 * basis.dim**2
    peak, estimate = peak_and_estimate(monkeypatch, lambda: sampled_otoc(eig, d_i, d_1, states, times))
    # The constant counts A~ and B~, so the check adds V alone: two copies
    # fewer than counting the memo's entries again.
    memo = len(eig._rotated)
    assert memo == 2
    assert estimate == pytest.approx((copies + 1.0) * one)
    assert estimate < (copies + 1.0 + memo) * one
    # V, A~ and B~, allocated before tracing starts, and the traced peak.
    assert peak + (1.0 + memo) * one < estimate


def test_each_operator_is_rotated_once_per_eigensystem():
    class CountingVectors(np.ndarray):
        """Eigenvectors that count the N x N by N x N products taken with them."""

        products = 0

        def __matmul__(self, other):
            a, b = self.view(np.ndarray), np.asarray(other)
            if a.shape == b.shape == (a.shape[0], a.shape[0]):
                CountingVectors.products += 1
            return a @ b

    def counted(eig):
        return core.EigenSystem(eig.eigenvalues, eig.eigenvectors.view(CountingVectors))

    basis, eig = make_eig(4, h=4.0, seed=3)
    d_i, d_1 = sigma_z_operator(basis, 1, 4), sigma_z_operator(basis, 1, 1)
    times = default_decay_times(10)
    first = counted(eig)
    # One decay study: the exact OTOC, then Haar and Fock estimators at four M.
    exact_otoc(first, d_i, d_1, times)
    for draw in (haar_state, fock_state):
        for M in (1, 4, 16, 64):
            sampled_otoc(first, d_i, d_1, [draw(basis, j) for j in range(M)], times)
    assert CountingVectors.products == 2
    assert len(first._rotated) == 2
    for rotated in first._rotated.values():
        assert not rotated.flags.writeable
        with pytest.raises(ValueError):
            rotated[0, 0] = 0.0
    # A new diagonal misses and evicts the least recently used one, d_i.
    d_3 = sigma_z_operator(basis, 2, 2)
    sampled_otoc(first, d_3, d_1, [haar_state(basis, 0)], times)
    assert CountingVectors.products == 3
    assert list(first._rotated) == [d_3.tobytes(), d_1.tobytes()]
    sampled_otoc(first, d_3, d_1, [haar_state(basis, 0)], times)
    assert CountingVectors.products == 3
    # Another eigensystem, even over the same arrays, rotates anew.
    second = counted(eig)
    exact_otoc(second, d_i, d_1, times)
    assert CountingVectors.products == 5
    assert len(first._rotated) == len(second._rotated) == 2


# ---------------------------------------------------------------- fast routes

def test_pair_route_matches_exact():
    basis, eig, sectors = make_sector_eig(3, alpha=0.9, h=1.2, seed=6)
    d_i = sigma_z_operator(basis, 1, 3)
    d_1 = sigma_z_operator(basis, 1, 1)
    times = np.linspace(0.0, 8.0, 17)
    reference = exact_otoc(eig, d_i, d_1, times)
    fast, defect = multi_distance_otoc_values(sectors, d_i[None, :], d_1, times)
    assert fast.shape == (1, times.size)
    assert np.max(np.abs(fast[0] - reference.values.real)) < 1e-10
    assert defect < 1e-10


def test_multi_distance_route_matches_exact():
    basis, eig, sectors = make_sector_eig(4, alpha=1.0, h=0.8, seed=2)
    d_1 = sigma_z_operator(basis, 1, 1)
    probes = np.stack([sigma_z_operator(basis, 1, 1 + dx) for dx in (1, 2, 3)])
    times = np.linspace(0.0, 5.0, 11)
    grid, defect = multi_distance_otoc_values(sectors, probes, d_1, times)
    assert defect < 1e-10
    for row, dx in zip(grid, (1, 2, 3)):
        reference = exact_otoc(eig, probes[dx - 1], d_1, times)
        assert np.max(np.abs(row - reference.values.real)) < 1e-10


def test_w_route_rejects_op_1_that_is_not_plus_minus_one():
    basis, eig, sectors = make_sector_eig(3, seed=6)
    d_i = sigma_z_operator(basis, 1, 3)
    d_1 = sigma_z_operator(basis, 1, 1)
    for bad in (0.5 * d_1, d_1 + sigma_z_operator(basis, 2, 1), np.ones(basis.dim + 1)):
        with pytest.raises(ValueError):
            multi_distance_otoc_values(sectors, d_i[None, :], bad, [0.0, 1.0])
    with pytest.raises(ValueError):
        exact_otoc(eig, d_i, 0.5 * d_1, [0.0, 1.0])


@pytest.mark.parametrize("h", [0.0, 1.0, 8.0])
@pytest.mark.parametrize("alpha", [0.0, 1.3])
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_exact_otoc_matches_the_w_route(L, alpha, h):
    basis, eig, sectors = make_sector_eig(L, alpha=alpha, h=h, seed=11)
    # The far end of leg 1 and the rung partner of sz_1.
    probes = np.stack([sigma_z_operator(basis, 1, L), sigma_z_operator(basis, 2, 1)])
    d_1 = sigma_z_operator(basis, 1, 1)
    times = np.array([0.0, 0.7, 3.1, 10.0])
    w_values, _ = multi_distance_otoc_values(sectors, probes, d_1, times)
    for probe, w_row in zip(probes, w_values):
        exact = exact_otoc(eig, probe, d_1, times)
        assert np.max(np.abs(exact.values - w_row)) < 1e-12


def test_w_route_rejects_operators_even_under_the_spin_flip():
    basis, eig, sectors = make_sector_eig(3, seed=6)
    d_1 = sigma_z_operator(basis, 1, 1)
    d_i = sigma_z_operator(basis, 1, 3)
    times = [0.0, 1.0]
    for even in (d_1 * sigma_z_operator(basis, 1, 2), np.ones(basis.dim)):
        with pytest.raises(ValueError, match="odd under the global spin flip"):
            multi_distance_otoc_values(sectors, np.stack([d_i, even]), d_1, times)
        with pytest.raises(ValueError, match="odd under the global spin flip"):
            multi_distance_otoc_values(sectors, d_i[None, :], even, times)
        with pytest.raises(ValueError, match="odd under the global spin flip"):
            exact_otoc(eig, even, d_1, times)


def test_exact_otoc_refuses_an_even_probe_before_the_trace_route(monkeypatch):
    basis, eig = make_eig(3, seed=6)
    d_1 = sigma_z_operator(basis, 1, 1)

    def no_rotation(*args):
        pytest.fail("an operator was rotated into the eigenbasis before the checks")

    monkeypatch.setattr(otoc, "_eigenbasis_diagonal", no_rotation)
    for op_i, op_1 in [
        (d_1 * sigma_z_operator(basis, 1, 2), d_1),
        (sigma_z_operator(basis, 1, 3), np.ones(basis.dim)),
        (sigma_z_operator(basis, 1, 3), 0.5 * d_1),
        # Odd, but not +-1: the defect check needs A(t)^2 = 1.
        (0.5 * sigma_z_operator(basis, 1, 2), d_1),
        (np.ones(7), d_1),
    ]:
        with pytest.raises(ValueError):
            exact_otoc(eig, op_i, op_1, [0.0, 1.0])


def assert_w_route_refuses_the_ladder(extra_diagonal=0.0):
    """Check that the W-route refuses the ladder H plus ``extra_diagonal``; return that H.

    The sector eigensolve, whose result the W-route needs, refuses it: its
    rung-basis blocks hold the ladder model alone, so they miss the weight
    of the added terms."""
    # The trace route needs no chiral symmetry, so exact_otoc still holds.
    params = LadderParams(L=4, h=1.0)
    basis = SectorBasis(4)
    H = build_hamiltonian(params, sample_disorder(params, 3), basis)
    H = dataclasses.replace(H, diagonal=H.diagonal + extra_diagonal)
    eig = diagonalize(H)
    d_1 = sigma_z_operator(basis, 1, 1)
    probes = np.stack([sigma_z_operator(basis, 1, site) for site in (2, 3, 4)])
    times = np.linspace(0.0, 2.0, 5)
    with pytest.raises(RuntimeError, match="misses weight"):
        diagonalize_sectors(H)
    series = exact_otoc(eig, probes[0], d_1, times)
    reference = [expm_otoc(H.dense(), probes[0], d_1, t) for t in times]
    assert np.max(np.abs(series.values - reference)) < 1e-12
    return H


def test_w_route_rejects_a_same_sublattice_bond(monkeypatch):
    # A next-nearest-neighbour hop on both legs joins sites of one sublattice.
    bonds = core._bonds

    def with_next_nearest(params):
        L = params.L
        extra = [
            (bit_position(L, leg, 1), bit_position(L, leg, 3), 1.0) for leg in (1, 2)
        ]
        return bonds(params) + extra

    monkeypatch.setattr(core, "_bonds", with_next_nearest)
    assert_w_route_refuses_the_ladder()


def test_w_route_rejects_an_even_diagonal():
    # A rung sz sz term is even under the spin flip. (A constant shift is even
    # too, but only multiplies U(t) by a phase and leaves |W| unchanged.)
    basis = SectorBasis(4)
    zz = sigma_z_operator(basis, 1, 1) * sigma_z_operator(basis, 2, 1)
    H = assert_w_route_refuses_the_ladder(0.7 * zz)
    # The term keeps the dressed rung charge, so the projections of H on
    # the sectors carry it whole; the sector W-route then finds the mirror broken.
    dense = H.dense()
    sectors = core.ChargeEigenSystem(
        basis, {q: np.linalg.eigh(U.T @ dense @ U) for q, U in charge_map(basis).items()}
    )
    probes = sigma_z_operator(basis, 1, 3)[None, :]
    with pytest.raises(RuntimeError, match="breaks the chiral mirror"):
        multi_distance_otoc_values(
            sectors, probes, sigma_z_operator(basis, 1, 1), np.linspace(0.0, 2.0, 5)
        )


@pytest.mark.parametrize("spin", [(1, 1), (2, 3)])
@pytest.mark.parametrize("h", [0.0, 1.0, 8.0])
@pytest.mark.parametrize("alpha", [0.0, 1.3])
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_sector_w_route_matches_full_rows(L, alpha, h, spin):
    # sz on (2, 3) pairs labels across the edges {q, q + 2} as well, with the
    # leg-2 sign; at L = 2 it is sz on (2, 2).
    basis, dense, sectors = make_sector_eig(L, alpha=alpha, h=h, seed=11)
    probes = np.stack(
        [sigma_z_operator(basis, leg, site) for leg in (1, 2) for site in range(1, L + 1)]
    )
    # Any diagonal odd under the flip is a valid probe, +-1 or not.
    probes = np.vstack([probes, 0.5 * probes[L - 1] - 0.3 * probes[L]])
    d_1 = sigma_z_operator(basis, spin[0], min(spin[1], L))
    times = np.array([0.0, 0.7, 3.1])
    values, defect = multi_distance_otoc_values(sectors, probes, d_1, times)
    reference, _ = full_row_reference(dense, probes, d_1, times)
    assert np.max(np.abs(values - reference)) < 1e-12
    assert defect < 1e-12


@pytest.mark.parametrize("h", [1.0, 8.0])
@pytest.mark.parametrize("L", [4, 5])
def test_w_routes_match_full_rows_on_the_lightcone_grid(L, h):
    # The mirror's rounding grows with t, and the space-time grid runs to t = 10.
    basis, dense, sectors = make_sector_eig(L, h=h, seed=5)
    probes = np.stack(
        [sigma_z_operator(basis, leg, site) for leg in (1, 2) for site in range(1, L + 1)]
    )
    d_1 = sigma_z_operator(basis, 1, 1)
    times = default_lightcone_times()
    reference, _ = full_row_reference(dense, probes, d_1, times)
    values, defect = multi_distance_otoc_values(sectors, probes, d_1, times)
    assert np.max(np.abs(values - reference)) < 1e-12
    assert defect < 1e-12


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_every_sector_meets_the_plus_one_states_of_every_spin(L):
    # `_sector_blocks` refuses a sector without them: the K and Y products
    # write every row of the Hadamard input, so there is no row left to zero.
    basis = SectorBasis(L)
    eig = identity_sectors(basis)
    for leg in (1, 2):
        for site in range(1, L + 1):
            blocks = otoc._sector_blocks(eig, sigma_z_operator(basis, leg, site))
            rows = np.concatenate([sector_rows for *_, sector_rows, _ in blocks])
            assert np.array_equal(np.sort(rows), np.arange(basis.dim))


def test_sector_w_route_takes_only_sz_of_one_spin():
    basis, _, sectors = make_sector_eig(3)
    d_1 = sigma_z_operator(basis, 1, 1)
    probes = sigma_z_operator(basis, 1, 3)[None, :]
    # -sz_1 is a +-1 diagonal odd under the flip, but no single spin's sz.
    for bad in (-d_1, d_1 * sigma_z_operator(basis, 1, 2) * sigma_z_operator(basis, 2, 2)):
        with pytest.raises(ValueError, match="sz of one spin"):
            multi_distance_otoc_values(sectors, probes, bad, [0.0, 1.0])


def test_w_route_raises_on_a_nan_eigensystem():
    basis, _, sectors = make_sector_eig(3, seed=6)
    eig = nan_poisoned(sectors)
    probes = sigma_z_operator(basis, 1, 3)[None, :]
    with pytest.raises(RuntimeError, match="not finite: the eigensystem holds NaN"):
        multi_distance_otoc_values(eig, probes, sigma_z_operator(basis, 1, 1), [0.5, 1.0])


@pytest.mark.parametrize("L", [5, 6, 7])
def test_w_route_peak_memory_stays_below_its_estimate(L, monkeypatch):
    # L = 7 is the wavefront grid's next size; it runs on three times.
    params = LadderParams(L=L, alpha=1.0, h=1.0)
    basis = SectorBasis(L)
    eig = diagonalize_sectors(build_hamiltonian(params, sample_disorder(params, 3), basis))
    probes = np.stack([sigma_z_operator(basis, 1, site) for site in range(2, L + 1)])
    d_1 = sigma_z_operator(basis, 1, 1)
    times = np.linspace(0.0, 5.0, 3 if L == 7 else 11)
    peak, estimate = peak_and_estimate(
        monkeypatch, lambda: multi_distance_otoc_values(eig, probes, d_1, times)
    )
    copies = otoc.MULTI_DISTANCE_COPIES
    # The check also counts the sector blocks the caller holds, which are
    # allocated before tracing starts.
    held = sum(V.size for _, V in eig.sectors.values()) / basis.dim**2
    assert estimate == pytest.approx((copies + held) * 8 * basis.dim**2 + otoc.FIXED_BYTES)
    assert peak < copies * 8 * basis.dim**2 + otoc.FIXED_BYTES


# ---------------------------------------------------------------- sampled

def test_full_fock_basis_reproduces_exact():
    basis, eig = make_eig(3, h=1.0, seed=4)
    d_i = sigma_z_operator(basis, 1, 3)
    d_1 = sigma_z_operator(basis, 1, 1)
    times = np.linspace(0.0, 6.0, 13)
    exact = exact_otoc(eig, d_i, d_1, times)
    sampled = sampled_otoc(eig, d_i, d_1, complete_fock_basis(basis), times)
    assert sampled.per_sample.shape == (basis.dim, 13)
    assert np.max(np.abs(sampled.values - exact.values)) < 1e-9


@settings(max_examples=15, deadline=None)
@given(
    L=st.integers(min_value=2, max_value=4),
    alpha=st.floats(min_value=0.0, max_value=3.0),
    h=st.floats(min_value=0.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**32),
    leg=st.integers(min_value=1, max_value=2),
    site=st.integers(min_value=1, max_value=4),
)
def test_complete_fock_mean_equals_exact(L, alpha, h, seed, leg, site):
    basis, eig = make_eig(L, alpha=alpha, h=h, seed=seed)
    d_i = sigma_z_operator(basis, leg, min(site, L))
    d_1 = sigma_z_operator(basis, 1, 1)
    times = np.concatenate([[0.0], default_decay_times(12)])
    exact = exact_otoc(eig, d_i, d_1, times)
    sampled = sampled_otoc(eig, d_i, d_1, complete_fock_basis(basis), times)
    assert np.max(np.abs(sampled.values - exact.values)) <= 1e-12


def _states(basis, kind, M):
    draw = {"haar": haar_state, "fock": fock_state}
    kinds = ["fock", "haar"] * M if kind == "mixed" else [kind] * M
    return [draw[k](basis, 100 + j) for j, k in enumerate(kinds[:M])]


@pytest.mark.parametrize("independent_legs", [False, True])
@pytest.mark.parametrize("kind,M", [("haar", 1), ("haar", 3), ("fock", 1), ("fock", 3), ("mixed", 3)])
@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_sampled_matches_computational_basis_reference(L, kind, M, independent_legs):
    basis, eig = make_eig(L, alpha=1.3, h=2.0, seed=7, independent_legs=independent_legs)
    d_i = sigma_z_operator(basis, 2, L)
    d_1 = sigma_z_operator(basis, 1, 1)
    states = _states(basis, kind, M)
    times = np.array([0.0, 0.4, 3.0, 25.0, 1000.0])
    series = sampled_otoc(eig, d_i, d_1, states, times)
    reference = heisenberg_reference(eig, d_i, d_1, states, times)
    assert series.per_sample.shape == (M, times.size)
    assert np.max(np.abs(series.per_sample - reference)) <= 1e-12
    assert series.meta["estimator"] == kind


def test_single_state_is_one_at_t0():
    basis, eig = make_eig(3)
    series = sampled_otoc(
        eig,
        sigma_z_operator(basis, 1, 2),
        sigma_z_operator(basis, 1, 1),
        [haar_state(basis, 0)],
        [0.0],
    )
    assert abs(series.values[0] - 1.0) < 1e-10


def test_single_haar_state_error_is_typicality_sized():
    # One Haar vector at N = 70 tracks the exact curve to a few times 1e-2;
    # the worst pointwise error stays under the half-decade-loosened 1e-1
    # bound. The mean error here sits near N**-0.5, not at the 1e-2 level
    # reached by larger sectors; the size scaling itself is pinned by the
    # sampling-error acceptance runs.
    basis, eig = make_eig(4, h=1.0, seed=3)
    d_i = sigma_z_operator(basis, 1, 4)
    d_1 = sigma_z_operator(basis, 1, 1)
    times = default_decay_times()
    exact = exact_otoc(eig, d_i, d_1, times)
    sampled = sampled_otoc(eig, d_i, d_1, [haar_state(basis, 0)], times)
    err = np.abs(exact.values.real - sampled.values.real)
    assert err.max() < 10**-0.5
    tail = slice(int(0.75 * len(times)), None)
    assert err[tail].mean() < 0.1


def test_sampled_global_phase_invariance():
    basis, eig = make_eig(3, seed=9)
    d_i = sigma_z_operator(basis, 2, 3)
    d_1 = sigma_z_operator(basis, 1, 1)
    state = haar_state(basis, 5)
    rotated = type(state)(
        amplitudes=state.amplitudes * np.exp(1j * 0.83), kind="haar", seed=5
    )
    times = [0.5, 1.5, 4.0]
    a = sampled_otoc(eig, d_i, d_1, [state], times)
    b = sampled_otoc(eig, d_i, d_1, [rotated], times)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_sampled_otoc_is_bitwise_the_same_with_a_cold_and_a_warm_memo():
    basis, eig = make_eig(5, h=4.0, seed=3)
    d_i, d_1 = sigma_z_operator(basis, 1, 5), sigma_z_operator(basis, 1, 1)
    states = _states(basis, "mixed", 4)
    times = default_decay_times()
    cold = sampled_otoc(eig, d_i, d_1, states, times).per_sample
    assert len(eig._rotated) == 2
    exact_otoc(eig, d_i, d_1, times)
    warm = sampled_otoc(eig, d_i, d_1, states, times).per_sample
    assert np.array_equal(cold.view(np.uint64), warm.view(np.uint64))


def test_sampled_otoc_raises_on_a_nan_eigensystem():
    basis, eig = make_eig(3, seed=6)
    d_i, d_1 = sigma_z_operator(basis, 1, 3), sigma_z_operator(basis, 1, 1)
    with pytest.raises(RuntimeError, match="sampled OTOC reached"):
        sampled_otoc(nan_poisoned(eig), d_i, d_1, [haar_state(basis, 0)], [0.5, 1.0])


@pytest.mark.parametrize("delta, raises", [(1e-10, False), (2e-10, False), (1e-9, True)])
def test_sampled_otoc_bounds_f_j_at_1_plus_the_defect_tolerance(delta, raises, monkeypatch):
    # Rotations scaled by 1 + delta leave ||V^T psi_j|| alone, and F_j holds
    # A~ twice and B~ once, so a Fock state near t = 0 has |F_j| - 1 = 3 delta.
    basis, eig = make_eig(3, seed=6)
    d_i, d_1 = sigma_z_operator(basis, 1, 3), sigma_z_operator(basis, 1, 1)
    rotate = otoc._eigenbasis_diagonal
    monkeypatch.setattr(otoc, "_eigenbasis_diagonal", lambda *a: rotate(*a) * (1.0 + delta))
    args = (eig, d_i, d_1, [fock_state(basis, 0)], [1e-6])
    if raises:
        with pytest.raises(RuntimeError, match=r"\|F_j\| - 1 = \S+, above 1e-09") as caught:
            sampled_otoc(*args)
        overshoot = float(str(caught.value).split(" = ")[1].split(",")[0])
    else:
        overshoot = np.max(np.abs(sampled_otoc(*args).per_sample)) - 1.0
    assert overshoot == pytest.approx(3 * delta, rel=0.01)


def test_sampled_rejects_empty_states():
    basis, eig = make_eig(2)
    with pytest.raises(ValueError):
        sampled_otoc(
            eig,
            sigma_z_operator(basis, 1, 2),
            sigma_z_operator(basis, 1, 1),
            [],
            [0.0],
        )


def test_sampled_rejects_wrong_size_probe():
    basis, eig = make_eig(3)
    with pytest.raises(ValueError):
        sampled_otoc(
            eig, np.array([1.0]), sigma_z_operator(basis, 1, 1), [haar_state(basis, 0)], [0.0, 1.0]
        )


def test_sampled_rejects_wrong_size_op_1():
    basis, eig = make_eig(3)
    with pytest.raises(ValueError):
        sampled_otoc(
            eig, sigma_z_operator(basis, 1, 2), np.ones(basis.dim + 1), [haar_state(basis, 0)], [0.0, 1.0]
        )


@pytest.mark.parametrize("name", ["op_i", "op_1"])
@pytest.mark.parametrize("scale", [2.0, 0.5])
def test_sampled_otoc_refuses_a_diagonal_that_is_not_pm1_before_any_rotation(name, scale):
    # Only for +-1 diagonals is each F_j the expectation of a unitary, which
    # the |F_j| <= 1 check and F(0) = 1 need; the check comes before the N^3
    # rotations into the eigenbasis.
    basis, eig = make_eig(4)
    ops = {"op_i": sigma_z_operator(basis, 1, 3), "op_1": sigma_z_operator(basis, 1, 1)}
    ops[name] = scale * ops[name]
    with pytest.raises(ValueError, match=f"{name} must be a \\+-1 diagonal"):
        sampled_otoc(eig, ops["op_i"], ops["op_1"], [haar_state(basis, 0)], [0.0, 1.0])
    assert eig._rotated == {}


def test_sampled_rejects_wrong_size_state():
    basis, eig = make_eig(3)
    states = [haar_state(basis, 0), haar_state(SectorBasis(2), 1)]
    with pytest.raises(ValueError, match="amplitudes"):
        sampled_otoc(
            eig, sigma_z_operator(basis, 1, 2), sigma_z_operator(basis, 1, 1), states, [0.0, 1.0]
        )


@pytest.mark.parametrize(
    "M,n_times,chunks",
    [
        (64, 10, [4, 4, 2]),  # several chunks, the last one short
        (256, 3, [1, 1, 1]),  # 4M = 1024 real columns: one step per chunk
        (1, 40, [40]),  # one chunk holds every step
    ],
)
def test_batched_sampled_kernel_matches_reference(M, n_times, chunks):
    steps = max(1, min(n_times, otoc._CHUNK_COLUMNS // (4 * M)))
    assert [min(steps, n_times - start) for start in range(0, n_times, steps)] == chunks
    basis, eig = make_eig(4, alpha=1.3, h=2.0, seed=7)
    d_i = sigma_z_operator(basis, 2, 4)
    d_1 = sigma_z_operator(basis, 1, 1)
    states = _states(basis, "mixed", M)
    times = np.concatenate([[0.0], default_decay_times(n_times - 1)])
    series = sampled_otoc(eig, d_i, d_1, states, times)
    reference = heisenberg_reference(eig, d_i, d_1, states, times)
    assert series.per_sample.shape == (M, n_times)
    assert np.max(np.abs(series.per_sample - reference)) <= 1e-12


@pytest.mark.parametrize("M", [1, 64])
@pytest.mark.parametrize("L", [5, 6])
def test_sampled_peak_memory_stays_below_its_estimate(L, M, monkeypatch):
    basis, eig = make_eig(L, h=4.0, seed=3)
    d_i = sigma_z_operator(basis, 1, L)
    d_1 = sigma_z_operator(basis, 1, 1)
    states = [haar_state(basis, j) for j in range(M)]
    times = default_decay_times()
    steps = max(1, min(times.size, otoc._CHUNK_COLUMNS // (4 * M)))
    copies = max(
        otoc.SAMPLED_COPIES, 2 + (otoc.SAMPLED_COPIES_PER_STATE * M + 2) * steps / basis.dim
    )
    assert_peak_within_held_estimate(
        monkeypatch, basis, eig, copies, lambda: sampled_otoc(eig, d_i, d_1, states, times)
    )


def test_otoc_series_rejects_bad_t0():
    with pytest.raises(ValueError):
        OtocSeries(times=np.array([0.0, 1.0]), values=np.array([0.5, 0.2]))


# ---------------------------------------------------------------- states

def test_haar_state_norm_and_determinism():
    basis = SectorBasis(4)
    a = haar_state(basis, 7)
    b = haar_state(basis, 7)
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, haar_state(basis, 8).amplitudes)


def test_haar_overlap_statistics():
    basis = SectorBasis(3)
    n = basis.dim
    overlaps = []
    for k in range(100):
        a = haar_state(basis, 2 * k)
        b = haar_state(basis, 2 * k + 1)
        overlaps.append(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    mean = np.mean(overlaps)
    sigma = 1.0 / (n * 10.0)  # Beta(1, N-1) variance over 100 pairs, roughly
    assert abs(mean - 1.0 / n) < 3.5 * sigma


def test_fock_state_shape_and_determinism():
    basis = SectorBasis(3)
    s = fock_state(basis, 3)
    nonzero = np.flatnonzero(s.amplitudes)
    assert nonzero.size == 1
    assert abs(abs(s.amplitudes[nonzero[0]]) - 1.0) < 1e-12
    assert np.array_equal(s.amplitudes, fock_state(basis, 3).amplitudes)


@pytest.mark.parametrize("draw", [haar_state, fock_state])
@pytest.mark.parametrize("seed", [1.5, True, -1])
def test_state_seed_must_be_a_non_negative_int(draw, seed):
    with pytest.raises(ValueError, match="seed"):
        draw(SectorBasis(3), seed)


@pytest.mark.parametrize("draw", [haar_state, fock_state])
def test_numpy_integer_state_seed_draws_the_int_seeds_state(draw):
    basis = SectorBasis(3)
    state = draw(basis, np.int64(3))
    assert np.array_equal(state.amplitudes, draw(basis, 3).amplitudes)
    assert type(state.seed) is int and state.seed == 3


def test_fock_state_covers_all_indices():
    basis = SectorBasis(3)
    indices = {int(np.flatnonzero(fock_state(basis, k).amplitudes)[0]) for k in range(10**4)}
    assert indices == set(range(basis.dim))


BAD_GRIDS = {
    "empty": ([], "at least one time"),
    "nan": ([0.0, float("nan")], "finite"),
    "inf": ([0.0, float("inf")], "finite"),
    "two-dimensional": ([[0.0, 1.0], [2.0, 3.0]], "1-D"),
}


@pytest.mark.parametrize("route", ["exact_otoc", "multi_distance_otoc_values", "sampled_otoc"])
@pytest.mark.parametrize("grid", sorted(BAD_GRIDS))
def test_otoc_routes_reject_bad_time_grids(route, grid):
    basis, eig, sectors = make_sector_eig(3)
    d_1, d_i = sigma_z_operator(basis, 1, 1), sigma_z_operator(basis, 1, 2)
    times, message = BAD_GRIDS[grid]
    call = {
        "exact_otoc": lambda: exact_otoc(eig, d_i, d_1, times),
        "multi_distance_otoc_values": lambda: multi_distance_otoc_values(sectors, d_i[None, :], d_1, times),
        "sampled_otoc": lambda: sampled_otoc(eig, d_i, d_1, [haar_state(basis, 0)], times),
    }[route]
    with pytest.raises(ValueError, match=message):
        call()


def test_otoc_routes_check_memory_first(monkeypatch):
    basis, eig, sectors = make_sector_eig(3)
    d_1, d_i = sigma_z_operator(basis, 1, 1), sigma_z_operator(basis, 1, 2)
    times = np.linspace(0.0, 1.0, 3)
    monkeypatch.setattr(core, "_physical_memory", lambda: 1000)
    for caller, call in [
        ("exact_otoc", lambda: exact_otoc(eig, d_i, d_1, times)),
        ("multi_distance_otoc_values", lambda: multi_distance_otoc_values(sectors, d_i[None, :], d_1, times)),
        ("sampled_otoc", lambda: sampled_otoc(eig, d_i, d_1, [fock_state(basis, 0)], times)),
    ]:
        with pytest.raises(MemoryError, match=f"{caller} at N=20 needs about .* 1000 bytes"):
            call()


NAN = float("nan")


@pytest.mark.parametrize(
    "make",
    [
        lambda eig: InitialState(np.full(eig.dim, NAN), kind="haar"),
        lambda eig: OtocSeries(times=[0.0, 1.0], values=[NAN, 0.5]),
        lambda eig: WavefrontGrid(distances=[1], times=[0.0, 1.0], values=[[NAN, 0.5]]),
        lambda eig: FitResult(
            form="exp", params={"a": 1.0}, r_squared=NAN, window=(1.0, 2.0), residuals=[0.0]
        ),
        lambda eig: ErrorSignal(times=[0.0, 1.0], eps=[0.0, NAN], kind="eps1", M=1),
    ],
    ids=[
        "initial-state",
        "otoc-series",
        "wavefront-grid",
        "fit-r-squared",
        "error-signal",
    ],
)
def test_tolerance_checks_refuse_nan(make):
    _, eig = make_eig(3)
    with pytest.raises(ValueError):
        make(eig)


# ---------------------------------------------------------------- claims

def test_late_otoc_rises_from_the_ergodic_to_the_mbl_phase():
    # The abstract's phase claim: the OTOC decays to near 0 in the ergodic
    # phase and stays finite in the MBL phase. F_inf, the mean of the last
    # 15 points of the decay grid (t >= 100), over 8 realizations at L = 5
    # read 0.022 +- 0.002, 0.149 +- 0.019 and 0.468 +- 0.060 at h = 0.5, 2
    # and 8; each step of h must raise it by more than 2 standard errors.
    basis = SectorBasis(5)
    times = default_decay_times(60)
    probe, op_1 = sigma_z_operator(basis, 1, 5), sigma_z_operator(basis, 1, 1)
    means, errors = [], []
    for h in (0.5, 2.0, 8.0):
        params = LadderParams(L=5, alpha=1.0, h=h)
        late = []
        for r in range(8):
            disorder = sample_disorder(params, derive_seed(7, "decayform", 5, h, r))
            eig = diagonalize_sectors(build_hamiltonian(params, disorder, basis))
            values, _ = multi_distance_otoc_values(eig, probe[None], op_1, times)
            late.append(values[0, -15:].mean())
        means.append(np.mean(late))
        errors.append(np.std(late, ddof=1) / np.sqrt(len(late)))
    assert means[0] == pytest.approx(0.022, abs=0.001)
    for k in range(2):
        assert means[k + 1] - means[k] > 2.0 * np.hypot(errors[k], errors[k + 1])
