"""OTOC engine checks: trace/W-route agreement, estimator limits, state diagnostics."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderxx import core
from ladderxx.core import (
    LadderParams,
    SectorBasis,
    build_hamiltonian,
    diagonalize,
    sample_disorder,
    sigma_z_operator,
)
from ladderxx.otoc import (
    OtocSeries,
    complete_fock_basis,
    default_decay_times,
    effective_dimension,
    eon_distribution,
    exact_otoc,
    fock_state,
    haar_state,
    multi_distance_otoc_values,
    sampled_otoc,
)


def make_eig(L, alpha=1.0, h=1.0, seed=1, independent_legs=False):
    params = LadderParams(L=L, alpha=alpha, h=h)
    basis = SectorBasis(L)
    dis = sample_disorder(params, seed, independent_legs=independent_legs)
    return basis, diagonalize(build_hamiltonian(params, dis, basis))


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
    assert series.meta["cross_check_max"] < 1e-9


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
        assert abs(series.values[0].real - expm_otoc(H.matrix, d_i, d_1, t)) < 1e-9


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
    basis, eig = make_eig(L, alpha=alpha, h=h, seed=seed)
    times = np.concatenate([[0.0], default_decay_times(12)])
    series = exact_otoc(
        eig, sigma_z_operator(basis, 1, L), sigma_z_operator(basis, 1, 1), times
    )
    assert abs(series.values[0] - 1.0) <= 1e-12
    assert np.all(np.abs(series.values) <= 1.0 + 1e-12)
    assert np.all(series.re >= -1.0 - 1e-12)


def test_exact_otoc_rejects_wrong_dimension():
    basis, eig = make_eig(3)
    with pytest.raises(ValueError):
        exact_otoc(eig, np.ones(7), sigma_z_operator(basis, 1, 1), [0.0])


# ---------------------------------------------------------------- fast routes

def test_pair_route_matches_exact():
    basis, eig = make_eig(3, alpha=0.9, h=1.2, seed=6)
    d_i = sigma_z_operator(basis, 1, 3)
    d_1 = sigma_z_operator(basis, 1, 1)
    times = np.linspace(0.0, 8.0, 17)
    reference = exact_otoc(eig, d_i, d_1, times)
    fast, defect = multi_distance_otoc_values(eig, d_i[None, :], d_1, times)
    assert fast.shape == (1, times.size)
    assert np.max(np.abs(fast[0] - reference.values.real)) < 1e-10
    assert defect < 1e-10


def test_multi_distance_route_matches_exact():
    basis, eig = make_eig(4, alpha=1.0, h=0.8, seed=2)
    d_1 = sigma_z_operator(basis, 1, 1)
    probes = np.stack([sigma_z_operator(basis, 1, 1 + dx) for dx in (1, 2, 3)])
    times = np.linspace(0.0, 5.0, 11)
    grid, defect = multi_distance_otoc_values(eig, probes, d_1, times)
    assert defect < 1e-10
    for row, dx in zip(grid, (1, 2, 3)):
        reference = exact_otoc(eig, probes[dx - 1], d_1, times)
        assert np.max(np.abs(row - reference.values.real)) < 1e-10


def test_w_route_rejects_op_1_that_is_not_plus_minus_one():
    basis, eig = make_eig(3, seed=6)
    d_i = sigma_z_operator(basis, 1, 3)
    d_1 = sigma_z_operator(basis, 1, 1)
    for bad in (0.5 * d_1, d_1 + sigma_z_operator(basis, 2, 1), np.ones(basis.dim + 1)):
        with pytest.raises(ValueError):
            multi_distance_otoc_values(eig, d_i[None, :], bad, [0.0, 1.0])
    with pytest.raises(ValueError):
        exact_otoc(eig, d_i, 0.5 * d_1, [0.0, 1.0])


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


def test_sampled_rejects_wrong_size_state():
    basis, eig = make_eig(3)
    states = [haar_state(basis, 0), haar_state(SectorBasis(2), 1)]
    with pytest.raises(ValueError, match="amplitudes"):
        sampled_otoc(
            eig, sigma_z_operator(basis, 1, 2), sigma_z_operator(basis, 1, 1), states, [0.0, 1.0]
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


def test_fock_state_covers_all_indices():
    basis = SectorBasis(3)
    indices = {int(np.flatnonzero(fock_state(basis, k).amplitudes)[0]) for k in range(10**4)}
    assert indices == set(range(basis.dim))


# ---------------------------------------------------------------- eon

def test_eon_of_eigenvector_is_delta():
    basis, eig = make_eig(3, seed=12)
    from ladderxx.otoc import InitialState

    v = InitialState(amplitudes=eig.eigenvectors[:, 5].astype(complex), kind="haar")
    eon = eon_distribution(eig, v)
    assert abs(eon.weights[5] - 1.0) < 1e-10
    assert effective_dimension(eon) == pytest.approx(1.0, abs=1e-9)


def test_eon_uniform_superposition():
    basis, eig = make_eig(3, seed=13)
    from ladderxx.otoc import InitialState

    n = basis.dim
    psi = eig.eigenvectors @ (np.ones(n) / np.sqrt(n))
    eon = eon_distribution(eig, InitialState(amplitudes=psi.astype(complex), kind="haar"))
    assert np.max(np.abs(eon.weights - 1.0 / n)) < 1e-10
    assert effective_dimension(eon) == pytest.approx(n, rel=1e-9)


def test_eon_fock_state_is_broad():
    # A random Fock state overlaps most of the spectrum in the ergodic regime.
    basis, eig = make_eig(6, h=1.0, seed=2)
    eon = eon_distribution(eig, fock_state(basis, 1))
    assert abs(eon.weights.sum() - 1.0) < 1e-10
    assert np.mean(eon.weights > 1e-6) > 0.5


def test_effective_dimension_of_fock_states_near_third_of_n():
    # Chaotic eigenvectors give d_e about N/3 for basis states.
    basis, eig = make_eig(5, h=1.0, seed=4, independent_legs=True)
    d_es = [
        effective_dimension(eon_distribution(eig, fock_state(basis, seed)))
        for seed in range(10)
    ]
    ratio = np.mean(d_es) / basis.dim
    assert 0.2 < ratio < 0.45


def test_otoc_routes_check_memory_first(monkeypatch):
    basis, eig = make_eig(3)
    d_1, d_i = sigma_z_operator(basis, 1, 1), sigma_z_operator(basis, 1, 2)
    times = np.linspace(0.0, 1.0, 3)
    monkeypatch.setattr(core, "_physical_memory", lambda: 1000)
    for caller, call in [
        ("exact_otoc", lambda: exact_otoc(eig, d_i, d_1, times)),
        ("multi_distance_otoc_values", lambda: multi_distance_otoc_values(eig, d_i[None, :], d_1, times)),
        ("sampled_otoc", lambda: sampled_otoc(eig, d_i, d_1, [fock_state(basis, 0)], times)),
    ]:
        with pytest.raises(MemoryError, match=f"{caller} at N=20 needs about .* 1000 bytes"):
            call()
