"""Basis, Hamiltonian, and evolution checks against independent small-system oracles."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderxx import core, otoc
from ladderxx.core import (
    DiagonalizationError,
    DisorderRealization,
    LadderParams,
    SectorBasis,
    SectorHamiltonian,
    bit_position,
    build_hamiltonian,
    check_memory,
    derive_seed,
    diagonalize,
    evolve_state,
    leg_swap_blocks,
    sample_disorder,
    sigma_z_operator,
)

# ---------------------------------------------------------------- oracles

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]])  # sign convention irrelevant in sy.sy
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]])  # +1 on a set bit, matching the package


def op_on(num_spins: int, pos: int, sigma: np.ndarray) -> np.ndarray:
    """sigma acting on bit `pos` of a 2^num_spins space indexed by bitmask."""
    return np.kron(
        np.kron(np.eye(2 ** (num_spins - 1 - pos)), sigma), np.eye(2**pos)
    )


def full_space_hamiltonian(params: LadderParams, disorder: DisorderRealization) -> np.ndarray:
    """Brute-force 4^L Hamiltonian from explicit Kronecker products."""
    L = params.L
    n = 2 * L
    dim = 2**n
    H = np.zeros((dim, dim), dtype=complex)
    bonds = []
    for leg in (1, 2):
        for site in range(1, L):
            bonds.append(
                (bit_position(L, leg, site), bit_position(L, leg, site + 1), params.J_par)
            )
    for site in range(1, L + 1):
        bonds.append((bit_position(L, 1, site), bit_position(L, 2, site), params.J_perp))
    for a, b, J in bonds:
        H += J * (op_on(n, a, SX) @ op_on(n, b, SX) + op_on(n, a, SY) @ op_on(n, b, SY))
    for leg in (1, 2):
        fields = disorder.fields_for_leg(leg)
        for site in range(1, L + 1):
            H += fields[site - 1] * op_on(n, bit_position(L, leg, site), SZ)
    assert np.max(np.abs(H.imag)) < 1e-12
    return H.real


def loop_hamiltonian(
    params: LadderParams, disorder: DisorderRealization, basis: SectorBasis
) -> np.ndarray:
    """Reference sector assembly: one Python pass over every state and bond."""
    L = params.L
    n = basis.dim
    index_of = {int(s): i for i, s in enumerate(basis.states)}
    h1 = np.asarray(disorder.fields_for_leg(1))
    h2 = np.asarray(disorder.fields_for_leg(2))
    bonds = [
        (bit_position(L, leg, site), bit_position(L, leg, site + 1), params.J_par)
        for leg in (1, 2)
        for site in range(1, L)
    ] + [
        (bit_position(L, 1, site), bit_position(L, 2, site), params.J_perp)
        for site in range(1, L + 1)
    ]
    H = np.zeros((n, n))
    states = basis.states
    for site in range(1, L + 1):
        s1 = np.where((states >> bit_position(L, 1, site)) & 1 == 1, 1.0, -1.0)
        s2 = np.where((states >> bit_position(L, 2, site)) & 1 == 1, 1.0, -1.0)
        H[np.arange(n), np.arange(n)] += h1[site - 1] * s1 + h2[site - 1] * s2
    for k, s in enumerate(states):
        s = int(s)
        for a, b, J in bonds:
            if J == 0.0:
                continue
            if ((s >> a) & 1) != ((s >> b) & 1):
                H[index_of[s ^ ((1 << a) | (1 << b))], k] += 2.0 * J
    return H


def restrict_to_sector(H_full: np.ndarray, L: int) -> np.ndarray:
    keep = [s for s in range(H_full.shape[0]) if bin(s).count("1") == L]
    keep = np.array(sorted(keep))
    return H_full[np.ix_(keep, keep)]


def char_poly_coefficients(M: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier recursion; returns monic coefficients, highest first."""
    n = M.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    Mk = np.eye(n)
    for k in range(1, n + 1):
        Mk = M @ Mk
        c = -np.trace(Mk) / k
        coeffs[k] = c
        Mk += c * np.eye(n)
    return coeffs


# ---------------------------------------------------------------- basis

def test_sector_dimensions():
    assert SectorBasis(3).dim == 20
    assert SectorBasis(6).dim == 924
    assert SectorBasis(2).dim == 6


def test_l2_state_enumeration():
    basis = SectorBasis(2)
    assert list(basis.states) == [3, 5, 6, 9, 10, 12]


def test_index_map_is_inverse():
    # States are strictly ascending, so a bisection search is the inverse map.
    basis = SectorBasis(4)
    assert np.all(np.diff(basis.states) > 0)
    assert np.array_equal(np.searchsorted(basis.states, basis.states), np.arange(basis.dim))


def test_basis_rejects_out_of_range_l():
    for bad in (1, 0, 9, 12):
        with pytest.raises(ValueError):
            SectorBasis(bad)


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_leg_swap_index_map(L):
    basis = SectorBasis(L)
    swap = basis.leg_swap
    low = (1 << L) - 1
    for k, s in enumerate(basis.states):
        legs_swapped = ((int(s) & low) << L) | (int(s) >> L)
        assert basis.states[swap[k]] == legs_swapped
    assert np.array_equal(swap[swap], np.arange(basis.dim))
    # Fixed points repeat one leg's pattern on the other: C(L, L/2) of them at even L.
    fixed = np.count_nonzero(swap == np.arange(basis.dim))
    assert fixed == (comb(L, L // 2) if L % 2 == 0 else 0)


def test_all_states_half_filled():
    basis = SectorBasis(5)
    pops = [bin(int(s)).count("1") for s in basis.states]
    assert set(pops) == {5}


# ---------------------------------------------------------------- disorder

def test_disorder_zero_strength():
    params = LadderParams(L=4, h=0.0)
    real = sample_disorder(params, seed=7)
    assert real.fields == (0.0,) * 4


def test_disorder_deterministic():
    params = LadderParams(L=5, h=1.0)
    a = sample_disorder(params, seed=42)
    b = sample_disorder(params, seed=42)
    assert a == b
    c = sample_disorder(params, seed=43)
    assert a != c


def test_disorder_statistics():
    params = LadderParams(L=1000, h=10.0)
    # L > 8 is fine here: disorder sampling is independent of the basis range.
    values = np.concatenate(
        [sample_disorder(params, seed=s).fields for s in range(100)]
    )
    assert values.size == 10**5
    assert abs(values.mean()) < 0.15
    assert values.min() >= -10.0 and values.max() <= 10.0


def test_disorder_independent_legs():
    params = LadderParams(L=5, h=1.0)
    real = sample_disorder(params, seed=11, independent_legs=True)
    assert real.leg2_fields is not None
    assert real.fields != real.leg2_fields
    again = sample_disorder(params, seed=11, independent_legs=True)
    assert real == again
    assert real.fields_for_leg(2) == real.leg2_fields
    shared = sample_disorder(params, seed=11)
    assert shared.fields_for_leg(2) == shared.fields


# ---------------------------------------------------------------- hamiltonian

def test_uniform_couplings_l2():
    params = LadderParams(L=2, alpha=1.0, h=0.0)
    basis = SectorBasis(2)
    H = build_hamiltonian(params, sample_disorder(params, 0), basis).matrix
    off = H[~np.eye(6, dtype=bool)]
    assert set(np.round(off[off != 0.0], 12)) == {2.0}
    assert np.allclose(np.diag(H), 0.0)


def test_trace_is_zero_even_with_disorder():
    # Each sigma^z diagonal sums to zero over the half-filled sector, so the
    # field term is traceless too.
    params = LadderParams(L=4, alpha=0.7, h=3.0)
    basis = SectorBasis(4)
    H = build_hamiltonian(params, sample_disorder(params, 5), basis).matrix
    assert abs(np.trace(H)) < 1e-12


@pytest.mark.parametrize("alpha,h,seed", [(1.0, 0.0, 0), (0.7, 2.5, 3), (2.0, 1.0, 9)])
def test_sector_matches_full_space_oracle(alpha, h, seed):
    params = LadderParams(L=2, alpha=alpha, h=h)
    disorder = sample_disorder(params, seed)
    basis = SectorBasis(2)
    H = build_hamiltonian(params, disorder, basis).matrix
    H_oracle = restrict_to_sector(full_space_hamiltonian(params, disorder), L=2)
    assert np.max(np.abs(H - H_oracle)) < 1e-12


def test_sector_matches_full_space_oracle_l3_independent_legs():
    params = LadderParams(L=3, alpha=0.5, h=1.5)
    disorder = sample_disorder(params, 21, independent_legs=True)
    basis = SectorBasis(3)
    H = build_hamiltonian(params, disorder, basis).matrix
    H_oracle = restrict_to_sector(full_space_hamiltonian(params, disorder), L=3)
    assert np.max(np.abs(H - H_oracle)) < 1e-12


@pytest.mark.parametrize("independent_legs", [False, True])
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_hamiltonian_matches_loop_reference(L, independent_legs):
    # The bond-vectorized assembly performs the same additions as the loop,
    # so the matrices agree bit for bit.
    params = LadderParams(L=L, alpha=0.8, h=2.0)
    disorder = sample_disorder(params, 31 + L, independent_legs=independent_legs)
    basis = SectorBasis(L)
    H = build_hamiltonian(params, disorder, basis).matrix
    assert np.array_equal(H, loop_hamiltonian(params, disorder, basis))


def test_dimension_mismatch_rejected():
    params = LadderParams(L=3, h=1.0)
    with pytest.raises(ValueError):
        build_hamiltonian(params, sample_disorder(params, 0), SectorBasis(4))
    with pytest.raises(ValueError):
        build_hamiltonian(
            params, DisorderRealization(fields=(0.0, 0.0), seed=0), SectorBasis(3)
        )


def test_leg_swap_symmetry_of_shared_disorder():
    # With column-identical fields, exchanging the two legs permutes the basis
    # but maps H onto itself exactly.
    params = LadderParams(L=4, alpha=1.3, h=2.0)
    basis = SectorBasis(4)
    H = build_hamiltonian(params, sample_disorder(params, 17), basis).matrix
    perm = basis.leg_swap
    assert np.array_equal(H[np.ix_(perm, perm)], H)


# ---------------------------------------------------------------- spectra

def test_decoupled_dimer_spectrum():
    # alpha = 0, h = 0, L = 2: two free XX dimers; sector energies are sums of
    # per-leg energies {0, +-2, 0}, giving {-4, 0, 0, 0, 0, 4}.
    params = LadderParams(L=2, alpha=0.0, h=0.0)
    basis = SectorBasis(2)
    eig = diagonalize(build_hamiltonian(params, sample_disorder(params, 0), basis))
    assert np.allclose(eig.eigenvalues, [-4.0, 0.0, 0.0, 0.0, 0.0, 4.0], atol=1e-12)


def test_spectrum_matches_characteristic_polynomial():
    params = LadderParams(L=2, alpha=1.0, h=0.0)
    basis = SectorBasis(2)
    H = build_hamiltonian(params, sample_disorder(params, 0), basis)
    eig = diagonalize(H)
    roots = np.sort(np.roots(char_poly_coefficients(H.matrix)).real)
    assert np.allclose(np.sort(eig.eigenvalues), roots, atol=1e-8)


def test_eigensystem_invariants():
    params = LadderParams(L=4, alpha=1.0, h=1.0)
    basis = SectorBasis(4)
    H = build_hamiltonian(params, sample_disorder(params, 2), basis)
    eig = diagonalize(H)
    assert np.all(np.diff(eig.eigenvalues) >= 0)
    assert abs(eig.eigenvalues.sum() - np.trace(H.matrix)) <= 1e-9 * max(
        1.0, abs(np.trace(H.matrix))
    )
    V = eig.eigenvectors
    assert np.max(np.abs(V.T @ V - np.eye(basis.dim))) < 1e-10
    recon = (V * eig.eigenvalues) @ V.T
    assert np.max(np.abs(recon - H.matrix)) <= 1e-9 * np.max(np.abs(H.matrix))


def test_leg_swap_spectrum_invariance():
    # Exchanging the two legs' fields relabels the legs, so the spectrum stays.
    params = LadderParams(L=3, alpha=0.8, h=1.0)
    basis = SectorBasis(3)
    disorder = sample_disorder(params, 23, independent_legs=True)
    swapped = DisorderRealization(
        fields=disorder.leg2_fields, seed=disorder.seed, leg2_fields=disorder.fields
    )
    H = build_hamiltonian(params, disorder, basis)
    H_swapped = build_hamiltonian(params, swapped, basis)
    assert not np.array_equal(H.matrix, H_swapped.matrix)
    assert np.max(np.abs(diagonalize(H).eigenvalues - diagonalize(H_swapped).eigenvalues)) < 1e-12


def test_default_diagonalize_is_one_full_eigh():
    # wavefront and decay need the eigensystem bit for bit as a plain eigh gives it.
    params = LadderParams(L=4, alpha=1.3, h=1.0)
    H = build_hamiltonian(params, sample_disorder(params, 8), SectorBasis(4))
    w, v = scipy.linalg.eigh(H.matrix)
    eig = diagonalize(H)
    assert np.array_equal(eig.eigenvalues, w)
    assert np.array_equal(eig.eigenvectors, v)


@pytest.mark.parametrize("independent_legs", [False, True])
@pytest.mark.parametrize("h", [0.0, 1.0, 8.0])
@pytest.mark.parametrize("alpha", [0.0, 1.3])
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_eigenvalues_only_matches_full_solve(L, alpha, h, independent_legs):
    params = LadderParams(L=L, alpha=alpha, h=h)
    basis = SectorBasis(L)
    disorder = sample_disorder(params, 40 + L, independent_legs)
    blocks = leg_swap_blocks(params, disorder, basis)
    shared = not (independent_legs and h > 0)
    assert blocks.mirrored == (shared and L % 2 == 1)
    assert len(blocks.blocks) == (2 if shared and L % 2 == 0 else 1)
    assert blocks.dim == basis.dim
    w = diagonalize(blocks)
    assert isinstance(w, np.ndarray) and w.shape == (basis.dim,)
    assert np.all(np.diff(w) >= 0)
    H = build_hamiltonian(params, disorder, basis).matrix
    assert np.max(np.abs(w - scipy.linalg.eigh(H, eigvals_only=True))) < 1e-12


def test_eigenvalues_only_matches_full_solve_at_l7():
    # The benchmark's size: one mirrored block of 1716 against the N = 3432 solve.
    params = LadderParams(L=7, alpha=1.3, h=1.0)
    basis = SectorBasis(7)
    disorder = sample_disorder(params, 47)
    w = diagonalize(leg_swap_blocks(params, disorder, basis))
    H = build_hamiltonian(params, disorder, basis).matrix
    assert np.max(np.abs(w - scipy.linalg.eigh(H, eigvals_only=True))) < 1e-12


def reference_spectral_blocks(H: SectorHamiltonian, basis: SectorBasis) -> list[np.ndarray]:
    """The projections Q^T H Q onto P = -1 and P = +1, by dense row and column
    gathers of H: the reference for the blocks `leg_swap_blocks` scatters
    from the nonzero entries."""
    M = H.matrix
    k = np.arange(H.dim)
    swap = basis.leg_swap
    blocks = []
    for combine, keep in ((np.subtract, k < swap), (np.add, k <= swap)):
        a, b = k[keep], swap[keep]
        rows = M[a]
        combine(rows, M[b], out=rows)
        block = rows.take(a, axis=1)
        combine(block, rows.take(b, axis=1), out=block)
        w = np.where(a == b, 0.5, np.sqrt(0.5))
        block *= w[:, None]
        block *= w
        blocks.append(block)
    return blocks


@pytest.mark.parametrize("alpha", [0.0, 1.3])
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_spectral_blocks_match_reference(L, alpha):
    params = LadderParams(L=L, alpha=alpha, h=1.0)
    basis = SectorBasis(L)
    disorder = sample_disorder(params, 60 + L)
    H = build_hamiltonian(params, disorder, basis)
    reference = reference_spectral_blocks(H, basis)
    blocks = leg_swap_blocks(params, disorder, basis).blocks
    # Same sums in another order: equal to rounding, not bit for bit.
    tol = 1e-14 * np.linalg.norm(H.matrix, 2)
    if L % 2:
        # Only the P = -1 block is assembled; the P = +1 one is its mirror image.
        assert len(blocks) == 1
        minus, plus = (scipy.linalg.eigh(b, eigvals_only=True) for b in reference)
        assert np.max(np.abs(np.sort(-minus) - plus)) < 1e-12
    assert len(blocks) == (1 if L % 2 else 2)
    for got, want in zip(blocks, reference):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= tol


def swap_with_spin_flip(basis: SectorBasis) -> SectorBasis:
    """The basis with its leg swap P replaced by P times the global spin flip:
    still an involution of the states, but one the fields break, so the
    blocks it defines are coupled and their projection drops weight."""
    # The flip of states[k] is states[N - 1 - k].
    basis.leg_swap = basis.leg_swap[::-1].copy()
    return basis


def blocks_with_spin_flipped_swap(L: int):
    params = LadderParams(L=L, alpha=1.0, h=1.0)
    basis = swap_with_spin_flip(SectorBasis(L))
    return leg_swap_blocks(params, sample_disorder(params, 5), basis)


def test_eigenvalues_only_rejects_leg_swap_asymmetric_matrix():
    with pytest.raises(RuntimeError, match="misses weight"):
        diagonalize(blocks_with_spin_flipped_swap(4))


def test_eigenvalues_only_rejects_leg_swap_asymmetric_matrix_at_odd_l():
    # Odd L solves the P = -1 block alone and mirrors it.
    with pytest.raises(RuntimeError, match="misses weight"):
        diagonalize(blocks_with_spin_flipped_swap(5))


def test_mirror_guard_rejects_a_same_sublattice_bond(monkeypatch):
    # A next-nearest-neighbour hop on both legs keeps the leg swap but joins
    # sites of one sublattice, so E -> -E no longer holds.
    bonds = core._bonds

    def with_next_nearest(params):
        L = params.L
        extra = [
            (bit_position(L, leg, 1), bit_position(L, leg, 3), params.J_par) for leg in (1, 2)
        ]
        return bonds(params) + extra

    monkeypatch.setattr(core, "_bonds", with_next_nearest)
    params = LadderParams(L=5, h=1.0)
    with pytest.raises(RuntimeError, match="joins one sublattice"):
        leg_swap_blocks(params, sample_disorder(params, 3), SectorBasis(5))


def test_mirror_guard_rejects_an_even_diagonal(monkeypatch):
    # A constant shift is even under the global spin flip and moves the
    # spectrum off E -> -E.
    entries = core._hamiltonian_entries

    def shifted(*args):
        d, rows, cols, values = entries(*args)
        return d + 1.0, rows, cols, values

    monkeypatch.setattr(core, "_hamiltonian_entries", shifted)
    params = LadderParams(L=5, h=1.0)
    with pytest.raises(RuntimeError, match="not odd under the global spin flip"):
        leg_swap_blocks(params, sample_disorder(params, 3), SectorBasis(5))


@pytest.mark.parametrize("L", [5, 6])
def test_eigenvalues_only_stays_below_one_dense_matrix(L):
    params = LadderParams(L=L, h=1.0)
    basis = SectorBasis(L)
    disorder = sample_disorder(params, 9)
    tracemalloc.start()
    try:
        diagonalize(leg_swap_blocks(params, disorder, basis))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * basis.dim**2


@pytest.mark.parametrize("vectors", [True, False])
def test_eigensolver_failure_is_reported_with_the_realization(vectors, monkeypatch):
    params = LadderParams(L=3, h=1.0)
    disorder = sample_disorder(params, 4)
    H = build_hamiltonian(params, disorder, SectorBasis(3))
    blocks = leg_swap_blocks(params, disorder, SectorBasis(3))

    def failing_eigh(*args, **kwargs):
        raise scipy.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh", failing_eigh)
    with pytest.raises(DiagonalizationError, match="seed=4"):
        diagonalize(H if vectors else blocks)


def test_dense_steps_check_memory_first(monkeypatch):
    params = LadderParams(L=3, h=1.0)
    basis = SectorBasis(3)
    disorder = sample_disorder(params, 4)
    H = build_hamiltonian(params, disorder, basis)
    blocks = leg_swap_blocks(params, disorder, basis)
    monkeypatch.setattr(core, "_physical_memory", lambda: 1000)
    for caller, call in [
        ("build_hamiltonian", lambda: build_hamiltonian(params, disorder, basis)),
        ("leg_swap_blocks", lambda: leg_swap_blocks(params, disorder, basis)),
        ("diagonalize", lambda: diagonalize(H)),
        ("diagonalize", lambda: diagonalize(blocks)),
    ]:
        with pytest.raises(MemoryError, match=rf"{caller} at N=\d+ needs about .* 1000 bytes"):
            call()


def test_memory_check_admits_l7_and_stops_the_l8_w_route(monkeypatch):
    monkeypatch.setattr(core, "_physical_memory", lambda: 8 * 2**30)
    n7, n8 = comb(14, 7), comb(16, 8)
    for copies in (
        core.BUILD_COPIES,
        core.BLOCK_COPIES,
        core.EIGH_COPIES,
        core.EIGVALS_COPIES,
        otoc.EXACT_COPIES,
        otoc.MULTI_DISTANCE_COPIES,
        otoc.SAMPLED_COPIES + otoc.SAMPLED_COPIES_PER_STATE * 64 / n7,
    ):
        check_memory("step", n7, copies)
    # At L = 8 one N x N array is 1.3 GB and the W-route holds about ten.
    with pytest.raises(MemoryError, match="multi_distance_otoc_values at N=12870"):
        check_memory("multi_distance_otoc_values", n8, otoc.MULTI_DISTANCE_COPIES)


# ---------------------------------------------------------------- evolution

@pytest.fixture(scope="module")
def small_eig():
    params = LadderParams(L=3, alpha=1.0, h=1.0)
    basis = SectorBasis(3)
    return diagonalize(build_hamiltonian(params, sample_disorder(params, 1), basis))


def test_evolve_t0_is_identity(small_eig):
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(small_eig.dim) + 1j * rng.standard_normal(small_eig.dim)
    psi /= np.linalg.norm(psi)
    assert np.allclose(evolve_state(small_eig, psi, 0.0), psi, atol=1e-12)


def test_evolve_round_trip(small_eig):
    rng = np.random.default_rng(1)
    psi = rng.standard_normal(small_eig.dim) + 1j * rng.standard_normal(small_eig.dim)
    psi /= np.linalg.norm(psi)
    back = evolve_state(small_eig, evolve_state(small_eig, psi, 3.7), -3.7)
    assert np.max(np.abs(back - psi)) < 1e-9


def test_evolve_eigenvector_phase(small_eig):
    n = 4
    v = small_eig.eigenvectors[:, n].astype(complex)
    t = 2.3
    out = evolve_state(small_eig, v, t)
    expected = np.exp(-1j * small_eig.eigenvalues[n] * t) * v
    assert np.max(np.abs(out - expected)) < 1e-10


def test_evolve_unitary_at_long_times(small_eig):
    rng = np.random.default_rng(2)
    psi = rng.standard_normal(small_eig.dim) + 1j * rng.standard_normal(small_eig.dim)
    psi /= np.linalg.norm(psi)
    out = evolve_state(small_eig, psi, 1000.0)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-10


def test_evolve_rejects_unnormalized(small_eig):
    with pytest.raises(ValueError):
        evolve_state(small_eig, np.ones(small_eig.dim), 1.0)


def test_evolve_norm_check_survives_optimized_mode():
    # Eigenvectors 2 I make U(t) scale every state by 4; the output-norm check
    # must raise even under python -O, which strips assert statements.
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from ladderxx.core import EigenSystem, evolve_state

        if not sys.flags.optimize:
            sys.exit(2)
        eig = EigenSystem(eigenvalues=np.zeros(4), eigenvectors=2.0 * np.eye(4))
        try:
            evolve_state(eig, np.array([1.0, 0.0, 0.0, 0.0]), 0.5)
        except RuntimeError:
            sys.exit(0)
        sys.exit(1)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------- operators

def test_sigma_z_hand_enumeration_l2():
    basis = SectorBasis(2)
    assert list(sigma_z_operator(basis, 1, 1)) == [1.0, 1.0, -1.0, 1.0, -1.0, -1.0]


def test_sigma_z_sums_to_zero():
    basis = SectorBasis(3)
    total = sum(
        sigma_z_operator(basis, leg, site) for leg in (1, 2) for site in (1, 2, 3)
    )
    assert np.array_equal(total, np.zeros(basis.dim))


def test_sigma_z_squares_to_identity():
    basis = SectorBasis(4)
    assert np.array_equal(sigma_z_operator(basis, 2, 3) ** 2, np.ones(basis.dim))


def test_sigma_z_rejects_bad_indices():
    basis = SectorBasis(3)
    with pytest.raises(ValueError):
        sigma_z_operator(basis, 3, 1)
    with pytest.raises(ValueError):
        sigma_z_operator(basis, 1, 4)


# ---------------------------------------------------------------- properties

@settings(max_examples=20, deadline=None)
@given(
    L=st.integers(min_value=2, max_value=4),
    alpha=st.floats(min_value=0.0, max_value=5.0),
    h=st.floats(min_value=0.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_hamiltonian_properties(L, alpha, h, seed):
    params = LadderParams(L=L, alpha=alpha, h=h)
    basis = SectorBasis(L)
    H = build_hamiltonian(params, sample_disorder(params, seed), basis).matrix
    assert np.max(np.abs(H - H.T)) <= 1e-12
    assert abs(np.trace(H)) < 1e-10


def test_params_store_plain_numbers():
    a = LadderParams(L=np.int64(4), J_par=1, alpha=1, h=np.float64(2.0))
    assert a == LadderParams(L=4, J_par=1.0, alpha=1.0, h=2.0)
    assert type(a.L) is int
    assert all(type(v) is float for v in (a.J_par, a.alpha, a.h))
    signed = LadderParams(L=4, alpha=-0.0, h=-0.0)
    assert (repr(signed.alpha), repr(signed.h)) == ("0.0", "0.0")
    with pytest.raises(ValueError):
        LadderParams(L=3.0)


def test_seed_does_not_depend_on_numpy_scalar_types():
    h = 1.5
    assert derive_seed(7, "level_stats", 4, 1.0, np.float64(h), np.int64(2)) == derive_seed(
        7, "level_stats", 4, 1.0, float(h), 2
    )
    params = LadderParams(L=4, h=h)
    assert sample_disorder(params, derive_seed(7, np.float64(h))) == sample_disorder(
        params, derive_seed(7, float(h))
    )


def test_params_validation():
    with pytest.raises(ValueError):
        LadderParams(L=1)
    with pytest.raises(ValueError):
        LadderParams(L=3, J_par=0.0)
    with pytest.raises(ValueError):
        LadderParams(L=3, alpha=-0.1)
    with pytest.raises(ValueError):
        LadderParams(L=3, h=-1.0)
    nan, inf = float("nan"), float("inf")
    for field, value in (("h", nan), ("alpha", nan), ("J_par", inf), ("h", inf)):
        with pytest.raises(ValueError, match=field):
            LadderParams(L=3, **{field: value})
