"""Basis, Hamiltonian, and eigensolve checks against independent small-system oracles."""

import dataclasses
import itertools
import os
import tracemalloc
from math import comb, fsum

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from charge_oracles import charge_map, dressed_rung_charge, leg_swap
from ladderxx import core, otoc
from ladderxx.core import (
    DiagonalizationError,
    DisorderRealization,
    LadderParams,
    SectorBasis,
    SectorSpectra,
    bit_position,
    build_hamiltonian,
    check_memory,
    derive_seed,
    diagonalize,
    diagonalize_sectors,
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
            bonds.append((bit_position(L, leg, site), bit_position(L, leg, site + 1), 1.0))
    for site in range(1, L + 1):
        bonds.append((bit_position(L, 1, site), bit_position(L, 2, site), params.alpha))
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
        (bit_position(L, leg, site), bit_position(L, leg, site + 1), 1.0)
        for leg in (1, 2)
        for site in range(1, L)
    ] + [
        (bit_position(L, 1, site), bit_position(L, 2, site), params.alpha)
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


def csr_reference(
    params: LadderParams, disorder: DisorderRealization, basis: SectorBasis
) -> scipy.sparse.csr_array:
    """H as a scipy.sparse CSR matrix: the field diagonal, then 2 J per hop, bond by bond."""
    states, n = basis.states, basis.dim
    index = np.arange(n)
    h1, h2 = (np.asarray(disorder.fields_for_leg(leg)) for leg in (1, 2))
    d = np.zeros(n)
    for site in range(1, params.L + 1):
        s1, s2 = (sigma_z_operator(basis, leg, site) for leg in (1, 2))
        d += h1[site - 1] * s1 + h2[site - 1] * s2
    rows, cols, values = [index], [index], [d]
    for a, b, J in core._bonds(params):
        if J == 0.0:
            continue
        hops = ((states >> a) ^ (states >> b)) & 1 == 1
        rows.append(np.searchsorted(states, states[hops] ^ ((1 << a) | (1 << b))))
        cols.append(index[hops])
        values.append(np.full(cols[-1].size, 2.0 * J))
    return scipy.sparse.csr_array(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


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


def test_l_must_be_an_integer_in_params_and_basis():
    for bad in (3.5, 4.0, True, "4"):
        with pytest.raises(ValueError, match="integer"):
            SectorBasis(bad)
        with pytest.raises(ValueError, match="integer"):
            LadderParams(L=bad)
    assert SectorBasis(np.int64(3)).L == 3
    assert type(SectorBasis(np.int64(3)).L) is int


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_leg_swap_index_map(L):
    basis = SectorBasis(L)
    swap = leg_swap(basis)
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


@pytest.mark.parametrize("L", range(2, 9))
def test_states_are_the_sorted_combinations_of_l_spins(L):
    combinations = itertools.combinations(range(2 * L), L)
    reference = sorted(sum(1 << p for p in positions) for positions in combinations)
    states = SectorBasis(L).states
    assert states.dtype == np.int64
    assert np.array_equal(states, reference)


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
    H = build_hamiltonian(params, sample_disorder(params, 0), basis).dense()
    off = H[~np.eye(6, dtype=bool)]
    assert set(np.round(off[off != 0.0], 12)) == {2.0}
    assert np.allclose(np.diag(H), 0.0)


def test_trace_is_zero_even_with_disorder():
    # Each sigma^z diagonal sums to zero over the half-filled sector, so the
    # field term is traceless too.
    params = LadderParams(L=4, alpha=0.7, h=3.0)
    basis = SectorBasis(4)
    H = build_hamiltonian(params, sample_disorder(params, 5), basis).dense()
    assert abs(np.trace(H)) < 1e-12


@pytest.mark.parametrize("alpha,h,seed", [(1.0, 0.0, 0), (0.7, 2.5, 3), (2.0, 1.0, 9)])
def test_sector_matches_full_space_oracle(alpha, h, seed):
    params = LadderParams(L=2, alpha=alpha, h=h)
    disorder = sample_disorder(params, seed)
    basis = SectorBasis(2)
    H = build_hamiltonian(params, disorder, basis).dense()
    H_oracle = restrict_to_sector(full_space_hamiltonian(params, disorder), L=2)
    assert np.max(np.abs(H - H_oracle)) < 1e-12


def test_sector_matches_full_space_oracle_l3_independent_legs():
    params = LadderParams(L=3, alpha=0.5, h=1.5)
    disorder = sample_disorder(params, 21, independent_legs=True)
    basis = SectorBasis(3)
    H = build_hamiltonian(params, disorder, basis).dense()
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
    H = build_hamiltonian(params, disorder, basis).dense()
    assert np.array_equal(H, loop_hamiltonian(params, disorder, basis))


@pytest.mark.parametrize("independent_legs", [False, True])
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_dense_hamiltonian_is_the_csr_matrix_bit_for_bit(L, independent_legs):
    # diagonalize(H) solves this Fortran-order array in place, so its bits
    # fix the full eigensystem and every output computed from it.
    params = LadderParams(L=L, alpha=0.8, h=2.0)
    disorder = sample_disorder(params, 50 + L, independent_legs=independent_legs)
    basis = SectorBasis(L)
    got = build_hamiltonian(params, disorder, basis).dense()
    want = csr_reference(params, disorder, basis).toarray(order="F")
    assert got.flags.f_contiguous
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_dimension_mismatch_rejected():
    params = LadderParams(L=3, h=1.0)
    with pytest.raises(ValueError):
        build_hamiltonian(params, sample_disorder(params, 0), SectorBasis(4))
    with pytest.raises(ValueError):
        build_hamiltonian(
            params, DisorderRealization(fields=(0.0, 0.0), seed=0), SectorBasis(3)
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_fields_rejected(bad):
    with pytest.raises(ValueError, match="fields must be finite"):
        DisorderRealization(fields=(bad, 0.1, 0.2), seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_leg2_fields_rejected(bad):
    with pytest.raises(ValueError, match="fields must be finite"):
        DisorderRealization(fields=(0.0, 0.1, 0.2), seed=0, leg2_fields=(0.3, bad, 0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["diagonal", "values"])
def test_hamiltonian_refuses_a_non_finite_entry(name, bad, monkeypatch):
    # diagonalize skips scipy's finiteness scan, so H refuses such an entry
    # when it is made, by dataclasses.replace as by build_hamiltonian.
    params = LadderParams(L=3, h=1.0)
    H = build_hamiltonian(params, sample_disorder(params, 6), SectorBasis(3))
    entries = getattr(H, name).copy()
    entries[1] = bad
    monkeypatch.setattr(core, "_dense", None)
    with pytest.raises(ValueError, match=rf"non-finite entry in {name} \(L=3, seed=6\)"):
        dataclasses.replace(H, **{name: entries})


@pytest.mark.parametrize(
    "params, fields, name",
    [
        # inf + (-inf) on the columns' diagonal sums gives NaN, inf and -inf.
        (LadderParams(L=2), (1e308, 1e308), "diagonal"),
        (LadderParams(L=2), (1e308, 0.0), "diagonal"),
        # 2 alpha = inf on every rung.
        (LadderParams(L=2, alpha=1e308), (0.0, 0.0), "values"),
    ],
)
def test_build_hamiltonian_refuses_finite_inputs_that_overflow(params, fields, name, monkeypatch):
    monkeypatch.setattr(core, "_dense", None)
    disorder = DisorderRealization(fields=fields, seed=11)
    match = rf"non-finite entry in {name} \(L=2, seed=11\)"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=match):
        build_hamiltonian(params, disorder, SectorBasis(2))


def test_leg_swap_symmetry_of_shared_disorder():
    # With column-identical fields, exchanging the two legs permutes the basis
    # but maps H onto itself exactly.
    params = LadderParams(L=4, alpha=1.3, h=2.0)
    basis = SectorBasis(4)
    H = build_hamiltonian(params, sample_disorder(params, 17), basis).dense()
    perm = leg_swap(basis)
    assert np.array_equal(H[np.ix_(perm, perm)], H)


# ---------------------------------------------------------------- charge sectors

@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_charge_sectors_have_squared_binomial_sizes(L):
    charges, counts = np.unique(SectorBasis(L).charge_labels.charge, return_counts=True)
    assert charges.tolist() == list(range(-L, L + 1, 2))
    assert counts.tolist() == [comb(L, k) ** 2 for k in range(L + 1)]


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_charge_label_rank_is_the_row_within_its_sector(L):
    labels = SectorBasis(L).charge_labels
    for q in np.unique(labels.charge):
        slots = labels.order[labels.charge[labels.order] == q]
        assert np.array_equal(labels.rank[slots], np.arange(slots.size))


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_charge_map_is_orthonormal(L):
    basis = SectorBasis(L)
    U = np.hstack(list(charge_map(basis).values()))
    assert np.max(np.abs(U.T @ U - np.eye(basis.dim))) < 1e-14
    # Each state's Hadamard transform has 2^z entries, z the singly occupied columns.
    z = [bin((int(s) ^ (int(s) >> L)) & ((1 << L) - 1)).count("1") for s in basis.states]
    assert np.count_nonzero(U) == sum(2**w for w in z)


@pytest.mark.parametrize("alpha", [0.0, 0.7, 1.3])
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_rung_blocks_match_the_charge_map_oracle(L, alpha):
    # The oracle's columns, and so the blocks' rows, come in
    # `ChargeLabels.order`, which the W-route's Hadamard input relies on.
    params = LadderParams(L=L, alpha=alpha, h=1.5)
    basis = SectorBasis(L)
    H = build_hamiltonian(params, sample_disorder(params, 80 + L), basis)
    oracle = charge_map(basis)
    blocks = core._rung_sectors(H)
    assert list(blocks) == list(oracle)
    dense = H.dense()
    for q, U in oracle.items():
        assert np.max(np.abs(core._dense(*blocks[q]) - U.T @ dense @ U)) < 1e-13


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_charge_sectors_have_the_leg_swap_parity_their_charge_fixes(L):
    # P = prod_t X_t on a column pattern, so each eigenvector of Q is one of P,
    # with a parity set by q alone.
    basis = SectorBasis(L)
    swap = leg_swap(basis)
    for q, U in charge_map(basis).items():
        PU = U[swap]
        parity = np.sign(np.sum(PU * U, axis=0))
        assert np.all(parity == parity[0])
        assert np.max(np.abs(PU - parity[0] * U)) < 1e-14


def charge_map_by_slot(basis):
    """U_Q from the `charge_map` oracle, its column s the label in slot s.

    The sectors come by ascending q, each with its labels in `ChargeLabels.order`.
    """
    U = np.hstack(list(charge_map(basis).values()))
    order = basis.charge_labels.order
    by_slot = np.empty_like(U)
    by_slot[:, order[np.argsort(basis.charge_labels.charge[order], kind="stable")]] = U
    return by_slot


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_hadamard_plan_rebuilds_the_charge_map(L):
    basis = SectorBasis(L)
    n = basis.dim
    plan = basis.hadamard_plan
    S = np.full((n, n), np.nan)
    # Row k of the plan's input is the label in slot order[k]; it is mapped
    # N/2 columns at a time, piece by piece.
    half = n // 2
    scratch = np.empty(max(at.size for *_, at in plan.pieces) * half)
    for start in (0, half):
        written = np.zeros(n, dtype=int)
        for at, piece in plan.apply(np.ascontiguousarray(np.eye(n)[:, start : start + half]), scratch):
            written[at] += 1
            S[at, start : start + half] = piece
        # Every row of the result comes in exactly one piece.
        assert np.all(written == 1)
    want = charge_map_by_slot(basis)[plan.rows][:, basis.charge_labels.order]
    assert np.max(np.abs(S - want)) < 1e-15


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_first_half_of_s_holds_one_state_of_each_mirror_pair(L):
    basis = SectorBasis(L)
    n = basis.dim
    rows = basis.hadamard_plan.rows
    assert np.array_equal(np.sort(rows), np.arange(n))
    # The flip of state a is state N - 1 - a.
    first = rows[: n // 2]
    assert np.array_equal(np.sort(np.concatenate([first, n - 1 - first])), np.arange(n))


def test_hadamard_plan_is_built_once_per_basis_and_read_only():
    basis = SectorBasis(4)
    plan = basis.hadamard_plan
    assert basis.hadamard_plan is plan
    arrays = [plan.rows] + [a for piece in plan.pieces for a in piece if isinstance(a, np.ndarray)]
    assert len(arrays) == 1 + 2 * len(plan.pieces)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


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
    roots = np.sort(np.roots(char_poly_coefficients(H.dense())).real)
    assert np.allclose(np.sort(eig.eigenvalues), roots, atol=1e-8)


def test_eigensystem_invariants():
    params = LadderParams(L=4, alpha=1.0, h=1.0)
    basis = SectorBasis(4)
    H = build_hamiltonian(params, sample_disorder(params, 2), basis)
    eig = diagonalize(H)
    dense = H.dense()
    assert np.all(np.diff(eig.eigenvalues) >= 0)
    assert abs(eig.eigenvalues.sum() - np.trace(dense)) <= 1e-9 * max(1.0, abs(np.trace(dense)))
    V = eig.eigenvectors
    assert np.max(np.abs(V.T @ V - np.eye(basis.dim))) < 1e-10
    recon = (V * eig.eigenvalues) @ V.T
    assert np.max(np.abs(recon - dense)) <= 1e-9 * np.max(np.abs(dense))


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
    assert not np.array_equal(H.dense(), H_swapped.dense())
    assert np.max(np.abs(diagonalize(H).eigenvalues - diagonalize(H_swapped).eigenvalues)) < 1e-12


@pytest.mark.parametrize("independent_legs", [False, True])
@pytest.mark.parametrize("vectors", [True, False])
def test_diagonalize_skips_scipys_finiteness_scan(vectors, independent_legs, monkeypatch):
    # The entries were checked when H was made (SectorHamiltonian).
    params = LadderParams(L=4, h=1.0)
    H = build_hamiltonian(params, sample_disorder(params, 8, independent_legs), SectorBasis(4))
    eigh, check_finite = scipy.linalg.eigh, []

    def recording_eigh(a, **kwargs):
        check_finite.append(kwargs.get("check_finite", True))
        return eigh(a, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", recording_eigh)
    diagonalize(H, vectors=vectors)
    assert check_finite and not any(check_finite)


def test_full_solve_checks_its_spectrum(monkeypatch):
    params = LadderParams(L=4, alpha=1.3, h=1.0)
    H = build_hamiltonian(params, sample_disorder(params, 8), SectorBasis(4))
    eigh = scipy.linalg.eigh

    def shifted_eigh(a, **kwargs):
        w, v = eigh(a, **kwargs)
        return w + 1e-6, v

    monkeypatch.setattr(scipy.linalg, "eigh", shifted_eigh)
    with pytest.raises(RuntimeError, match="spectrum misses the trace of H"):
        diagonalize(H)


def test_default_diagonalize_is_one_full_eigh():
    # wavefront and decay need the eigensystem bit for bit as a plain eigh gives it.
    params = LadderParams(L=4, alpha=1.3, h=1.0)
    H = build_hamiltonian(params, sample_disorder(params, 8), SectorBasis(4))
    w, v = scipy.linalg.eigh(H.dense())
    eig = diagonalize(H)
    assert np.array_equal(eig.eigenvalues, w)
    assert np.array_equal(eig.eigenvectors, v)


@pytest.mark.parametrize("independent_legs", [False, True])
@pytest.mark.parametrize("h", [0.0, 1.0, 8.0])
@pytest.mark.parametrize("alpha", [0.0, 1.3])
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_eigenvalues_only_matches_full_solve(L, alpha, h, independent_legs):
    params = LadderParams(L=L, alpha=alpha, h=h)
    basis = SectorBasis(L)
    H = build_hamiltonian(params, sample_disorder(params, 40 + L, independent_legs), basis)
    spectra = diagonalize(H, vectors=False)
    assert isinstance(spectra, SectorSpectra)
    w = spectra.eigenvalues
    assert w.shape == (basis.dim,)
    assert np.all(np.diff(w) >= 0)
    shared = not (independent_legs and h > 0)
    charges = list(range(L % 2, L + 1, 2)) if shared else []
    assert list(spectra.sectors) == charges
    sizes = [comb(L, (L + q) // 2) ** 2 for q in charges]
    assert [E.size for E in spectra.sectors.values()] == sizes
    dense = H.dense()
    assert np.max(np.abs(w - scipy.linalg.eigh(dense, eigvals_only=True))) < 1e-12


@pytest.mark.parametrize("h", [0.0, 1.0, 8.0])
@pytest.mark.parametrize("alpha", [0.0, 1.3])
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_sector_eigensystems_diagonalize_the_charge_blocks(L, alpha, h):
    params = LadderParams(L=L, alpha=alpha, h=h)
    basis = SectorBasis(L)
    H = build_hamiltonian(params, sample_disorder(params, 40 + L), basis)
    eig = diagonalize_sectors(H)
    dense = H.dense()
    charge_sectors = charge_map(basis)
    assert list(eig.sectors) == list(range(-L, L + 1, 2))
    assert eig.dim == basis.dim
    w = np.sort(np.concatenate([E for E, _ in eig.sectors.values()]))
    assert np.max(np.abs(w - scipy.linalg.eigh(dense, eigvals_only=True))) < 1e-12
    for q, (E, V) in eig.sectors.items():
        U = charge_sectors[q]
        assert np.all(np.diff(E) >= 0)
        assert np.max(np.abs(V.T @ V - np.eye(E.size))) < 1e-13
        assert np.max(np.abs(U.T @ dense @ U @ V - V * E)) < 1e-12 * (1.0 + h)


def test_sector_eigensystems_need_shared_fields(monkeypatch):
    # Independent legs conserve no charge: no block is built for them.
    params = LadderParams(L=3, h=1.0)
    basis = SectorBasis(3)
    H = build_hamiltonian(params, sample_disorder(params, 2, independent_legs=True), basis)

    def no_blocks(*args):
        pytest.fail("a charge block was built for independent legs")

    monkeypatch.setattr(core, "_rung_sectors", no_blocks)
    with pytest.raises(ValueError, match="diagonalize_sectors needs shared fields"):
        diagonalize_sectors(H)


@pytest.mark.parametrize("L", [3, 4, 5, 6])
def test_independent_legs_block_is_the_dense_hamiltonian(L):
    # The one block is H made dense: its spectrum is bit for bit the one
    # eigenvalues-only eigh of H.
    params = LadderParams(L=L, alpha=1.3, h=2.0)
    basis = SectorBasis(L)
    H = build_hamiltonian(params, sample_disorder(params, 70 + L, independent_legs=True), basis)
    spectra = diagonalize(H, vectors=False)
    want = scipy.linalg.eigh(H.dense(), eigvals_only=True)
    assert np.array_equal(spectra.eigenvalues, want)
    assert spectra.sectors == {}


@pytest.mark.parametrize("independent_legs", [False, True])
@pytest.mark.parametrize("L", [4, 5, 6])
def test_eigenvalues_only_solve_in_place_changes_no_bit(L, independent_legs):
    # LAPACK overwrites each dense block; the spectra are bit for bit those of
    # a copying eigh of a fresh block, and H's own entries stay as they were.
    params = LadderParams(L=L, alpha=1.3, h=2.0)
    H = build_hamiltonian(params, sample_disorder(params, 30 + L, independent_legs), SectorBasis(L))
    entries = [a.copy() for a in (H.diagonal, H.rows, H.cols, H.values)]
    spectra = diagonalize(H, vectors=False)
    for before, after in zip(entries, (H.diagonal, H.rows, H.cols, H.values)):
        assert np.array_equal(before, after)
    sectors = {} if independent_legs else core._rung_sectors(H)
    sectors = {q: block for q, block in sectors.items() if q >= 0}
    blocks = list(sectors.values()) or [(H.diagonal, H.rows, H.cols, H.values)]
    want = [scipy.linalg.eigh(core._dense(*block), eigvals_only=True) for block in blocks]
    assert list(spectra.sectors) == list(sectors)
    for E, w in zip(spectra.sectors.values(), want):
        assert E.tobytes() == w.tobytes()
    mirrors = [-w for q, w in zip(sectors, want) if q > 0]
    assert spectra.eigenvalues.tobytes() == np.sort(np.concatenate(want + mirrors)).tobytes()


def reference_charge_projections(Q: np.ndarray) -> dict[int, np.ndarray]:
    """Orthonormal bases of the eigenspaces of the dense charge Q, by charge."""
    q, V = np.linalg.eigh(Q)
    q = np.round(q).astype(int)
    return {int(c): V[:, q == c] for c in np.unique(q)}


@pytest.mark.parametrize("alpha", [0.0, 1.3])
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_spectral_blocks_match_reference(L, alpha):
    params = LadderParams(L=L, alpha=alpha, h=1.0)
    basis = SectorBasis(L)
    H = build_hamiltonian(params, sample_disorder(params, 60 + L), basis)
    dense = H.dense()
    reference = reference_charge_projections(dressed_rung_charge(basis))
    charge_sectors = charge_map(basis)
    spectra = diagonalize(H, vectors=False)
    # Only the sectors q >= 0 are solved; each q < 0 one is a mirror image.
    assert list(spectra.sectors) == [q for q in reference if q >= 0]
    for q, E in spectra.sectors.items():
        U = charge_sectors[q]
        V = reference[q]
        # The map spans the eigenspace of the dense Q ...
        assert np.max(np.abs(U @ U.T - V @ V.T)) < 1e-12
        # ... and the sector's spectrum is that of the projection of H on
        # it, and the negated one of the projection on sector -q.
        for sign, V in ((1, reference[q]), (-1, reference[-q])):
            want = np.sort(sign * scipy.linalg.eigh(V.T @ dense @ V, eigvals_only=True))
            assert np.max(np.abs(E - want)) < 1e-12


@pytest.mark.parametrize("independent_legs", [False, True])
@pytest.mark.parametrize("L", range(2, 8))
def test_frobenius2_is_the_sum_of_squared_entries_of_h(L, independent_legs):
    params = LadderParams(L=L, alpha=1.3, h=2.0)
    disorder = sample_disorder(params, 8, independent_legs=independent_legs)
    basis = SectorBasis(L)
    H = build_hamiltonian(params, disorder, basis)
    want = fsum(np.square(np.concatenate([H.diagonal, H.values])))
    # N levels that carry exactly ||H||_F^2 and tr H pass the spectral-weight
    # check; a relative miss of 2e-9, far above its rounding allowance, does not.
    n, trace = basis.dim, fsum(H.diagonal)
    w = trace / n + np.sqrt((want - trace**2 / n) / n) * np.resize([1.0, -1.0], n)
    core._check_spectral_weight(H, w)
    with pytest.raises(RuntimeError, match="misses weight"):
        core._check_spectral_weight(H, w * (1.0 + 1e-9))


@pytest.mark.parametrize("L", [3, 4, 5])
def test_sector_solves_reject_a_diagonal_edit_that_keeps_the_weight(L):
    # The rung blocks hold the model, not H's arrays. Negating one diagonal
    # entry keeps ||H||_F^2 but moves tr H, so the trace check sees it.
    params = LadderParams(L=L, alpha=0.7, h=1.5)
    H = build_hamiltonian(params, sample_disorder(params, 4), SectorBasis(L))
    diagonal = H.diagonal.copy()
    k = np.argmax(np.abs(diagonal))
    diagonal[k] = -diagonal[k]
    edited = dataclasses.replace(H, diagonal=diagonal)
    with pytest.raises(RuntimeError, match="misses the trace"):
        diagonalize_sectors(edited)
    with pytest.raises(RuntimeError, match="not odd under the global spin flip"):
        diagonalize(edited, vectors=False)
    w = np.linalg.eigvalsh(H.dense())
    core._check_spectral_weight(H, w)
    with pytest.raises(RuntimeError, match="misses the trace"):
        core._check_spectral_weight(edited, w)


def test_solves_accept_entries_whose_squares_overflow():
    # Rung entries of 2e155 square to inf: the spectral-weight check scales
    # H and the spectrum by the largest |entry| before it squares them.
    params = LadderParams(L=4, alpha=1e155, h=1.0)
    H = build_hamiltonian(params, sample_disorder(params, 3), SectorBasis(4))
    want = np.linalg.eigvalsh(H.dense())
    sectors = diagonalize_sectors(H).sectors.values()
    for w in (
        diagonalize(H, vectors=False).eigenvalues,
        diagonalize(H).eigenvalues,
        np.sort(np.concatenate([E for E, _ in sectors])),
    ):
        assert np.max(np.abs(w - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("L", [4, 5])
def test_eigenvalues_only_rejects_a_charge_map_without_the_string(L, monkeypatch):
    # Without the Jordan-Wigner signs the labels' charges are those of the
    # plain rung exchange, which H does not conserve: (E, D) -> BB changes it.
    monkeypatch.setattr(core, "_STRING_SIGNS", 0)
    params = LadderParams(L=L, alpha=1.0, h=1.0)
    H = build_hamiltonian(params, sample_disorder(params, 5), SectorBasis(L))
    with pytest.raises(RuntimeError, match="leaves its charge sector"):
        core._rung_sectors(H)
    with pytest.raises(RuntimeError, match="leaves its charge sector"):
        diagonalize(H, vectors=False)
    with pytest.raises(RuntimeError, match="leaves its charge sector"):
        diagonalize_sectors(H)


def test_mirror_guard_rejects_a_same_sublattice_bond(monkeypatch):
    # A next-nearest-neighbour hop on both legs keeps the leg swap but joins
    # sites of one sublattice, so E -> -E no longer holds. The guard runs at
    # both parities of L.
    bonds = core._bonds

    def with_next_nearest(params):
        L = params.L
        extra = [
            (bit_position(L, leg, 1), bit_position(L, leg, 3), 1.0) for leg in (1, 2)
        ]
        return bonds(params) + extra

    monkeypatch.setattr(core, "_bonds", with_next_nearest)
    for L in (4, 5):
        params = LadderParams(L=L, h=1.0)
        H = build_hamiltonian(params, sample_disorder(params, 3), SectorBasis(L))
        with pytest.raises(RuntimeError, match="joins one sublattice"):
            diagonalize(H, vectors=False)


def test_mirror_guard_rejects_an_even_diagonal():
    # A constant shift is even under the global spin flip and moves the
    # spectrum off E -> -E.
    for L in (4, 5):
        params = LadderParams(L=L, h=1.0)
        basis = SectorBasis(L)
        H = build_hamiltonian(params, sample_disorder(params, 3), basis)
        H = dataclasses.replace(H, diagonal=H.diagonal + 1.0)
        with pytest.raises(RuntimeError, match="not odd under the global spin flip"):
            diagonalize(H, vectors=False)


@pytest.mark.parametrize("L", [5, 6])
def test_eigenvalues_only_stays_below_one_dense_matrix(L):
    params = LadderParams(L=L, h=1.0)
    basis = SectorBasis(L)
    disorder = sample_disorder(params, 9)
    tracemalloc.start()
    try:
        diagonalize(build_hamiltonian(params, disorder, basis), vectors=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * basis.dim**2


def test_eigenvalues_only_solve_holds_little_beyond_its_block():
    # LAPACK overwrites the 924-wide block in place, and with check_finite
    # off scipy makes no boolean copy of it (1.125 blocks with the copy).
    params = LadderParams(L=6, h=1.0)
    basis = SectorBasis(6)
    H = build_hamiltonian(params, sample_disorder(params, 9, independent_legs=True), basis)
    tracemalloc.start()
    try:
        diagonalize(H, vectors=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.08 * 8 * basis.dim**2


@pytest.mark.parametrize("L", [5, 6])
def test_sector_eigensolve_stays_below_its_estimate(L, monkeypatch):
    # All three eigensolves peak below the copies they pass to check_memory,
    # the two of diagonalize with shared and with independent legs.
    # scipy.linalg is imported at the top of this module: imported cold
    # inside the trace, it alone reads about 30 copies.
    params = LadderParams(L=L, h=1.0)
    basis = SectorBasis(L)
    estimates = []
    monkeypatch.setattr(core, "check_memory", lambda caller, n, copies: estimates.append(copies))
    solves = {
        "full": diagonalize,
        "eigenvalues only": lambda H: diagonalize(H, vectors=False),
        "sectors": diagonalize_sectors,
    }
    for independent_legs in (False, True):
        H = build_hamiltonian(params, sample_disorder(params, 9, independent_legs), basis)
        for name, solve in solves.items():
            if independent_legs and name == "sectors":
                continue
            estimates.clear()
            tracemalloc.start()
            try:
                solve(H)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(estimates) == 1
            assert peak < estimates[0] * 8 * basis.dim**2, (name, independent_legs)


@pytest.mark.parametrize("L", [6, 7])
def test_sparse_assembly_stays_far_below_one_dense_matrix(L):
    params = LadderParams(L=L, h=1.0)
    basis = SectorBasis(L)
    disorder = sample_disorder(params, 9)
    tracemalloc.start()
    try:
        build_hamiltonian(params, disorder, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * 8 * basis.dim**2


@pytest.mark.parametrize("vectors", [True, False])
def test_eigensolver_failure_is_reported_with_the_realization(vectors, monkeypatch):
    params = LadderParams(L=3, h=1.0)
    disorder = sample_disorder(params, 4)
    H = build_hamiltonian(params, disorder, SectorBasis(3))

    def failing_eigh(*args, **kwargs):
        raise scipy.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh", failing_eigh)
    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(DiagonalizationError, match="seed=4"):
        diagonalize(H, vectors=vectors)
    with pytest.raises(DiagonalizationError, match="seed=4"):
        diagonalize_sectors(H)


def test_dense_steps_check_memory_first(monkeypatch):
    # At L = 4 even the largest charge block (36 wide) exceeds 1000 bytes,
    # while the sparse assembly forms no N x N array and needs no check.
    params = LadderParams(L=4, h=1.0)
    basis = SectorBasis(4)
    disorder = sample_disorder(params, 4)
    H = build_hamiltonian(params, disorder, basis)
    monkeypatch.setattr(core, "_physical_memory", lambda: 1000)
    build_hamiltonian(params, disorder, basis)
    for caller, call in [
        ("diagonalize", lambda: diagonalize(H)),
        ("diagonalize", lambda: diagonalize(H, vectors=False)),
        ("diagonalize_sectors", lambda: diagonalize_sectors(H)),
    ]:
        with pytest.raises(MemoryError, match=rf"{caller} at N=\d+ needs about .* 1000 bytes"):
            call()


def test_independent_legs_block_is_charged_one_dense_block(monkeypatch):
    params = LadderParams(L=4, h=1.0)
    basis = SectorBasis(4)
    H = build_hamiltonian(params, sample_disorder(params, 4, independent_legs=True), basis)
    one_matrix = 8 * basis.dim**2
    tracemalloc.start()
    try:
        diagonalize(H, vectors=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < core.EIGVALS_COPIES * one_matrix
    monkeypatch.setattr(core, "_SELF_CGROUP", os.devnull)
    enough, short = (int((core.EIGVALS_COPIES + d) * one_matrix) for d in (0.01, -0.01))
    monkeypatch.setattr(core, "_physical_memory", lambda: enough)
    diagonalize(H, vectors=False)
    monkeypatch.setattr(core, "_physical_memory", lambda: short)
    with pytest.raises(MemoryError, match="diagonalize at N=70"):
        diagonalize(H, vectors=False)


def test_memory_check_admits_l7_and_the_l8_w_route_and_stops_l8_exact_otoc(monkeypatch):
    monkeypatch.setattr(core, "_physical_memory", lambda: 8 * 2**30)
    monkeypatch.setattr(core, "_SELF_CGROUP", os.devnull)
    n7, n8 = comb(14, 7), comb(16, 8)
    # Each OTOC route's check adds the caller's eigensystem: one copy of V
    # (and the rotation memo's entries for other operators), or for the
    # W-route the sector blocks, C(L, k)^2 wide.
    sector_blocks = {L: sum(comb(L, k) ** 4 for k in range(L + 1)) / comb(2 * L, L) ** 2 for L in (7, 8)}
    for copies, fixed in (
        (core.EIGH_COPIES, 0),
        (core.EIGVALS_COPIES, 0),
        (otoc.EXACT_COPIES + 1.0, otoc.FIXED_BYTES),
        (otoc.MULTI_DISTANCE_COPIES + sector_blocks[7], otoc.FIXED_BYTES),
        # M = 64 states, four steps per chunk
        (max(otoc.SAMPLED_COPIES, 2 + (otoc.SAMPLED_COPIES_PER_STATE * 64 + 2) * 4 / n7) + 1.0, 0),
    ):
        check_memory("step", n7, copies, fixed)
    # At L = 8 one N x N array is 1.3 GB (1.23 GiB). The W-route holds
    # MULTI_DISTANCE_COPIES beside the sector blocks (0.27 copies, 2.86 GiB
    # in all); exact_otoc's trace route holds EXACT_COPIES and V (7.65 GiB),
    # which 8 GiB admits.
    w_route = otoc.MULTI_DISTANCE_COPIES + sector_blocks[8]
    check_memory("multi_distance_otoc_values", n8, w_route, otoc.FIXED_BYTES)
    check_memory("exact_otoc", n8, otoc.EXACT_COPIES + 1.0, otoc.FIXED_BYTES)
    # The W-route at L = 8 fits in 4 GiB; exact_otoc does not.
    monkeypatch.setattr(core, "_physical_memory", lambda: 4 * 2**30)
    check_memory("multi_distance_otoc_values", n8, w_route, otoc.FIXED_BYTES)
    with pytest.raises(MemoryError, match="exact_otoc at N=12870"):
        check_memory("exact_otoc", n8, otoc.EXACT_COPIES + 1.0, otoc.FIXED_BYTES)


@pytest.mark.parametrize(
    "files, limit",
    [
        ({"memory.max": "max\n", "jobs/a/memory.max": "max\n"}, None),
        ({"memory/jobs/a/memory.limit_in_bytes": "9223372036854771712\n"}, None),
        ({}, None),
        ({"memory.max": "3000\n"}, 3000),
        ({"jobs/a/memory.max": "3000\n", "jobs/memory.max": "max\n"}, 3000),
        ({"jobs/memory.max": "2500\n", "jobs/a/memory.max": "max\n"}, 2500),
        ({"memory.max": "max\n", "memory/memory.limit_in_bytes": "2000\n"}, 2000),
        ({"memory/jobs/a/memory.limit_in_bytes": "2000\n", "jobs/a/memory.max": "3000\n"}, 2000),
        # A sibling group's limit does not bind this process.
        ({"jobs/b/memory.max": "1000\n", "memory/jobs/b/memory.limit_in_bytes": "1000\n"}, None),
    ],
    ids=[
        "v2-max",
        "v1-unlimited",
        "no-files",
        "v2-limit",
        "v2-own-group",
        "v2-parent-group",
        "v1-limit",
        "smallest-of-both",
        "sibling-group",
    ],
)
def test_memory_check_counts_the_cgroup_limit(files, limit, tmp_path, monkeypatch):
    # A fake hierarchy: this process is in group /jobs/a of cgroup v2 and of
    # v1's memory controller, as /proc/self/cgroup would say.
    root = tmp_path / "cgroup"
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    self_cgroup = tmp_path / "self_cgroup"
    self_cgroup.write_text("5:cpu,cpuacct:/other\n4:memory:/jobs/a\n0::/jobs/a\n")
    monkeypatch.setattr(core, "_CGROUP_ROOT", str(root))
    monkeypatch.setattr(core, "_SELF_CGROUP", str(self_cgroup))
    monkeypatch.setattr(core, "_physical_memory", lambda: 10_000)
    have = limit or 10_000
    # One 10 x 10 float64 matrix is 800 bytes.
    check_memory("step", 10, have / 800)
    with pytest.raises(MemoryError, match=f"step at N=10 needs about .* {have} bytes"):
        check_memory("step", 10, have / 800 + 0.01)


def test_memory_limit_reads_this_process_group(monkeypatch):
    # Every hierarchy that /proc/self/cgroup names with a memory limit has
    # this process's own group file read, not only the hierarchy's root.
    try:
        with open("/proc/self/cgroup") as f:
            lines = f.read().splitlines()
    except OSError:
        pytest.skip("no /proc/self/cgroup")
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(core, "open", recording_open, raising=False)
    assert 0 < core._memory_limit() <= core._physical_memory()
    for line in lines:
        hierarchy, controllers, path = line.split(":", 2)
        if hierarchy == "0" and controllers == "":
            own = os.path.join("/sys/fs/cgroup", path.lstrip("/"), "memory.max")
        elif "memory" in controllers.split(","):
            own = os.path.join("/sys/fs/cgroup/memory", path.lstrip("/"), "memory.limit_in_bytes")
        else:
            continue
        assert os.path.normpath(own) in map(os.path.normpath, opened)


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
    H = build_hamiltonian(params, sample_disorder(params, seed), basis).dense()
    assert np.max(np.abs(H - H.T)) <= 1e-12
    assert abs(np.trace(H)) < 1e-10


def test_params_store_plain_numbers():
    a = LadderParams(L=np.int64(4), alpha=1, h=np.float64(2.0))
    assert a == LadderParams(L=4, alpha=1.0, h=2.0)
    assert type(a.L) is int
    assert all(type(v) is float for v in (a.alpha, a.h))
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


@pytest.mark.parametrize("master_seed", [2.7, True, "3", -1])
def test_master_seed_must_be_a_non_negative_int(master_seed):
    with pytest.raises(ValueError, match="master_seed"):
        derive_seed(master_seed, "level_stats", 0)


def test_numpy_integer_master_seed_keys_the_plain_int_stream():
    assert derive_seed(np.int64(2), "decay", 1) == derive_seed(2, "decay", 1)


@pytest.mark.parametrize("seed", [1.5, True, -1])
def test_disorder_seed_must_be_a_non_negative_int(seed):
    with pytest.raises(ValueError, match="seed"):
        sample_disorder(LadderParams(L=3, h=1.0), seed)


def test_disorder_draws_of_integer_seeds_keep_their_bits():
    params = LadderParams(L=3, h=1.0)
    assert sample_disorder(params, np.int64(3)) == sample_disorder(params, 3)
    assert type(sample_disorder(params, np.int64(3)).seed) is int
    # A 128-bit derived stream key is used whole.
    big = derive_seed(0, "decay", 1)
    assert sample_disorder(params, big).seed == big
    assert sample_disorder(params, big) != sample_disorder(params, big ^ (1 << 127))


def test_params_validation():
    with pytest.raises(ValueError):
        LadderParams(L=1)
    with pytest.raises(ValueError):
        LadderParams(L=3, alpha=-0.1)
    with pytest.raises(ValueError):
        LadderParams(L=3, h=-1.0)
    nan, inf = float("nan"), float("inf")
    for field, value in (("h", nan), ("alpha", nan), ("alpha", inf), ("h", inf)):
        with pytest.raises(ValueError, match=field):
            LadderParams(L=3, **{field: value})
