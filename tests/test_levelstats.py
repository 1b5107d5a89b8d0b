"""Gap-ratio statistics: formula checks, invariances, and regime brackets."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charge_oracles import dressed_rung_charge
from ladderxx.core import (
    LadderParams,
    SectorBasis,
    build_hamiltonian,
    derive_seed,
    diagonalize,
    sample_disorder,
)
from ladderxx.levelstats import (
    R_GOE,
    R_POISSON,
    ensemble_gap_ratio,
    gap_ratios,
)


def test_equally_spaced_spectrum():
    assert np.allclose(gap_ratios(np.arange(10.0)), 1.0)


def test_three_level_formula():
    ratios = gap_ratios(np.array([0.0, 1.0, 3.0]))
    assert ratios.shape == (1,)
    assert ratios[0] == pytest.approx(0.5)


def test_ratio_count():
    rng = np.random.default_rng(0)
    E = np.sort(rng.uniform(0, 1, 50))
    assert gap_ratios(E).size == 48


def test_zero_gap_handling():
    # gaps (0, 0, 1): the double-zero pair is dropped, the (0, 1) pair gives 0.
    E = np.array([0.0, 0.0, 0.0, 1.0])
    ratios = gap_ratios(E)
    assert ratios.size == E.size - 3
    assert list(ratios) == [0.0]


def test_too_few_levels_rejected():
    with pytest.raises(ValueError):
        gap_ratios(np.array([0.0, 1.0]))


def test_unsorted_rejected():
    with pytest.raises(ValueError):
        gap_ratios(np.array([1.0, 0.0, 2.0]))


@pytest.mark.parametrize(
    "E", [[0.0, 1.0, np.nan, 3.0, 4.5], [0.0, 1.0, 2.5, np.inf], [-np.inf, 0.0, 1.0, 2.0]]
)
def test_non_finite_eigenvalues_rejected(E):
    # Unchecked, NaN levels read as excluded degeneracies and an infinite
    # spacing as r = 0.
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        gap_ratios(np.array(E))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    scale=st.floats(min_value=0.25, max_value=4.0),
    shift=st.floats(min_value=-10.0, max_value=10.0),
)
def test_scale_and_shift_invariance(seed, scale, shift):
    # Gaps are bounded away from zero so that the float cancellation in
    # scale * E + shift stays below the asserted tolerance.
    rng = np.random.default_rng(seed)
    E = np.cumsum(rng.uniform(0.05, 1.0, 12))
    a = gap_ratios(E)
    b = gap_ratios(scale * E + shift)
    assert np.all((a >= 0) & (a <= 1))
    assert np.max(np.abs(a - b)) < 1e-12


def test_spectrum_reversal_invariance():
    rng = np.random.default_rng(3)
    E = np.sort(rng.uniform(0, 5, 30))
    a = np.sort(gap_ratios(E))
    b = np.sort(gap_ratios(np.sort(-E)))
    assert np.allclose(a, b, atol=1e-12)


def test_ensemble_determinism():
    params = LadderParams(L=3, alpha=1.0)
    a = ensemble_gap_ratio(params, [1.0], realizations=1, seed=99)
    b = ensemble_gap_ratio(params, [1.0], realizations=1, seed=99)
    assert a[0].ensemble_mean == b[0].ensemble_mean
    assert np.isnan(a[0].stderr)
    assert list(a[0].meta["sector_stderr"]) == list(a[0].meta["sector_mean_r"]) == [1]
    assert np.isnan(a[0].meta["sector_stderr"][1])


@pytest.mark.parametrize("realizations", [2.0, True, 0, -1])
def test_ensemble_rejects_a_realization_count_that_is_not_a_positive_integer(realizations):
    with pytest.raises(ValueError, match="realizations must be an integer >= 1"):
        ensemble_gap_ratio(LadderParams(L=3), [1.0], realizations=realizations, seed=0)


def test_ensemble_seed_streams_are_stable_under_h_list_changes():
    params = LadderParams(L=3, alpha=1.0)
    solo = ensemble_gap_ratio(params, [2.0], realizations=3, seed=7)
    pair = ensemble_gap_ratio(params, [1.0, 2.0], realizations=3, seed=7)
    assert solo[0].ensemble_mean == pair[1].ensemble_mean


def test_integer_alpha_keys_the_same_streams_as_float_alpha():
    # Streams are keyed on the parameters, so the same value typed as an int
    # or a float must draw the same disorder.
    as_int = ensemble_gap_ratio(LadderParams(L=4, alpha=1), [1.0], realizations=3, seed=2)[0]
    as_float = ensemble_gap_ratio(LadderParams(L=4, alpha=1.0), [1.0], realizations=3, seed=2)[0]
    assert np.array_equal(as_int.per_realization_means, as_float.per_realization_means)
    assert as_int.ensemble_mean == as_float.ensemble_mean
    assert as_int.stderr == as_float.stderr
    assert as_int.meta == as_float.meta


def test_signed_zero_keys_the_same_streams_as_zero():
    # -0.0 and 0.0 are the same parameter, but their reprs differ.
    plus = ensemble_gap_ratio(LadderParams(L=4, alpha=0.0), [1.0], realizations=3, seed=2)[0]
    minus = ensemble_gap_ratio(LadderParams(L=4, alpha=-0.0), [1.0], realizations=3, seed=2)[0]
    assert np.array_equal(plus.per_realization_means, minus.per_realization_means)
    assert repr(minus.meta["alpha"]) == "0.0"
    (report,) = ensemble_gap_ratio(LadderParams(L=3), [-0.0], realizations=1, seed=2)
    assert repr(report.meta["h"]) == "0.0"


def full_solve_means(params, h_list, realizations, seed, independent_legs):
    """Reference: per-realization mean ratios from the eigenvalues of a full eigh."""
    basis = SectorBasis(params.L)
    out = []
    for h in h_list:
        p = LadderParams(L=params.L, alpha=params.alpha, h=h)
        means = []
        for k in range(realizations):
            stream = derive_seed(seed, "level_stats", p.L, p.alpha, h, k)
            dis = sample_disorder(p, stream, independent_legs=independent_legs)
            E = diagonalize(build_hamiltonian(p, dis, basis)).eigenvalues
            means.append(gap_ratios(E).mean())
        out.append(means)
    return np.array(out)


@pytest.mark.parametrize("independent_legs", [False, True])
@pytest.mark.parametrize("L", [4, 5])
def test_ensemble_matches_full_solve_reference(L, independent_legs):
    # The charge sectors change the eigensolve, not the statistic: the merged
    # spectrum gives the full spectrum's ratios to rounding.
    params = LadderParams(L=L, alpha=1.0)
    h_list = [0.5, 2.0, 8.0]
    reports = ensemble_gap_ratio(params, h_list, 3, seed=11, independent_legs=independent_legs)
    reference = full_solve_means(params, h_list, 3, 11, independent_legs)
    got = np.array([rep.per_realization_means for rep in reports])
    assert np.max(np.abs(got - reference)) < 1e-12
    assert np.max(np.abs([rep.ensemble_mean for rep in reports] - reference.mean(axis=1))) < 1e-12


def test_regime_brackets_small_system():
    # L=4 with leg-independent fields: ergodic near 0.50, strong disorder
    # near the Poisson value. Loose brackets; the L=5 figures are pinned by
    # the acceptance suite.
    params = LadderParams(L=4, alpha=1.0)
    ergodic = ensemble_gap_ratio(
        params, [1.0], realizations=60, seed=5, independent_legs=True
    )[0]
    localized = ensemble_gap_ratio(
        params, [12.0], realizations=60, seed=5, independent_legs=True
    )[0]
    assert ergodic.ensemble_mean > 0.46
    assert localized.ensemble_mean < 0.44
    assert ergodic.ensemble_mean > localized.ensemble_mean
    assert R_POISSON < localized.ensemble_mean + 0.06


def test_shared_disorder_keeps_leg_swap_symmetry_visible():
    # Column-identical fields superpose the charge sectors; the mean ratio of
    # the merged spectrum stays well below GOE even in the ergodic regime.
    params = LadderParams(L=4, alpha=1.0)
    shared = ensemble_gap_ratio(params, [1.0], realizations=60, seed=5)[0]
    assert shared.ensemble_mean < 0.45
    assert abs(R_GOE - 0.5307) < 1e-12


def test_middle_fraction_filter():
    params = LadderParams(L=3, alpha=1.0)
    full = ensemble_gap_ratio(params, [1.0], realizations=5, seed=3)[0]
    middle = ensemble_gap_ratio(
        params, [1.0], realizations=5, seed=3, middle_fraction=0.5
    )[0]
    assert middle.meta["middle_fraction"] == 0.5
    assert 0.0 <= middle.ensemble_mean <= 1.0
    assert middle.ensemble_mean != full.ensemble_mean


# ---------------------------------------------------------------- hidden charge

@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_shared_fields_conserve_the_dressed_rung_charge(L):
    # The charge that keeps shared-field gap ratios below R_GOE (module notes).
    params = LadderParams(L=L, alpha=1.3, h=2.0)
    basis = SectorBasis(L)
    Q = dressed_rung_charge(basis)
    assert np.array_equal(Q, Q.T)
    shared = build_hamiltonian(params, sample_disorder(params, 11), basis).dense()
    assert np.max(np.abs(shared @ Q - Q @ shared)) == 0.0
    legs = sample_disorder(params, 11, independent_legs=True)
    independent = build_hamiltonian(params, legs, basis).dense()
    assert np.max(np.abs(independent @ Q - Q @ independent)) > 1.0


@pytest.mark.parametrize("L", [2, 3, 4])
def test_dressed_rung_charge_sectors_have_squared_binomial_sizes(L):
    q = np.linalg.eigvalsh(dressed_rung_charge(SectorBasis(L)))
    values, sizes = np.unique(np.round(q).astype(int), return_counts=True)
    assert np.max(np.abs(q - np.round(q))) < 1e-9
    assert values.tolist() == list(range(-L, L + 1, 2))
    assert sizes.tolist() == [comb(L, k) ** 2 for k in range(L + 1)]


def reference_sector_means(params, h, realizations, seed, middle_fraction):
    """Per-sector mean ratio of each realization, from dense projections of H
    onto the eigenspaces of the dense charge, the q = 0 sector by its upper half."""
    basis = SectorBasis(params.L)
    q, V = np.linalg.eigh(dressed_rung_charge(basis))
    q = np.round(q).astype(int)
    p = LadderParams(L=params.L, alpha=params.alpha, h=h)
    means = {}
    for k in range(realizations):
        stream = derive_seed(seed, "level_stats", p.L, p.alpha, p.h, k)
        H = build_hamiltonian(p, sample_disorder(p, stream), basis).dense()
        for c in range(params.L % 2, params.L + 1, 2):
            Vc = V[:, q == c]
            E = np.linalg.eigvalsh(Vc.T @ H @ Vc)
            E = E[E.size // 2 :] if c == 0 else E
            if E.size < 3:
                continue
            keep = max(3, int(round(middle_fraction * E.size))) if middle_fraction else E.size
            start = (E.size - keep) // 2
            means.setdefault(c, []).append(gap_ratios(E[start : start + keep]).mean())
    return means


@pytest.mark.parametrize("middle_fraction", [None, 0.5])
@pytest.mark.parametrize("L", [4, 5])
def test_sector_ratios_match_dense_projections(L, middle_fraction):
    params = LadderParams(L=L, alpha=1.3)
    (report,) = ensemble_gap_ratio(params, [2.0], 3, seed=4, middle_fraction=middle_fraction)
    want = reference_sector_means(params, 2.0, 3, 4, middle_fraction)
    got = report.meta["sector_mean_r"]
    stderr = report.meta["sector_stderr"]
    # Sectors of fewer than three levels (q = L, and q = 0 at L = 2) have no ratio.
    assert sorted(got) == sorted(stderr) == sorted(want) == list(range(L % 2, L - 1, 2))
    for c, means in want.items():
        assert abs(got[c] - np.mean(means)) < 1e-12
        assert abs(stderr[c] - np.std(means, ddof=1) / np.sqrt(3)) < 1e-12


def test_independent_legs_report_no_sectors():
    (report,) = ensemble_gap_ratio(LadderParams(L=4), [1.0], 2, seed=1, independent_legs=True)
    assert report.meta["sector_mean_r"] == {}


def test_sector_ratios_bracket_the_crossover_at_l7():
    # The q = 1 sector alone is GOE-like at weak disorder and Poisson-like at
    # strong disorder, while the merged spectrum stays low at both.
    params = LadderParams(L=7, alpha=1.0)
    weak, strong = ensemble_gap_ratio(params, [0.5, 8.0], 6, seed=0, middle_fraction=0.5)
    r_weak, se_weak = weak.meta["sector_mean_r"][1], weak.meta["sector_stderr"][1]
    r_strong, se_strong = strong.meta["sector_mean_r"][1], strong.meta["sector_stderr"][1]
    assert r_weak > 0.50
    assert r_strong < 0.43
    # The middle half of q = 1 is GOE at h = 0.5 (0.5306 +- 0.0031). At h = 8
    # it is far below GOE (0.408 +- 0.011) but still about 2 standard errors
    # above Poisson at L = 7, a finite-size offset, so Poisson is not pinned.
    assert abs(r_weak - R_GOE) < 3 * se_weak
    assert r_strong < R_GOE - 5 * se_strong
    assert weak.ensemble_mean < 0.45
    assert sorted(weak.meta["sector_mean_r"]) == [1, 3, 5]
