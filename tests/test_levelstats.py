"""Gap-ratio statistics: formula checks, invariances, and regime brackets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    reports_to_csv,
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
    ratios, dropped = gap_ratios(np.array([0.0, 0.0, 0.0, 1.0]), return_dropped=True)
    assert dropped == 1
    assert list(ratios) == [0.0]


def test_too_few_levels_rejected():
    with pytest.raises(ValueError):
        gap_ratios(np.array([0.0, 1.0]))


def test_unsorted_rejected():
    with pytest.raises(ValueError):
        gap_ratios(np.array([1.0, 0.0, 2.0]))


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
        p = LadderParams(L=params.L, J_par=params.J_par, alpha=params.alpha, h=h)
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
    # The leg-swap blocks change the eigensolve, not the statistic: the merged
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
    # Column-identical fields superpose two symmetry blocks; the mean ratio
    # stays well below GOE even in the ergodic parameter regime.
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


def test_csv_emission():
    params = LadderParams(L=3, alpha=1.0)
    reports = ensemble_gap_ratio(params, [1.0, 2.0], realizations=2, seed=1)
    text = reports_to_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == "h,L,alpha,realizations,mean_r,stderr"
    assert len(lines) == 3
    assert lines[1].startswith("1.0,3,1.0,2,")
