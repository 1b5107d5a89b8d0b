"""Infinite-temperature and sampled out-of-time-order correlators.

The central object is F(t) = (1/N) Tr[sz_i(t) sz_1 sz_i(t) sz_1] with
sz_i(t) = U+(t) sz_i U(t), evaluated exactly over the Sz = 0 sector, and its
estimator: the mean of F_j(t) = <psi_j| sz_i(t) sz_1 sz_i(t) sz_1 |psi_j>
over M random initial states (Haar vectors or Fock basis states).

`exact_otoc` is the reference implementation. It evaluates the OTOC by two
independently coded routes at every time and refuses to return if they
disagree: the trace route, Tr[A(t) B A(t) B] / N in the eigenbasis, and the
W-route, `multi_distance_otoc_values`, which builds W(t) = U(t) sz_1 U+(t) in
the computational basis. The W-route is also the fast kernel of ensemble
loops, where one W per time serves every probe operator.

`sampled_otoc` evolves its M states in the eigenbasis. Once per call it
rotates sz_i into the eigenbasis, A~ = V^T sz_i V, and the states and their
sz_1 images into eigenbasis coefficients [c, b] = V^T [psi, sz_1 psi]. Each
time step is then two real GEMMs on stacked [Re, Im] columns, one with A~
between the phases exp(-+i E t) and one with V back to the computational
basis, where sz_1 acts as a diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import EigenSystem, SectorBasis, check_memory

__all__ = [
    "OtocSeries",
    "InitialState",
    "EonDistribution",
    "exact_otoc",
    "sampled_otoc",
    "haar_state",
    "fock_state",
    "complete_fock_basis",
    "eon_distribution",
    "effective_dimension",
    "multi_distance_otoc_values",
    "default_decay_times",
    "default_lightcone_times",
]


# Peak memory in units of one N x N float64 array (8 N^2 bytes): the larger
# tracemalloc peak of L = 5 and 6, rounded up. exact_otoc's includes its
# W-route call.
EXACT_COPIES = 15.6
MULTI_DISTANCE_COPIES = 9.6
# sampled_otoc: 2.1 for V and the rotated operator, plus 35 M / N for the
# stacked (N, 4M) columns of its M states.
SAMPLED_COPIES = 2.1
SAMPLED_COPIES_PER_STATE = 35.0


def default_decay_times(n: int = 60) -> np.ndarray:
    """Log-spaced grid 0.1 .. 1000 (units 1/J_par) used for decay studies."""
    return np.geomspace(0.1, 1000.0, n)


def default_lightcone_times(n: int = 200, t_max: float = 10.0) -> np.ndarray:
    """Linear grid 0 .. t_max used for space-time (lightcone) scans."""
    return np.linspace(0.0, t_max, n)


@dataclass
class OtocSeries:
    """OTOC values on a time grid.

    values[k] is the mean at times[k] (over states and/or realizations,
    depending on producer); per_sample, when present, holds one row per
    initial state or realization. meta records what was averaged: estimator
    tag ("exact", "haar", "fock"), operator pair, seeds, sample count M, and
    numerical-health figures from the evaluation routes.
    """

    times: np.ndarray
    values: np.ndarray
    per_sample: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have identical shapes")
        if self.per_sample is not None:
            self.per_sample = np.asarray(self.per_sample)
            if self.per_sample.shape[-1] != self.times.shape[0]:
                raise ValueError("per_sample rows must match the time grid")
        at_zero = np.abs(self.values[self.times == 0.0] - 1.0)
        if at_zero.size and at_zero.max() > 1e-10:
            raise ValueError("OTOC must equal 1 at t = 0")

    @property
    def re(self) -> np.ndarray:
        return np.real(self.values)


@dataclass
class InitialState:
    """Normalized sector state vector, tagged by how it was drawn."""

    amplitudes: np.ndarray
    kind: str
    seed: int | None = None

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"initial state norm {norm} deviates from 1")
        if self.kind == "fock":
            nonzero = np.abs(self.amplitudes) > 1e-15
            if nonzero.sum() != 1 or abs(np.abs(self.amplitudes[nonzero][0]) - 1.0) > 1e-12:
                raise ValueError("fock state must have a single unit-modulus amplitude")


@dataclass
class EonDistribution:
    """Eigenstate occupation weights |c_beta|^2 of one initial state."""

    weights: np.ndarray
    energies: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        self.energies = np.asarray(self.energies, dtype=float)
        if self.weights.shape != self.energies.shape:
            raise ValueError("weights and energies must align")
        if np.any(self.weights < -1e-12):
            raise ValueError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must sum to 1")


def _eigenbasis_diagonal(eig: EigenSystem, diag: np.ndarray) -> np.ndarray:
    """Rotate a computational-basis diagonal operator into the eigenbasis."""
    V = eig.eigenvectors
    return V.T @ (diag[:, None] * V)


def _cr_matmul(real_mat: np.ndarray, z: np.ndarray) -> np.ndarray:
    """real_mat @ z for complex z via two real products (BLAS stays in dgemm)."""
    return real_mat @ z.real + 1j * (real_mat @ z.imag)


def _rc_matmul(z: np.ndarray, real_mat: np.ndarray) -> np.ndarray:
    """z @ real_mat for complex z, split the same way."""
    return z.real @ real_mat + 1j * (z.imag @ real_mat)


def exact_otoc(
    eig: EigenSystem,
    op_i: np.ndarray,
    op_1: np.ndarray,
    times: np.ndarray,
    cross_check_tol: float = 1e-9,
    meta: dict | None = None,
) -> OtocSeries:
    """Exact infinite-temperature OTOC via two independent routes.

    The trace route evaluates Tr[sz_i(t) sz_1 sz_i(t) sz_1] / N in the
    eigenbasis and supplies the returned values. The W-route,
    `multi_distance_otoc_values`, forms W(t) = U(t) sz_1 U+(t) in the
    computational basis and sums |W_ab|^2 weighted by the probe diagonal.
    Their maximum discrepancy over the grid is recorded in
    meta["cross_check_max"]; exceeding `cross_check_tol` raises.

    Parameters
    ----------
    op_i, op_1 : +-1 diagonals from `sigma_z_operator`.
    times : evaluation grid in units of 1/J_par.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    E = eig.eigenvalues
    n = eig.dim
    if op_i.shape != (n,) or op_1.shape != (n,):
        raise ValueError("operator diagonals must match the eigensystem dimension")
    check_memory("exact_otoc", n, EXACT_COPIES)

    A = _eigenbasis_diagonal(eig, np.asarray(op_i, dtype=float))
    B = _eigenbasis_diagonal(eig, np.asarray(op_1, dtype=float))

    # Trace route: Tr[P^2] with P = A(t) B.
    values = np.empty(times.shape, dtype=complex)
    for k, t in enumerate(times):
        u = np.exp(1j * E * t)
        At = (u[:, None] * A) * u.conj()[None, :]
        P = _rc_matmul(At, B)
        values[k] = np.sum(P * P.T) / n

    w_values, _ = multi_distance_otoc_values(eig, op_i[None, :], op_1, times)
    discrepancy = float(np.max(np.abs(values - w_values[0])))
    if discrepancy > cross_check_tol:
        raise RuntimeError(
            f"exact OTOC routes disagree by {discrepancy:.3e} "
            f"(tolerance {cross_check_tol:.1e})"
        )
    if np.max(np.abs(values.imag)) > 1e-10:
        raise RuntimeError("exact OTOC acquired an imaginary part above 1e-10")

    out_meta = {"estimator": "exact", "cross_check_max": discrepancy}
    if meta:
        out_meta.update(meta)
    return OtocSeries(times=times, values=values, meta=out_meta)


def multi_distance_otoc_values(
    eig: EigenSystem,
    probe_ops: np.ndarray,
    op_1: np.ndarray,
    times: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Exact OTOC of sz_1 against many probe diagonals on a shared time grid.

    By trace cyclicity F_i(t) = (1/N) sum_ab (d_i)_a (d_i)_b |W_ab(t)|^2 with
    W(t) = U(t) sz_1 U+(t), so one O(N^3) evaluation of W per time serves
    every probe operator at O(N^2) extra cost each. Since sz_1 = 2 P - 1
    with P the projector on its +1 states, W = 2 G G^dagger - 1, where
    G = V (exp(-i E t) * V[up, :]^T) holds the columns of U(t) on those
    states (N x N/2 in the Sz = 0 sector). With S = [Re G, Im G] and
    X = Im G Re G^T, Re W = 2 S S^T - 1 and Im W = 2 (X - X^T).

    Parameters
    ----------
    probe_ops : array (n_probes, N) of +-1 diagonals.
    op_1 : +-1 diagonal; any other entry raises ValueError.

    Returns
    -------
    values : real array (n_probes, n_times); a numerical-health figure,
    max over the grid of | ||W||_F^2 / N - 1 |, which is 0 for exactly
    unitary evolution and so bounds the rounding error.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    V = eig.eigenvectors
    E = eig.eigenvalues
    n = eig.dim
    D = np.asarray(probe_ops, dtype=float)
    if D.ndim != 2 or D.shape[1] != n:
        raise ValueError("probe_ops must be (n_probes, N)")
    d1 = np.asarray(op_1, dtype=float)
    if d1.shape != (n,) or not np.all(np.abs(d1) == 1.0):
        raise ValueError("op_1 must be a +-1 diagonal of length N")
    check_memory("multi_distance_otoc_values", n, MULTI_DISTANCE_COPIES)
    V_up = V[d1 > 0, :].T
    m = V_up.shape[1]
    eye = np.eye(n)

    values = np.empty((D.shape[0], times.shape[0]), dtype=float)
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


def sampled_otoc(
    eig: EigenSystem,
    op_i: np.ndarray,
    op_1: np.ndarray,
    states: list[InitialState],
    times: np.ndarray,
    meta: dict | None = None,
) -> OtocSeries:
    """OTOC estimator from M initial states, evolved in the eigenbasis.

    With A(t) = U+(t) sz_i U(t) Hermitian, each
    F_j(t) = <psi_j| A sz_1 A sz_1 |psi_j> = (A psi_j)^dagger sz_1 (A sz_1 psi_j).
    In the eigenbasis A(t) = V Phi* A~ Phi V^T, with Phi = diag(exp(-i E t))
    and A~ = V^T sz_i V. A~ and the coefficients [c, b] = V^T [psi, sz_1 psi]
    (N x 2M) are computed once per call; each time step is then two real
    GEMMs on the stacked [Re, Im] columns (N x N x 4M each),
    [z, y] = Phi* A~ Phi [c, b] and [Z, Y] = V [z, y], followed by
    F_j = sum_a conj(Z_aj) (sz_1)_a Y_aj. sz_1 stays a diagonal in the
    computational basis. values holds the mean over states, per_sample the
    individual complex F_j series.
    """
    if len(states) == 0:
        raise ValueError("need at least one initial state")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    V = eig.eigenvectors
    E = eig.eigenvalues
    n = eig.dim
    d_i = np.asarray(op_i, dtype=float)
    d_1 = np.asarray(op_1, dtype=float)
    if d_i.shape != (n,) or d_1.shape != (n,):
        raise ValueError("operator diagonals must match the eigensystem dimension")
    if any(s.amplitudes.shape != (n,) for s in states):
        raise ValueError(f"every initial state must have {n} amplitudes")
    m = len(states)
    check_memory("sampled_otoc", n, SAMPLED_COPIES + SAMPLED_COPIES_PER_STATE * m / n)

    psi = np.stack([s.amplitudes for s in states], axis=1)  # (N, M)
    x = np.concatenate([psi, d_1[:, None] * psi], axis=1)  # (N, 2M)
    cb = V.T @ np.concatenate([x.real, x.imag], axis=1)
    cb = cb[:, : 2 * m] + 1j * cb[:, 2 * m :]
    A = _eigenbasis_diagonal(eig, d_i)
    per_sample = np.empty((m, times.shape[0]), dtype=complex)

    for k, t in enumerate(times):
        w = np.exp(-1j * E * t)[:, None]
        g = w * cb
        zy = A @ np.concatenate([g.real, g.imag], axis=1)
        g = w.conj() * (zy[:, : 2 * m] + 1j * zy[:, 2 * m :])
        ZY = V @ np.concatenate([g.real, g.imag], axis=1)
        Z_conj = ZY[:, :m] - 1j * ZY[:, 2 * m : 3 * m]
        Y = ZY[:, m : 2 * m] + 1j * ZY[:, 3 * m :]
        per_sample[:, k] = np.sum(Z_conj * (d_1[:, None] * Y), axis=0)

    kinds = {s.kind for s in states}
    out_meta = {
        "estimator": kinds.pop() if len(kinds) == 1 else "mixed",
        "M": len(states),
        "seeds": [s.seed for s in states],
    }
    if meta:
        out_meta.update(meta)
    return OtocSeries(
        times=times,
        values=per_sample.mean(axis=0),
        per_sample=per_sample,
        meta=out_meta,
    )


def haar_state(basis: SectorBasis, seed: int) -> InitialState:
    """Haar-random sector state: normalized i.i.d. complex Gaussian amplitudes."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return InitialState(amplitudes=z / np.linalg.norm(z), kind="haar", seed=seed)


def fock_state(basis: SectorBasis, seed: int) -> InitialState:
    """Uniformly random computational basis state of the sector."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    index = int(rng.integers(basis.dim))
    amplitudes = np.zeros(basis.dim, dtype=complex)
    amplitudes[index] = 1.0
    return InitialState(amplitudes=amplitudes, kind="fock", seed=seed)


def complete_fock_basis(basis: SectorBasis) -> list[InitialState]:
    """All N one-hot sector states, in basis order."""
    eye = np.eye(basis.dim, dtype=complex)
    return [InitialState(amplitudes=eye[:, j], kind="fock", seed=None) for j in range(basis.dim)]


def eon_distribution(eig: EigenSystem, state: InitialState) -> EonDistribution:
    """Overlap weights |<eigenstate_beta | psi>|^2 against the full spectrum."""
    c = _cr_matmul(eig.eigenvectors.T, state.amplitudes)
    return EonDistribution(weights=np.abs(c) ** 2, energies=eig.eigenvalues.copy())


def effective_dimension(eon: EonDistribution) -> float:
    """Inverse participation ratio (sum of squared weights)^-1; 1 for an eigenstate, N for uniform."""
    return float(1.0 / np.sum(eon.weights**2))
