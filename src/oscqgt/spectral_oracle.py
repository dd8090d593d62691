"""Independent spectral check of the metric components.

The Hamiltonian H = p^2/2 + alpha q^2/2 + J q + lambda V(q) is represented in
a truncated number basis of a reference oscillator of frequency omega
(omega = sqrt(alpha) by default, which makes the free part exactly diagonal).
The metric follows from central-difference ground-state derivatives,

    g_ab = <d_a psi | d_b psi> - <d_a psi | psi><psi | d_b psi>,

with sign-gauge-fixed eigenvectors, step-halving error estimates and a
basis-doubling drift per entry.  q is tridiagonal, so H is built in lower
band storage (band[d, c] = H[c + d, c]).  Shifted systems are factored by a
block cyclic-reduction Cholesky factorisation in numpy, once per shift for
every inverse-iteration step on it, and a stack of systems is factored and
iterated as one.  Each point runs one cold eigenvalue solve, for the central
ground state at N; its other ground states come in two stacks, the central
one and its eight finite-difference neighbours at N and five at the doubled
basis, by inverse iteration warm-started at a nearby known state.  Everything
here is real symmetric, so this oracle is blind to Berry curvature,
consistent with the models in scope.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .perturbation import PolynomialPotential
from .scalar_algebra import OracleFailure

__all__ = [
    "OracleConfig",
    "NumericQGT",
    "BasisTooSmall",
    "NoConvergence",
    "NoGroundState",
    "StepTooLarge",
    "build_hamiltonian",
    "gauge_fix",
    "ground_state",
    "numeric_qim",
]

# Cold inverse iteration runs on H - E0 + margin * |H|: far above E0's rounding
# error, so positive definite, yet each step shrinks excited components by
# ~margin * |H| / gap.  A warm start shifts by the same margin below its guess's
# residual interval.  It ends when a step moves the unit vector by < _STEP_TOL.
_SHIFT_MARGIN = 1e-10
_STEP_TOL = 1e-12
_MAX_STEPS = 8
_RESIDUAL_TOL = 1e-13  # bound on |(H - E0) psi| / |H|
_BLOCK = 4  # least rows per diagonal block of the cyclic-reduction factor
_MAX_ROUNDS = 64  # shifts tried by a cold eigenvalue solve
_DENSE = 16  # rows left to a dense factorisation after cyclic reduction
_LEADING = 32  # rows of the block whose ground state starts a cold solve


class BasisTooSmall(OracleFailure):
    """Ground-state weight leaks into the top of the truncated basis."""


class NoConvergence(OracleFailure):
    """The eigensolver failed or its eigenpair misses the residual bound."""


class StepTooLarge(OracleFailure):
    """Halving the finite-difference step moved an entry by more than 10%."""


class NoGroundState(ValueError):
    """The Hamiltonian is unbounded below, so there is no ground state to probe."""


def _require_ground_state(alpha: float, lam: float, potential: PolynomialPotential | None) -> None:
    """Reject a potential that leaves H unbounded below before any solve.

    The leading term of alpha q**2/2 + lambda V(q) decides: an odd degree is
    unbounded below for either sign of its coefficient, and so is an even
    degree with a negative coefficient; a truncated basis would still return
    a lowest eigenvector, but it describes the basis edge, not a ground state.
    lambda q (k = 1) and a q**2 term that alpha outweighs keep the oscillator.
    """
    if potential is None or lam == 0.0:
        return
    full = {2: 0.5 * alpha}
    for deg, c in potential.coefficients:
        full[deg] = full.get(deg, 0.0) + lam * float(c)
    k = max((deg for deg, c in full.items() if c != 0.0), default=0)
    if k == 0:
        raise NoGroundState(
            f"a vanishing potential has no ground state (lambda={lam!r}, alpha={alpha!r})"
        )
    if k % 2:
        raise NoGroundState(
            f"odd k has no ground state for lambda != 0 "
            f"(k={k}, lambda={lam!r}: the potential is unbounded below)"
        )
    if full[k] < 0:
        raise NoGroundState(
            f"a negative leading term has no ground state (k={k}, lambda={lam!r}: "
            f"the q**{k} coefficient {full[k]:.6g} leaves the potential unbounded below)"
        )


class OracleConfig:
    """Basis size, reference frequency (default sqrt(alpha)) and any
    finite-difference steps that replace the defaults, by label."""

    __slots__ = ("basis_size", "reference_frequency", "fd_step")

    def __init__(
        self,
        basis_size: int = 128,
        reference_frequency: float | None = None,
        fd_step: dict[str, float] | None = None,
    ):
        if basis_size < 16:
            raise ValueError("basis_size must be >= 16")
        self.basis_size = basis_size
        self.reference_frequency = reference_frequency
        self.fd_step = {} if fd_step is None else fd_step

    def omega(self, alpha: float) -> float:
        return self.reference_frequency if self.reference_frequency else float(np.sqrt(alpha))

    def step(self, label: str, alpha: float) -> float:
        if label in self.fd_step:
            return self.fd_step[label]
        return {
            "alpha": 1e-4 * alpha,
            "lambda": 1e-4 * alpha**1.5,
            "j": 1e-4 * alpha**0.75,
        }[label]


class NumericQGT:
    """The oracle's metric over `labels` and each entry's convergence report."""

    __slots__ = ("labels", "metric", "convergence_report")

    def __init__(
        self,
        labels: tuple[str, ...],
        metric: np.ndarray,
        convergence_report: dict[tuple[str, str], dict[str, float]],
    ):
        self.labels = labels
        self.metric = metric
        self.convergence_report = convergence_report

    def entry(self, a: str, b: str) -> float:
        return float(self.metric[self.labels.index(a), self.labels.index(b)])


@lru_cache(maxsize=32)
def _power_bands(n: int, omega: float, b: int) -> np.ndarray:
    """powers[k, d, c] = (q**k)[c + d, c] for k, d = 0..b, in O(n * b**2).

    Each power is the last one times the tridiagonal q.  The array is shared
    by every caller, so it is read-only.
    """
    sub = np.sqrt(np.arange(1, n) / (2.0 * omega))  # q[c + 1, c]
    full = np.zeros((2 * b + 1, n))  # full[b + d, c] = M[c + d, c], d = -b..b
    full[b] = 1.0
    powers = np.empty((b + 1, b + 1, n))
    powers[0] = full[b:]
    for k in range(1, b + 1):
        nxt = np.zeros_like(full)
        nxt[:-1, 1:] = full[1:, :-1] * sub  # M[r, c - 1] q[c - 1, c]
        nxt[1:, :-1] += full[:-1, 1:] * sub  # M[r, c + 1] q[c + 1, c]
        full = nxt
        powers[k] = full[b:]
    powers.setflags(write=False)
    return powers


def build_hamiltonian(
    alpha: float,
    lam: float,
    j: float,
    potential: PolynomialPotential | None,
    config: OracleConfig,
) -> np.ndarray:
    """H in the reference oscillator number basis, as lower band storage.

    band[d, c] = H[c + d, c], shape (b + 1, N) with b = max(2, degree).
    """
    if potential is not None and potential.degree > 8:
        raise ValueError("potential degree must be <= 8")
    n = config.basis_size
    omega = config.omega(alpha)
    b = max(2, potential.degree) if potential is not None else 2
    coeffs = np.zeros(b + 1)
    coeffs[1] = j
    coeffs[2] = 0.5 * (alpha - omega**2)
    if potential is not None and lam != 0.0:
        for deg, c in potential.coefficients:
            coeffs[deg] += lam * float(c)
    band = np.tensordot(coeffs, _power_bands(n, omega, b), axes=1)
    band[0] += omega * (np.arange(n) + 0.5)
    return band


def _band_matvec(band: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """H vec for a band, or for each band of a stack."""
    out = band[..., 0, :] * vec
    for d in range(1, band.shape[-2]):
        out[..., d:] += band[..., d, :-d] * vec[..., :-d]
        out[..., :-d] += band[..., d, :-d] * vec[..., d:]
    return out


def gauge_fix(vec: np.ndarray) -> np.ndarray:
    """Fix the overall sign so the largest-magnitude entry is positive."""
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        return -vec
    return vec


@lru_cache(maxsize=16)
def _block_layout(n: int, b: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where a band's blocks come from.

    The matrix is cut into diagonal blocks of m rows, their count filled up
    to a power of two with decoupled unit rows.  Returns indices into the
    band's flattened storage followed by a 0 and a 1 that lay out each
    diagonal block and the block right of it, A[k, k + 1], and the mask of
    the matrix's own diagonal within the diagonal blocks.
    """
    count = 1 << (-(-n // m) - 1).bit_length()
    zero, one = (b + 1) * n, (b + 1) * n + 1
    rows = np.arange(count)[:, None, None] * m + np.arange(m)[:, None]
    cols = np.arange(count)[:, None, None] * m + np.arange(m)

    def entries(r, c):  # H[r, c] = band[|r - c|, min(r, c)]
        d, low = np.abs(r - c), np.minimum(r, c)
        return np.where((d <= b) & (np.maximum(r, c) < n), d * n + low, zero)

    diagonal = np.where((rows == cols) & (rows >= n), one, entries(rows, cols))
    return diagonal, entries(rows, cols + m), ((rows == cols) & (rows < n)).astype(float)


def _band_cholesky(band: np.ndarray, shift) -> tuple[list, np.ndarray]:
    """Block cyclic-reduction Cholesky factor of band - shift (or of each band
    of a stack minus its shift), for repeated solves.

    In blocks of m = max(_BLOCK, b) rows the matrix is block tridiagonal.
    Each level eliminates the odd-numbered blocks D_k of the current matrix:
    with R_k R_k^T = D_k and [X_k | Y_k] = R_k^-1 [A[2k + 1, 2k] | A[2k + 1,
    2k + 2]], the even blocks' Schur complement is again block tridiagonal,
    on half the blocks, and a level keeps R_k^-1 and [X_k | Y_k] for the
    solves.  Once at most _DENSE rows are left, their inverse is formed
    densely.  This is a Cholesky factorisation of the matrix
    with its blocks reordered, so it exists exactly when the matrix is
    positive definite: np.linalg.LinAlgError means the shift is not below the
    whole spectrum.
    """
    *lead, rows, n = band.shape
    b = min(rows, n) - 1  # diagonals past the last row hold nothing
    m = max(_BLOCK, b)
    diagonal, right, on_diagonal = _block_layout(n, b, m)
    flat = np.concatenate(
        [band[..., : b + 1, :].reshape(*lead, -1), np.broadcast_to([0.0, 1.0], (*lead, 2))], axis=-1
    )
    diag = flat[..., diagonal] - np.asarray(shift)[..., None, None, None] * on_diagonal
    up = flat[..., right]  # up[k] = A[k, k + 1]
    levels = []
    while diag.shape[-3] * m > _DENSE:
        w = np.linalg.inv(np.linalg.cholesky(diag[..., 1::2, :, :]))  # R_k^-1
        # [X_k | Y_k] = R_k^-1 [A[2k + 1, 2k] | A[2k + 1, 2k + 2]]; matmul is
        # much faster on contiguous operands, so transposes are copied
        xy = w @ np.concatenate([up[..., 0::2, :, :].swapaxes(-1, -2), up[..., 1::2, :, :]], axis=-1)
        xy_t = xy.swapaxes(-1, -2).copy()
        gram = xy_t @ xy
        diag = diag[..., 0::2, :, :] - gram[..., :m, :m]
        diag[..., 1:, :, :] -= gram[..., :-1, m:, m:]
        up = -gram[..., :m, m:]
        levels.append((w, xy))
    count = diag.shape[-3]  # the rest is solved densely
    dense = np.zeros((*lead, count * m, count * m))
    for k in range(count):  # the lower triangle, which is all np.linalg.cholesky reads
        dense[..., k * m : (k + 1) * m, k * m : (k + 1) * m] = diag[..., k, :, :]
        if k:
            dense[..., k * m : (k + 1) * m, (k - 1) * m : k * m] = up[..., k - 1, :, :].swapaxes(-1, -2)
    w = np.linalg.inv(np.linalg.cholesky(dense))
    return levels, w.swapaxes(-1, -2).copy() @ w


def _band_solve(factor: tuple[list, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solve (band - shift) x = rhs with the factor from _band_cholesky."""
    levels, last = factor
    lead, n = last.shape[:-2], rhs.shape[-1]
    f = np.zeros((*lead, last.shape[-1] << len(levels)))
    f[..., :n] = rhs
    odd = []
    for w, xy in levels:  # the even blocks' system: f_e - X^T z - Y^T z(k - 1)
        m = w.shape[-1]
        pairs = f.reshape(*lead, -1, 2, m)
        z = np.einsum("...ij,...j->...i", w, pairs[..., 1, :])  # z_k = R_k^-1 f_o(k)
        u = np.einsum("...ji,...j->...i", xy, z)
        f = pairs[..., 0, :] - u[..., :m]
        f[..., 1:, :] -= u[..., :-1, m:]
        f = f.reshape(*lead, -1)
        odd.append(z)
    x = (last @ f[..., None])[..., 0]
    for (w, xy), z in zip(reversed(levels), reversed(odd)):
        m = w.shape[-1]
        even = np.concatenate([x, np.zeros((*lead, m))], axis=-1)
        step = even.itemsize
        neighbours = np.ndarray(  # rows (x_e(k), x_e(k + 1)), as a view
            (*lead, z.shape[-2], 2 * m), even.dtype, even, 0, (*even.strides[:-1], m * step, step)
        )
        # x_o(k) = R_k^-T (z_k - X_k x_e(k) - Y_k x_e(k + 1))
        odd_x = np.einsum("...ji,...j->...i", w, z - np.einsum("...ij,...j->...i", xy, neighbours))
        x = np.stack([x.reshape(*lead, -1, m), odd_x], axis=-2).reshape(*lead, -1)
    return x[..., :n]


def _inverse_iteration(factor, vec: np.ndarray, steps: int = _MAX_STEPS):
    """Iterate from vec (one per factored matrix) with the factor of band -
    shift; each vector stops once a step moves it by at most _STEP_TOL.
    Returns the vectors and each one's last step."""
    vec = vec / np.linalg.norm(vec, axis=-1, keepdims=True)
    moved = np.full(vec.shape[:-1], np.inf)
    for _ in range(steps):
        nxt = _band_solve(factor, vec)
        nxt /= np.linalg.norm(nxt, axis=-1, keepdims=True)
        moving = moved > _STEP_TOL
        moved = np.where(moving, np.linalg.norm(nxt - vec, axis=-1), moved)
        vec = np.where(moving[..., None], nxt, vec)
        if not (moved > _STEP_TOL).any():
            break
    return vec, moved


def _lowest_eigenpair(band: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of a symmetric band matrix in lower storage, and a
    unit vector that inverse iteration has settled on.

    The iteration starts at the lowest eigenvector of the leading
    _LEADING x _LEADING block, solved densely, and runs in rounds of three
    steps, each at the shift rho - r - margin * |H| for the vector's Rayleigh
    quotient rho and residual r.  A shift is used only if its Cholesky
    factorisation succeeds, which places it below the whole spectrum;
    otherwise the next try is halfway down to the highest shift known to lie
    below it, starting from the Gershgorin bound.  The energy is the
    Rayleigh quotient once a step moves the vector by at most _STEP_TOL and
    no failed shift lies below it: an upper bound on E0, which a
    factorisation at E0 - margin * |H| shows to be within the margin.  Costs
    O(N b^2) per factorisation, like the solves.
    """
    b, n = band.shape[0] - 1, band.shape[1]
    scale = float(np.abs(band).max())
    k = min(n, _LEADING)
    leading = np.zeros((k, k))  # the lower triangle, which is all np.linalg.eigh reads
    for d in range(min(b, k - 1) + 1):
        leading[np.arange(d, k), np.arange(k - d)] = band[d, : k - d]
    vec = np.zeros(n)
    try:
        vec[:k] = np.linalg.eigh(leading)[1][:, 0]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    below, above = None, np.inf  # shifts below the spectrum, and one found not to be
    for _ in range(_MAX_ROUNDS):
        image = _band_matvec(band, vec)
        rho = float(vec @ image)
        shift = rho - float(np.linalg.norm(image - rho * vec)) - _SHIFT_MARGIN * scale
        if below is not None:
            shift = max(shift, below)
        if shift >= above:
            if below is None:
                below = _gershgorin_floor(band) - _SHIFT_MARGIN * scale
            shift = 0.5 * (below + above)
        try:
            factor = _band_cholesky(band, shift)
        except np.linalg.LinAlgError:
            above = shift
            continue
        below = shift
        vec, moved = _inverse_iteration(factor, vec, steps=3)
        if moved <= _STEP_TOL:
            energy = float(vec @ _band_matvec(band, vec))
            if energy < above:
                return energy, vec
            # a failed shift puts an eigenvalue below this one: the start had
            # no weight on it, so mix in every basis state
            vec = vec + 1.0 / np.sqrt(n)
            vec /= np.linalg.norm(vec)
    raise NoConvergence(f"no shift below the spectrum settled in {_MAX_ROUNDS} rounds")


def _gershgorin_floor(band: np.ndarray) -> float:
    """A lower bound on the spectrum: the least diagonal entry minus its
    row's off-diagonal absolute sum."""
    n = band.shape[1]
    radius = np.zeros(n)
    for d in range(1, band.shape[0]):
        off = np.abs(band[d, : n - d])
        radius[d:] += off
        radius[: n - d] += off
    return float(np.min(band[0] - radius))


def _cold_pair(band: np.ndarray) -> tuple[float, np.ndarray]:
    scale = float(np.abs(band).max())
    energy, _ = _lowest_eigenpair(band)
    try:
        factor = _band_cholesky(band, energy - _SHIFT_MARGIN * scale)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    vec, moved = _inverse_iteration(factor, np.ones(band.shape[1]))
    if moved > _STEP_TOL:
        raise NoConvergence(f"inverse iteration still moving by {moved:.1e} after {_MAX_STEPS} steps")
    return _checked_pair(band, energy, vec, scale)


def _warm_pairs(bands: np.ndarray, guess: np.ndarray) -> list:
    """Warm eigenpairs of a stack of bands from one guess, or one guess per
    band, all factored and iterated together; None where the solve must run
    cold."""
    scale = np.abs(bands).max(axis=(1, 2))
    guess = np.broadcast_to(guess, (len(bands), bands.shape[2]))
    guess = guess / np.linalg.norm(guess, axis=1, keepdims=True)
    image = _band_matvec(bands, guess)
    rho = np.einsum("sn,sn->s", guess, image)
    shift = rho - np.linalg.norm(image - rho[:, None] * guess, axis=1) - _SHIFT_MARGIN * scale
    try:
        factor = _band_cholesky(bands, shift)
    except np.linalg.LinAlgError:
        if len(bands) == 1:
            return [None]
        return [_warm_pairs(one[None], g)[0] for one, g in zip(bands, guess)]  # which failed
    vecs, moved = _inverse_iteration(factor, guess)
    image = _band_matvec(bands, vecs)
    energies = np.einsum("sn,sn->s", vecs, image)
    residuals = np.linalg.norm(image - energies[:, None] * vecs, axis=1)
    settled = (moved <= _STEP_TOL) & (residuals <= _RESIDUAL_TOL * scale)
    return [(float(e), gauge_fix(v)) if ok else None for e, v, ok in zip(energies, vecs, settled)]


def ground_state(band: np.ndarray, guess: np.ndarray | None = None):
    """Smallest eigenpair of a symmetric band matrix in lower storage, or the
    energies and vectors of each band of a stack (shape (S, b + 1, N)).

    Cold, E0 comes from _lowest_eigenpair and the vector from inverse
    iteration from a vector of ones, shifted just below E0 (positive definite
    even when H is exactly diagonal).  Warm, inverse iteration starts at the
    guess (one for all bands, or one per band), shifted to
    rho - r - margin * |H| for the guess's Rayleigh quotient rho and residual
    r, and E0 is the converged vector's Rayleigh quotient; a stack is
    factored and iterated as one.  A shift whose Cholesky factorisation
    succeeds lies below the whole spectrum, so the warm iteration cannot
    settle on an excited state; if it fails, does not settle or misses the
    residual bound, that band is solved cold.  Each vector is normalized with
    its largest-magnitude entry positive.  Raises NoConvergence when a cold
    solve finds no shift below the spectrum, the iteration does not settle,
    or |(H - E0) psi| exceeds the residual bound.
    """
    stack = band if band.ndim == 3 else band[None]
    pairs = [None] * len(stack) if guess is None else _warm_pairs(stack, guess)
    pairs = [pair or _cold_pair(one) for pair, one in zip(pairs, stack)]
    if band.ndim == 2:
        return pairs[0]
    return np.array([e for e, _ in pairs]), np.stack([v for _, v in pairs])


def _checked_pair(band, energy: float, vec: np.ndarray, scale: float) -> tuple[float, np.ndarray]:
    residual = float(np.linalg.norm(_band_matvec(band, vec) - energy * vec))
    if residual > _RESIDUAL_TOL * scale:
        raise NoConvergence(f"residual |(H - E0) psi| = {residual:.2e} for |H| = {scale:.2e}")
    return energy, gauge_fix(vec)


def _checked_ground_vectors(bands: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """Ground states of a stack of band Hamiltonians, solved as one stack
    from the guess (one per band, or one for all)."""
    _, vecs = ground_state(bands, guess)
    _check_tails(vecs)
    return vecs


def _check_tails(vecs: np.ndarray) -> None:
    n = vecs.shape[-1]
    for vec in vecs.reshape(-1, n):
        tail = float(np.sum(vec[int(0.9 * n):] ** 2))
        if tail > 1e-10:
            raise BasisTooSmall(f"tail weight {tail:.2e} in top 10% of an N={n} basis")


def _shifted_points(point: tuple, labels, steps) -> list[tuple]:
    """The point one step up, then one down, along each label in turn."""
    out = []
    for label in labels:
        for sign in (+1, -1):
            p = dict(zip(("alpha", "lambda", "j"), point))
            p[label] += sign * steps[label]
            out.append((p["alpha"], p["lambda"], p["j"]))
    return out


def _metric_matrix(vecs: np.ndarray, labels, steps, psi0) -> np.ndarray:
    derivs = [(vecs[2 * i] - vecs[2 * i + 1]) / (2.0 * steps[label]) for i, label in enumerate(labels)]
    k = len(labels)
    g = np.empty((k, k))
    for i in range(k):
        for jdx in range(k):
            conn_i = float(derivs[i] @ psi0)
            conn_j = float(derivs[jdx] @ psi0)
            g[i, jdx] = float(derivs[i] @ derivs[jdx]) - conn_i * conn_j
    return g


def numeric_qim(
    alpha: float,
    lam: float,
    j: float,
    potential: PolynomialPotential | None,
    config: OracleConfig | None = None,
    labels: tuple[str, ...] = ("alpha", "lambda"),
) -> NumericQGT:
    """Metric by central ground-state differences, with convergence estimates.

    The reported value uses the halved step; the report carries a Richardson
    error estimate from the step halving and the drift under basis doubling.
    Only the central ground state at N runs a cold eigenvalue solve; the
    states at N, the central one included, are then solved as one stack
    warm-started from its vector, and the five at 2N as another, each from
    its own state at N, zero-padded.
    """
    _require_ground_state(alpha, lam, potential)
    config = config or OracleConfig()
    # pin the basis at the central point; differencing must not rotate it
    pinned = OracleConfig(config.basis_size, config.omega(alpha), config.fd_step)
    steps = {label: config.step(label, alpha) for label in labels}
    half = {label: 0.5 * h for label, h in steps.items()}
    point = (alpha, lam, j)
    k = 2 * len(labels)
    points = [point] + _shifted_points(point, labels, steps) + _shifted_points(point, labels, half)
    bands = np.stack([build_hamiltonian(*p, potential, pinned) for p in points])
    _, start = _lowest_eigenpair(bands[0])  # the point's one cold eigenvalue solve
    _check_tails(start)
    vecs = _checked_ground_vectors(bands, start)
    psi0 = vecs[0]
    g_full = _metric_matrix(vecs[1 : k + 1], labels, steps, psi0)
    g_half = _metric_matrix(vecs[k + 1 :], labels, half, psi0)
    doubled = OracleConfig(2 * config.basis_size, pinned.reference_frequency, config.fd_step)
    big = np.stack([build_hamiltonian(*p, potential, doubled) for p in [point] + points[k + 1 :]])
    # each starts at its N-basis ground state, zero-padded: its tail weight is below 1e-10
    small = vecs[[0, *range(k + 1, 2 * k + 1)]]
    big_vecs = _checked_ground_vectors(big, np.concatenate([small, np.zeros_like(small)], axis=1))
    g_big = _metric_matrix(big_vecs[1:], labels, half, big_vecs[0])
    report: dict[tuple[str, str], dict[str, float]] = {}
    for i, a in enumerate(labels):
        for jdx, b in enumerate(labels):
            change = abs(g_full[i, jdx] - g_half[i, jdx])
            scale = max(abs(g_half[i, jdx]), 1e-8)
            if change / scale > 0.10:
                raise StepTooLarge(
                    f"entry ({a},{b}) moved {change/scale:.1%} under step halving"
                )
            report[(a, b)] = {
                "fd_halving": change / 3.0,  # second-order central differences
                "basis_doubling": abs(g_half[i, jdx] - g_big[i, jdx]),
            }
    return NumericQGT(tuple(labels), g_half, report)
