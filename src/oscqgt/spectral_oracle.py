"""Independent spectral check of the metric components.

The Hamiltonian H = p^2/2 + alpha q^2/2 + J q + lambda V(q) is represented in
a truncated number basis of the oscillator of frequency omega = sqrt(alpha),
in which its free part is exactly diagonal: H = omega (n + 1/2) + J q +
lambda V(q).  The metric is the ground state's first-order response,

    g_ab = <x_a | x_b>,  (H - E0) x_a = -Q dH/da psi,  Q = 1 - |psi><psi|,

the fidelity susceptibility of Zanardi and Paunkovic (PRE 74, 031123, 2006)
for the tensor of Provost and Vallee (CMP 76, 289, 1980).  In the basis
pinned at the point, each dH/da is a fixed band: q^2/2 for alpha, V(q) for
lambda and q for J.  Each band, of H or of a dH/da, sums the powers of
x = sqrt(omega) q from one table per basis size and degree.  q is
tridiagonal, so H is built in lower band storage
(band[d, c] = H[c + d, c]), and a shifted system is factored by a block
cyclic-reduction Cholesky factorisation in numpy.  Each point builds H at N
and at 2N and solves each for its ground state by shifted inverse iteration,
at N from the ground state of a small leading block and at 2N from the N one,
zero-padded.  The factor of the round that settled psi, shifted just below
E0, also solves the response, refined on the complement of psi, and the
drift between the two sizes is reported per entry.  Everything here is real
symmetric, so this oracle is blind to Berry curvature, consistent with the
models in scope.

Every kernel takes a leading point axis.  `numeric_qim_grid` solves the
points of a grid, which share a potential, labels and basis size, as one
stack, with one numpy call per step for all of them, in stacks of at most
_STACK_STATES basis states at 2N, which bounds their storage.  Each point
keeps the rounds, shifts and factor it takes alone: a stack that fails to
factor, or whose floats overflow, is retried in halves to find the points
that failed.  So a point's result is bit for bit the one it gets from
`numeric_qim`, a grid of one point.
"""

from __future__ import annotations

from functools import lru_cache
from sys import float_info

import numpy as np

from .perturbation import NoGroundState, PolynomialPotential, _require_ground_state, hamiltonian_derivative
from .scalar_algebra import OracleFailure

__all__ = [
    "OracleConfig",
    "NumericQGT",
    "BasisTooSmall",
    "NoConvergence",
    "NoGroundState",
    "build_hamiltonian",
    "numeric_qim",
    "numeric_qim_grid",
]

# Inverse iteration shifts by margin * |H| below the vector's residual interval:
# once the vector is close, that is far above E0's rounding error, so positive
# definite, yet each step shrinks excited components by ~margin * |H| / gap.
# A round ends when a step moves the unit vector by < _STEP_TOL.
_SHIFT_MARGIN = 1e-10
_STEP_TOL = 1e-12
_ROUND_STEPS = 3  # inverse-iteration steps per shift
_RESIDUAL_TOL = 1e-13  # bound on |(H - E0) psi| / |H|
_BLOCK = 4  # least rows per diagonal block of the cyclic-reduction factor
_MAX_ROUNDS = 64  # shifts tried by one ground-state solve
_DENSE = 16  # rows left to a dense factorisation after cyclic reduction
_LEADING = 32  # rows of the block whose ground state starts a solve given no start
_REFINEMENTS = 2  # residual steps after each response solve
# basis states at 2N solved in one stack, which bounds a stack's storage
# (band, factor and work arrays: some 35 floats per state for a quartic
# potential, more for a higher degree) to a few MB
_STACK_STATES = 1 << 14


class BasisTooSmall(OracleFailure):
    """Ground-state weight leaks into the top of the truncated basis."""


class NoConvergence(OracleFailure):
    """The eigensolver failed or its eigenpair misses the residual bound."""


class OracleConfig:
    """The size N of the truncated number basis."""

    __slots__ = ("basis_size",)

    def __init__(self, basis_size: int = 128):
        if basis_size < 16:
            raise ValueError("basis_size must be >= 16")
        self.basis_size = basis_size


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


@lru_cache(maxsize=8)
def _power_bands(n: int, b: int) -> np.ndarray:
    """powers[k, d, c] = (x**k)[c + d, c] for k, d = 0..b and x = sqrt(omega) q.

    Each power is the last one times the tridiagonal x, in O(n * b**2).  The
    array is shared by every caller, so it is read-only.
    """
    sub = np.sqrt(np.arange(1, n) / 2.0)  # x[c + 1, c]
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


def _check_degree(potential: PolynomialPotential) -> None:
    if potential.degree > 8:
        raise ValueError("potential degree must be <= 8")


def _polynomial_bands(coeffs: np.ndarray, omega: np.ndarray, n: int) -> np.ndarray:
    """sum_k coeffs[..., k] q**k at frequency omega[...] on n states, as band
    storage (*P, b + 1, n): q**k = omega**(-k/2) x**k, one dot per point."""
    b = coeffs.shape[-1] - 1
    powers = _power_bands(n, b).reshape(b + 1, -1)
    scaled = coeffs * omega[..., None] ** (-0.5 * np.arange(b + 1))
    band = np.empty((*coeffs.shape[:-1], b + 1, n))
    for out, c in zip(band.reshape(-1, (b + 1) * n), scaled.reshape(-1, b + 1)):
        np.dot(c, powers, out=out)
    return band


def build_hamiltonian(alpha, lam, j, potential: PolynomialPotential, config: OracleConfig) -> np.ndarray:
    """H = omega (n + 1/2) + J q + lambda V(q) in the number basis of the
    oscillator of frequency omega = sqrt(alpha), as lower band storage.

    band[..., d, c] = H[c + d, c], shape (*P, b + 1, N) with b = max(2, degree)
    and P the common shape of the parameters: one band for scalars, a stack
    with a leading point axis for arrays.
    """
    _check_degree(potential)
    alpha, lam, j = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (alpha, lam, j)))
    n, omega = config.basis_size, np.sqrt(alpha)
    coeffs = np.zeros((*alpha.shape, max(2, potential.degree) + 1))
    for label, value in (("j", j), ("lambda", lam)):
        for deg, c in hamiltonian_derivative(label, potential):
            coeffs[..., deg] += value * float(c)
    band = _polynomial_bands(coeffs, omega, n)
    band[..., 0, :] += omega[..., None] * (np.arange(n) + 0.5)
    return band


def _band_matvec(band: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """H vec for a band and a vector, or broadcast over a stack of either."""
    out = band[..., 0, :] * vec
    for d in range(1, band.shape[-2]):
        out[..., d:] += band[..., d, :-d] * vec[..., :-d]
        out[..., :-d] += band[..., d, :-d] * vec[..., d:]
    return out


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y over the last axis, one BLAS dot per row of a stack."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _norm(x: np.ndarray) -> np.ndarray:
    """The 2-norm over the last axis, per row of a stack."""
    return np.sqrt(_dot(x, x))


@lru_cache(maxsize=16)
def _block_layout(n: int, b: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Where a band's blocks come from.

    The matrix is cut into diagonal blocks of m rows, their count filled up
    to a power of two with decoupled unit rows.  Returns indices into the
    band's flattened storage followed by a 0 and a 1 that lay out each
    diagonal block and the block right of it, A[k, k + 1].
    """
    count = 1 << (-(-n // m) - 1).bit_length()
    zero, one = (b + 1) * n, (b + 1) * n + 1
    rows = np.arange(count)[:, None, None] * m + np.arange(m)[:, None]
    cols = np.arange(count)[:, None, None] * m + np.arange(m)

    def entries(r, c):  # H[r, c] = band[|r - c|, min(r, c)]
        d, low = np.abs(r - c), np.minimum(r, c)
        return np.where((d <= b) & (np.maximum(r, c) < n), d * n + low, zero)

    diagonal = np.where((rows == cols) & (rows >= n), one, entries(rows, cols))
    return diagonal, entries(rows, cols + m)


def _band_cholesky(band: np.ndarray, shift: np.ndarray) -> list[np.ndarray]:
    """Block cyclic-reduction Cholesky factors of band[p] - shift[p] for a
    stack of bands (P, b + 1, N), for repeated solves.

    In blocks of m = max(_BLOCK, b) rows the matrix is block tridiagonal.
    Each level eliminates the odd-numbered blocks D_k of the current matrix:
    with R_k R_k^T = D_k and [X_k | Y_k] = R_k^-1 [A[2k + 1, 2k] | A[2k + 1,
    2k + 2]], the even blocks' Schur complement is again block tridiagonal,
    on half the blocks, and a level keeps R_k^-1 and [X_k | Y_k] for the
    solves.  Once at most _DENSE rows are left, their inverse is formed
    densely.  Returns [R^-1, XY] of each level, then that inverse, each
    with the point axis first.  This is a Cholesky factorisation of the
    matrix with its blocks reordered, so it exists exactly when the matrix is
    positive definite: np.linalg.LinAlgError means some point's shift is not
    below its whole spectrum.
    """
    points, rows, n = band.shape
    b = min(rows, n) - 1  # diagonals past the last row hold nothing
    m = max(_BLOCK, b)
    diagonal, right = _block_layout(n, b, m)
    flat = np.zeros((points, (b + 1) * n + 2))
    flat[:, :-2] = band[:, : b + 1].reshape(points, -1)
    flat[:, :n] -= shift[:, None]  # the matrix's diagonal, not the unit rows
    flat[:, -1] = 1.0
    diag = flat[:, diagonal]
    up = flat[:, right]  # up[:, k] = A[k, k + 1]
    del flat
    factor = []
    while diag.shape[1] * m > _DENSE:
        w = np.linalg.inv(np.linalg.cholesky(diag[:, 1::2]))  # R_k^-1
        # [X_k | Y_k] = R_k^-1 [A[2k + 1, 2k] | A[2k + 1, 2k + 2]]; matmul is
        # much faster on contiguous operands, so transposes are copied
        xy = w @ np.concatenate([up[:, 0::2].swapaxes(-1, -2), up[:, 1::2]], axis=-1)
        del up
        xy_t = xy.swapaxes(-1, -2).copy()
        # the blocks of [X | Y]^T [X | Y] that the Schur complement reads
        diag = diag[:, 0::2] - xy_t[..., :m, :] @ xy[..., :m]
        diag[:, 1:] -= xy_t[:, :-1, m:] @ xy[:, :-1, :, m:]
        up = -(xy_t[..., :m, :] @ xy[..., m:])
        factor += [w, xy]
    count = diag.shape[1]  # the rest is solved densely
    dense = np.zeros((points, count * m, count * m))
    for k in range(count):  # the lower triangle, which is all np.linalg.cholesky reads
        dense[:, k * m : (k + 1) * m, k * m : (k + 1) * m] = diag[:, k]
        if k:
            dense[:, k * m : (k + 1) * m, (k - 1) * m : k * m] = up[:, k - 1].swapaxes(-1, -2)
    w = np.linalg.inv(np.linalg.cholesky(dense))
    return factor + [w.swapaxes(-1, -2).copy() @ w]


def _factor_each(band: np.ndarray, shift: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The factors of band[p] - shift[p] for the points p where they exist,
    and the mask of those points.  A stack that fails to factor is retried
    in halves, down to the points that fail alone."""
    try:
        return _band_cholesky(band, shift), np.ones(len(shift), dtype=bool)
    except np.linalg.LinAlgError:
        if len(shift) == 1:
            return [], np.zeros(1, dtype=bool)
    half = len(shift) // 2
    low, low_ok = _factor_each(band[:half], shift[:half])
    high, high_ok = _factor_each(band[half:], shift[half:])
    parts = [f for f in (low, high) if f]
    return [np.concatenate(arrays) for arrays in zip(*parts)], np.concatenate([low_ok, high_ok])


def _band_solve(factor: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solve (band[p] - shift[p]) x = rhs[p, l] for every point p and each of
    its right-hand sides l, rhs of shape (P, L, N), with the factors from
    _band_cholesky."""
    *levels, last = factor
    points, count, n = rhs.shape
    f = np.zeros((points, count, last.shape[-1] << len(levels) // 2))
    f[..., :n] = rhs
    levels = list(zip(levels[0::2], levels[1::2]))
    odd = []
    for w, xy in levels:  # the even blocks' system: f_e - X^T z - Y^T z(k - 1)
        m = w.shape[-1]
        pairs = f.reshape(points, count, -1, 2, m)
        z = np.einsum("pkij,plkj->plki", w, pairs[..., 1, :])  # z_k = R_k^-1 f_o(k)
        u = np.einsum("pkji,plkj->plki", xy, z)
        f = pairs[..., 0, :] - u[..., :m]
        f[..., 1:, :] -= u[..., :-1, m:]
        f = f.reshape(points, count, -1)
        odd.append(z)
    x = f @ last  # last is symmetric
    for (w, xy), z in zip(reversed(levels), reversed(odd)):
        m = w.shape[-1]
        even = np.concatenate([x, np.zeros((points, count, m))], axis=-1)
        step = even.itemsize
        neighbours = np.ndarray(  # rows (x_e(k), x_e(k + 1)), as a view
            (points, count, z.shape[-2], 2 * m), even.dtype, even, 0, (*even.strides[:-1], m * step, step)
        )
        # x_o(k) = R_k^-T (z_k - X_k x_e(k) - Y_k x_e(k + 1))
        odd_x = np.einsum("pkji,plkj->plki", w, z - np.einsum("pkij,plkj->plki", xy, neighbours))
        x = np.stack([x.reshape(points, count, -1, m), odd_x], axis=-2).reshape(points, count, -1)
    return x[..., :n]


def _ground_pair(band: np.ndarray, start: np.ndarray | None = None) -> tuple:
    """Smallest eigenpair (E0, psi) of each symmetric band matrix of a stack
    (P, b + 1, N) in lower storage, the factors of band - shift that settled
    each psi, and each point's failure: None, or NoConvergence.

    Inverse iteration starts at `start` (P, N), or at the lowest eigenvector
    of the leading _LEADING x _LEADING block, solved densely, and runs in
    rounds of up to _ROUND_STEPS steps, each at the shift rho - r - margin *
    |H| for the vector's Rayleigh quotient rho and residual r.  A shift is
    used only if its Cholesky factorisation succeeds, which places it below
    the whole spectrum; otherwise the next try is halfway down to the highest
    shift known to lie below it, starting from the Gershgorin bound.  The
    pair is the vector and its Rayleigh quotient, an upper bound on E0, once
    a round began within (margin + _RESIDUAL_TOL) * |H| above its shift,
    settled the vector (a step moved it by at most _STEP_TOL), lies below
    every failed shift and meets the residual bound.  A settled vector above
    a failed shift had no weight on a lower state, so every basis state is
    mixed in.  Costs O(N b^2) per round.  A point that no round qualifies
    within _MAX_ROUNDS fails with NoConvergence.

    The points iterate together: each round factors and steps the points
    still open, with one numpy call per step for all of them, and a point
    that settles, or stops stepping within a round, keeps its vector, so
    every point takes exactly the rounds, shifts and factor it takes alone.
    """
    points, rows, n = band.shape
    scale = np.abs(band).max(axis=(1, 2))
    if start is None:
        k = min(n, _LEADING)
        leading = np.zeros((points, k, k))  # the lower triangle, which is all np.linalg.eigh reads
        for d in range(min(rows - 1, k - 1) + 1):
            leading[:, np.arange(d, k), np.arange(k - d)] = band[:, d, : k - d]
        start = np.zeros((points, n))
        try:
            start[:, :k] = np.linalg.eigh(leading)[1][..., 0]
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(str(exc)) from exc
    vec = start / _norm(start)[:, None]
    energy = np.zeros(points)
    below = np.full(points, -np.inf)  # the highest shift found below the spectrum
    above = np.full(points, np.inf)  # the lowest shift found not to be
    factor: list[np.ndarray] = []
    settled = np.zeros(points, dtype=bool)
    for _ in range(_MAX_ROUNDS):
        open_ = np.flatnonzero(~settled)
        if not len(open_):
            break
        h, v = (band, vec) if len(open_) == points else (band[open_], vec[open_])
        image = _band_matvec(h, v)
        rho = _dot(v, image)
        shift = np.maximum(rho - _norm(image - rho[:, None] * v) - _SHIFT_MARGIN * scale[open_], below[open_])
        over = shift >= above[open_]
        if over.any():
            hit = open_[over]
            fresh = hit[below[hit] == -np.inf]
            if len(fresh):
                below[fresh] = _gershgorin_floor(band[fresh]) - _SHIFT_MARGIN * scale[fresh]
            shift[over] = 0.5 * (below[hit] + above[hit])
        new, factored = _factor_each(h, shift)
        above[open_[~factored]] = shift[~factored]
        if not factored.any():
            continue
        idx, h, v, rho, shift = open_[factored], h[factored], v[factored], rho[factored], shift[factored]
        below[idx] = shift
        if not factor and len(idx) == points:
            factor = new
        else:
            factor = factor or [np.empty((points, *a.shape[1:])) for a in new]
            for kept, a in zip(factor, new):
                kept[idx] = a
        stepping = np.ones(len(idx), dtype=bool)
        for _ in range(_ROUND_STEPS):
            nxt = _band_solve(new, v[:, None, :])[:, 0]
            nxt /= _norm(nxt)[:, None]
            moved = _norm(nxt - v)
            v = np.where(stepping[:, None], nxt, v)
            stepping &= moved > _STEP_TOL
            if not stepping.any():
                break
        image = _band_matvec(h, v)
        e = _dot(v, image)
        escaped = ~stepping & (e >= above[idx])
        if escaped.any():
            v[escaped] += 1.0 / np.sqrt(n)
            v[escaped] /= _norm(v[escaped])[:, None]
        done = (
            ~stepping
            & ~escaped
            & (rho - shift <= (_SHIFT_MARGIN + _RESIDUAL_TOL) * scale[idx])
            & (_norm(image - e[:, None] * v) <= _RESIDUAL_TOL * scale[idx])
        )
        vec[idx], energy[idx] = v, e
        settled[idx[done]] = True
    failures = [None] * points
    for i in np.flatnonzero(~settled):
        failures[i] = NoConvergence(f"inverse iteration settled on no ground state in {_MAX_ROUNDS} rounds")
    return energy, vec, factor, failures


def _gershgorin_floor(band: np.ndarray) -> np.ndarray:
    """A lower bound on the spectrum of each band of a stack: the least
    diagonal entry minus its row's off-diagonal absolute sum."""
    n = band.shape[-1]
    radius = np.zeros(band.shape[:-2] + (n,))
    for d in range(1, band.shape[-2]):
        off = np.abs(band[..., d, : n - d])
        radius[..., d:] += off
        radius[..., : n - d] += off
    return np.min(band[..., 0, :] - radius, axis=-1)


def _derivative_images(labels, potential: PolynomialPotential, band: np.ndarray, alpha, vec) -> np.ndarray:
    """dH_a psi for each label, images[p, a], with dH_a (see
    `hamiltonian_derivative`) in the basis of band[p], at frequency
    sqrt(alpha[p]), and psi = vec[p]; the bands of one label at a time."""
    b, n = band.shape[-2] - 1, band.shape[-1]
    images = np.empty((len(band), len(labels), n))
    for i, label in enumerate(labels):
        coeffs = np.zeros((len(band), b + 1))
        for deg, c in hamiltonian_derivative(label, potential):
            coeffs[:, deg] = float(c)
        images[:, i] = _band_matvec(_polynomial_bands(coeffs, np.sqrt(alpha), n), vec)
    return images


def _response(band: np.ndarray, energy: np.ndarray, vec: np.ndarray, factor: list, images: np.ndarray) -> tuple:
    """Metric of each point of a stack from the first-order response of its
    ground state (E0 and psi, settled by `factor`) to each derivative, given
    as images[p, a] = dH_a psi.

    x_a solves (H - E0) x_a = -Q dH_a psi on the complement of psi, with the
    factor of H - s for a shift s just below E0.  A solve with it is off by
    a relative (E0 - s) / gap, and each of _REFINEMENTS steps on the residual
    multiplies that error by the same ratio.  Returns X X^T and the change
    the last step made to it, each of shape (P, L, L).
    """
    column, row = vec[:, :, None], vec[:, None, :]

    def project(x):
        return x - (x @ column) * row

    rhs = -project(images)
    del images  # a stack's arrays are large: keep few alive
    x = project(_band_solve(factor, rhs))
    for _ in range(_REFINEMENTS):
        last = x @ x.swapaxes(-1, -2)
        residual = rhs - project(_band_matvec(band[:, None], x) - energy[:, None, None] * x)
        x = x + project(_band_solve(factor, residual))
    metric = x @ x.swapaxes(-1, -2)
    return metric, np.abs(metric - last)


def _ground_response(alpha, lam, j, potential, config, labels, start=None) -> tuple:
    """Each point's failure (None, BasisTooSmall or NoConvergence) at the
    basis size of `config`, and for the points that did not fail, in order,
    their ground states, metrics and last refinement changes."""
    band = build_hamiltonian(alpha, lam, j, potential, config)
    energy, vec, factor, failures = _ground_pair(band, start)
    n = config.basis_size
    for i, tail in enumerate(np.sum(vec[:, int(0.9 * n) :] ** 2, axis=-1)):
        if failures[i] is None and tail > 1e-10:
            failures[i] = BasisTooSmall(f"tail weight {tail:.2e} in top 10% of an N={n} basis")
    keep = [i for i, failure in enumerate(failures) if failure is None]
    if not keep:
        return failures, None, (), ()
    if len(keep) < len(failures):
        band, alpha, energy, vec = band[keep], alpha[keep], energy[keep], vec[keep]
        factor = [a[keep] for a in factor]
    metric, change = _response(band, energy, vec, factor, _derivative_images(labels, potential, band, alpha, vec))
    return failures, vec, metric, change


def _solve(points, potential, config: OracleConfig, labels) -> list:
    """Each point's NumericQGT, or its failure, for a stack of points whose
    Hamiltonians all have a ground state (see numeric_qim)."""
    alpha, lam, j = np.array(points, dtype=float).T
    results, vec, metric, refinement = _ground_response(alpha, lam, j, potential, config, labels)
    solved = [i for i, failure in enumerate(results) if failure is None]
    if not solved:
        return results
    big = OracleConfig(2 * config.basis_size)
    # the zero-padded start is close: its tail weight is below 1e-10
    start = np.concatenate([vec, np.zeros_like(vec)], axis=-1)
    failures, _, big_metric, _ = _ground_response(
        alpha[solved], lam[solved], j[solved], potential, big, labels, start
    )
    doubled = iter(big_metric)
    for i, small, change, failure in zip(solved, metric, refinement, failures):
        results[i] = failure or _checked(labels, small, change, np.abs(small - next(doubled)))
    return results


def _checked(labels, metric: np.ndarray, refinement: np.ndarray, drift: np.ndarray):
    """A point's NumericQGT, or the FloatingPointError of an entry lost to
    underflow."""
    for i, a in enumerate(labels):
        if metric[i, i] < float_info.min:
            return FloatingPointError(
                f"the oracle underflows a float: G({a},{a}) = {metric[i, i]:.3g} is not a normal float"
            )
    report = {
        (a, b): {"refinement": float(refinement[i, k]), "basis_doubling": float(drift[i, k])}
        for i, a in enumerate(labels)
        for k, b in enumerate(labels)
    }
    return NumericQGT(tuple(labels), metric, report)


def _solve_each(points, potential, config: OracleConfig, labels) -> list:
    """_solve on a stack of points; a stack whose numerics overflow or whose
    leading block finds no eigenvectors is retried in halves, down to the
    points that fail alone."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _solve(points, potential, config, labels)
    except (FloatingPointError, NoConvergence) as exc:
        if len(points) == 1:
            if isinstance(exc, FloatingPointError):
                overflow = OverflowError(f"the oracle overflows a float: {exc}")
                overflow.__cause__ = exc
                return [overflow]
            return [exc]
    half = len(points) // 2
    return _solve_each(points[:half], potential, config, labels) + _solve_each(
        points[half:], potential, config, labels
    )


def numeric_qim_grid(
    points,
    potential: PolynomialPotential,
    config: OracleConfig | None = None,
    labels: tuple[str, ...] = ("alpha", "lambda"),
) -> list:
    """numeric_qim at each point (alpha, lambda, j) of `points`, in order:
    the point's NumericQGT, or the exception numeric_qim raises there.

    The points that have a ground state are solved together, in stacks of
    as many points as keep the states of their 2N bases within
    _STACK_STATES, so every numpy call of the solve serves a whole stack.
    A point's result is bit for bit the one it gets alone.
    """
    config = config or OracleConfig()
    results: list = [None] * len(points)
    valid = []
    for i, (alpha, lam, _) in enumerate(points):
        try:
            _require_ground_state(alpha, lam, potential)
            _check_degree(potential)
        except ValueError as exc:
            results[i] = exc
        else:
            valid.append(i)
    size = max(1, _STACK_STATES // (2 * config.basis_size))
    for first in range(0, len(valid), size):
        chunk = valid[first : first + size]
        for i, result in zip(chunk, _solve_each([points[i] for i in chunk], potential, config, labels)):
            results[i] = result
    return results


def numeric_qim(
    alpha: float,
    lam: float,
    j: float,
    potential: PolynomialPotential,
    config: OracleConfig | None = None,
    labels: tuple[str, ...] = ("alpha", "lambda"),
) -> NumericQGT:
    """Metric by linear response of the ground state, with convergence
    estimates.

    H is built at N in the basis pinned at omega = sqrt(alpha) and solved
    for its ground state; the factor that settled psi also solves
    (H - E0) x_a = -Q dH_a psi for each label, and g = X X^T.  The report
    carries the change made by the last refinement step and the drift under
    basis doubling: H is built again at 2N, solved from the N-basis ground
    state, zero-padded, and its factor solves the response there.

    A float overflow or invalid value anywhere in the numerics raises
    OverflowError.  An entry G_ab has lost its digits to underflow when
    sqrt(G_aa G_bb) is below the least normal float; that happens to some
    entry exactly when it happens to a diagonal one, and raises
    FloatingPointError.  This is numeric_qim_grid on a grid of one point.
    """
    [result] = numeric_qim_grid([(alpha, lam, j)], potential, config, labels)
    if isinstance(result, Exception):
        raise result
    return result
