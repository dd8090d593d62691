"""Independent spectral check of the metric components.

The Hamiltonian H = p^2/2 + alpha q^2/2 + J q + lambda V(q) is represented in
a truncated number basis of a reference oscillator of frequency omega
(omega = sqrt(alpha) by default, which makes the free part exactly diagonal).
The metric is the ground state's first-order response,

    g_ab = <x_a | x_b>,  (H - E0) x_a = -Q dH/da psi,  Q = 1 - |psi><psi|,

the fidelity susceptibility of Zanardi and Paunkovic (PRE 74, 031123, 2006)
for the tensor of Provost and Vallee (CMP 76, 289, 1980).  In the basis
pinned at the point, each dH/da is a fixed band: q^2/2 for alpha, V(q) for
lambda and q for J.  q is tridiagonal, so H is built in lower band storage
(band[d, c] = H[c + d, c]), and a shifted system is factored by a block
cyclic-reduction Cholesky factorisation in numpy.  Each point builds H at N
and at 2N and solves each for its ground state by shifted inverse iteration,
at N from the ground state of a small leading block and at 2N from the N one,
zero-padded.  The factor of the round that settled psi, shifted just below
E0, also solves the response, refined on the complement of psi, and the
drift between the two sizes is reported per entry.  Everything here is real
symmetric, so this oracle is blind to Berry curvature, consistent with the
models in scope.
"""

from __future__ import annotations

from functools import lru_cache
from sys import float_info

import numpy as np

from .perturbation import PolynomialPotential, hamiltonian_derivative
from .scalar_algebra import OracleFailure

__all__ = [
    "OracleConfig",
    "NumericQGT",
    "BasisTooSmall",
    "NoConvergence",
    "NoGroundState",
    "build_hamiltonian",
    "numeric_qim",
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


class BasisTooSmall(OracleFailure):
    """Ground-state weight leaks into the top of the truncated basis."""


class NoConvergence(OracleFailure):
    """The eigensolver failed or its eigenpair misses the residual bound."""


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
    full: dict[int, float] = {}
    for label, value in (("alpha", alpha), ("lambda", lam)):
        for deg, c in hamiltonian_derivative(label, potential):
            full[deg] = full.get(deg, 0.0) + value * float(c)
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
    """Basis size and reference frequency (default sqrt(alpha))."""

    __slots__ = ("basis_size", "reference_frequency")

    def __init__(self, basis_size: int = 128, reference_frequency: float | None = None):
        if basis_size < 16:
            raise ValueError("basis_size must be >= 16")
        self.basis_size = basis_size
        self.reference_frequency = reference_frequency

    def omega(self, alpha: float) -> float:
        return self.reference_frequency if self.reference_frequency else float(np.sqrt(alpha))


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
    coeffs[2] = -0.5 * omega**2  # p^2/2 + omega^2 q^2/2 is the diagonal added below
    for label, value in (("alpha", alpha), ("j", j), ("lambda", lam)):
        for deg, c in hamiltonian_derivative(label, potential):
            coeffs[deg] += value * float(c)
    band = np.tensordot(coeffs, _power_bands(n, omega, b), axes=1)
    band[0] += omega * (np.arange(n) + 0.5)
    return band


def _band_matvec(band: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """H vec for a band and a vector, or broadcast over a stack of either."""
    out = band[..., 0, :] * vec
    for d in range(1, band.shape[-2]):
        out[..., d:] += band[..., d, :-d] * vec[..., :-d]
        out[..., :-d] += band[..., d, :-d] * vec[..., d:]
    return out


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


def _band_cholesky(band: np.ndarray, shift: float) -> tuple[list, np.ndarray]:
    """Block cyclic-reduction Cholesky factor of band - shift, for repeated
    solves.

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
    rows, n = band.shape
    b = min(rows, n) - 1  # diagonals past the last row hold nothing
    m = max(_BLOCK, b)
    diagonal, right, on_diagonal = _block_layout(n, b, m)
    flat = np.concatenate([band[: b + 1].ravel(), [0.0, 1.0]])
    diag = flat[diagonal] - shift * on_diagonal
    up = flat[right]  # up[k] = A[k, k + 1]
    levels = []
    while len(diag) * m > _DENSE:
        w = np.linalg.inv(np.linalg.cholesky(diag[1::2]))  # R_k^-1
        # [X_k | Y_k] = R_k^-1 [A[2k + 1, 2k] | A[2k + 1, 2k + 2]]; matmul is
        # much faster on contiguous operands, so transposes are copied
        xy = w @ np.concatenate([up[0::2].swapaxes(-1, -2), up[1::2]], axis=-1)
        xy_t = xy.swapaxes(-1, -2).copy()
        gram = xy_t @ xy
        diag = diag[0::2] - gram[:, :m, :m]
        diag[1:] -= gram[:-1, m:, m:]
        up = -gram[:, :m, m:]
        levels.append((w, xy))
    count = len(diag)  # the rest is solved densely
    dense = np.zeros((count * m, count * m))
    for k in range(count):  # the lower triangle, which is all np.linalg.cholesky reads
        dense[k * m : (k + 1) * m, k * m : (k + 1) * m] = diag[k]
        if k:
            dense[k * m : (k + 1) * m, (k - 1) * m : k * m] = up[k - 1].T
    w = np.linalg.inv(np.linalg.cholesky(dense))
    return levels, w.T.copy() @ w


def _band_solve(factor: tuple[list, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solve (band - shift) x = rhs, or each row of a stack of right-hand
    sides, with the factor from _band_cholesky."""
    levels, last = factor
    lead, n = rhs.shape[:-1], rhs.shape[-1]
    f = np.zeros((*lead, len(last) << len(levels)))
    f[..., :n] = rhs
    odd = []
    for w, xy in levels:  # the even blocks' system: f_e - X^T z - Y^T z(k - 1)
        m = w.shape[-1]
        pairs = f.reshape(*lead, -1, 2, m)
        z = np.einsum("kij,...kj->...ki", w, pairs[..., 1, :])  # z_k = R_k^-1 f_o(k)
        u = np.einsum("kji,...kj->...ki", xy, z)
        f = pairs[..., 0, :] - u[..., :m]
        f[..., 1:, :] -= u[..., :-1, m:]
        f = f.reshape(*lead, -1)
        odd.append(z)
    x = f @ last  # last is symmetric
    for (w, xy), z in zip(reversed(levels), reversed(odd)):
        m = w.shape[-1]
        even = np.concatenate([x, np.zeros((*lead, m))], axis=-1)
        step = even.itemsize
        neighbours = np.ndarray(  # rows (x_e(k), x_e(k + 1)), as a view
            (*lead, z.shape[-2], 2 * m), even.dtype, even, 0, (*even.strides[:-1], m * step, step)
        )
        # x_o(k) = R_k^-T (z_k - X_k x_e(k) - Y_k x_e(k + 1))
        odd_x = np.einsum("kji,...kj->...ki", w, z - np.einsum("kij,...kj->...ki", xy, neighbours))
        x = np.stack([x.reshape(*lead, -1, m), odd_x], axis=-2).reshape(*lead, -1)
    return x[..., :n]


def _ground_pair(band: np.ndarray, start: np.ndarray | None = None) -> tuple[float, np.ndarray, tuple]:
    """Smallest eigenpair (E0, psi) of a symmetric band matrix in lower
    storage, and the factor of band - shift that settled psi.

    Inverse iteration starts at `start`, or at the lowest eigenvector of the
    leading _LEADING x _LEADING block, solved densely, and runs in rounds of
    up to _ROUND_STEPS steps, each at the shift rho - r - margin * |H| for
    the vector's Rayleigh quotient rho and residual r.  A shift is used only
    if its Cholesky factorisation succeeds, which places it below the whole
    spectrum; otherwise the next try is halfway down to the highest shift
    known to lie below it, starting from the Gershgorin bound.  The pair is
    the vector and its Rayleigh quotient, an upper bound on E0, once a round
    began within (margin + _RESIDUAL_TOL) * |H| above its shift, settled the
    vector (a step moved it by at most _STEP_TOL), lies below every failed
    shift and meets the residual bound.  A settled vector above a failed
    shift had no weight on a lower state, so every basis state is mixed in.
    Costs O(N b^2) per round.  Raises NoConvergence when no round qualifies
    within _MAX_ROUNDS.
    """
    b, n = band.shape[0] - 1, band.shape[1]
    scale = float(np.abs(band).max())
    if start is None:
        k = min(n, _LEADING)
        leading = np.zeros((k, k))  # the lower triangle, which is all np.linalg.eigh reads
        for d in range(min(b, k - 1) + 1):
            leading[np.arange(d, k), np.arange(k - d)] = band[d, : k - d]
        start = np.zeros(n)
        try:
            start[:k] = np.linalg.eigh(leading)[1][:, 0]
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(str(exc)) from exc
    vec = start / np.linalg.norm(start)
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
        for _ in range(_ROUND_STEPS):
            nxt = _band_solve(factor, vec)
            nxt /= np.linalg.norm(nxt)
            moved = float(np.linalg.norm(nxt - vec))
            vec = nxt
            if moved <= _STEP_TOL:
                break
        else:
            continue  # not settled yet
        image = _band_matvec(band, vec)
        energy = float(vec @ image)
        if energy >= above:
            vec = vec + 1.0 / np.sqrt(n)
            vec /= np.linalg.norm(vec)
        elif (
            rho - shift <= (_SHIFT_MARGIN + _RESIDUAL_TOL) * scale
            and np.linalg.norm(image - energy * vec) <= _RESIDUAL_TOL * scale
        ):
            return energy, vec, factor
    raise NoConvergence(f"inverse iteration settled on no ground state in {_MAX_ROUNDS} rounds")


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


def _check_tail(vec: np.ndarray) -> None:
    n = len(vec)
    tail = float(np.sum(vec[int(0.9 * n) :] ** 2))
    if tail > 1e-10:
        raise BasisTooSmall(f"tail weight {tail:.2e} in top 10% of an N={n} basis")


def _derivative_bands(
    labels, potential: PolynomialPotential | None, band: np.ndarray, omega: float
) -> np.ndarray:
    """dH/da for each label in the basis of `band`, as a stack of lower bands
    of its shape (see `hamiltonian_derivative`)."""
    b, n = band.shape[0] - 1, band.shape[1]
    coeffs = np.zeros((len(labels), b + 1))
    for row, label in zip(coeffs, labels):
        for deg, c in hamiltonian_derivative(label, potential):
            row[deg] = float(c)
    return np.tensordot(coeffs, _power_bands(n, omega, b), axes=1)


def _response(band: np.ndarray, pair: tuple, derivs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Metric from the first-order response of the ground state in `pair`
    (E0, psi and the factor that settled psi) to each derivative band.

    x_a solves (H - E0) x_a = -Q dH_a psi on the complement of psi, with the
    factor of H - s for a shift s just below E0.  A solve with it is off by
    a relative (E0 - s) / gap, and each of _REFINEMENTS steps on the residual
    multiplies that error by the same ratio.  Returns X X^T and the change
    the last step made to it.
    """
    energy, vec, factor = pair

    def project(x):
        return x - np.outer(x @ vec, vec)

    rhs = -project(_band_matvec(derivs, vec))
    x = project(_band_solve(factor, rhs))
    for _ in range(_REFINEMENTS):
        last = x
        x = x + project(_band_solve(factor, rhs - project(_band_matvec(band, x) - energy * x)))
    metric = x @ x.T
    return metric, np.abs(metric - last @ last.T)


def numeric_qim(
    alpha: float,
    lam: float,
    j: float,
    potential: PolynomialPotential | None,
    config: OracleConfig | None = None,
    labels: tuple[str, ...] = ("alpha", "lambda"),
) -> NumericQGT:
    """Metric by linear response of the ground state, with convergence
    estimates.

    H is built at N in the basis pinned at omega(alpha) and solved for its
    ground state; the factor that settled psi also solves
    (H - E0) x_a = -Q dH_a psi for each label, and g = X X^T.  The report
    carries the change made by the last refinement step and the drift under
    basis doubling: H is built again at 2N, solved from the N-basis ground
    state, zero-padded, and its factor solves the response there.

    A float overflow or invalid value anywhere in the numerics raises
    OverflowError.  An entry G_ab has lost its digits to underflow when
    sqrt(G_aa G_bb) is below the least normal float although dH/da and dH/db
    are nonzero; that happens to some entry exactly when it happens to a
    diagonal one, and raises FloatingPointError.
    """
    _require_ground_state(alpha, lam, potential)
    try:
        with np.errstate(over="raise", invalid="raise"):
            config = config or OracleConfig()
            omega = config.omega(alpha)
            band = build_hamiltonian(alpha, lam, j, potential, OracleConfig(config.basis_size, omega))
            pair = _ground_pair(band)
            _check_tail(pair[1])
            metric, refinement = _response(band, pair, _derivative_bands(labels, potential, band, omega))
            big = build_hamiltonian(alpha, lam, j, potential, OracleConfig(2 * config.basis_size, omega))
            # the zero-padded start is close: its tail weight is below 1e-10
            big_pair = _ground_pair(big, np.concatenate([pair[1], np.zeros_like(pair[1])]))
            _check_tail(big_pair[1])
            big_metric, _ = _response(big, big_pair, _derivative_bands(labels, potential, big, omega))
            report = {
                (a, b): {
                    "refinement": float(refinement[i, k]),
                    "basis_doubling": float(abs(metric[i, k] - big_metric[i, k])),
                }
                for i, a in enumerate(labels)
                for k, b in enumerate(labels)
            }
    except FloatingPointError as exc:
        raise OverflowError(f"the oracle overflows a float: {exc}") from exc
    for i, a in enumerate(labels):
        if metric[i, i] < float_info.min and hamiltonian_derivative(a, potential):
            raise FloatingPointError(
                f"the oracle underflows a float: G({a},{a}) = {metric[i, i]:.3g} is not a normal float"
            )
    return NumericQGT(tuple(labels), metric, report)
