"""Independent spectral check of the metric components.

The Hamiltonian H = p^2/2 + alpha q^2/2 + J q + lambda V(q) is represented in
a truncated number basis of a reference oscillator of frequency omega
(omega = sqrt(alpha) by default, which makes the free part exactly diagonal).
The metric follows from central-difference ground-state derivatives,

    g_ab = <d_a psi | d_b psi> - <d_a psi | psi><psi | d_b psi>,

with sign-gauge-fixed eigenvectors, step-halving error estimates and a
basis-doubling drift per entry.  q is tridiagonal, so H is built and solved
in LAPACK lower band storage.  Each point runs one banded eigenvalue solve,
for the central ground state; the shifted and doubled-basis ground states
come from inverse iteration warm-started at a nearby known one.  Everything
here is real symmetric, so this oracle is blind to Berry curvature,
consistent with the models in scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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


class BasisTooSmall(OracleFailure):
    """Ground-state weight leaks into the top of the truncated basis."""


class NoConvergence(OracleFailure):
    """The banded eigensolver failed or its eigenpair misses the residual bound."""


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


@dataclass
class OracleConfig:
    basis_size: int = 128
    reference_frequency: float | None = None  # default sqrt(alpha)
    fd_step: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.basis_size < 16:
            raise ValueError("basis_size must be >= 16")

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


@dataclass
class NumericQGT:
    labels: tuple[str, ...]
    metric: np.ndarray
    convergence_report: dict[tuple[str, str], dict[str, float]]

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
    out = band[0] * vec
    for d in range(1, band.shape[0]):
        out[d:] += band[d, :-d] * vec[:-d]
        out[:-d] += band[d, :-d] * vec[d:]
    return out


def gauge_fix(vec: np.ndarray) -> np.ndarray:
    """Fix the overall sign so the largest-magnitude entry is positive."""
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        return -vec
    return vec


def _inverse_iteration(band: np.ndarray, shift: float, vec: np.ndarray) -> np.ndarray:
    """Iterate from vec on band - shift until a step moves the unit vector by
    at most _STEP_TOL; the Cholesky solve fails unless the shift lies below
    the whole spectrum."""
    from scipy import linalg

    shifted = band.copy()
    shifted[0] -= shift
    try:
        for _ in range(_MAX_STEPS):
            nxt = linalg.solveh_banded(shifted, vec, lower=True)
            nxt /= np.linalg.norm(nxt)
            step = float(np.linalg.norm(nxt - vec))
            vec = nxt
            if step <= _STEP_TOL:
                return vec
    except linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    raise NoConvergence(f"inverse iteration still moving by {step:.1e} after {_MAX_STEPS} steps")


def ground_state(band: np.ndarray, guess: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of a symmetric band matrix in lower storage.

    Cold, E0 comes from the banded eigenvalue solver and the vector from
    inverse iteration shifted just below E0 (positive definite even when H is
    exactly diagonal).  Warm, inverse iteration starts at the guess, shifted
    to rho - r - margin * |H| for the guess's Rayleigh quotient rho and
    residual r, and E0 is the converged vector's Rayleigh quotient.  A shift
    whose Cholesky solve succeeds lies below the whole spectrum, so the warm
    iteration cannot settle on an excited state; if it fails, does not settle
    or misses the residual bound, the solve runs cold.  The vector is
    normalized with its largest-magnitude entry positive.  Raises
    NoConvergence when LAPACK fails, the iteration does not settle, or
    |(H - E0) psi| exceeds the residual bound.
    """
    from scipy import linalg  # deferred: only oracle commands solve, and it is slow to load

    scale = float(np.abs(band).max())
    if guess is not None:
        guess = guess / np.linalg.norm(guess)
        image = _band_matvec(band, guess)
        rho = float(guess @ image)
        shift = rho - float(np.linalg.norm(image - rho * guess)) - _SHIFT_MARGIN * scale
        try:
            vec = _inverse_iteration(band, shift, guess)
            return _checked_pair(band, float(vec @ _band_matvec(band, vec)), vec, scale)
        except NoConvergence:
            pass
    try:
        energy = linalg.eigvals_banded(band, lower=True, select="i", select_range=(0, 0))[0]
    except linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    vec = _inverse_iteration(band, energy - _SHIFT_MARGIN * scale, np.ones(band.shape[1]))
    return _checked_pair(band, float(energy), vec, scale)


def _checked_pair(band, energy: float, vec: np.ndarray, scale: float) -> tuple[float, np.ndarray]:
    residual = float(np.linalg.norm(_band_matvec(band, vec) - energy * vec))
    if residual > _RESIDUAL_TOL * scale:
        raise NoConvergence(f"residual |(H - E0) psi| = {residual:.2e} for |H| = {scale:.2e}")
    return energy, gauge_fix(vec)


def _checked_ground_vector(
    alpha, lam, j, potential, config: OracleConfig, guess=None
) -> np.ndarray:
    h = build_hamiltonian(alpha, lam, j, potential, config)
    _, vec = ground_state(h, guess)
    n = len(vec)
    tail = float(np.sum(vec[int(0.9 * n):] ** 2))
    if tail > 1e-10:
        raise BasisTooSmall(f"tail weight {tail:.2e} in top 10% of an N={n} basis")
    return vec


def _metric_matrix(
    alpha, lam, j, potential, config: OracleConfig, labels, steps, psi0
) -> np.ndarray:
    point = {"alpha": alpha, "lambda": lam, "j": j}
    derivs = []
    for label in labels:
        h = steps[label]
        shifted = []
        for sign in (+1, -1):
            p = dict(point)
            p[label] += sign * h
            shifted.append(
                _checked_ground_vector(p["alpha"], p["lambda"], p["j"], potential, config, psi0)
            )
        derivs.append((shifted[0] - shifted[1]) / (2.0 * h))
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
    Only the central ground state at N is solved cold; every other solve is
    warm-started from it (zero-padded at 2N) or from the central state at 2N.
    """
    _require_ground_state(alpha, lam, potential)
    config = config or OracleConfig()
    # pin the basis at the central point; differencing must not rotate it
    pinned = replace(config, reference_frequency=config.omega(alpha))
    steps = {label: config.step(label, alpha) for label in labels}
    half = {label: 0.5 * h for label, h in steps.items()}
    psi0 = _checked_ground_vector(alpha, lam, j, potential, pinned)
    g_full = _metric_matrix(alpha, lam, j, potential, pinned, labels, steps, psi0)
    g_half = _metric_matrix(alpha, lam, j, potential, pinned, labels, half, psi0)
    doubled = replace(pinned, basis_size=2 * config.basis_size)
    padded = np.concatenate([psi0, np.zeros_like(psi0)])  # its tail weight is below 1e-10
    psi0_big = _checked_ground_vector(alpha, lam, j, potential, doubled, padded)
    g_big = _metric_matrix(alpha, lam, j, potential, doubled, labels, half, psi0_big)
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
