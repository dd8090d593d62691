"""Independent spectral check of the metric components.

The Hamiltonian H = p^2/2 + alpha q^2/2 + J q + lambda V(q) is represented in
a truncated number basis of a reference oscillator of frequency omega
(omega = sqrt(alpha) by default, which makes the free part exactly diagonal).
The metric follows from central-difference ground-state derivatives,

    g_ab = <d_a psi | d_b psi> - <d_a psi | psi><psi | d_b psi>,

with sign-gauge-fixed eigenvectors, step-halving error estimates and a
basis-doubling drift per entry.  Everything here is real symmetric, so this
oracle is blind to Berry curvature, consistent with the models in scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .perturbation import PolynomialPotential

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
    "fidelity_qim",
]


class BasisTooSmall(RuntimeError):
    """Ground-state weight leaks into the top of the truncated basis."""


class NoConvergence(RuntimeError):
    """The dense symmetric eigensolver failed."""


class StepTooLarge(RuntimeError):
    """Halving the finite-difference step moved an entry by more than 10%."""


class NoGroundState(ValueError):
    """The Hamiltonian is unbounded below, so there is no ground state to probe."""


def _require_ground_state(lam: float, potential: PolynomialPotential | None) -> None:
    """Reject an odd-degree potential at nonzero coupling before any solve.

    lambda * q**k with odd k is unbounded below for either sign of lambda; a
    truncated basis would still return a lowest eigenvector, but it describes
    the basis edge, not a ground state.
    """
    if potential is not None and lam != 0.0 and potential.degree % 2:
        raise NoGroundState(
            f"odd k has no ground state for lambda != 0 "
            f"(k={potential.degree}, lambda={lam!r}: the potential is unbounded below)"
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


def build_hamiltonian(
    alpha: float,
    lam: float,
    j: float,
    potential: PolynomialPotential | None,
    config: OracleConfig,
) -> np.ndarray:
    """Dense symmetric matrix of H in the reference oscillator number basis."""
    if potential is not None and potential.degree > 8:
        raise ValueError("potential degree must be <= 8")
    n = config.basis_size
    omega = config.omega(alpha)
    levels = np.arange(n)
    h = np.diag(omega * (levels + 0.5))
    # position operator: q[n, n+1] = sqrt((n+1) / (2 omega))
    q = np.zeros((n, n))
    off = np.sqrt((levels[:-1] + 1.0) / (2.0 * omega))
    q[levels[:-1], levels[:-1] + 1] = off
    q[levels[:-1] + 1, levels[:-1]] = off
    q2 = q @ q
    h = h + 0.5 * (alpha - omega**2) * q2 + j * q
    if potential is not None and lam != 0.0:
        powers = {1: q, 2: q2}
        qk = q2
        for deg in range(3, potential.degree + 1):
            qk = qk @ q
            powers[deg] = qk
        for deg, c in potential.coefficients:
            h = h + lam * float(c) * powers[deg]
    return 0.5 * (h + h.T)


def gauge_fix(vec: np.ndarray) -> np.ndarray:
    """Fix the overall sign so the largest-magnitude entry is positive."""
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        return -vec
    return vec


def ground_state(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenpair, normalized, sign fixed by its largest-magnitude entry."""
    try:
        vals, vecs = linalg.eigh(matrix, subset_by_index=(0, 0))
    except linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    vec = vecs[:, 0]
    vec = gauge_fix(vec / np.linalg.norm(vec))
    return float(vals[0]), vec


def _checked_ground_vector(
    alpha, lam, j, potential, config: OracleConfig
) -> np.ndarray:
    h = build_hamiltonian(alpha, lam, j, potential, config)
    _, vec = ground_state(h)
    n = len(vec)
    tail = float(np.sum(vec[int(0.9 * n):] ** 2))
    if tail > 1e-10:
        raise BasisTooSmall(f"tail weight {tail:.2e} in top 10% of an N={n} basis")
    return vec


def _metric_matrix(
    alpha, lam, j, potential, config: OracleConfig, labels, steps
) -> np.ndarray:
    point = {"alpha": alpha, "lambda": lam, "j": j}
    psi0 = _checked_ground_vector(alpha, lam, j, potential, config)
    derivs = []
    for label in labels:
        h = steps[label]
        shifted = []
        for sign in (+1, -1):
            p = dict(point)
            p[label] += sign * h
            shifted.append(
                _checked_ground_vector(p["alpha"], p["lambda"], p["j"], potential, config)
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
    """
    _require_ground_state(lam, potential)
    config = config or OracleConfig()
    # pin the basis at the central point; differencing must not rotate it
    pinned = OracleConfig(
        basis_size=config.basis_size,
        reference_frequency=config.omega(alpha),
        fd_step=config.fd_step,
    )
    steps = {label: config.step(label, alpha) for label in labels}
    half = {label: 0.5 * h for label, h in steps.items()}
    g_full = _metric_matrix(alpha, lam, j, potential, pinned, labels, steps)
    g_half = _metric_matrix(alpha, lam, j, potential, pinned, labels, half)
    doubled = OracleConfig(
        basis_size=2 * config.basis_size,
        reference_frequency=pinned.reference_frequency,
        fd_step=config.fd_step,
    )
    g_big = _metric_matrix(alpha, lam, j, potential, doubled, labels, half)
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


def fidelity_qim(
    alpha: float,
    lam: float,
    j: float,
    potential: PolynomialPotential | None,
    config: OracleConfig | None = None,
    labels: tuple[str, ...] = ("alpha", "lambda"),
) -> NumericQGT:
    """Secondary estimator from ground-state overlaps: g ~ 2(1 - F)/step^2.

    Diagonal entries come directly from the fidelity drop along one parameter;
    off-diagonal entries via the polarization identity along the combined
    displacement.  Cross-validates the derivative-based estimator.
    """
    _require_ground_state(lam, potential)
    config = config or OracleConfig()
    pinned = OracleConfig(
        basis_size=config.basis_size,
        reference_frequency=config.omega(alpha),
        fd_step=config.fd_step,
    )
    point = {"alpha": alpha, "lambda": lam, "j": j}

    def vec_at(displacement: dict[str, float]) -> np.ndarray:
        p = dict(point)
        for k, v in displacement.items():
            p[k] += v
        return _checked_ground_vector(p["alpha"], p["lambda"], p["j"], potential, pinned)

    def susceptibility(displacement: dict[str, float]) -> float:
        plus = vec_at({k: 0.5 * v for k, v in displacement.items()})
        minus = vec_at({k: -0.5 * v for k, v in displacement.items()})
        fidelity = abs(float(plus @ minus))
        return 2.0 * (1.0 - fidelity)

    steps = {label: config.step(label, alpha) for label in labels}
    k = len(labels)
    g = np.empty((k, k))
    chi = {a: susceptibility({a: steps[a]}) for a in labels}
    for i, a in enumerate(labels):
        g[i, i] = chi[a] / steps[a] ** 2
    for i, a in enumerate(labels):
        for jdx in range(i + 1, k):
            b = labels[jdx]
            chi_ab = susceptibility({a: steps[a], b: steps[b]})
            g_ab = (chi_ab - chi[a] - chi[b]) / (2.0 * steps[a] * steps[b])
            g[i, jdx] = g[jdx, i] = g_ab
    return NumericQGT(tuple(labels), g, {})
