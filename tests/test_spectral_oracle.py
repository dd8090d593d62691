from fractions import Fraction as F

import numpy as np
import pytest
import scipy.linalg

from oscqgt import spectral_oracle
from oracles import (
    StepTooLarge,
    dense_ground_state,
    dense_hamiltonian,
    fidelity_qim,
    finite_difference_qim,
    gauge_fix,
    ground_state,
    pinned_band,
    potential_from_dict,
    qgt_component,
    sum_over_states_qim,
)
from oscqgt.linear_exact import exact_linear_qgt
from oscqgt.perturbation import PolynomialPotential
from oscqgt.qgt import ParameterSpace
from oscqgt.spectral_oracle import (
    BasisTooSmall,
    NoConvergence,
    NoGroundState,
    OracleConfig,
    build_hamiltonian,
    numeric_qim,
    numeric_qim_grid,
)

V1 = PolynomialPotential.monomial(1)  # the linear model's V = q, at lambda = 0 below
V4 = PolynomialPotential.monomial(4)
V6 = PolynomialPotential.monomial(6)
MIXED = potential_from_dict({1: F(-1, 3), 3: F(1, 2), 4: F(1, 24)})
CFG = OracleConfig()
DENSE_CASES = [
    (0.7, 0.03, 0.0, V4, ("alpha", "lambda")),
    (1.6, 0.01, 0.0, V4, ("alpha", "lambda")),
    (1.0, 0.05, 0.0, V6, ("alpha", "lambda")),
    (1.0, 0.0, 0.5, V1, ("alpha", "j")),
    (1.2, 0.04, 0.3, MIXED, ("alpha", "j")),
]


class TestHamiltonian:
    def test_free_ground_energy(self):
        h = build_hamiltonian(1.0, 0.0, 0.0, V1, CFG)
        energy, _ = ground_state(h)
        assert energy == pytest.approx(0.5, abs=1e-12)

    def test_shifted_oscillator_energy(self):
        # completing the square: E0 = omega/2 - J^2/(2 alpha)
        h = build_hamiltonian(1.0, 0.0, 0.5, V1, CFG)
        energy, _ = ground_state(h)
        assert energy == pytest.approx(0.375, abs=1e-10)

    def test_quartic_first_order_energy(self):
        # E0 = 1/2 + lambda <q^4>/4! + O(lambda^2) with <q^4> = 3/4 at alpha=1
        h = build_hamiltonian(1.0, 0.1, 0.0, V4, CFG)
        energy, _ = ground_state(h)
        assert energy == pytest.approx(0.503125, abs=1e-4)

    def test_degree_cap(self):
        v9 = potential_from_dict({9: 1})
        with pytest.raises(ValueError):
            build_hamiltonian(1.0, 0.1, 0.0, v9, CFG)

    @pytest.mark.parametrize(
        "alpha,lam,j,potential,omega",
        [
            (1.0, 0.1, 0.0, V4, None),
            (0.7, 0.05, 0.0, V6, None),
            (1.3, 0.2, 0.4, MIXED, 0.9),
            (0.6, 0.0, 0.3, V1, 1.1),
        ],
        ids=["quartic", "monomial6", "mixed-sourced-off-frequency", "linear-off-frequency"],
    )
    def test_band_holds_the_dense_matrix(self, alpha, lam, j, potential, omega):
        # the oracle's band at omega = sqrt(alpha), and the test-side band
        # pinned at another omega, as the finite differences hold it
        cfg = OracleConfig(basis_size=40)
        n = cfg.basis_size
        bands = [(build_hamiltonian(alpha, lam, j, potential, cfg), dense_hamiltonian(alpha, lam, j, potential, cfg))]
        if omega is not None:
            dense = dense_hamiltonian(alpha, lam, j, potential, cfg, omega)
            bands.append((pinned_band(alpha, lam, j, potential, n, omega), dense))
        b = max(2, potential.degree)
        for band, dense in bands:
            assert band.shape == (b + 1, n)
            for d in range(b + 1):
                assert band[d, : n - d] == pytest.approx(np.diagonal(dense, -d), rel=1e-13, abs=1e-13)
            assert not np.tril(dense, -(b + 1)).any()
            assert not np.triu(dense, b + 1).any()

    def test_off_frequency_basis_converges(self):
        # a basis off sqrt(alpha), as the finite differences pin it, holds the same ground state
        energy, _ = ground_state(pinned_band(1.0, 0.0, 0.0, V1, CFG.basis_size, 1.3))
        assert energy == pytest.approx(0.5, abs=1e-10)


def count_cold_solves(monkeypatch) -> list:
    """Record the band shape of each point of each cold ground-state solve
    (spectral_oracle._ground_pair without a start) from here on."""
    calls = []
    real = spectral_oracle._ground_pair

    def counted(band, start=None):
        if start is None:
            calls.extend([band.shape[1:]] * len(band))
        return real(band, start)

    monkeypatch.setattr(spectral_oracle, "_ground_pair", counted)
    return calls


def count_factorisations(monkeypatch) -> list:
    """Record the basis size of each point of each
    spectral_oracle._band_cholesky call, failed or not, from here on."""
    sizes = []
    real = spectral_oracle._band_cholesky

    def counted(band, shift):
        sizes.extend([band.shape[-1]] * len(band))
        return real(band, shift)

    monkeypatch.setattr(spectral_oracle, "_band_cholesky", counted)
    return sizes


class TestGroundState:
    def test_identity_matrix(self):
        # the 4x4 identity in lower band storage: fully degenerate
        energy, vec = ground_state(np.ones((1, 4)))
        assert energy == pytest.approx(1.0)
        assert np.linalg.norm(vec) == pytest.approx(1.0)
        assert vec[np.argmax(np.abs(vec))] > 0

    def test_diagonal_matrix(self):
        energy, vec = ground_state(np.array([[1.0, 2.0, 3.0]]))
        assert energy == pytest.approx(1.0)
        assert vec == pytest.approx(np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize(
        "lam,potential,n", [(0.1, V4, 128), (0.3, V6, 256), (0.2, MIXED, 128)]
    )
    def test_matches_dense_eigensolver_on_oracle_hamiltonians(self, lam, potential, n):
        # the iteration must run to the rounding floor: the finite-difference
        # reference divides vector errors by steps of ~1e-4
        cfg = OracleConfig(basis_size=n)
        band = build_hamiltonian(1.0, lam, 0.1, potential, cfg)
        energy, vec = ground_state(band)
        dense_energy, dense_vec = dense_ground_state(dense_hamiltonian(1.0, lam, 0.1, potential, cfg))
        # both eigenvalue solvers are accurate to rounding on the largest entry
        assert energy == pytest.approx(dense_energy, abs=1e-14 * np.abs(band).max())
        assert np.abs(vec - dense_vec).max() <= 1e-13

    @pytest.mark.parametrize(
        "lam,potential,n", [(0.1, V4, 128), (0.3, V6, 256), (0.2, MIXED, 128)]
    )
    def test_warm_start_matches_cold(self, lam, potential, n, monkeypatch):
        # the guess is the ground state at a nearby coupling
        cfg = OracleConfig(basis_size=n)
        band = build_hamiltonian(1.0, lam, 0.1, potential, cfg)
        cold_energy, cold_vec = ground_state(band)
        _, guess = ground_state(build_hamiltonian(1.0, lam + 1e-4, 0.1, potential, cfg))
        calls = count_cold_solves(monkeypatch)
        energy, vec = ground_state(band, guess)
        assert calls == []  # warm: no cold solve
        assert energy == pytest.approx(cold_energy, rel=1e-12)
        assert np.abs(vec - cold_vec).max() <= 1e-10

    def test_excited_guess_returns_the_ground_state(self):
        energy, vec = ground_state(np.array([[1.0, 2.0, 3.0]]), np.array([0.0, 1.0, 0.0]))
        assert energy == pytest.approx(1.0)
        assert vec == pytest.approx(np.array([1.0, 0.0, 0.0]))

    def test_excited_guess_on_an_oracle_hamiltonian(self):
        cfg = OracleConfig(basis_size=64)
        band = build_hamiltonian(1.0, 0.1, 0.1, V4, cfg)
        _, vecs = scipy.linalg.eigh(dense_hamiltonian(1.0, 0.1, 0.1, V4, cfg))
        cold_energy, cold_vec = ground_state(band)
        energy, vec = ground_state(band, vecs[:, 2])
        assert energy == pytest.approx(cold_energy, rel=1e-15, abs=0)
        assert np.abs(vec - cold_vec).max() <= 1e-15

    @pytest.mark.parametrize("level", [1, 7], ids=["level1", "level7"])
    def test_excited_start_fails_to_factor(self, level, monkeypatch):
        # an exact excited eigenvector has no residual, so its first shift
        # lies above E0 and fails to factor; bisection and the mixing-in of
        # every basis state must still lead to the ground state
        cfg = OracleConfig(basis_size=64)
        band = build_hamiltonian(1.0, 0.1, 0.1, V4, cfg)
        dense = dense_hamiltonian(1.0, 0.1, 0.1, V4, cfg)
        dense_energy, dense_vec = dense_ground_state(dense)
        _, vecs = scipy.linalg.eigh(dense)
        shifts, failed = [], []
        real = spectral_oracle._band_cholesky

        def recorded(band, shift):
            [value] = shift
            shifts.append(value)
            try:
                return real(band, shift)
            except np.linalg.LinAlgError:
                failed.append(value)
                raise

        monkeypatch.setattr(spectral_oracle, "_band_cholesky", recorded)
        energy, vec = ground_state(band, vecs[:, level])
        assert failed[0] == shifts[0] > dense_energy
        assert energy == pytest.approx(dense_energy, abs=1e-14 * np.abs(band).max())
        assert np.abs(vec - dense_vec).max() <= 1e-13

    def test_stacked_points_take_their_own_rounds(self, monkeypatch):
        # an exact excited start fails to factor and bisects while the other
        # points settle at once: each gets the pair and factor it gets alone
        cfg = OracleConfig(basis_size=64)
        bands = np.stack([build_hamiltonian(1.0, lam, 0.1, V4, cfg) for lam in (0.1, 0.05, 0.2)])
        _, vecs = scipy.linalg.eigh(dense_hamiltonian(1.0, 0.1, 0.1, V4, cfg))
        starts = np.stack([vecs[:, 1], vecs[:, 0], vecs[:, 0]])
        sizes = count_factorisations(monkeypatch)
        alone = [spectral_oracle._ground_pair(bands[p : p + 1], starts[p : p + 1]) for p in range(3)]
        factored_alone = len(sizes)
        sizes.clear()
        energy, vec, factor, failures = spectral_oracle._ground_pair(bands, starts)
        assert failures == [None] * 3
        assert len(sizes) > factored_alone  # a failed stack was retried in halves
        for p, (e, v, f, _) in enumerate(alone):
            assert np.array_equal(e, energy[p : p + 1])
            assert np.array_equal(v, vec[p : p + 1])
            assert all(np.array_equal(a, b[p : p + 1]) for a, b in zip(f, factor))

    def test_ground_state_outside_the_leading_block(self):
        # the cold solve starts at the leading block's ground state, here an
        # excited state with no weight on the true one
        diagonal = np.full(64, 5.0)
        diagonal[40] = 1.0
        energy, vec = ground_state(diagonal[None, :])
        assert energy == pytest.approx(1.0)
        assert vec == pytest.approx(np.eye(64)[40])
        band = random_spd_band(2, 200, seed=7)
        band[0, 150:160] -= 3.0  # the lowest state lives around rows 150-160
        assert ground_state(band)[0] == pytest.approx(
            lapack_lowest(band)[0], abs=1e-14 * np.abs(band).max()
        )

    def test_near_degenerate_ground_state_raises_no_convergence(self):
        # a gap of 1e-12 shrinks the second state by ~0.3% per step
        with pytest.raises(NoConvergence, match="settled on no ground state in 64 rounds"):
            ground_state(np.array([[1.0, 1.0 + 1e-12, 3.0]]), np.ones(3))

    def test_basis_doubling_self_consistency(self):
        energies = []
        for n in (128, 256):
            h = build_hamiltonian(1.0, 0.1, 0.0, V4, OracleConfig(basis_size=n))
            energies.append(ground_state(h)[0])
        assert abs(energies[0] - energies[1]) < 1e-10

    def test_gauge_fix_absorbs_global_sign(self):
        # an eigensolver may hand back either sign; the fix must erase it
        h = build_hamiltonian(1.0, 0.05, 0.2, V4, CFG)
        _, vec = ground_state(h)
        assert np.array_equal(gauge_fix(-vec), gauge_fix(vec))
        assert np.array_equal(gauge_fix(vec), vec)


def random_spd_band(b: int, n: int, seed: int) -> np.ndarray:
    """A diagonally dominant, hence positive definite, band in lower storage
    (with random values in the unused storage past the matrix edge)."""
    band = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(b + 1, n))
    band[0] = 2.0 * b + 1.0 + np.abs(band[0])
    return band


def lapack_solve(band: np.ndarray, shift: float, rhs: np.ndarray) -> np.ndarray:
    shifted = band.copy()
    shifted[0] -= shift
    return scipy.linalg.solveh_banded(shifted, rhs, lower=True)


def lapack_lowest(band: np.ndarray, count: int = 1) -> np.ndarray:
    return scipy.linalg.eigvals_banded(band, lower=True, select="i", select_range=(0, count - 1))


class TestBandSolve:
    """The numpy cyclic-reduction Cholesky solve against LAPACK as a reference."""

    @staticmethod
    def factor(band, shift):
        return spectral_oracle._band_cholesky(band[None], np.array([shift]))

    @classmethod
    def solve(cls, band, shift, rhs):
        return spectral_oracle._band_solve(cls.factor(band, shift), rhs[None, None])[0, 0]

    @pytest.mark.parametrize("b", [1, 2, 4, 6, 8])
    @pytest.mark.parametrize("n", [20, 64, 100, 257])  # below, at and off multiples of the block
    def test_matches_lapack_on_random_bands(self, b, n):
        band = random_spd_band(b, n, seed=100 * b + n)
        rhs = np.random.default_rng(n).normal(size=n)
        expected = lapack_solve(band, -0.5, rhs)
        got = self.solve(band, -0.5, rhs)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize(
        "lam,potential,n", [(0.1, V4, 128), (0.3, V6, 256), (0.2, MIXED, 128)]
    )
    def test_matches_lapack_just_below_the_spectrum(self, lam, potential, n):
        # inverse iteration's shift: nearly singular, so compare the directions
        band = build_hamiltonian(1.0, lam, 0.1, potential, OracleConfig(basis_size=n))
        shift = lapack_lowest(band)[0] - 1e-10 * np.abs(band).max()
        expected = lapack_solve(band, shift, np.ones(n))
        got = self.solve(band, shift, np.ones(n))
        expected /= np.linalg.norm(expected)
        assert np.abs(got / np.linalg.norm(got) - expected).max() <= 1e-13

    @pytest.mark.parametrize("b", [1, 4, 8])
    @pytest.mark.parametrize("where", ["first-block", "later-block", "between-eigenvalues"])
    def test_indefinite_band_raises(self, b, where):
        band = random_spd_band(b, 100, seed=b)
        shift = 0.0
        if where == "first-block":
            band[0, 3] = -1.0
        elif where == "later-block":
            band[0, 90] = -1.0
        else:  # for b = 4 and 8 every diagonal block stays positive definite
            shift = lapack_lowest(band, 2).mean()
        with pytest.raises(np.linalg.LinAlgError):
            lapack_solve(band, shift, np.ones(100))
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            self.factor(band, shift)

    @pytest.mark.parametrize("b", [1, 4, 8])
    def test_stack_matches_one_at_a_time(self, b):
        # a stack of right-hand sides, one per response label, with one factor
        n = 100
        band = random_spd_band(b, n, seed=b)
        rhs = np.random.default_rng(b).normal(size=(3, n))
        factor = self.factor(band, -0.5)
        got = spectral_oracle._band_solve(factor, rhs[None])[0]
        for r, x in zip(rhs, got):
            expected = lapack_solve(band, -0.5, r)
            scale = np.abs(expected).max()
            assert np.abs(x - expected).max() <= 1e-13 * scale
            # not bit-equal: numpy multiplies a matrix and a vector by different paths
            assert np.abs(x - spectral_oracle._band_solve(factor, r[None, None])[0, 0]).max() <= 1e-15 * scale

    @pytest.mark.parametrize(
        "lam,potential,n", [(0.1, V4, 128), (0.3, V6, 256), (0.2, MIXED, 128)]
    )
    def test_cold_eigenvalue_matches_lapack_band_solver(self, lam, potential, n):
        band = build_hamiltonian(1.0, lam, 0.1, potential, OracleConfig(basis_size=n))
        got, _ = ground_state(band)
        assert got == pytest.approx(lapack_lowest(band)[0], abs=1e-14 * np.abs(band).max())


class TestNumericQim:
    def test_free_linear_model(self):
        r = numeric_qim(1.0, 0.0, 0.0, V1, CFG, labels=("alpha", "j"))
        assert r.entry("j", "j") == pytest.approx(0.5, abs=1e-6)
        assert r.entry("alpha", "alpha") == pytest.approx(1 / 32, abs=1e-6)
        assert r.entry("alpha", "j") == pytest.approx(0.0, abs=1e-8)

    def test_free_quartic_model(self):
        r = numeric_qim(1.0, 0.0, 0.0, V4, CFG)
        assert r.entry("alpha", "alpha") == pytest.approx(1 / 32, abs=1e-6)
        assert r.entry("lambda", "lambda") == pytest.approx(13 / 6144, abs=1e-6)

    def test_metric_is_symmetric(self):
        r = numeric_qim(1.0, 0.05, 0.0, V4, CFG)
        assert np.allclose(r.metric, r.metric.T, atol=1e-14)

    def test_convergence_report_entries(self):
        r = numeric_qim(1.0, 0.0, 0.0, V4, CFG)
        for key, entry in r.convergence_report.items():
            assert set(entry) == {"refinement", "basis_doubling"}
            assert entry["refinement"] < 1e-14
            assert entry["basis_doubling"] < 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_free_quartic_closed_forms_to_rounding(self, alpha):
        # g = a^-2/32, a^-5/2/128 and 13 a^-3/6144 at lambda = 0
        r = numeric_qim(alpha, 0.0, 0.0, V4, CFG)
        assert r.entry("alpha", "alpha") == pytest.approx(alpha**-2 / 32, rel=1e-12, abs=0)
        assert r.entry("alpha", "lambda") == pytest.approx(alpha**-2.5 / 128, rel=1e-12, abs=0)
        assert r.entry("lambda", "lambda") == pytest.approx(13 * alpha**-3 / 6144, rel=1e-12, abs=0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("j", [0.0, 0.5])
    def test_linear_closed_form_to_rounding(self, alpha, j):
        r = numeric_qim(alpha, 0.0, j, V1, CFG, labels=("alpha", "j"))
        exact = exact_linear_qgt(alpha, j)
        scale = max(abs(value) for value in exact.values())
        for (a, b), value in exact.items():
            assert abs(r.entry(a, b) - value) <= 1e-12 * max(abs(value), 1e-3 * scale), (a, b)

    @pytest.mark.parametrize("n", [16, 128])
    def test_two_hamiltonian_builds_per_call(self, n, monkeypatch):
        sizes = []
        real = spectral_oracle.build_hamiltonian

        def counted(*args, **kwargs):
            band = real(*args, **kwargs)
            sizes.extend([band.shape[-1]] * len(band))
            return band

        monkeypatch.setattr(spectral_oracle, "build_hamiltonian", counted)
        numeric_qim(1.0, 0.05, 0.0, V4, OracleConfig(basis_size=n))
        assert sizes == [n, 2 * n]

    def test_one_power_table_per_basis_size_and_degree(self):
        # the tables hold powers of sqrt(omega) q, the same at every alpha
        spectral_oracle._power_bands.cache_clear()
        points = [(alpha, 0.01, 0.0) for alpha in (0.5, 0.7, 1.0, 1.3, 2.0, 3.0)]
        for result in numeric_qim_grid(points, V4, CFG):
            assert isinstance(result, spectral_oracle.NumericQGT)
        assert spectral_oracle._power_bands.cache_info().currsize == 2  # N and 2N, degree 4

    def test_sourced_linear_model(self):
        r = numeric_qim(1.0, 0.0, 0.5, V1, CFG, labels=("alpha", "j"))
        for (a, b), value in exact_linear_qgt(1.0, 0.5).items():
            assert r.entry(a, b) == pytest.approx(value, abs=1e-6 * max(1, abs(value)))

    @pytest.mark.parametrize(
        "lam,j,potential,labels",
        [(0.05, 0.0, V4, ("alpha", "lambda")), (0.0, 0.5, V1, ("alpha", "j"))],
    )
    def test_one_eigenvalue_solve_per_call(self, lam, j, potential, labels, monkeypatch):
        calls = count_cold_solves(monkeypatch)
        numeric_qim(1.0, lam, j, potential, CFG, labels=labels)
        # only the ground state at N is solved cold, the even quartic H on
        # its even states alone; 2N starts from it
        assert len(calls) == 1
        assert calls[0][1] == (CFG.basis_size // 2 if potential is V4 else CFG.basis_size)

    @pytest.mark.parametrize("n", [128, 256])
    def test_factorisations_per_call(self, n, monkeypatch):
        # a cold start may need a second round to begin within the residual
        # bound; the zero-padded start at 2N begins there.  The quartic H is
        # even, so it is solved on the even states: n // 2 at N and n at 2N
        sizes = count_factorisations(monkeypatch)
        cold = count_cold_solves(monkeypatch)
        for alpha in (0.5, 1.0, 2.0):
            for lam in (0.0, 0.005, 0.05, 1.0):
                sizes.clear()
                cold.clear()
                numeric_qim(alpha, lam, 0.0, V4, OracleConfig(n))
                assert sizes.count(n // 2) <= 2 and sizes.count(n) == 1, (alpha, lam, sizes)
                assert len(sizes) == sizes.count(n // 2) + 1, (alpha, lam, sizes)
                assert cold == [(3, n // 2)], (alpha, lam)

    def test_float_overflow_raises_overflow_error(self):
        # numpy overflows inside the solver here, which would otherwise only warn
        with pytest.raises(OverflowError):
            numeric_qim(1e-200, 0.01, 0.0, V4, CFG)

    @pytest.mark.parametrize("alpha,label", [(1e150, "lambda"), (1e300, "alpha")])
    def test_metric_below_the_float_range_raises(self, alpha, label):
        # G_lambda,lambda ~ (13/6144) alpha^-3 is 0 in floats at alpha = 1e150,
        # and at alpha = 1e300 so is G_alpha,alpha ~ alpha^-2 / 32
        with pytest.raises(FloatingPointError, match=rf"G\({label},{label}\) = 0 is not a normal float"):
            numeric_qim(alpha, 0.01, 0.0, V4, CFG)

    def test_small_normal_metric_is_kept(self):
        # G_lambda,lambda ~ 2e-303 at alpha = 1e100 is a normal float and exact to rounding
        oracle = numeric_qim(1e100, 0.01, 0.0, V4, CFG)
        series = qgt_component(ParameterSpace.quartic(), "lambda", "lambda", 2).evaluate(1e100, 0.01)
        assert oracle.entry("lambda", "lambda") == pytest.approx(series, rel=1e-12)

    def test_basis_too_small_detected(self):
        tiny = OracleConfig(basis_size=16)
        with pytest.raises(BasisTooSmall):
            numeric_qim(1.0, 0.3, 2.5, V4, tiny)

    @pytest.mark.parametrize("alpha,lam,j,potential,labels", DENSE_CASES)
    def test_matches_dense_path(self, alpha, lam, j, potential, labels):
        band = numeric_qim(alpha, lam, j, potential, CFG, labels=labels)
        dense = sum_over_states_qim(alpha, lam, j, potential, CFG, labels=labels)
        scale = np.abs(dense.metric).max()
        assert np.abs(band.metric - dense.metric).max() <= 1e-10 * scale

    def test_negative_leading_term_is_rejected(self):
        upside_down = potential_from_dict({2: F(1, 2), 4: F(-1, 24)})
        # at alpha = 1, lambda = -2 turns alpha q^2/2 + lambda q^2/2 into -q^2/2
        quadratic = PolynomialPotential.monomial(2)
        for lam, potential in ((-0.3, V4), (-0.01, V6), (0.1, upside_down), (-2.0, quadratic)):
            with pytest.raises(NoGroundState, match="negative leading term"):
                numeric_qim(1.0, lam, 0.0, potential, CFG)

    def test_negative_coupling_of_a_negative_leading_term_stays_valid(self):
        upside_down = potential_from_dict({4: F(-1, 24)})
        flipped = numeric_qim(1.0, -0.05, 0.0, upside_down, CFG)
        plain = numeric_qim(1.0, 0.05, 0.0, V4, CFG)
        assert np.allclose(flipped.metric * [[1, -1], [-1, 1]], plain.metric, atol=1e-12)

    @pytest.mark.parametrize("estimator", [numeric_qim, fidelity_qim])
    def test_odd_potential_at_nonzero_coupling_is_rejected(self, estimator):
        cubic = PolynomialPotential.monomial(3)
        for lam in (0.3, -0.3):
            with pytest.raises(NoGroundState, match="odd k has no ground state"):
                estimator(1.0, lam, 0.0, cubic, CFG)

    def test_reference_frequency_insensitivity(self):
        # the metric does not depend on the basis it is computed in
        base = numeric_qim(1.0, 0.05, 0.0, V4, CFG)
        skew = sum_over_states_qim(1.0, 0.05, 0.0, V4, CFG, omega=1.3)
        assert np.allclose(base.metric, skew.metric, atol=1e-8)


def solved_alone(points, potential, config, labels) -> list:
    """numeric_qim at each point on its own: its result or its exception."""
    results = []
    for point in points:
        try:
            results.append(numeric_qim(*point, potential, config, labels=labels))
        except Exception as exc:
            results.append(exc)
    return results


def assert_same_result(got, expected):
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
    else:
        assert isinstance(got, spectral_oracle.NumericQGT)
        assert got.labels == expected.labels
        assert np.array_equal(got.metric, expected.metric)
        assert got.convergence_report == expected.convergence_report


GRIDS = [
    # the cold solve at N takes one round or two here, and the strong
    # couplings more factorisations: points settle in different rounds
    (V4, ("alpha", "lambda"), [(a, lam, 0.0) for a in (0.5, 1.3, 2.0) for lam in (0.0, 0.005, 0.05, 1.0, 10.0)]),
    (V6, ("alpha", "lambda"), [(a, lam, 0.0) for a in (0.5, 1.0, 2.0) for lam in (0.0, 0.01, 0.3)]),
    (V1, ("alpha", "j"), [(a, 0.0, j) for a in (0.5, 1.0, 2.0) for j in (0.0, 0.5, 2.0)]),
]


class TestGrid:
    @pytest.mark.parametrize("potential,labels,points", GRIDS, ids=["quartic", "monomial6", "linear"])
    def test_point_is_bit_identical_alone_in_a_grid_and_permuted(self, potential, labels, points):
        alone = solved_alone(points, potential, CFG, labels)
        for got, expected in zip(numeric_qim_grid(points, potential, CFG, labels), alone):
            assert_same_result(got, expected)
        order = np.random.default_rng(3).permutation(len(points))
        permuted = numeric_qim_grid([points[i] for i in order], potential, CFG, labels)
        for got, i in zip(permuted, order):
            assert_same_result(got, alone[i])

    def test_each_point_keeps_its_own_failure(self):
        # overflow, basis too small, no ground state and underflow among
        # points that solve: each gets what it gets alone
        points = [
            (1.0, 0.01, 0.0), (1e-300, 0.01, 0.0), (0.01, 0.01, 0.0), (1.0, -0.3, 0.0),
            (2.0, 0.05, 0.0), (1e150, 0.01, 0.0), (1e-200, 0.01, 0.0), (0.7, 0.3, 0.0),
        ]
        config = OracleConfig(16)
        alone = solved_alone(points, V4, config, ("alpha", "lambda"))
        assert [type(r).__name__ for r in alone] == [
            "NumericQGT", "OverflowError", "BasisTooSmall", "NoGroundState",
            "NumericQGT", "FloatingPointError", "OverflowError", "NumericQGT",
        ]
        for got, expected in zip(numeric_qim_grid(points, V4, config), alone):
            assert_same_result(got, expected)

    def test_stacks_stay_within_the_storage_bound(self, monkeypatch):
        points = GRIDS[0][2]
        alone = solved_alone(points, V4, CFG, ("alpha", "lambda"))
        stacks = []
        real = spectral_oracle._ground_pair

        def recorded(band, start=None):
            stacks.append(band.shape)
            return real(band, start)

        monkeypatch.setattr(spectral_oracle, "_ground_pair", recorded)
        # the quartic H is even: a point solves the N even states of its 2N basis
        monkeypatch.setattr(spectral_oracle, "_STACK_STATES", 4 * CFG.basis_size)
        for got, expected in zip(numeric_qim_grid(points, V4, CFG), alone):
            assert_same_result(got, expected)
        assert [shape[0] for shape in stacks] == [4, 4, 4, 4, 4, 4, 3, 3]
        assert {shape[-1] for shape in stacks} == {CFG.basis_size // 2, CFG.basis_size}

    def test_failed_factorisation_is_found_point_by_point(self):
        # a stack fails to factor when any point does; the retry on halves
        # finds exactly those points and factors the rest as they are alone
        bands = np.stack([random_spd_band(4, 100, seed=s) for s in range(5)])
        bands[1, 0, 40] = bands[4, 0, 7] = -1.0
        factor, ok = spectral_oracle._factor_each(bands, np.full(5, -0.5))
        assert ok.tolist() == [True, False, True, True, False]
        rhs = np.random.default_rng(0).normal(size=(3, 1, 100))
        got = spectral_oracle._band_solve(factor, rhs)
        for x, r, band in zip(got, rhs, bands[ok]):
            assert np.array_equal(x, TestBandSolve.solve(band, -0.5, r[0])[None])
            expected = lapack_solve(band, -0.5, r[0])
            assert np.abs(x[0] - expected).max() <= 1e-13 * np.abs(expected).max()


V8 = PolynomialPotential.monomial(8)


def full_basis_metric(alpha, lam, potential, config, labels=("alpha", "lambda")) -> np.ndarray:
    """The response metric solved on every state of the basis, parity aside."""
    band = build_hamiltonian(alpha, lam, 0.0, potential, config)[None]
    energy, vec, factor, [failure] = spectral_oracle._ground_pair(band)
    assert failure is None
    images = spectral_oracle._derivative_images(labels, potential, np.array([alpha]), config.basis_size, 1, vec)
    return spectral_oracle._response(band, energy, vec, factor, images)[0][0]


class TestEvenSector:
    @pytest.mark.parametrize("n", [17, 33, 64, 128, 256])
    @pytest.mark.parametrize("potential", [V4, V6, V8], ids=["quartic", "monomial6", "monomial8"])
    def test_matches_the_full_basis(self, potential, n, monkeypatch):
        # psi and each x_a of an even H lie in the even states, so solving
        # them alone (n // 2 or n // 2 + 1 states at N) changes only rounding
        config = OracleConfig(n)
        cold = count_cold_solves(monkeypatch)
        for alpha, lam in ((0.7, 0.01), (1.3, 0.05), (2.0, 0.2)):
            cold.clear()
            got = numeric_qim(alpha, lam, 0.0, potential, config).metric
            assert cold == [(potential.degree // 2 + 1, -(-n // 2))]
            for reference in (sum_over_states_qim(alpha, lam, 0.0, potential, config).metric,
                              full_basis_metric(alpha, lam, potential, config)):
                assert (np.abs(got - reference) <= 1e-12 * np.abs(reference)).all(), (alpha, lam)

    def test_basis_too_small_still_detected(self, monkeypatch):
        cold = count_cold_solves(monkeypatch)
        with pytest.raises(BasisTooSmall, match="N=16 basis"):
            numeric_qim(0.01, 0.01, 0.0, V4, OracleConfig(16))
        assert cold == [(3, 8)]

    def test_point_is_bit_identical_alone_in_a_grid_of_both_parities(self):
        # the points at J = 0 are solved on the even states, the others on all
        points = [(a, 0.01, j) for a in (0.5, 1.0, 2.0) for j in (0.0, 0.1)]
        alone = solved_alone(points, V4, CFG, ("alpha", "lambda"))
        for got, expected in zip(numeric_qim_grid(points, V4, CFG), alone):
            assert_same_result(got, expected)

    @pytest.mark.parametrize(
        "lam,j,potential,labels",
        [(0.0, 0.5, V1, ("alpha", "j")), (0.05, 0.1, V4, ("alpha", "lambda")),
         (0.05, 0.0, V4, ("alpha", "j")), (0.0, 0.0, PolynomialPotential.monomial(3), ("alpha", "lambda"))],
        ids=["linear", "quartic-sourced", "quartic-j-response", "monomial3-unperturbed"],
    )
    def test_odd_terms_keep_the_full_basis(self, lam, j, potential, labels, monkeypatch):
        # an odd V, J q or an odd dH_a mixes the parities: every state is solved
        cold = count_cold_solves(monkeypatch)
        numeric_qim(1.0, lam, j, potential, CFG, labels=labels)
        assert cold == [(max(2, potential.degree) + 1, CFG.basis_size)]


class TestFiniteDifferenceReference:
    @pytest.mark.parametrize("alpha,lam,j,potential,labels", DENSE_CASES)
    def test_agrees_with_the_response_within_its_halving_estimate(self, alpha, lam, j, potential, labels):
        response = numeric_qim(alpha, lam, j, potential, CFG, labels=labels)
        fd = finite_difference_qim(alpha, lam, j, potential, CFG, labels=labels)
        for i, a in enumerate(labels):
            for k, b in enumerate(labels):
                bound = 2.0 * fd.convergence_report[(a, b)]["fd_halving"] + 1e-13
                assert abs(fd.metric[i, k] - response.metric[i, k]) <= bound, (a, b)

    def test_step_too_large_detected(self):
        with pytest.raises(StepTooLarge):
            finite_difference_qim(1.0, 0.0, 0.0, V4, CFG, steps={"alpha": 0.6})


class TestStrongCoupling:
    @pytest.mark.parametrize("lam", [16 / 35, 0.5, 1.0, 10.0])
    def test_determinant_stays_positive(self, lam):
        # the order-1 series' det vanishes at lambda = 16/35 a^3/2; the oracle's does not
        dets = [np.linalg.det(numeric_qim(1.0, lam, 0.0, V4, OracleConfig(n)).metric) for n in (256, 512)]
        assert dets[0] > 0
        assert dets[0] == pytest.approx(dets[1], rel=1e-12, abs=0)


class TestAgreementScaling:
    def test_quadratic_remainder_against_first_order_series(self):
        space = ParameterSpace.quartic()
        series = {
            (a, b): qgt_component(space, a, b, 1)
            for a in space.labels
            for b in space.labels
        }
        lams = (0.02, 0.04, 0.08)
        devs = {key: [] for key in series}
        for lam in lams:
            oracle = numeric_qim(1.0, lam, 0.0, V4, CFG)
            for key, s in series.items():
                devs[key].append(abs(oracle.entry(*key) - s.evaluate(1.0, lam)))
        for key, values in devs.items():
            slope = np.polyfit(np.log(lams), np.log(values), 1)[0]
            assert 1.7 <= slope <= 2.3, (key, slope)

    def test_second_order_series_predicts_the_remainder(self):
        # the lambda^2 coefficient from the two-vertex expansion should match
        # the observed deviation of the first-order series from the oracle
        space = ParameterSpace.quartic()
        lam = 0.04
        g1 = qgt_component(space, "lambda", "lambda", 1)
        g2 = qgt_component(space, "lambda", "lambda", 2)
        oracle = numeric_qim(1.0, lam, 0.0, V4, CFG)
        observed = oracle.entry("lambda", "lambda") - g1.evaluate(1.0, lam)
        predicted = g2.evaluate(1.0, lam) - g1.evaluate(1.0, lam)
        assert observed == pytest.approx(predicted, rel=0.2)


class TestFidelityEstimator:
    def test_cross_validates_derivative_estimator(self):
        derivative = numeric_qim(1.0, 0.0, 0.5, V1, CFG, labels=("alpha", "j"))
        overlap = fidelity_qim(1.0, 0.0, 0.5, V1, CFG, labels=("alpha", "j"))
        assert np.allclose(derivative.metric, overlap.metric, atol=1e-4)
