"""Tests for the masked autoregressive density model and the energy-based
model trained by sliced score matching.

The full-tolerance fits on 10^4-sample fixtures live in the acceptance suite;
here the same protocols run at reduced scale plus all exact-value checks.
"""
import math

import numpy as np
import pytest

from ndilab.density import (
    EbmModel,
    MadeConfig,
    MadeModel,
    QuadraticEnergy,
    SsmConfig,
    Standardizer,
    ebm_fit,
    hvp_fd,
    made_fit,
    made_mask_max_fd,
    smoothed_curve_is_monotone,
    ssm_loss,
)


def correlated_gaussian(n, rho=0.8, seed=0):
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]]))
    return rng.standard_normal((n, 2)) @ L.T


def frozen_single_head_model():
    """1-D, K=1 model with the head frozen at mean 0 / scale 1."""
    model = MadeModel(dim=1, hidden=(4,), n_components=1, seed=0, spectral_norm=False)
    for p in model.params():
        p[...] = 0.0
    return model


class TestMadeLogDensity:
    def test_standard_normal_head_at_origin(self):
        model = frozen_single_head_model()
        assert model.log_density(np.array([0.0])) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_two_independent_standard_heads(self):
        model = MadeModel(dim=2, hidden=(4,), n_components=1, seed=0, spectral_norm=False)
        for p in model.params():
            p[...] = 0.0
        assert model.log_density(np.zeros(2)) == pytest.approx(
            2 * -0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_random_model_integrates_to_one_on_grid(self):
        model = MadeModel(dim=2, hidden=(16, 16), n_components=3, seed=4, spectral_norm=False)
        xs = np.linspace(-12.0, 12.0, 241)
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        logq = model.log_density_batch(grid).value.reshape(241, 241)
        mass = np.trapezoid(np.trapezoid(np.exp(logq), xs, axis=1), xs)
        assert mass == pytest.approx(1.0, abs=0.02)

    def test_conditional_heads_are_valid_densities(self):
        model, _ = made_fit(correlated_gaussian(500),
                            MadeConfig(hidden=(16, 16), n_components=3, epochs=10,
                                       batch_size=128, lr=2e-3, seed=1))
        rng = np.random.default_rng(2)
        for _ in range(3):
            z = rng.normal(size=(1, 2))
            log_w, mu, log_s = (h.value[0] for h in model.heads(z))
            for coord in range(2):
                w = np.exp(log_w[coord])
                m, s = mu[coord], np.exp(log_s[coord])
                lo, hi = (m - 12 * s).min(), (m + 12 * s).max()
                xs = np.linspace(lo, hi, 20001)
                dens = (w[None, :] * np.exp(-0.5 * ((xs[:, None] - m) / s) ** 2)
                        / (s * math.sqrt(2 * math.pi))).sum(axis=1)
                assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-6)

    def test_dimension_mismatch_rejected(self):
        model = frozen_single_head_model()
        with pytest.raises(ValueError):
            model.log_density_batch(np.zeros((1, 3)))


class TestMadeMaskProperty:
    @pytest.mark.parametrize("ordering", [None, (2, 0, 1)])
    def test_zero_sensitivity_to_future_coordinates(self, ordering):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 3))
        model, _ = made_fit(X, MadeConfig(hidden=(16, 16), n_components=2, epochs=5,
                                          batch_size=64, lr=2e-3, seed=0,
                                          ordering=ordering))
        for _ in range(5):
            x = rng.normal(size=3)
            assert made_mask_max_fd(model, x) < 1e-9

    def test_first_coordinate_head_is_unconditional(self):
        model = MadeModel(dim=3, hidden=(8, 8), n_components=2, seed=1)
        rng = np.random.default_rng(0)
        a = [h.value[0, 0] for h in model.heads(rng.normal(size=(1, 3)))]
        b = [h.value[0, 0] for h in model.heads(rng.normal(size=(1, 3)))]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestMadeFit:
    def test_correlated_gaussian_reduced_protocol(self):
        X = correlated_gaussian(2500, seed=3)
        train, held = X[:2000], X[2000:]
        model, curve = made_fit(train, MadeConfig(hidden=(32, 32), n_components=5,
                                                  epochs=60, batch_size=128, lr=2e-3, seed=0))
        Zh = model.standardizer.transform(held)
        model_ll = model.log_density_batch(Zh).value.mean()
        cov = np.array([[1.0, 0.8], [0.8, 1.0]])
        inv, logdet = np.linalg.inv(cov), np.log(np.linalg.det(cov))
        true_ll = (-0.5 * np.einsum("bi,ij,bj->b", Zh, inv, Zh)
                   - 0.5 * logdet - math.log(2 * math.pi)).mean()
        assert abs(model_ll - true_ll) < 0.25
        assert smoothed_curve_is_monotone(curve, window=10, slack=5e-3)

    def test_permuted_ordering_close_to_canonical(self):
        X = correlated_gaussian(2500, seed=5)
        train, held = X[:2000], X[2000:]
        lls = []
        for ordering in (None, (1, 0)):
            model, _ = made_fit(train, MadeConfig(hidden=(32, 32), n_components=5,
                                                  epochs=60, batch_size=128, lr=2e-3,
                                                  seed=0, ordering=ordering))
            Zh = model.standardizer.transform(held)
            lls.append(model.log_density_batch(Zh).value.mean())
        assert abs(lls[0] - lls[1]) < 0.2

    def test_single_point_degenerate_mle(self):
        point = np.array([[1.7]])
        model, _ = made_fit(point, MadeConfig(hidden=(8,), n_components=1, epochs=600,
                                              batch_size=1, lr=0.05, seed=0,
                                              spectral_norm=False))
        z = model.standardizer.transform(point)  # degenerate stats map the point to 0
        np.testing.assert_allclose(z, 0.0, atol=1e-12)
        _, mu, log_s = (h.value[0] for h in model.heads(z))
        assert mu[0, 0] == pytest.approx(0.0, abs=1e-9)       # the standardized point
        assert log_s[0, 0] == pytest.approx(-7.0, abs=1e-12)  # pinned at clamp floor

    def test_nan_loss_aborts_with_epoch(self):
        X = correlated_gaussian(200, seed=1)
        X[13, 0] = np.nan
        with pytest.raises(FloatingPointError, match="epoch"):
            made_fit(X, MadeConfig(hidden=(16,), n_components=2, epochs=5,
                                   batch_size=64, lr=1e-3, seed=0))


class TestEbmLogDensity:
    def test_zero_network_is_zero_everywhere(self):
        model = EbmModel(dim=2, hidden=(8,), seed=0, spectral_norm=False)
        for p in model.params():
            p[...] = 0.0
        for x in (np.zeros(2), np.array([3.0, -1.0])):
            assert model.log_density(x) == 0.0

    def test_hand_built_quadratic_energy(self):
        quad = QuadraticEnergy(np.eye(2))
        val = quad.value_and_input_grad(np.array([[1.0, 1.0]]))[0].value[0, 0]
        assert val == pytest.approx(-1.0)

    def test_constant_shift_moves_all_outputs(self):
        model = EbmModel(dim=2, hidden=(8, 8), seed=3, spectral_norm=False)
        xs = np.random.default_rng(0).normal(size=(10, 2))
        before = np.array([model.log_density(x) for x in xs])
        model.net.layers[-1].bias += 2.5
        after = np.array([model.log_density(x) for x in xs])
        np.testing.assert_allclose(after - before, 2.5, atol=1e-12)

    def test_log_density_equals_energy_of_value_and_input_grad(self):
        model = EbmModel(dim=3, hidden=(16, 16), seed=6, spectral_norm=True)
        model.standardizer.mean[:] = [0.5, -1.0, 2.0]
        model.standardizer.std[:] = [2.0, 0.5, 1.5]
        for x in np.random.default_rng(2).normal(size=(50, 3)) * 2.0:
            z = model.standardizer.transform(np.atleast_2d(x))
            assert model.log_density(x) == model.value_and_input_grad(z)[0].value[0, 0]

    def test_input_grad_matches_finite_differences(self):
        model = EbmModel(dim=3, hidden=(16, 16), seed=5, spectral_norm=True)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 3))
        g = model.value_and_input_grad(x)[1].value[0]
        for i in range(3):
            dx = np.zeros(3)
            dx[i] = 1e-6
            hi = model.value_and_input_grad(x + dx)[0].value[0, 0]
            lo = model.value_and_input_grad(x - dx)[0].value[0, 0]
            assert g[i] == pytest.approx((hi - lo) / 2e-6, abs=1e-8)


class TestSsmLoss:
    def test_quadratic_energy_exact_trace(self):
        quad = QuadraticEnergy(np.eye(2))
        cfg = SsmConfig(exact_trace=True, hvp_epsilon=1e-4)
        at_zero = ssm_loss(quad, np.zeros((1, 2)), cfg, seed=0).value
        assert at_zero == pytest.approx(-2.0, abs=1e-8)
        x = np.array([[1.0, -2.0]])
        val = ssm_loss(quad, x, cfg, seed=0).value
        assert val == pytest.approx(-2.0 + 0.5 * 5.0, abs=1e-8)

    def test_hutchinson_matches_exact_trace_within_stderr(self):
        quad = QuadraticEnergy(np.eye(2))
        rng = np.random.default_rng(9)
        vs = rng.standard_normal((10_000, 2))
        samples = np.array([hvp_fd(quad, np.zeros(2), v) for v in vs])
        stderr = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - (-2.0)) < 3 * stderr
        # ssm_loss with the same slices semantics: mean over slices
        cfg = SsmConfig(n_slices=512, hvp_epsilon=1e-4)
        val = ssm_loss(quad, np.zeros((1, 2)), cfg, seed=3).value
        assert abs(val - (-2.0)) < 0.4

    def test_fd_hvp_matches_analytic_on_quadratic(self):
        rng = np.random.default_rng(4)
        A = np.diag([1.0, 2.0, 0.5])
        quad = QuadraticEnergy(A)
        for _ in range(10):
            x, v = rng.normal(size=3), rng.normal(size=3)
            assert hvp_fd(quad, x, v) == pytest.approx(-v @ A @ v, abs=1e-6)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ssm_loss(QuadraticEnergy(np.eye(2)), np.zeros((0, 2)), SsmConfig(), seed=0)

    def test_sliced_norm_variant(self):
        quad = QuadraticEnergy(np.eye(2))
        x = np.array([[1.0, 1.0]])
        cfg = SsmConfig(exact_trace=True, sliced_norm=True, hvp_epsilon=1e-4)
        # basis slices: sum of v^T H v = trace; grad term = mean of (v . grad)^2 / 2
        expected = -2.0 + 0.5 * ((1.0) ** 2 + (1.0) ** 2) / 2
        assert ssm_loss(quad, x, cfg, seed=0).value == pytest.approx(expected, abs=1e-8)


class TestEbmFit:
    def test_standard_gaussian_score_direction_reduced(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4000, 2))
        model, curve = ebm_fit(X, SsmConfig(n_slices=1, batch_size=256, epochs=30,
                                            lr=2e-3, seed=0, hidden=(64, 64)))
        test = rng.standard_normal((300, 2))
        Z = model.standardizer.transform(test)
        scores = model.value_and_input_grad(Z)[1].value
        cos = (scores * -Z).sum(axis=1) / (
            np.linalg.norm(scores, axis=1) * np.linalg.norm(Z, axis=1) + 1e-12)
        assert cos.mean() >= 0.9

    def test_shifted_gaussian_argmax_near_mean(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4000, 2)) + np.array([2.0, 2.0])
        model, _ = ebm_fit(X, SsmConfig(n_slices=1, batch_size=256, epochs=40,
                                        lr=2e-3, seed=1, hidden=(64, 64)))
        xs = np.linspace(-1.0, 5.0, 61)
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), -1).reshape(-1, 2)
        vals = model.value_and_input_grad(model.standardizer.transform(grid))[0].value[:, 0]
        argmax = grid[int(np.argmax(vals))]
        assert np.linalg.norm(argmax - [2.0, 2.0]) < 0.3

    def test_two_mode_data_gives_two_maxima(self):
        rng = np.random.default_rng(5)
        n = 4000
        comp = rng.integers(0, 2, size=n)
        X = rng.standard_normal((n, 2)) * 0.6
        X[:, 0] += np.where(comp == 0, -2.0, 2.0)
        # Lipschitz cap from spectral normalization flattens the valley, so
        # the multimodal fixture trains without it
        model, _ = ebm_fit(X, SsmConfig(n_slices=1, batch_size=256, epochs=60,
                                        lr=2e-3, seed=2, hidden=(64, 64),
                                        spectral_norm=False))
        xs = np.linspace(-4.0, 4.0, 81)
        line = np.stack([xs, np.zeros_like(xs)], -1)
        ev = model.value_and_input_grad(model.standardizer.transform(line))[0].value[:, 0]
        maxima = [i for i in range(1, 80) if ev[i] > ev[i - 1] and ev[i] > ev[i + 1]]
        assert len(maxima) == 2
        assert xs[maxima[0]] < 0 < xs[maxima[1]]


class TestStandardizer:
    def test_degenerate_std_guarded(self):
        s = Standardizer.fit(np.array([[3.0, 1.0], [3.0, 2.0]]))
        assert s.std[0] == 1.0  # zero-variance column falls back to unit scale
        np.testing.assert_allclose(s.transform(np.array([[3.0, 1.5]])), [[0.0, 0.0]])
