"""Tests for the masked autoregressive density model and the energy-based
model trained by sliced score matching.

The full-tolerance fits on 10^4-sample fixtures live in the acceptance suite;
here the same protocols run at reduced scale plus all exact-value checks.
"""
import math

import numpy as np
import pytest

import graph_reference as gr
from graph_reference import QuadraticEnergy, made_mask_max_fd, quadratic_hvp
from ndilab import density
from ndilab.density import (
    EbmModel,
    MadeConfig,
    MadeModel,
    SsmConfig,
    Standardizer,
    ebm_fit,
    made_fit,
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
        logq = model.log_density_batch(grid).reshape(241, 241)
        mass = np.trapezoid(np.trapezoid(np.exp(logq), xs, axis=1), xs)
        assert mass == pytest.approx(1.0, abs=0.02)

    def test_conditional_heads_are_valid_densities(self):
        model, _ = made_fit(correlated_gaussian(500),
                            MadeConfig(hidden=(16, 16), n_components=3, epochs=10,
                                       batch_size=128, lr=2e-3, seed=1))
        rng = np.random.default_rng(2)
        for _ in range(3):
            z = rng.normal(size=(1, 2))
            log_w, mu, log_s = (h[0] for h in model.heads(z))
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
        a = [h[0, 0] for h in model.heads(rng.normal(size=(1, 3)))]
        b = [h[0, 0] for h in model.heads(rng.normal(size=(1, 3)))]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestMadeFit:
    def test_correlated_gaussian_reduced_protocol(self):
        X = correlated_gaussian(2500, seed=3)
        train, held = X[:2000], X[2000:]
        model, curve = made_fit(train, MadeConfig(hidden=(32, 32), n_components=5,
                                                  epochs=60, batch_size=128, lr=2e-3, seed=0))
        Zh = model.standardizer.transform(held)
        model_ll = model.log_density_batch(Zh).mean()
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
            lls.append(model.log_density_batch(Zh).mean())
        assert abs(lls[0] - lls[1]) < 0.2

    def test_single_point_degenerate_mle(self):
        point = np.array([[1.7]])
        model, _ = made_fit(point, MadeConfig(hidden=(8,), n_components=1, epochs=600,
                                              batch_size=1, lr=0.05, seed=0,
                                              spectral_norm=False))
        z = model.standardizer.transform(point)  # degenerate stats map the point to 0
        np.testing.assert_allclose(z, 0.0, atol=1e-12)
        _, mu, log_s = (h[0] for h in model.heads(z))
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
        val = quad.value_and_input_grad(np.array([[1.0, 1.0]]))[0][0, 0]
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
            assert model.log_density(x) == model.value_and_input_grad(z)[0][0, 0]

    def test_input_grad_matches_finite_differences(self):
        model = EbmModel(dim=3, hidden=(16, 16), seed=5, spectral_norm=True)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 3))
        g = model.value_and_input_grad(x)[1][0]
        for i in range(3):
            dx = np.zeros(3)
            dx[i] = 1e-6
            hi = model.value_and_input_grad(x + dx)[0][0, 0]
            lo = model.value_and_input_grad(x - dx)[0][0, 0]
            assert g[i] == pytest.approx((hi - lo) / 2e-6, abs=1e-8)


class TestSsmLoss:
    def test_quadratic_energy_closed_form(self):
        # on E = -1/2 x^T A x the finite difference is exact up to rounding,
        # so the loss is mean_v(-v^T A v) + 1/2 ||A x||^2 over the same slices
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        cfg = SsmConfig(n_slices=4, hvp_epsilon=1e-4)
        for seed, x in ((0, np.zeros(2)), (5, np.array([1.0, -2.0]))):
            vs = np.random.default_rng(seed).standard_normal((cfg.n_slices, 2))
            expected = np.mean([-v @ A @ v for v in vs]) + 0.5 * np.sum((A @ x) ** 2)
            loss, grad = ssm_loss(QuadraticEnergy(A), x[None, :], cfg, seed=seed)
            assert loss == pytest.approx(expected, abs=1e-8)
            assert grad.shape == (0,)

    def test_hutchinson_matches_exact_trace_within_stderr(self):
        quad = QuadraticEnergy(np.eye(2))
        rng = np.random.default_rng(9)
        vs = rng.standard_normal((10_000, 2))
        samples = np.array([quadratic_hvp(quad, np.zeros(2), v) for v in vs])
        stderr = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - (-2.0)) < 3 * stderr
        # ssm_loss with the same slices semantics: mean over slices
        cfg = SsmConfig(n_slices=512, hvp_epsilon=1e-4)
        val = ssm_loss(quad, np.zeros((1, 2)), cfg, seed=3)[0]
        assert abs(val - (-2.0)) < 0.4

    def test_fd_hvp_matches_analytic_on_quadratic(self):
        rng = np.random.default_rng(4)
        A = np.diag([1.0, 2.0, 0.5])
        quad = QuadraticEnergy(A)
        for _ in range(10):
            x, v = rng.normal(size=3), rng.normal(size=3)
            assert quadratic_hvp(quad, x, v) == pytest.approx(-v @ A @ v, abs=1e-6)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ssm_loss(QuadraticEnergy(np.eye(2)), np.zeros((0, 2)), SsmConfig(), seed=0)


class TestEbmFit:
    def test_standard_gaussian_score_direction_reduced(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4000, 2))
        model, curve = ebm_fit(X, SsmConfig(n_slices=1, batch_size=256, epochs=30,
                                            lr=2e-3, seed=0, hidden=(64, 64)))
        test = rng.standard_normal((300, 2))
        Z = model.standardizer.transform(test)
        scores = model.value_and_input_grad(Z)[1]
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
        vals = model.value_and_input_grad(model.standardizer.transform(grid))[0][:, 0]
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
        ev = model.value_and_input_grad(model.standardizer.transform(line))[0][:, 0]
        maxima = [i for i in range(1, 80) if ev[i] > ev[i - 1] and ev[i] > ev[i + 1]]
        assert len(maxima) == 2
        assert xs[maxima[0]] < 0 < xs[maxima[1]]


class TestStandardizer:
    def test_degenerate_std_guarded(self):
        s = Standardizer.fit(np.array([[3.0, 1.0], [3.0, 2.0]]))
        assert s.std[0] == 1.0  # zero-variance column falls back to unit scale
        np.testing.assert_allclose(s.transform(np.array([[3.0, 1.5]])), [[0.0, 0.0]])


def same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def recorded_fit(monkeypatch, fit, loss_name, model_class, X, config) -> list[dict]:
    """Run ``fit`` and record, per optimizer step, the loss, the flat
    gradient handed to Adam, and the parameters and sigmas after the step."""
    steps: list[dict] = []
    loss_fn, refresh = getattr(density, loss_name), model_class.refresh_spectral_norm

    def recording_loss(*args, **kwargs):
        loss, grad = loss_fn(*args, **kwargs)
        steps.append({"loss": loss, "grad": grad.copy()})
        return loss, grad

    def recording_refresh(model, n_power_iterations=1):
        refresh(model, n_power_iterations)
        steps[-1]["state"] = (model.net.flat.copy(), [layer.sigma for layer in model.net.layers])

    monkeypatch.setattr(density, loss_name, recording_loss)
    monkeypatch.setattr(model_class, "refresh_spectral_norm", recording_refresh)
    fit(X, config)
    monkeypatch.undo()
    return steps


def assert_steps_match_the_graph(steps, model, X, config, loss_graph):
    model.standardizer = Standardizer.fit(X)
    Z = model.standardizer.transform(X)
    want = list(gr.graph_fit(model, Z, config, loss_graph))
    assert len(steps) == len(want) >= 3
    for k, (got, (loss, grad, flat, sigmas)) in enumerate(zip(steps, want)):
        assert same_bytes(got["loss"], loss), k
        assert same_bytes(got["grad"], grad), k
        assert same_bytes(got["state"][0], flat), k
        assert got["state"][1] == sigmas, k


class TestGraphParity:
    """The array-written losses and gradients against the same losses built
    as graphs and differentiated by the reference engine: equal byte for
    byte. Each fit takes 150 rows in batches of 64, so every epoch ends with
    a partial batch of 22."""

    @pytest.mark.parametrize("ordering", [None, (2, 0, 1)])
    def test_made_fit_steps_equal_the_graph(self, monkeypatch, ordering):
        X = np.random.default_rng(3).normal(size=(150, 3))
        cfg = MadeConfig(hidden=(16, 16), n_components=3, epochs=2, batch_size=64,
                         lr=2e-3, seed=1, ordering=ordering)
        steps = recorded_fit(monkeypatch, made_fit, "made_nll", MadeModel, X, cfg)
        model = MadeModel(3, hidden=cfg.hidden, n_components=cfg.n_components,
                          ordering=ordering, seed=cfg.seed)
        assert_steps_match_the_graph(steps, model, X, cfg,
                                     lambda batch, params, step: gr.made_nll(model, batch, params))

    @pytest.mark.parametrize("spectral_norm", [True, False])
    @pytest.mark.parametrize("n_slices", [1, 3])
    def test_ebm_fit_steps_equal_the_graph(self, monkeypatch, spectral_norm, n_slices):
        X = np.random.default_rng(4).normal(size=(150, 2))
        cfg = SsmConfig(n_slices=n_slices, batch_size=64, epochs=2, lr=2e-3, seed=2,
                        hidden=(16, 16), spectral_norm=spectral_norm)
        steps = recorded_fit(monkeypatch, ebm_fit, "ssm_loss", EbmModel, X, cfg)
        model = EbmModel(2, hidden=cfg.hidden, seed=cfg.seed, spectral_norm=spectral_norm)

        def loss_graph(batch, params, step):
            return gr.ssm_loss(model, batch, cfg, cfg.seed * 1_000_003 + step, params)

        assert_steps_match_the_graph(steps, model, X, cfg, loss_graph)

    def test_made_nll_gradient_equals_the_graph_past_the_clamps(self):
        model = MadeModel(3, hidden=(16, 16), n_components=3, seed=5)
        head_bias = model.net.layers[-1].bias.reshape(3, 9)   # (coordinate, 3K)
        head_bias[:, 6] = 4.0     # log-scales above LOG_SCALE_MAX ...
        head_bias[:, 7] = -8.0    # ... and below LOG_SCALE_MIN
        Z = np.random.default_rng(8).normal(size=(40, 3))
        loss, grad = density.made_nll(model, Z)
        params = [gr.Node(p) for p in model.params()]
        want = gr.made_nll(model, Z, params)
        gr.backward(want)
        assert same_bytes(loss, want.value)
        assert same_bytes(grad, gr.flat_grads(params))

    @pytest.mark.parametrize("rows", [1, 96])
    def test_made_log_density_equals_the_graph(self, rows):
        model = MadeModel(3, hidden=(16, 16), n_components=3, ordering=(1, 2, 0), seed=7)
        model.standardizer = Standardizer(np.array([0.5, -1.0, 2.0]), np.array([2.0, 0.5, 1.5]))
        X = np.random.default_rng(rows).normal(size=(rows, 3))
        Z = model.standardizer.transform(X)
        want = gr.made_log_density_batch(model, Z).value
        assert same_bytes(model.log_density_batch(Z), want)
        for x in X:   # one row at a time, as the tabular pipeline asks
            one = gr.made_log_density_batch(model, model.standardizer.transform(x[None, :]))
            assert model.log_density(x) == float(one.value[0])
        for got, head in zip(model.heads(Z), gr.made_heads(model, Z)):
            assert same_bytes(got, head.value)

    @pytest.mark.parametrize("spectral_norm", [True, False])
    @pytest.mark.parametrize("rows", [1, 96])
    def test_ebm_value_and_input_grad_equal_the_graph(self, rows, spectral_norm):
        model = EbmModel(3, hidden=(16, 16), seed=6, spectral_norm=spectral_norm)
        Z = np.random.default_rng(rows).normal(size=(rows, 3))
        for got, want in zip(model.value_and_input_grad(Z), gr.ebm_value_and_input_grad(model, Z)):
            assert same_bytes(got, want.value)
