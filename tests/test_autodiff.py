"""Tests for the reverse-mode engine, MLPs, Adam, and spectral normalization."""
import numpy as np
import pytest

from ndilab import autodiff as ad
from ndilab.autodiff import AdamState, Mlp, Node, adam_step, backward, grad_check, spectral_normalize


class TestMlpForward:
    def test_zero_parameters_give_zero_output(self):
        model = Mlp([3, 8, 2], seed=0)
        for p in model.params():
            p[...] = 0.0
        np.testing.assert_array_equal(model(np.array([1.0, -2.0, 3.0])), 0.0)

    def test_single_tanh_layer_unit_weight(self):
        model = Mlp([1, 1, 1], seed=0)
        model.set_params([np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), np.zeros(1)])
        out = model(np.array([0.5]))
        assert out[0, 0] == pytest.approx(np.tanh(0.5), abs=1e-15)

    def test_matches_straight_line_evaluator(self):
        rng = np.random.default_rng(12)
        model = Mlp([4, 16, 8, 1], seed=3)
        x = rng.normal(size=(5, 4))
        # independently coded plain-numpy evaluation
        h = x
        for i, layer in enumerate(model.layers):
            h = h @ layer.weight.T + layer.bias
            if i < len(model.layers) - 1:
                h = np.tanh(h)
        np.testing.assert_allclose(model(x), h, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = Mlp([3, 4, 1], seed=0)
        with pytest.raises(ValueError):
            model.forward(np.zeros(5))


class TestBackward:
    def test_square_at_three(self):
        w = Node(np.array(3.0))
        out = ad.mul(w, w)
        backward(out)
        assert w.grad == pytest.approx(6.0)

    def test_tanh_chain_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 4))

        def fn(params):
            h = ad.tanh(ad.matmul(params[0], params[0]))
            return ad.nsum(ad.tanh(ad.nsum(h, axis=1)))

        assert grad_check(fn, [w], eps=1e-6) < 1e-6

    def test_disconnected_parameter_gets_zero(self):
        a, b = Node(np.array(2.0)), Node(np.array(5.0))
        out = ad.mul(a, a)
        backward(out)
        assert b.grad is None  # never touched by the graph

    def test_nonscalar_output_rejected(self):
        x = Node(np.zeros(3))
        with pytest.raises(ValueError):
            backward(ad.exp(x))

    def test_each_node_visited_once(self):
        # diamond graph: y = (x + x) * (x + x); gradient must be 8x, not doubled
        x = Node(np.array(1.5))
        s = ad.add(x, x)
        out = ad.mul(s, s)
        backward(out)
        assert x.grad == pytest.approx(8 * 1.5)

    def test_constant_node_zero_gradient(self):
        x = Node(np.array(2.0))
        c = Node(np.array(7.0))
        out = ad.mul(x, ad.mul(c, 0.0) + 1.0)
        backward(out)
        assert c.grad == pytest.approx(0.0)


class TestDense:
    """``dense`` against the matmul -> transpose -> add -> tanh chain it
    replaces: value and all three gradients must be equal bit for bit."""

    @staticmethod
    def run(layer, weight_node):
        rng = np.random.default_rng(4)
        h = Node(rng.normal(size=(5, 3)))
        W = Node(rng.normal(size=(4, 3)))
        b = Node(rng.normal(size=4))
        out = layer(h, weight_node(W), b)
        backward(ad.nsum(ad.mul(out, rng.normal(size=(5, 4)))))
        return out.value, h.grad, W.grad, b.grad

    @pytest.mark.parametrize("activate", [True, False])
    @pytest.mark.parametrize("masked_spectral", [False, True])
    def test_value_and_gradients_equal_the_op_chain(self, activate, masked_spectral):
        model = Mlp([3, 4], seed=1, spectral_norm=True,
                    masks=[np.random.default_rng(2).integers(0, 2, size=(4, 3)).astype(float)])

        def weight_node(W):
            return model.effective_weight(0, W) if masked_spectral else W

        def chain(h, W, b):
            pre = ad.add(ad.matmul(h, ad.transpose(W)), b)
            return ad.tanh(pre) if activate else pre

        def fused(h, W, b):
            return ad.dense(h, W, b, activate=activate)

        for want, got in zip(self.run(chain, weight_node), self.run(fused, weight_node)):
            np.testing.assert_array_equal(got, want)

    def test_backward_from_a_second_output_uses_its_own_upstream_gradient(self):
        rng = np.random.default_rng(6)
        h, weight = rng.normal(size=(4, 3)), rng.normal(size=(2, 3))

        def w_grad(earlier_backward: bool):
            W = Node(weight)
            out = ad.dense(h, W, np.zeros(2))
            if earlier_backward:
                backward(ad.nsum(out))
            backward(ad.nsum(ad.square(out)))
            return W.grad

        np.testing.assert_array_equal(w_grad(True), w_grad(False))


class TestFlatParameters:
    def test_params_are_views_of_flat_and_set_params_writes_flat(self):
        model = Mlp([3, 5, 2], seed=0)
        params = model.params()
        assert model.flat.size == sum(p.size for p in params)
        for p in params:
            assert np.shares_memory(p, model.flat)
        np.testing.assert_array_equal(model.flat, np.concatenate([p.reshape(-1) for p in params]))
        new = [np.full(p.shape, float(k)) for k, p in enumerate(params)]
        model.set_params(new)
        np.testing.assert_array_equal(model.flat, np.concatenate([p.reshape(-1) for p in new]))

    def test_initial_weights_are_the_seeded_uniform_draws(self):
        model = Mlp([3, 5, 2], seed=7)
        rng = np.random.default_rng(7)
        for layer, (fan_in, fan_out) in zip(model.layers, [(3, 5), (5, 2)]):
            scale = 1.0 / np.sqrt(fan_in)
            np.testing.assert_array_equal(layer.weight,
                                          rng.uniform(-scale, scale, size=(fan_out, fan_in)))
            np.testing.assert_array_equal(layer.bias, np.zeros(fan_out))

    def test_adam_on_flat_equals_adam_per_array(self):
        rng = np.random.default_rng(3)
        X, y = rng.normal(size=(16, 3)), rng.normal(size=(16, 1))
        flat_model, split_model = Mlp([3, 6, 1], seed=5), Mlp([3, 6, 1], seed=5)
        flat_state, split_state = AdamState(lr=1e-2), AdamState(lr=1e-2)
        for _ in range(50):
            for model, state in ((flat_model, flat_state), (split_model, split_state)):
                params = [Node(p) for p in model.params()]
                backward(ad.nmean(ad.square(ad.sub(model.forward(X, params), y))))
                if model is flat_model:
                    adam_step(state, [model.flat], [ad.flat_grads(params)])
                else:
                    adam_step(state, model.params(), ad.collect_grads(params))
        np.testing.assert_array_equal(flat_model.flat, split_model.flat)


class TestGradCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 3))
        w = rng.normal(size=(3, 1))

        def fn(params):
            return ad.nsum(ad.matmul(ad.transpose(params[0]), ad.matmul(Node(A), params[0])))

        assert grad_check(fn, [w], eps=1e-6) < 1e-8

    def test_two_layer_mlp_scalar_output(self):
        rng = np.random.default_rng(7)
        model = Mlp([3, 16, 16, 1], seed=2)
        x = rng.normal(size=(4, 3))

        def fn(params):
            return ad.nmean(model.forward(x, params))

        assert grad_check(fn, model.params(), eps=1e-6) < 1e-5

    def test_constant_function_zero_error(self):
        def fn(params):
            return Node(np.array(3.0))

        assert grad_check(fn, [np.ones(2)], eps=1e-6) == 0.0


def all_ops_graph(params):
    """A scalar graph through every engine op."""
    pa, pb, pc = params
    h = ad.matmul(pa, pb)                      # (3, 2)
    h = ad.add(h, pc)                          # broadcast bias
    h = ad.tanh(h)
    h = ad.concat([h, ad.square(h)], axis=1)   # (3, 4)
    h = ad.mul(h, 0.5)
    h = ad.sub(h, 0.1)
    h = ad.div(h, 2.0)
    h = ad.clip(h, -0.5, 0.5)  # inactive here; saturation tested separately
    g = ad.exp(ad.getitem(h, (slice(None), 0)))
    lse = ad.logsumexp(ad.reshape(h, (3, 4)), axis=1)
    return ad.nmean(ad.log(ad.add(g, 1.5))) + ad.nsum(lse) + ad.nmean(h)


class TestEngineOps:
    def test_all_ops_pass_grad_check(self):
        rng = np.random.default_rng(42)
        # centered so tanh stays in its active region (no vanishing gradients)
        a = rng.uniform(-0.6, 0.6, size=(3, 4))
        b = rng.uniform(-0.6, 0.6, size=(4, 2))
        c = rng.uniform(-0.6, 0.6, size=2)

        assert grad_check(all_ops_graph, [a, b, c], eps=1e-6) < 1e-5

    def test_backward_gives_every_reached_node_a_grad_of_its_shape(self):
        rng = np.random.default_rng(42)
        params = [Node(rng.uniform(-0.6, 0.6, size=shape)) for shape in ((3, 4), (4, 2), (2,))]
        out = all_ops_graph(params)
        backward(out)
        reached, stack = {}, [out]
        while stack:
            node = stack.pop()
            if id(node) not in reached:
                reached[id(node)] = node
                stack.extend(parent for parent, _ in node.parents)
        assert len(reached) > 20
        for node in reached.values():
            assert node.grad is not None and np.shape(node.grad) == node.value.shape

    def test_clip_saturation_blocks_gradient(self):
        x = Node(np.array([3.0, -3.0, 0.1]))
        out = ad.nsum(ad.clip(x, -1.0, 1.0))
        backward(out)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_logsumexp_matches_numpy(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 7))
        got = ad.logsumexp(Node(x), axis=1).value
        expected = np.log(np.exp(x).sum(axis=1))
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        w = np.array([1.0, -2.0])
        state = AdamState(lr=0.1)
        adam_step(state, [w], [np.zeros(2)])
        np.testing.assert_array_equal(w, [1.0, -2.0])

    def test_first_step_is_signed_learning_rate(self):
        w = np.array([0.0])
        state = AdamState(lr=0.01)
        adam_step(state, [w], [np.array([3.7])])
        assert w[0] == pytest.approx(-0.01, rel=1e-6)

    def test_quadratic_convergence_with_smoothed_monotonicity(self):
        # scalar recursion oracle: run it and freeze the qualitative contract
        w = np.array([0.0])
        state = AdamState(lr=0.1)
        dist = []
        for _ in range(100):
            g = 2 * (w - 2.0)
            adam_step(state, [w], [g])
            dist.append(abs(w[0] - 2.0))
        assert dist[-1] < 0.1
        windows = np.array(dist).reshape(5, 20).mean(axis=1)
        assert np.all(np.diff(windows[1:]) <= 0), windows  # monotone after burn-in

    def test_nonfinite_gradient_aborts(self):
        state = AdamState(lr=0.1)
        with pytest.raises(FloatingPointError):
            adam_step(state, [np.zeros(1)], [np.array([np.nan])])

    def test_shape_mismatch_rejected(self):
        state = AdamState(lr=0.1)
        with pytest.raises(ValueError):
            adam_step(state, [np.zeros(2)], [np.zeros(3)])


class TestSpectralNorm:
    def test_known_spectrum_normalized(self):
        W = np.diag([3.0, 1.0])
        W_eff, sigma, _ = spectral_normalize(W, n_power_iterations=20)
        assert sigma == pytest.approx(3.0, abs=1e-6)
        top = np.linalg.svd(W_eff, compute_uv=False)[0]
        assert top == pytest.approx(1.0, abs=1e-6)

    def test_already_normalized_nearly_unchanged(self):
        rng = np.random.default_rng(5)
        W = rng.normal(size=(6, 6))
        W /= np.linalg.svd(W, compute_uv=False)[0]
        W_eff, sigma, _ = spectral_normalize(W, n_power_iterations=50)
        assert sigma == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(W_eff, W, atol=1e-6)

    def test_random_matrix_matches_svd_oracle(self):
        rng = np.random.default_rng(8)
        W = rng.normal(size=(8, 8))
        _, sigma, _ = spectral_normalize(W, n_power_iterations=50)
        assert sigma == pytest.approx(np.linalg.svd(W, compute_uv=False)[0], abs=1e-4)

    def test_zero_matrix_guarded(self):
        W_eff, sigma, _ = spectral_normalize(np.zeros((3, 3)), n_power_iterations=5)
        assert np.all(np.isfinite(W_eff))

    def test_effective_sigma_stays_near_one_during_training(self):
        # train a spectral-normalized net on noise; sigma of the effective
        # weight must stay within [0.95, 1.05] throughout
        rng = np.random.default_rng(0)
        model = Mlp([2, 16, 1], seed=1, spectral_norm=True)
        state = AdamState(lr=3e-3)
        X, y = rng.normal(size=(64, 2)), rng.normal(size=(64, 1))
        for step in range(150):
            params = [Node(p) for p in model.params()]
            pred = model.forward(X, params)
            loss = ad.nmean(ad.square(ad.sub(pred, y)))
            backward(loss)
            adam_step(state, model.params(), ad.collect_grads(params))
            model.refresh_spectral_norm(n_power_iterations=1)
            if step % 10 == 0:
                for i in range(len(model.layers)):
                    top = np.linalg.svd(model.effective_weight(i).value, compute_uv=False)[0]
                    assert 0.95 <= top <= 1.05


class TestReproducibility:
    def test_training_bitwise_reproducible_given_seed(self):
        def run():
            rng = np.random.default_rng(123)
            model = Mlp([2, 8, 1], seed=9)
            state = AdamState(lr=1e-2)
            X, y = rng.normal(size=(32, 2)), rng.normal(size=(32, 1))
            for _ in range(40):
                params = [Node(p) for p in model.params()]
                loss = ad.nmean(ad.square(ad.sub(model.forward(X, params), y)))
                backward(loss)
                adam_step(state, model.params(), ad.collect_grads(params))
            return [p.copy() for p in model.params()]

        for p1, p2 in zip(run(), run()):
            np.testing.assert_array_equal(p1, p2)
