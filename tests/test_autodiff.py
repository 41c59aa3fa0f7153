"""Tests for the layer tape, MLPs, Adam and spectral normalization, and for
the test-side graph engine that is their bit-parity reference."""
from pathlib import Path

import numpy as np
import pytest

import graph_reference as gr
from graph_reference import Node, flat_grads, grad_check
from ndilab import autodiff
from ndilab.autodiff import (
    AdamState,
    Mlp,
    MlpStack,
    adam_step,
    param_count,
    spectral_normalize,
)
from ndilab.density import MadeModel


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


def tape_nets():
    """One net of each kind the forward handles: plain, MADE-masked,
    spectral-normalized, and both."""
    return {
        "plain": Mlp([4, 16, 16, 2], seed=3),
        "masked": MadeModel(4, hidden=(16, 16), n_components=2, spectral_norm=False).net,
        "spectral": Mlp([4, 16, 16, 2], seed=5, spectral_norm=True),
        "masked_spectral": MadeModel(4, hidden=(16, 16), n_components=2, seed=7).net,
    }


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestLayerTape:
    """``Mlp.__call__``/``forward`` and ``autodiff.backward`` against the
    reference graph and its ``backward``: equal byte for byte."""

    @pytest.mark.parametrize("kind", list(tape_nets()))
    @pytest.mark.parametrize("shape", [(4,), (1, 4), (96, 4)])
    def test_call_equals_the_graph_forward_value(self, kind, shape):
        net = tape_nets()[kind]
        x = np.random.default_rng(8).normal(size=shape)
        assert_same_bytes(net(x), gr.mlp_forward(net, x).value)
        tape = net.forward(x)
        assert len(tape) == len(net.layers) + 1
        assert_same_bytes(tape[-1], net(x))

    @pytest.mark.parametrize("kind", list(tape_nets()))
    def test_wrong_input_width_rejected(self, kind):
        net = tape_nets()[kind]
        for x in (np.zeros(5), np.zeros((3, 5))):
            with pytest.raises(ValueError, match="input width 5"):
                net(x)

    @pytest.mark.parametrize("kind", list(tape_nets()))
    @pytest.mark.parametrize("rows", [1, 96])
    def test_backward_tape_equals_the_graph_gradients(self, kind, rows):
        net = tape_nets()[kind]
        rng = np.random.default_rng(9)
        x = rng.normal(size=(rows, 4))
        upstream = rng.normal(size=(rows, net.widths[-1]))
        params = [Node(p) for p in net.params()]
        gr.backward(gr.nsum(gr.mul(gr.mlp_forward(net, x, params), upstream)))
        assert_same_bytes(autodiff.backward(net, net.forward(x), upstream), flat_grads(params))

    @pytest.mark.parametrize("kind", list(tape_nets()))
    def test_input_grad_equals_the_graph_input_gradient(self, kind):
        net = tape_nets()[kind]
        rng = np.random.default_rng(10)
        x = rng.normal(size=(33, 4))
        upstream = rng.normal(size=(33, net.widths[-1]))
        x_node = Node(x)
        gr.backward(gr.nsum(gr.mul(gr.mlp_forward(net, x_node), upstream)))
        assert_same_bytes(autodiff.input_grad(net, net.forward(x), upstream), x_node.grad)


class TestMlpStack:
    """Each slice of the shared tape, ``backward`` and ``input_grad`` run on a
    stack against the same function on its own net, and against the graph:
    equal byte for byte."""

    def test_nets_are_rows_of_one_array_and_match_lone_nets(self):
        stack = MlpStack([4, 8, 8, 1], seeds=(3, 4))
        assert stack.flat.shape == (2, param_count([4, 8, 8, 1]))
        for row, (net, seed) in zip(stack.flat, zip(stack.nets, (3, 4))):
            assert_same_bytes(net.flat, Mlp([4, 8, 8, 1], seed=seed).flat)
            assert np.shares_memory(net.flat, stack.flat)
            assert all(np.shares_memory(p, row) for p in net.params())
        for views in (stack.weights, stack.biases):
            assert all(np.shares_memory(v, stack.flat) for v in views)
        for i, layer in enumerate(stack.nets[1].layers):
            assert_same_bytes(stack.weight(i)[1], layer.weight)
            assert_same_bytes(stack.biases[i][1, 0], layer.bias)
            g = np.ones(stack.weight(i).shape)
            assert stack.weight_vjp(i, g) is g

    @pytest.mark.parametrize("rows", [1, 47, 96])
    def test_passes_equal_the_lone_net_tapes(self, rows):
        stack = MlpStack([4, 32, 32, 1], seeds=(1, 2))
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(2, rows, 4))
        upstream = rng.normal(size=(2, rows, 1))
        tape = stack.forward(x)
        flat_grad = autodiff.backward(stack, tape, upstream)
        x_grad = autodiff.input_grad(stack, tape, upstream)
        assert flat_grad.shape == stack.flat.shape and x_grad.shape == x.shape
        for j, net in enumerate(stack.nets):
            lone = net.forward(x[j])
            for got, want in zip(tape, lone):
                assert_same_bytes(got[j], want)
            assert_same_bytes(flat_grad[j], autodiff.backward(net, lone, upstream[j]))
            assert_same_bytes(x_grad[j], autodiff.input_grad(net, lone, upstream[j]))
            params, x_node = [Node(p) for p in net.params()], Node(x[j])
            gr.backward(gr.nsum(gr.mul(gr.mlp_forward(net, x_node, params), upstream[j])))
            assert_same_bytes(flat_grad[j], flat_grads(params))
            assert_same_bytes(x_grad[j], x_node.grad)

    def test_wrong_input_shape_rejected(self):
        stack = MlpStack([4, 8, 1], seeds=(0, 1))
        for x in (np.zeros((3, 4)), np.zeros((3, 5, 4)), np.zeros((2, 5, 3))):
            with pytest.raises(ValueError, match="input shape"):
                stack.forward(x)

    def test_supplied_storage_must_fit(self):
        with pytest.raises(ValueError, match="flat storage"):
            Mlp([3, 4, 1], flat=np.zeros(param_count([3, 4, 1]) + 1))


class TestBackward:
    def test_square_at_three(self):
        w = Node(np.array(3.0))
        out = gr.mul(w, w)
        gr.backward(out)
        assert w.grad == pytest.approx(6.0)

    def test_tanh_chain_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 4))

        def fn(params):
            h = gr.tanh(gr.matmul(params[0], params[0]))
            return gr.nsum(gr.tanh(gr.nsum(h, axis=1)))

        assert grad_check(fn, [w], eps=1e-6) < 1e-6

    def test_disconnected_parameter_gets_zero(self):
        a, b = Node(np.array(2.0)), Node(np.array(5.0))
        out = gr.mul(a, a)
        gr.backward(out)
        assert b.grad is None  # never touched by the graph

    def test_nonscalar_output_rejected(self):
        x = Node(np.zeros(3))
        with pytest.raises(ValueError):
            gr.backward(gr.exp(x))

    def test_each_node_visited_once(self):
        # diamond graph: y = (x + x) * (x + x); gradient must be 8x, not doubled
        x = Node(np.array(1.5))
        s = gr.add(x, x)
        out = gr.mul(s, s)
        gr.backward(out)
        assert x.grad == pytest.approx(8 * 1.5)

    def test_constant_node_zero_gradient(self):
        x = Node(np.array(2.0))
        c = Node(np.array(7.0))
        out = gr.mul(x, gr.add(gr.mul(c, 0.0), 1.0))
        gr.backward(out)
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
        gr.backward(gr.nsum(gr.mul(out, rng.normal(size=(5, 4)))))
        return out.value, h.grad, W.grad, b.grad

    @pytest.mark.parametrize("activate", [True, False])
    @pytest.mark.parametrize("masked_spectral", [False, True])
    def test_value_and_gradients_equal_the_op_chain(self, activate, masked_spectral):
        model = Mlp([3, 4], seed=1, spectral_norm=True,
                    masks=[np.random.default_rng(2).integers(0, 2, size=(4, 3)).astype(float)])

        def weight_node(W):
            return gr.effective_weight(model, 0, W) if masked_spectral else W

        def chain(h, W, b):
            pre = gr.add(gr.matmul(h, gr.transpose(W)), b)
            return gr.tanh(pre) if activate else pre

        def fused(h, W, b):
            return gr.dense(h, W, b, activate=activate)

        for want, got in zip(self.run(chain, weight_node), self.run(fused, weight_node)):
            np.testing.assert_array_equal(got, want)

    def test_backward_from_a_second_output_uses_its_own_upstream_gradient(self):
        rng = np.random.default_rng(6)
        h, weight = rng.normal(size=(4, 3)), rng.normal(size=(2, 3))

        def w_grad(earlier_backward: bool):
            W = Node(weight)
            out = gr.dense(h, W, np.zeros(2))
            if earlier_backward:
                gr.backward(gr.nsum(out))
            gr.backward(gr.nsum(gr.square(out)))
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
        flat_state = AdamState(lr=1e-2)
        split_states = [AdamState(lr=1e-2) for _ in split_model.params()]
        for _ in range(50):
            for model in (flat_model, split_model):
                params = [Node(p) for p in model.params()]
                gr.backward(gr.nmean(gr.square(gr.sub(gr.mlp_forward(model, X, params), y))))
                if model is flat_model:
                    adam_step(flat_state, model.flat, gr.flat_grads(params))
                else:
                    for state, p, g in zip(split_states, model.params(),
                                           gr.collect_grads(params)):
                        adam_step(state, p, g)
        np.testing.assert_array_equal(flat_model.flat, split_model.flat)


class TestGradCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 3))
        w = rng.normal(size=(3, 1))

        def fn(params):
            return gr.nsum(gr.matmul(gr.transpose(params[0]), gr.matmul(Node(A), params[0])))

        assert grad_check(fn, [w], eps=1e-6) < 1e-8

    def test_two_layer_mlp_scalar_output(self):
        rng = np.random.default_rng(7)
        model = Mlp([3, 16, 16, 1], seed=2)
        x = rng.normal(size=(4, 3))

        def fn(params):
            return gr.nmean(gr.mlp_forward(model, x, params))

        assert grad_check(fn, model.params(), eps=1e-6) < 1e-5

    def test_constant_function_zero_error(self):
        def fn(params):
            return Node(np.array(3.0))

        assert grad_check(fn, [np.ones(2)], eps=1e-6) == 0.0


def all_ops_graph(params):
    """A scalar graph through every engine op."""
    pa, pb, pc = params
    h = gr.matmul(pa, pb)                      # (3, 2)
    h = gr.add(h, pc)                          # broadcast bias
    h = gr.tanh(h)
    h = gr.add(h, gr.square(h))
    h = gr.mul(h, 0.5)
    h = gr.sub(h, 0.1)
    h = gr.clip(h, -0.5, 0.5)  # inactive here; saturation tested separately
    g = gr.exp(gr.getitem(h, (slice(None), 0)))
    lse = gr.logsumexp(gr.reshape(h, (2, 3)), axis=1)
    return gr.add(gr.add(gr.nmean(g), gr.nsum(lse)), gr.nmean(h))


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
        gr.backward(out)
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
        out = gr.nsum(gr.clip(x, -1.0, 1.0))
        gr.backward(out)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_logsumexp_matches_numpy(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 7))
        got = gr.logsumexp(Node(x), axis=1).value
        expected = np.log(np.exp(x).sum(axis=1))
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        w = np.array([1.0, -2.0])
        state = AdamState(lr=0.1)
        adam_step(state, w, np.zeros(2))
        np.testing.assert_array_equal(w, [1.0, -2.0])

    def test_first_step_is_signed_learning_rate(self):
        w = np.array([0.0])
        state = AdamState(lr=0.01)
        adam_step(state, w, np.array([3.7]))
        assert w[0] == pytest.approx(-0.01, rel=1e-6)

    def test_quadratic_convergence_with_smoothed_monotonicity(self):
        # scalar recursion oracle: run it and freeze the qualitative contract
        w = np.array([0.0])
        state = AdamState(lr=0.1)
        dist = []
        for _ in range(100):
            g = 2 * (w - 2.0)
            adam_step(state, w, g)
            dist.append(abs(w[0] - 2.0))
        assert dist[-1] < 0.1
        windows = np.array(dist).reshape(5, 20).mean(axis=1)
        assert np.all(np.diff(windows[1:]) <= 0), windows  # monotone after burn-in

    def test_nonfinite_gradient_aborts(self):
        state = AdamState(lr=0.1)
        with pytest.raises(FloatingPointError):
            adam_step(state, np.zeros(1), np.array([np.nan]))

    def test_shape_mismatch_rejected(self):
        state = AdamState(lr=0.1)
        with pytest.raises(ValueError):
            adam_step(state, np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("bad", [1e200, -1e200, np.inf, np.nan])
    def test_gradient_whose_square_overflows_aborts_before_any_update(self, bad):
        w = np.array([0.5, -1.0])
        state = AdamState(lr=0.1)
        adam_step(state, w, np.array([0.3, -0.2]))
        before = [a.copy() for a in (w, state.m, state.v)]
        with pytest.raises(FloatingPointError):
            adam_step(state, w, np.array([0.1, bad]))
        for got, want in zip((w, state.m, state.v), before):
            assert got.tobytes() == want.tobytes()
        assert state.step_count == 1

    def test_largest_gradient_with_a_finite_square_is_accepted(self):
        w = np.zeros(1)
        state = AdamState(lr=0.1)
        adam_step(state, w, np.array([np.nextafter(autodiff.GRAD_BOUND, 0.0)]))
        assert np.isfinite(state.v).all() and w[0] == pytest.approx(-0.1)


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
            pred = gr.mlp_forward(model, X, params)
            loss = gr.nmean(gr.square(gr.sub(pred, y)))
            gr.backward(loss)
            adam_step(state, model.flat, gr.flat_grads(params))
            model.refresh_spectral_norm(n_power_iterations=1)
            if step % 10 == 0:
                for i in range(len(model.layers)):
                    top = np.linalg.svd(model.weight(i), compute_uv=False)[0]
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
                loss = gr.nmean(gr.square(gr.sub(gr.mlp_forward(model, X, params), y)))
                gr.backward(loss)
                adam_step(state, model.flat, gr.flat_grads(params))
            return [p.copy() for p in model.params()]

        for p1, p2 in zip(run(), run()):
            np.testing.assert_array_equal(p1, p2)


def test_the_package_builds_no_graph():
    for path in Path(autodiff.__file__).parent.glob("*.py"):
        assert "Node" not in path.read_text(), path
