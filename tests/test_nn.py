import json

import numpy as np
import pytest

from carpool_rl.nn import Mlp, copy_weights


def straight_line_forward(net, x):
    """Recompute the forward pass with bare matrix arithmetic."""
    a = np.asarray(x, dtype=float)
    for k in range(net.n_layers):
        z = net.weights[k] @ a + net.biases[k]
        a = np.maximum(z, 0.0) if k < net.n_layers - 1 else z
    return a


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        net = Mlp([3, 4, 2])
        for w in net.weights:
            w[:] = 0.0
        out, _ = net.forward([1.0, -2.0, 3.0])
        assert np.all(out == 0.0)

    def test_identity_single_layer(self):
        net = Mlp([3, 3])
        net.weights[0] = np.eye(3)
        net.biases[0] = np.zeros(3)
        x = np.array([0.5, -1.5, 2.0])
        out, _ = net.forward(x)
        assert np.allclose(out, x)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(42)
        net = Mlp([4, 8, 8, 1], rng=rng)
        for _ in range(10):
            x = rng.normal(size=4)
            out, _ = net.forward(x)
            assert np.allclose(out, straight_line_forward(net, x), atol=1e-10)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        net = Mlp([4, 6, 2], rng=rng)
        xs = rng.normal(size=(5, 4))
        batch_out, _ = net.forward(xs)
        for i in range(5):
            single, _ = net.forward(xs[i])
            assert np.allclose(batch_out[i], single)

    def test_shape_mismatch_raises(self):
        net = Mlp([3, 2])
        with pytest.raises(ValueError):
            net.forward([1.0, 2.0])


class TestSgdStep:
    def test_zero_lr_leaves_parameters_unchanged(self):
        rng = np.random.default_rng(0)
        net = Mlp([2, 3, 1], rng=rng)
        before = [w.copy() for w in net.weights]
        net.sgd_step(rng.normal(size=(4, 2)), rng.normal(size=(4, 1)), lr=0.0)
        for w, b in zip(net.weights, before):
            assert np.array_equal(w, b)

    def test_single_neuron_matches_closed_form(self):
        # loss = (w x + b - y)^2 / 2 for one sample, so
        # dL/dw = (w x + b - y) x and dL/db = (w x + b - y).
        net = Mlp([1, 1])
        net.weights[0][:] = 0.7
        net.biases[0][:] = -0.2
        x, y, lr = 1.3, 2.0, 0.05
        resid = 0.7 * x - 0.2 - y
        expected_loss = 0.5 * resid ** 2
        loss = net.sgd_step([[x]], [[y]], lr)
        assert loss == pytest.approx(expected_loss, rel=1e-12)
        assert net.weights[0][0, 0] == pytest.approx(0.7 - lr * resid * x, rel=1e-12)
        assert net.biases[0][0] == pytest.approx(-0.2 - lr * resid, rel=1e-12)

    def test_converges_on_linear_target(self):
        rng = np.random.default_rng(5)
        net = Mlp([2, 1], rng=rng)
        x = rng.normal(size=(32, 2))
        y = (x @ np.array([0.3, -0.7]) + 0.2)[:, None]
        loss = None
        for _ in range(100):
            loss = net.sgd_step(x, y, lr=0.3)
        assert loss < 1e-3

    def test_loss_non_increasing_on_convex_problem(self):
        rng = np.random.default_rng(11)
        net = Mlp([3, 1], rng=rng)
        x = rng.normal(size=(16, 3))
        y = rng.normal(size=(16, 1))
        losses = [net.sgd_step(x, y, lr=0.05) for _ in range(50)]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_empty_batch_raises(self):
        net = Mlp([2, 1])
        with pytest.raises(ValueError):
            net.sgd_step(np.empty((0, 2)), np.empty((0, 1)), lr=0.1)

    def test_nonfinite_loss_raises(self):
        net = Mlp([1, 1])
        net.weights[0][:] = 1e200
        with np.errstate(over="ignore"):  # overflow is the point here
            with pytest.raises(RuntimeError):
                net.sgd_step([[1e200]], [[0.0]], lr=0.1)


class TestGradientCheck:
    def test_random_net_below_1e4(self):
        rng = np.random.default_rng(100)
        net = Mlp([3, 8, 8, 2], rng=rng)
        x = rng.normal(size=(2, 3))
        y = rng.normal(size=(2, 2))
        assert net.gradient_check(x, y) < 1e-4

    def test_linear_net_nearly_exact(self):
        rng = np.random.default_rng(101)
        net = Mlp([4, 3], rng=rng)
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=(3, 3))
        assert net.gradient_check(x, y) < 1e-7

    def test_zero_everything_passes(self):
        net = Mlp([2, 2, 1])
        for w in net.weights:
            w[:] = 0.0
        assert net.gradient_check([[0.0, 0.0]], [[0.0]]) < 1e-7


class TestCopyWeights:
    def test_forward_agreement_after_copy(self):
        rng = np.random.default_rng(1)
        a = Mlp([3, 5, 2], rng=rng)
        b = Mlp([3, 5, 2], rng=np.random.default_rng(999))
        copy_weights(a, b)
        for _ in range(5):
            x = rng.normal(size=3)
            ya, _ = a.forward(x)
            yb, _ = b.forward(x)
            assert np.array_equal(ya, yb)

    def test_copies_are_independent(self):
        a = Mlp([2, 2])
        b = Mlp([2, 2])
        copy_weights(a, b)
        snapshot = [w.copy() for w in b.weights]
        a.weights[0][:] += 1.0
        for w, s in zip(b.weights, snapshot):
            assert np.array_equal(w, s)

    def test_idempotent(self):
        a = Mlp([2, 3, 1], rng=np.random.default_rng(4))
        b = Mlp([2, 3, 1])
        copy_weights(a, b)
        first = [w.copy() for w in b.weights]
        copy_weights(a, b)
        for w, f in zip(b.weights, first):
            assert np.array_equal(w, f)

    def test_architecture_mismatch(self):
        with pytest.raises(ValueError):
            copy_weights(Mlp([2, 2]), Mlp([2, 3]))


class TestDeterminismAndSerialization:
    def test_same_seed_same_net(self):
        a = Mlp([3, 4, 1], rng=np.random.default_rng(77))
        b = Mlp([3, 4, 1], rng=np.random.default_rng(77))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_training_deterministic(self):
        def run():
            rng = np.random.default_rng(8)
            net = Mlp([2, 4, 1], rng=rng)
            x = rng.normal(size=(10, 2))
            y = rng.normal(size=(10, 1))
            for _ in range(20):
                net.sgd_step(x, y, lr=0.05)
            return net.forward(np.ones(2))[0]

        assert np.array_equal(run(), run())

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        net = Mlp([3, 6, 2], rng=rng)
        path = tmp_path / "net.json"
        net.save(path)
        loaded = Mlp.load(path)
        x = rng.normal(size=3)
        assert np.array_equal(net.forward(x)[0], loaded.forward(x)[0])

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "mlp/999"}')
        with pytest.raises(ValueError):
            Mlp.load(path)

    def test_load_rejects_non_relu_activation(self, tmp_path):
        path = tmp_path / "net.json"
        Mlp([2, 3, 1]).save(path)
        payload = json.loads(path.read_text())
        assert payload["activation"] == "relu"
        payload["activation"] = "tanh"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="activation"):
            Mlp.load(path)


    def test_load_rejects_transposed_weights(self, tmp_path):
        path = tmp_path / "net.json"
        Mlp([3, 5, 2]).save(path)
        payload = json.loads(path.read_text())
        payload["weights"][1] = np.array(payload["weights"][1]).T.tolist()
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="layer 1 weights"):
            Mlp.load(path)

    @pytest.mark.parametrize("array, value", [
        ("weights", float("nan")), ("weights", float("inf")),
        ("biases", float("-inf"))])
    def test_load_rejects_non_finite_arrays(self, tmp_path, array, value):
        path = tmp_path / "net.json"
        Mlp([3, 5, 2]).save(path)
        payload = json.loads(path.read_text())
        if array == "weights":
            payload["weights"][1][0][2] = value
        else:
            payload["biases"][1][0] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="layer 1 holds non-finite"):
            Mlp.load(path)
