import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcheck import gradient_check
from jsonfuzz import JSON_VALUES, key_paths, with_value

from carpool_rl.agents import DqnAgent
from carpool_rl.config import DqnConfig
from carpool_rl.geo import Bbox, GeoPoint
from carpool_rl.nn import Mlp, copy_weights, half_mse
from carpool_rl.simulator import DriverState


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
        out, _ = net.forward([[1.0, -2.0, 3.0]])
        assert np.all(out == 0.0)

    def test_identity_single_layer(self):
        net = Mlp([3, 3])
        net.weights[0][:] = np.eye(3)
        net.biases[0][:] = np.zeros(3)
        x = np.array([0.5, -1.5, 2.0])
        out, _ = net.forward(x[None])
        assert np.allclose(out[0], x)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(42)
        net = Mlp([4, 8, 8, 1], rng=rng)
        for _ in range(10):
            x = rng.normal(size=4)
            out, _ = net.forward(x[None])
            assert np.allclose(out[0], straight_line_forward(net, x), atol=1e-10)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        net = Mlp([4, 6, 2], rng=rng)
        xs = rng.normal(size=(5, 4))
        batch_out, _ = net.forward(xs)
        for i in range(5):
            single, _ = net.forward(xs[i][None])
            assert np.allclose(batch_out[i], single[0])

    def test_shape_mismatch_raises(self):
        net = Mlp([3, 2])
        with pytest.raises(ValueError):
            net.forward([[1.0, 2.0]])
        for x in (np.ones((4, 2)), np.ones(3), np.ones((2, 1, 3))):
            with pytest.raises(ValueError):
                net.forward_rows(x)

    @pytest.mark.parametrize("sizes", [[3.9, 4, 2], [True, 4, 2], [3, 4.0, 2],
                                       [3, 0, 2], [3], []],
                             ids=["float", "bool", "whole-float", "zero",
                                  "one", "none"])
    def test_layer_sizes_must_be_positive_ints(self, sizes):
        with pytest.raises(ValueError, match="Mlp: bad layer sizes"):
            Mlp(sizes)

    def test_forward_and_backward_take_batches_only(self):
        net = Mlp([3, 4, 2])
        with pytest.raises(ValueError, match=r"\(3,\)"):
            net.forward(np.ones(3))
        out, cache = net.forward(np.ones((1, 3)))
        with pytest.raises(ValueError, match=r"\(2,\)"):
            net.backward(cache, np.ones(2))


class TestHalfMse:
    """The one training loss: shapes must match, the loss must be finite."""

    def test_value_and_gradient(self):
        pred = np.array([[1.0, 2.0], [3.0, 5.0]])
        target = np.array([[0.0, 2.0], [3.0, 3.0]])
        loss, grad = half_mse(pred, target)
        assert loss == (1.0 + 4.0) / 4.0
        assert np.array_equal(grad, (pred - target) / 2.0)

    def test_column_against_flat_target_raises(self):
        # Broadcasting would compare every pair: a 3x3 difference.
        with pytest.raises(ValueError, match=r"\(3, 1\).*\(3,\)"):
            half_mse(np.zeros((3, 1)), np.array([0.0, 0.5, 0.0]))

    def test_sgd_step_rejects_a_broadcast_target(self):
        rng = np.random.default_rng(2)
        net = Mlp([2, 4, 3], rng=rng)
        before = net.params.copy()
        with pytest.raises(ValueError, match=r"\(4, 3\).*\(1, 3\)"):
            net.sgd_step(rng.normal(size=(4, 2)), rng.normal(size=(1, 3)), 0.1)
        assert np.array_equal(net.params, before)

    def test_overflowing_prediction_raises(self):
        with np.errstate(over="ignore"):  # overflow is the point here
            with pytest.raises(RuntimeError, match="non-finite training loss"):
                half_mse(np.array([[1e200], [0.0]]), np.zeros((2, 1)))


# The layer stacks the package builds: the DQN (3 features, 3 actions), the
# joint ETA's default trunk, distance head and time net, and the time-only
# baseline.
PACKAGE_STACKS = [[3, 64, 64, 3], [4, 64, 64, 32], [32, 1], [33, 64, 64, 1],
                  [5, 64, 64, 1]]
# Around one row block (256 rows), and about one eta_fit test split.
ROW_COUNTS = [0, 1, 255, 256, 257, 2000]


def random_net(sizes, rng):
    net = Mlp(sizes, rng=rng)
    for b in net.biases:
        b[:] = rng.normal(size=b.shape)
    return net


def assert_row_exact(net, x):
    out = net.forward_rows(x)
    assert out.shape == (len(x), net.output_width)
    for i in range(len(x)):
        assert out[i].tobytes() == net.forward(x[i:i + 1])[0][0].tobytes()


class TestForwardRows:
    """Row ``i`` of ``forward_rows(x)`` has the bytes of the one-row
    ``forward(x[i:i+1])``, for any number of rows."""

    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize("sizes", PACKAGE_STACKS, ids=str)
    def test_package_stacks(self, sizes, n):
        rng = np.random.default_rng(n)
        net = random_net(sizes, rng)
        assert_row_exact(net, rng.normal(size=(n, sizes[0])))

    @pytest.mark.parametrize("sizes", PACKAGE_STACKS, ids=str)
    def test_column_sliced_input(self, sizes):
        rng = np.random.default_rng(7)
        net = random_net(sizes, rng)
        wide = rng.normal(size=(300, sizes[0] + 3))
        x = wide[:, 1:sizes[0] + 1]
        assert not x.flags.c_contiguous
        assert_row_exact(net, x)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(1, 48), min_size=2, max_size=5),
           st.sampled_from(ROW_COUNTS), st.integers(0, 2 ** 32 - 1))
    def test_random_stacks(self, sizes, n, seed):
        rng = np.random.default_rng(seed)
        net = random_net(sizes, rng)
        assert_row_exact(net, rng.normal(scale=3.0, size=(n, sizes[0])))

    @given(st.floats(40.715, 40.735), st.floats(-74.0094, -73.9894),
           st.floats(0.0, 86399.0))
    def test_dqn_q_values_keep_the_one_row_forward_bytes(self, lat, lon, t):
        agent = DqnAgent(Bbox(40.715, 40.735, -74.0094, -73.9894),
                         DqnConfig(), seed=3)
        agent.online = random_net(agent.online.layer_sizes,
                                  np.random.default_rng(3))
        s = DriverState(GeoPoint(lat, lon), t)
        want, _ = agent.online.forward(agent.features(s)[None])
        assert agent.q_values(s).tobytes() == want[0].tobytes()


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
        assert gradient_check(net, x, y) < 1e-4

    def test_linear_net_nearly_exact(self):
        rng = np.random.default_rng(101)
        net = Mlp([4, 3], rng=rng)
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=(3, 3))
        assert gradient_check(net, x, y) < 1e-7

    def test_zero_everything_passes(self):
        net = Mlp([2, 2, 1])
        for w in net.weights:
            w[:] = 0.0
        assert gradient_check(net, [[0.0, 0.0]], [[0.0]]) < 1e-7


class TestCopyWeights:
    def test_forward_agreement_after_copy(self):
        rng = np.random.default_rng(1)
        a = Mlp([3, 5, 2], rng=rng)
        b = Mlp([3, 5, 2], rng=np.random.default_rng(999))
        copy_weights(a, b)
        for _ in range(5):
            x = rng.normal(size=3)
            ya, _ = a.forward(x[None])
            yb, _ = b.forward(x[None])
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


def assert_on_buffers(net):
    """Every weight and bias is a view of ``params``, every gradient a view
    of ``grad``, and the views tile each buffer exactly."""
    out, cache = net.forward(np.ones((2, net.input_width)))
    net.backward(cache, np.ones_like(out))
    for arrays, buf in ((net.weights + net.biases, net.params),
                        ([a for pair in net.grads for a in pair], net.grad)):
        assert all(np.shares_memory(a, buf) for a in arrays)
        assert sum(a.size for a in arrays) == buf.size


class TestFlatBuffer:
    """One ``params`` and one ``grad`` vector per net; layers are views."""

    def test_views_survive_load_copy_and_training(self, tmp_path):
        rng = np.random.default_rng(12)
        net = Mlp([3, 5, 4, 2], rng=rng)
        assert_on_buffers(net)
        net.save(tmp_path / "net.json")
        loaded = Mlp.load(tmp_path / "net.json")
        assert_on_buffers(loaded)
        copy_weights(net, loaded)
        assert_on_buffers(loaded)
        x, y = rng.normal(size=(8, 3)), rng.normal(size=(8, 2))
        for _ in range(50):
            loaded.sgd_step(x, y, lr=0.01)
        assert_on_buffers(loaded)

    def test_layers_cannot_be_rebound(self):
        net = Mlp([3, 4, 2])
        with pytest.raises(TypeError):
            net.weights[0] = np.zeros((4, 3))
        with pytest.raises(TypeError):
            net.biases[1] = np.zeros(2)

    def test_update_matches_per_layer_reference_bitwise(self):
        rng = np.random.default_rng(13)
        net = random_net([4, 16, 8, 3], rng)
        x, y, lr = rng.normal(size=(32, 4)), rng.normal(size=(32, 3)), 0.037
        out, cache = net.forward(x)
        _, gout = half_mse(out, y)
        net.backward(cache, gout)
        want = [(w - lr * dw, b - lr * db)
                for w, b, (dw, db) in zip(net.weights, net.biases, net.grads)]
        net.apply_gradients(lr)
        for (w, b), (w_ref, b_ref) in zip(zip(net.weights, net.biases), want):
            assert w.tobytes() == w_ref.tobytes()
            assert b.tobytes() == b_ref.tobytes()

    def test_non_finite_gradient_raises(self):
        # Zero weights keep the outputs and the loss finite; the weight
        # gradient sums two rows of 1e308 and overflows.
        net = Mlp([1, 1])
        net.weights[0][:] = 0.0
        with np.errstate(over="ignore"):
            with pytest.raises(RuntimeError, match="non-finite gradient"):
                net.sgd_step([[1e308], [1e308]], [[2.0], [2.0]], lr=0.1)

    def test_loaded_net_trains_like_the_original(self, tmp_path):
        rng = np.random.default_rng(14)
        net = random_net([3, 6, 2], rng)
        net.save(tmp_path / "net.json")
        loaded = Mlp.load(tmp_path / "net.json")
        before = loaded.weights[0].copy()
        x, y = rng.normal(size=(8, 3)), rng.normal(size=(8, 2))
        for _ in range(5):
            assert net.sgd_step(x, y, 0.05) == loaded.sgd_step(x, y, 0.05)
        assert not np.array_equal(loaded.weights[0], before)
        assert loaded.params.tobytes() == net.params.tobytes()


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
            return net.forward(np.ones(2)[None])[0][0]

        assert np.array_equal(run(), run())

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        net = Mlp([3, 6, 2], rng=rng)
        path = tmp_path / "net.json"
        net.save(path)
        loaded = Mlp.load(path)
        x = rng.normal(size=3)
        assert np.array_equal(net.forward(x[None])[0][0], loaded.forward(x[None])[0][0])

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


    @pytest.mark.parametrize("drop, match", [
        (None, "expected a JSON object, not list"),
        ("layer_sizes", "missing key 'layer_sizes'"),
        ("weights", "missing key 'weights'"),
        ("biases", "missing key 'biases'")])
    def test_load_rejects_malformed_checkpoint(self, tmp_path, drop, match):
        path = tmp_path / "net.json"
        Mlp([3, 5, 2]).save(path)
        payload = json.loads(path.read_text())
        if drop is None:
            payload = [payload]
        else:
            del payload[drop]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match) as info:
            Mlp.load(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("key, value, match", [
        ("weights", 5, "'weights' is not a JSON list of lists of lists of numbers"),
        ("weights", [[["a"]]], "'weights' is not a JSON list of lists of lists"),
        ("biases", [[0.0], ["a"]], "'biases' is not a JSON list of lists of numbers"),
        ("layer_sizes", 7, "'layer_sizes' is not a JSON list of ints"),
        ("layer_sizes", [3.9, 5, 2], "'layer_sizes' is not a JSON list of ints"),
        ("layer_sizes", [True, 5, 2], "'layer_sizes' is not a JSON list of ints"),
        ("layer_sizes", [3, 0, 2], r"bad layer sizes: \[3, 0, 2\]"),
        ("layer_sizes", [3], r"bad layer sizes: \[3\]"),
        ("format", None, "'format' is not a JSON str"),
    ], ids=["weights-int", "weights-string", "biases-string", "sizes-int",
            "sizes-float", "sizes-bool", "sizes-zero", "sizes-one", "format-null"])
    def test_load_names_the_file_and_key_of_a_mistyped_value(self, tmp_path, key,
                                                            value, match):
        path = tmp_path / "net.json"
        Mlp([3, 5, 2]).save(path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, key: value}))
        with pytest.raises(ValueError, match=match) as info:
            Mlp.load(path)
        assert str(path) in str(info.value)

    def test_load_rejects_a_string_inside_the_weights(self, tmp_path):
        path = tmp_path / "net.json"
        Mlp([3, 5, 2]).save(path)
        payload = json.loads(path.read_text())
        payload["weights"][1][0][2] = "a"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: 'weights' is not a JSON")):
            Mlp.load(path)

    @pytest.mark.parametrize("sizes", [[3, 10**12, 2], [10**12, 5, 2],
                                       [3, 5, 2, 10**12], [3, 5]])
    def test_load_checks_every_shape_before_allocating(self, tmp_path,
                                                       monkeypatch, sizes):
        path = tmp_path / "net.json"
        Mlp([3, 5, 2]).save(path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, "layer_sizes": sizes}))

        def no_allocation(net):
            raise AssertionError(f"allocated for {net.layer_sizes}")

        monkeypatch.setattr(Mlp, "_bind", no_allocation)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            Mlp.load(path)

    def test_load_rejects_a_ragged_weight_row(self, tmp_path):
        path = tmp_path / "net.json"
        Mlp([3, 5, 2]).save(path)
        payload = json.loads(path.read_text())
        payload["weights"][0][4] = payload["weights"][0][4][:2]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="layer 0 weights"):
            Mlp.load(path)

    @given(st.data(), JSON_VALUES)
    def test_any_json_value_at_any_key_loads_or_names_the_file(
            self, tmp_path_factory, data, value):
        net = Mlp([3, 5, 2])
        path = tmp_path_factory.getbasetemp() / "fuzzed_net.json"
        net.save(path)
        payload = json.loads(path.read_text())
        key = data.draw(st.sampled_from(sorted(key_paths(payload))))
        path.write_text(json.dumps(with_value(payload, key, value)))
        bind = Mlp._bind

        def bind_saved_sizes_only(m):
            assert m.layer_sizes == net.layer_sizes
            bind(m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Mlp, "_bind", bind_saved_sizes_only)
            try:
                loaded = Mlp.load(path)
            except ValueError as exc:
                assert str(path) in str(exc)
            else:
                assert np.array_equal(loaded.params, net.params)

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
