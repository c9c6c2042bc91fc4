import math

import numpy as np
import numpy.testing as npt
import pytest

from botclf import layers, network, synth, training
from botclf.dataio import Dataset
from botclf.errors import ConfigError, DataError, NumericError
from botclf.numerics import make_rng, softmax
from botclf.training import TrainConfig
from oracles import rmsprop_step_per_array


def one_hot(labels, k=6):
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 4
        assert cfg.batch_size == 10
        assert cfg.learning_rate == 1e-3
        assert cfg.rms_decay == 0.9
        assert cfg.rms_epsilon == 1e-7
        assert cfg.validation_fraction == 0.10

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0}, {"batch_size": 0}, {"validation_fraction": 0.0},
        {"validation_fraction": 1.0}, {"rms_decay": 1.0},
    ])
    def test_invariants(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("name,value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", -1e-3),
        ("rms_epsilon", math.nan), ("rms_epsilon", math.inf), ("rms_epsilon", 0.0),
    ])
    def test_non_finite_or_negative_rates_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            TrainConfig(**{name: value})


class TestCrossEntropy:
    def test_perfect_prediction(self):
        probs = one_hot([2, 4])
        loss, _ = training.cross_entropy(probs, one_hot([2, 4]))
        assert loss == 0.0

    def test_uniform_prediction(self):
        probs = np.full((3, 6), 1 / 6)
        loss, _ = training.cross_entropy(probs, one_hot([0, 3, 5]))
        assert loss == pytest.approx(math.log(6), rel=1e-12)

    def test_logit_gradient(self):
        probs = softmax(make_rng(0).normal(size=(4, 6)))
        targets = one_hot([1, 0, 5, 2])
        _, dlogits = training.cross_entropy(probs, targets)
        npt.assert_allclose(dlogits, (probs - targets) / 4, atol=1e-15)

    def test_logit_gradient_against_finite_differences(self):
        rng = make_rng(1)
        logits = rng.normal(size=(3, 6))
        targets = one_hot([4, 2, 0])

        def loss_at(lg):
            loss, _ = training.cross_entropy(softmax(lg), targets)
            return loss

        _, dlogits = training.cross_entropy(softmax(logits), targets)
        h = 1e-6
        for _ in range(20):
            i = int(rng.integers(0, 3))
            j = int(rng.integers(0, 6))
            bumped = logits.copy()
            bumped[i, j] += h
            lp = loss_at(bumped)
            bumped[i, j] -= 2 * h
            lm = loss_at(bumped)
            numeric = (lp - lm) / (2 * h)
            analytic = dlogits[i, j]
            assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-9) < 1e-6

    def test_clamped_loss_is_finite(self):
        probs = one_hot([0, 1])  # zero probability on the true class below
        loss, _ = training.cross_entropy(probs, one_hot([1, 0]))
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12), rel=1e-9)

    def test_rejects_non_one_hot(self):
        probs = np.full((2, 6), 1 / 6)
        bad = np.full((2, 6), 1 / 6)
        with pytest.raises(ValueError):
            training.cross_entropy(probs, bad)
        two_hot = one_hot([0, 1])
        two_hot[0, 3] = 1.0
        with pytest.raises(ValueError):
            training.cross_entropy(probs, two_hot)


class TestRmsProp:
    def test_first_step_hand_value(self):
        p = network.build(0)
        grads = {name: np.zeros_like(arr) for name, arr in p.trainable_arrays()}
        grads["dense_out.bias"] = np.ones_like(p.dense_out.bias)
        before = p.dense_out.bias.copy()
        state = training.init_rmsprop(p)
        training.rmsprop_step(p, grads, state, TrainConfig())
        expect_delta = -1e-3 / (math.sqrt(0.1) + 1e-7)
        npt.assert_allclose(p.dense_out.bias - before, expect_delta, rtol=1e-9)
        assert expect_delta == pytest.approx(-3.16227e-3, abs=1e-8)

    def test_zero_gradient_leaves_params_decays_state(self):
        p = network.build(1)
        state = training.init_rmsprop(p)
        state["conv.kernels"][:] = 0.5
        before = p.conv.kernels.copy()
        grads = {name: np.zeros_like(arr) for name, arr in p.trainable_arrays()}
        training.rmsprop_step(p, grads, state, TrainConfig())
        npt.assert_array_equal(p.conv.kernels, before)
        npt.assert_allclose(state["conv.kernels"], 0.45, atol=1e-15)

    def test_odd_symmetry(self):
        p = network.build(2)
        state = training.init_rmsprop(p)
        g = make_rng(3).normal(size=p.conv.bias.shape)
        grads = {name: np.zeros_like(arr) for name, arr in p.trainable_arrays()}
        grads["conv.bias"] = g.copy()
        before = p.conv.bias.copy()
        training.rmsprop_step(p, grads, state, TrainConfig())
        delta_pos = p.conv.bias - before

        q = network.build(2)
        state2 = training.init_rmsprop(q)
        grads["conv.bias"] = -g
        training.rmsprop_step(q, grads, state2, TrainConfig())
        delta_neg = q.conv.bias - before
        npt.assert_allclose(delta_pos, -delta_neg, atol=1e-15)

    def test_accumulator_nonnegative(self):
        p = network.build(4)
        state = training.init_rmsprop(p)
        rng = make_rng(5)
        cfg = TrainConfig()
        for _ in range(5):
            grads = {name: rng.normal(size=arr.shape)
                     for name, arr in p.trainable_arrays()}
            training.rmsprop_step(p, grads, state, cfg)
        assert all((s >= 0).all() for s in state.values())

    def test_moving_stats_never_touched(self):
        p = network.build(6)
        mm = p.bn.moving_mean.copy()
        mv = p.bn.moving_var.copy()
        state = training.init_rmsprop(p)
        grads = {name: np.ones_like(arr) for name, arr in p.trainable_arrays()}
        training.rmsprop_step(p, grads, state, TrainConfig())
        npt.assert_array_equal(p.bn.moving_mean, mm)
        npt.assert_array_equal(p.bn.moving_var, mv)
        assert "bn.moving_mean" not in state

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_byte_identical_to_per_array_update(self, dtype):
        p = network.build(14, dtype=dtype)
        q = network.build(14, dtype=dtype)
        state = training.init_rmsprop(p)
        ref_state = {name: np.zeros_like(arr) for name, arr in q.trainable_arrays()}
        cfg = TrainConfig(learning_rate=1e-2)
        rng = make_rng(15)
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-8, 2)
            grads = {name: (rng.normal(scale=scale, size=arr.shape)
                            * (rng.uniform(size=arr.shape) > 0.2)).astype(dtype)
                     for name, arr in p.trainable_arrays()}
            training.rmsprop_step(p, grads, state, cfg)
            rmsprop_step_per_array(q, grads, ref_state, cfg)
        for (name, got), (_, want) in zip(p.named_arrays(), q.named_arrays()):
            assert got.tobytes() == want.tobytes(), name
        for name, acc in ref_state.items():
            assert state[name].tobytes() == acc.tobytes(), name

    def test_rebound_parameter_is_refused(self):
        p = network.build(16)
        state = training.init_rmsprop(p)
        grads = {name: np.ones_like(arr) for name, arr in p.trainable_arrays()}
        p.gru.u_h = p.gru.u_h.copy()
        before = p.flat.copy()
        with pytest.raises(ValueError, match="gru.u_h is no longer a view into its buffer"):
            training.rmsprop_step(p, grads, state, TrainConfig())
        npt.assert_array_equal(p.flat, before)
        assert not state["gru.u_h"].any()

    def test_rebound_state_is_refused(self):
        p = network.build(17)
        grads = {name: np.ones_like(arr) for name, arr in p.trainable_arrays()}
        state = training.init_rmsprop(p)
        state["dense_out.bias"] = np.zeros_like(p.dense_out.bias)
        with pytest.raises(ValueError, match="dense_out.bias is no longer a view"):
            training.rmsprop_step(p, grads, state, TrainConfig())
        separate = {name: np.zeros_like(arr) for name, arr in p.trainable_arrays()}
        with pytest.raises(ValueError, match="make it with init_rmsprop"):
            training.rmsprop_step(p, grads, separate, TrainConfig())


class TestFit:
    def test_rejects_empty_and_bad_shapes(self):
        p = network.build(0)
        with pytest.raises(DataError):
            training.fit(p, Dataset(features=np.zeros((0, 16)), labels=np.zeros(0, int)),
                         TrainConfig())
        with pytest.raises(DataError):
            training.fit(p, Dataset(features=np.zeros((5, 12)),
                                    labels=np.zeros(5, int)), TrainConfig())
        with pytest.raises(DataError):
            training.fit(p, Dataset(features=np.zeros((5, 16)),
                                    labels=np.array([0, 1, 2, 3, 9])), TrainConfig())

    def test_deterministic_runs(self):
        ds = synth.make_dataset(300, seed=5)
        cfg = TrainConfig(epochs=2, seed=9)
        p1, h1 = training.fit(network.build(9), ds, cfg)
        p2, h2 = training.fit(network.build(9), ds, cfg)
        for (_, a), (_, b) in zip(p1.named_arrays(), p2.named_arrays()):
            npt.assert_array_equal(a, b)
        assert [s.line().rsplit(" seconds=", 1)[0] for s in h1] == \
               [s.line().rsplit(" seconds=", 1)[0] for s in h2]

    def test_lr_zero_leaves_trainable_params_bitexact(self):
        ds = synth.make_dataset(120, seed=6)
        p = network.build(10)
        before = {name: arr.copy() for name, arr in p.trainable_arrays()}
        training.fit(p, ds, TrainConfig(epochs=1, learning_rate=0.0, seed=6))
        for name, arr in p.trainable_arrays():
            npt.assert_array_equal(arr, before[name], err_msg=name)

    def test_epoch_stats_contract(self):
        ds = synth.make_dataset(200, seed=7)
        seen = []
        _, history = training.fit(network.build(11), ds, TrainConfig(epochs=3, seed=7),
                                  progress_sink=seen.append)
        assert len(history) == 3
        assert seen == history
        for i, st in enumerate(history):
            assert st.epoch == i
            assert 0.0 <= st.train_acc <= 1.0
            assert 0.0 <= st.val_acc <= 1.0
            assert math.isfinite(st.train_loss) and math.isfinite(st.val_loss)
            assert st.seconds >= 0
            assert f"epoch={i}" in st.line()

    def test_loss_finite_under_training(self):
        ds = synth.make_dataset(200, seed=8, noise=0.3)
        _, history = training.fit(network.build(12), ds,
                                  TrainConfig(epochs=2, seed=8, learning_rate=5e-3))
        assert all(math.isfinite(s.train_loss) for s in history)

    def test_stratified_split(self):
        ds = synth.make_dataset(600, seed=13)
        _, history = training.fit(network.build(13), ds,
                                  TrainConfig(epochs=1, seed=13, stratified=True))
        assert len(history) == 1


class TestEvaluate:
    def test_diagonal_on_perfect_toy(self):
        # label a 3-row toy set with the model's own argmax so the model is
        # perfect on it by construction; its confusion matrix is diagonal
        p = network.build(21)
        features = make_rng(20).uniform(0, 1, size=(3, 16))
        probs, _ = network.forward(p, features[:, :, None], mode="infer")
        labels = probs.argmax(axis=1)
        cm, loss = training.evaluate(p, Dataset(features=features, labels=labels))
        assert cm.n == 3
        assert cm.accuracy() == 1.0
        assert cm.counts.sum() - np.trace(cm.counts) == 0
        assert math.isfinite(loss)

    def test_counts_conserved(self):
        ds = synth.make_dataset(130, seed=22, noise=0.4)
        p = network.build(22)
        cm, _ = training.evaluate(p, ds)
        assert cm.n == 130

    def test_accuracy_matches_direct_fraction(self):
        ds = synth.make_dataset(150, seed=23)
        p = network.build(23)
        cm, _ = training.evaluate(p, ds)
        probs, _ = network.forward(p, ds.features[:, :, None], mode="infer")
        direct = float((probs.argmax(axis=1) == ds.labels).mean())
        assert abs(cm.accuracy() - direct) <= 1e-12

    def test_unlabeled_rejected(self):
        p = network.build(24)
        with pytest.raises(DataError):
            training.evaluate(p, Dataset(features=np.zeros((3, 16)), labels=None))


class TestGradientCheck:
    def test_fresh_network_passes(self):
        report = training.gradient_check(network.build(30), probes=100,
                                         tolerance=1e-5, seed=1)
        assert report.passed, report.render()
        assert len(report.probes) == 100

    def test_probes_span_all_layers(self):
        report = training.gradient_check(network.build(31), probes=60, seed=2)
        groups = {p.tensor.split(".")[0] for p in report.probes}
        assert groups == {"conv", "bn", "gru", "dense_hidden", "dense_out"}

    def test_corrupted_gru_backward_fails(self, monkeypatch):
        real = layers.gru_backward

        def flipped(cache, dh_seq):
            dx, grads, dh0 = real(cache, dh_seq)
            grads["u_h"] = -grads["u_h"]
            return dx, grads, dh0

        monkeypatch.setattr(layers, "gru_backward", flipped)
        report = training.gradient_check(network.build(32), probes=60, seed=3)
        assert not report.passed
        failing = {p.tensor for p in report.probes if not p.passed}
        assert "gru.u_h" in failing

    def test_unreachable_tolerance_fails(self):
        report = training.gradient_check(network.build(33), probes=40,
                                         tolerance=1e-12, seed=4)
        assert not report.passed

    def test_report_names_worst_probe(self):
        report = training.gradient_check(network.build(34), probes=30, seed=5)
        text = report.render()
        assert report.worst.tensor in text

    def test_zero_input_finite(self):
        # degenerate all-zero batch must not produce NaNs
        p = network.build(35)
        x = np.zeros((2, 16, 1))
        probs, caches = network.forward(p, x, mode="infer")
        targets = one_hot([0, 1])
        loss, dlogits = training.cross_entropy(probs, targets)
        grads, _ = network.backward(p, caches, dlogits)
        assert math.isfinite(loss)
        assert all(np.isfinite(g).all() for g in grads.values())

    def test_requires_double_precision(self):
        p = network.build(36, dtype=np.float32)
        with pytest.raises(NumericError):
            training.gradient_check(p, probes=5)
