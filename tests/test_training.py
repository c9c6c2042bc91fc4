import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from botclf import dataio, layers, metrics, network, synth, training
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
        assert (training.RMS_DECAY, training.RMS_EPSILON) == (0.9, 1e-7)
        assert cfg.validation_fraction == 0.10

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0}, {"batch_size": 0}, {"validation_fraction": 0.0},
        {"validation_fraction": 1.0},
    ])
    def test_invariants(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("name,value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", -1e-3),
    ])
    def test_non_finite_or_negative_rates_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            TrainConfig(**{name: value})


class TestCrossEntropy:
    def test_perfect_prediction(self):
        probs = one_hot([2, 4])
        loss, _ = training.cross_entropy(probs, np.array([2, 4]))
        assert loss == 0.0

    def test_uniform_prediction(self):
        probs = np.full((3, 6), 1 / 6)
        loss, _ = training.cross_entropy(probs, np.array([0, 3, 5]))
        assert loss == pytest.approx(math.log(6), rel=1e-12)

    def test_logit_gradient(self):
        probs = softmax(make_rng(0).normal(size=(4, 6)))
        labels = np.array([1, 0, 5, 2])
        _, dlogits = training.cross_entropy(probs, labels)
        npt.assert_allclose(dlogits, (probs - one_hot(labels)) / 4, atol=1e-15)

    def test_logit_gradient_against_finite_differences(self):
        rng = make_rng(1)
        logits = rng.normal(size=(3, 6))
        labels = np.array([4, 2, 0])

        def loss_at(lg):
            loss, _ = training.cross_entropy(softmax(lg), labels)
            return loss

        _, dlogits = training.cross_entropy(softmax(logits), labels)
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
        loss, _ = training.cross_entropy(probs, np.array([1, 0]))
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12), rel=1e-9)

    def test_rejects_labels_not_one_per_row(self):
        probs = np.full((2, 6), 1 / 6)
        for bad in (np.array([0, 1, 2]), one_hot([0, 1]), np.array(0)):
            with pytest.raises(ValueError, match=r"and \[batch\]$"):
                training.cross_entropy(probs, bad)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("b", [1, 10, 512])
    def test_byte_identical_to_the_one_hot_form(self, b, dtype):
        rng = make_rng(b)
        probs = softmax(rng.normal(scale=4.0, size=(b, 6))).astype(dtype)
        labels = rng.integers(0, 6, size=b)
        probs[0, labels[0]] = 0.0  # a clamped row
        targets = one_hot(labels).astype(dtype)
        loss, dlogits = training.cross_entropy(probs, labels)
        p_true = (probs * targets).sum(axis=1)
        assert loss == float(-np.log(np.maximum(p_true, 1e-12)).mean())
        want = (probs - targets) / b
        assert dlogits.dtype == want.dtype and dlogits.tobytes() == want.tobytes()


class TestRmsProp:
    def test_first_step_hand_value(self):
        p = network.build(0)
        grads = np.zeros_like(p.flat)
        p.trainable_views(grads)["dense_out.bias"][:] = 1.0
        before = p.dense_out.bias.copy()
        state = np.zeros_like(p.flat)
        training.rmsprop_step(p, grads, state, TrainConfig().learning_rate)
        expect_delta = -1e-3 / (math.sqrt(0.1) + 1e-7)
        npt.assert_allclose(p.dense_out.bias - before, expect_delta, rtol=1e-9)
        assert expect_delta == pytest.approx(-3.16227e-3, abs=1e-8)

    def test_zero_gradient_leaves_params_decays_state(self):
        p = network.build(1)
        state = np.zeros_like(p.flat)
        p.trainable_views(state)["conv.kernels"][:] = 0.5
        before = p.conv.kernels.copy()
        grads = np.zeros_like(p.flat)
        training.rmsprop_step(p, grads, state, TrainConfig().learning_rate)
        npt.assert_array_equal(p.conv.kernels, before)
        npt.assert_allclose(p.trainable_views(state)["conv.kernels"], 0.45, atol=1e-15)

    def test_odd_symmetry(self):
        p = network.build(2)
        state = np.zeros_like(p.flat)
        g = make_rng(3).normal(size=p.conv.bias.shape)
        grads = np.zeros_like(p.flat)
        p.trainable_views(grads)["conv.bias"][:] = g
        before = p.conv.bias.copy()
        training.rmsprop_step(p, grads, state, TrainConfig().learning_rate)
        delta_pos = p.conv.bias - before

        q = network.build(2)
        state2 = np.zeros_like(q.flat)
        q.trainable_views(grads)["conv.bias"][:] = -g
        training.rmsprop_step(q, grads, state2, TrainConfig().learning_rate)
        delta_neg = q.conv.bias - before
        npt.assert_allclose(delta_pos, -delta_neg, atol=1e-15)

    def test_accumulator_nonnegative(self):
        p = network.build(4)
        state = np.zeros_like(p.flat)
        rng = make_rng(5)
        cfg = TrainConfig()
        for _ in range(5):
            grads = rng.normal(size=p.flat.shape)
            training.rmsprop_step(p, grads, state, cfg.learning_rate)
        assert all((s >= 0).all() for s in p.trainable_views(state).values())

    def test_moving_stats_never_touched(self):
        p = network.build(6)
        mm = p.bn.moving_mean.copy()
        mv = p.bn.moving_var.copy()
        state = np.zeros_like(p.flat)
        grads = np.ones_like(p.flat)
        training.rmsprop_step(p, grads, state, TrainConfig().learning_rate)
        npt.assert_array_equal(p.bn.moving_mean, mm)
        npt.assert_array_equal(p.bn.moving_var, mv)
        assert "bn.moving_mean" not in p.trainable_views(state)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_byte_identical_to_per_array_update(self, dtype):
        p = network.build(14, dtype=dtype)
        q = network.build(14, dtype=dtype)
        state = np.zeros_like(p.flat)
        ref_state = {name: np.zeros_like(arr) for name, arr in q.trainable_arrays()}
        cfg = TrainConfig(learning_rate=1e-2)
        rng = make_rng(15)
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-8, 2)
            grads = np.empty_like(p.flat)
            views = p.trainable_views(grads)
            for arr in views.values():
                arr[...] = (rng.normal(scale=scale, size=arr.shape)
                            * (rng.uniform(size=arr.shape) > 0.2)).astype(dtype)
            training.rmsprop_step(p, grads, state, cfg.learning_rate)
            rmsprop_step_per_array(q, views, ref_state, cfg)
        for (name, got), (_, want) in zip(p.named_arrays(), q.named_arrays()):
            assert got.tobytes() == want.tobytes(), name
        for name, acc in ref_state.items():
            assert p.trainable_views(state)[name].tobytes() == acc.tobytes(), name

    def test_rebound_parameter_is_refused(self):
        # the containers are frozen: rebinding any trainable array, or the
        # buffer behind them, fails at the assignment, so no update can miss it
        p = network.build(16)
        state = np.zeros_like(p.flat)
        before = p.flat.copy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.gru.u_h = p.gru.u_h.copy()
        for name, arr in p.trainable_arrays():
            layer, field = name.split(".")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(getattr(p, layer), field, arr.copy())
            assert arr.base is p.flat, name
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.flat = p.flat.copy()
        npt.assert_array_equal(p.flat, before)
        assert not state.any()
        training.rmsprop_step(p, np.ones_like(p.flat), state, TrainConfig().learning_rate)
        # the step reaches gru.u_h, still a view into the updated buffer
        assert (p.gru.u_h < p.trainable_views(before)["gru.u_h"]).all()

    def test_rebound_state_is_refused(self):
        p = network.build(17)
        grads = np.ones_like(p.flat)
        one_array = np.zeros_like(p.dense_out.bias)
        with pytest.raises(ValueError, match=r"the RMSProp state has shape \(6,\)"):
            training.rmsprop_step(p, grads, one_array, TrainConfig().learning_rate)
        separate = {name: np.zeros_like(arr) for name, arr in p.trainable_arrays()}
        with pytest.raises(ValueError, match="RMSProp state has shape"):
            training.rmsprop_step(p, grads, separate, TrainConfig().learning_rate)

    def test_gradients_outside_one_buffer_are_refused(self):
        p = network.build(18)
        state = np.zeros_like(p.flat)
        before = p.flat.copy()
        separate = {name: np.ones_like(arr) for name, arr in p.trainable_arrays()}
        with pytest.raises(ValueError, match="laid out like the parameters"):
            training.rmsprop_step(p, separate, state, TrainConfig().learning_rate)
        short = np.ones(p.flat.size + 1)
        with pytest.raises(ValueError, match="laid out like the parameters"):
            training.rmsprop_step(p, short, state, TrainConfig().learning_rate)
        column = np.ones((p.flat.size, 1))
        with pytest.raises(ValueError, match=r"the gradient has shape \(4114, 1\)"):
            training.rmsprop_step(p, column, state, TrainConfig().learning_rate)
        npt.assert_array_equal(p.flat, before)
        assert not state.any()


class TestFit:
    def test_rejects_empty_and_bad_shapes(self):
        p = network.build(0)
        with pytest.raises(DataError, match="^training dataset is empty$"):
            training.fit(p, Dataset(features=np.zeros((0, 16)), labels=np.zeros(0, int)),
                         TrainConfig())
        with pytest.raises(DataError):
            training.fit(p, Dataset(features=np.zeros((5, 12)),
                                    labels=np.zeros(5, int)), TrainConfig())
        with pytest.raises(DataError, match=r"^labels must lie in 0\.\.5$"):
            training.fit(p, Dataset(features=np.zeros((5, 16)),
                                    labels=np.array([0, 1, 2, 3, 9])), TrainConfig())

    @pytest.mark.parametrize("batch_size", [10, 1], ids=["last-batch-of-one", "batch-size-one"])
    def test_batch_of_one_position_is_refused_before_any_step(self, batch_size):
        # train-mode batchnorm cannot normalize one row of one feature, and the
        # short last batch comes after every full one has updated the weights;
        # 12 rows leave 11 to train on
        p = network.build(0, network.Architecture(seq_len=1))
        before = [(name, a.tobytes()) for name, a in p.named_arrays()]
        ds = Dataset(features=make_rng(1).uniform(size=(12, 1)), labels=np.arange(12) % 6)
        with pytest.raises(DataError, match=(
                rf"^batch_size {batch_size} over 11 training rows leaves a batch of 1 row "
                r"of 1 feature; train-mode batchnorm needs at least 2 positions per channel$")):
            training.fit(p, ds, TrainConfig(epochs=1, batch_size=batch_size))
        assert [(name, a.tobytes()) for name, a in p.named_arrays()] == before

    def test_deterministic_runs(self):
        ds = synth.make_dataset(300, seed=5)
        cfg = TrainConfig(epochs=2, seed=9)
        p1, p2 = network.build(9), network.build(9)
        h1, h2 = training.fit(p1, ds, cfg), training.fit(p2, ds, cfg)
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

    def test_train_loss_is_the_mean_over_the_training_rows(self):
        # one batch holds every training row and nothing is updated, so the
        # reported train loss is the loss of one train-mode pass over them
        ds = synth.make_dataset(120, seed=14)
        cfg = TrainConfig(epochs=1, batch_size=120, learning_rate=0.0, seed=14)
        p = network.build(14)
        fresh = copy.deepcopy(p)
        history = training.fit(p, ds, cfg)
        features, labels = np.asarray(ds.features), np.asarray(ds.labels)
        train_idx, _ = training._split_indices(labels.size, cfg.validation_fraction,
                                               cfg.seed, labels, cfg.stratified)
        probs, _ = network.forward(fresh, features[train_idx][:, :, None], mode="train")
        loss, _ = training.cross_entropy(probs, labels[train_idx])
        assert history[0].train_loss == pytest.approx(loss, rel=1e-12, abs=0)

    def test_epoch_stats_contract(self):
        ds = synth.make_dataset(200, seed=7)
        seen = []
        history = training.fit(network.build(11), ds, TrainConfig(epochs=3, seed=7),
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
        history = training.fit(network.build(12), ds,
                               TrainConfig(epochs=2, seed=8, learning_rate=5e-3))
        assert all(math.isfinite(s.train_loss) for s in history)

    def test_memory_grows_by_indices_not_copies(self):
        # batches and the held-out rows are gathered by index from the one
        # dataset: a 1-epoch fit's peak grows by at most 64 B per added row
        def peak(rows):
            ds = synth.make_dataset(rows, seed=15)
            p = network.build(15)
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                training.fit(p, ds, TrainConfig(epochs=1, seed=15))
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return top - start

        assert peak(40 * dataio.CHUNK_ROWS) - peak(10 * dataio.CHUNK_ROWS) <= \
            30 * dataio.CHUNK_ROWS * 64

    def test_peak_of_a_small_fit(self):
        # 6000 rows hold out 600, so the first validation scores full
        # PASS_ROWS passes and sets the peak; their work buffers are 1.15 MB
        # in double, where one buffer per work array made them 1.67 MB and
        # 512-row passes 2.3 MB
        ds = synth.make_dataset(6000, seed=15)
        p = network.build(15)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            training.fit(p, ds, TrainConfig(epochs=1, seed=15))
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert top - start <= 2_000_000

    def test_stratified_split(self):
        ds = synth.make_dataset(600, seed=13)
        history = training.fit(network.build(13), ds,
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
        cm, loss = training.evaluate(p, [(features, labels)])
        assert cm.n == 3
        assert cm.accuracy() == 1.0
        assert cm.counts.sum() - np.trace(cm.counts) == 0
        assert math.isfinite(loss)

    def test_counts_conserved(self):
        ds = synth.make_dataset(130, seed=22, noise=0.4)
        p = network.build(22)
        cm, _ = training.evaluate(p, [(ds.features[i:i + 50], ds.labels[i:i + 50])
                                      for i in range(0, 130, 50)])
        assert cm.n == 130

    def test_accuracy_matches_direct_fraction(self):
        ds = synth.make_dataset(150, seed=23)
        p = network.build(23)
        cm, _ = training.evaluate(p, [(ds.features, ds.labels)])
        probs, _ = network.forward(p, ds.features[:, :, None], mode="infer")
        direct = float((probs.argmax(axis=1) == ds.labels).mean())
        assert abs(cm.accuracy() - direct) <= 1e-12

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_batches_score_as_one_pass(self, dtype):
        # batches of CHUNK_ROWS rows, as eval streams them, give the counts
        # and the loss bit for bit of one pass over the whole set
        ds = synth.make_dataset(1100, seed=25, noise=0.3)
        p = network.build(25, dtype=dtype)
        chunk = dataio.CHUNK_ROWS
        cm, loss = training.evaluate(p, ((ds.features[i:i + chunk], ds.labels[i:i + chunk])
                                         for i in range(0, 1100, chunk)))
        probs, _ = network.forward(p, ds.features[:, :, None], mode="infer")
        npt.assert_array_equal(cm.counts, metrics.ConfusionMatrix.from_labels(
            ds.labels, probs.argmax(axis=1), 6).counts)
        expect = training.cross_entropy(probs, ds.labels)[0]
        assert loss == expect and math.isfinite(loss)

    def test_no_batches_rejected(self):
        with pytest.raises(DataError, match="no labeled rows to evaluate"):
            training.evaluate(network.build(24), iter([]))

    def test_validation_is_evaluate_on_the_held_out_rows(self):
        ds = synth.make_dataset(200, seed=26)
        cfg = TrainConfig(epochs=1, seed=26)
        p = network.build(26)
        history = training.fit(p, ds, cfg)
        _, val_idx = training._split_indices(200, cfg.validation_fraction, cfg.seed,
                                             ds.labels, cfg.stratified)
        cm, loss = training.evaluate(p, [(ds.features[val_idx], ds.labels[val_idx])])
        assert (history[0].val_loss, history[0].val_acc) == (loss, cm.accuracy())


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
            grads = real(cache, dh_seq)
            grads["u_h"] = -grads["u_h"]
            return grads

        monkeypatch.setattr(layers, "gru_backward", flipped)
        report = training.gradient_check(network.build(32), probes=60, seed=3)
        assert not report.passed
        failing = {p.tensor for p in report.probes if not p.passed}
        assert "gru.u_h" in failing

    def test_corrupted_conv_branch_backward_fails(self, monkeypatch):
        real = layers.conv_branch_backward

        def flipped(cache, dpool):
            grads = real(cache, dpool)
            grads["kernels"] = -grads["kernels"]
            return grads

        monkeypatch.setattr(layers, "conv_branch_backward", flipped)
        report = training.gradient_check(network.build(32), probes=60, seed=3)
        assert not report.passed
        failing = {p.tensor for p in report.probes if not p.passed}
        assert "conv.kernels" in failing

    @pytest.mark.parametrize("seed", range(4))
    def test_flipped_batch_statistics_kernel_term_fails(self, monkeypatch, seed):
        # The batch statistics reach the kernel gradient only through the
        # train-mode term -inv^2 S Sigma W_f; flip its sign and nothing else.
        real = layers.conv_branch_backward

        def flipped(cache, dpool):
            d = cache.data
            grads = real(cache, dpool)
            term = d["sigma_w"] * (d["inv"] * d["inv"] * d["gamma"] * grads["gamma"])
            grads["kernels"] = grads["kernels"] + 2.0 * term.reshape(grads["kernels"].shape)
            return grads

        monkeypatch.setattr(layers, "conv_branch_backward", flipped)
        report = training.gradient_check(network.build(0), seed=seed)
        assert not report.passed
        assert {p.tensor for p in report.probes if not p.passed} == {"conv.kernels"}

    def test_default_check_resolves_small_gradients(self):
        # the default `botclf gradcheck`: the GRU's recurrent gradients, all
        # near 1e-5 at this init, are held to the relative tolerance
        report = training.gradient_check(network.build(0))
        assert report.passed, report.render()
        assert report.worst.rel_error < 1e-6
        absolute = [p.tensor for p in report.probes
                    if max(abs(p.analytic), abs(p.numeric)) < training._GRAD_FLOOR]
        assert not {"gru.u_z", "gru.u_r"} & set(absolute)
        # the batch mean absorbs the conv bias: its train-mode gradient is 0
        assert set(absolute) == {"conv.bias"}

    def test_leaves_parameters_byte_identical(self):
        p = network.build(37)
        p.bn.moving_mean[:] = make_rng(37).normal(size=p.bn.moving_mean.shape)
        before = [a.tobytes() for a in (p.flat, p.bn.moving_mean, p.bn.moving_var)]
        training.gradient_check(p, probes=30, seed=6)
        assert [a.tobytes() for a in (p.flat, p.bn.moving_mean, p.bn.moving_var)] == before

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
        probs, caches = network.forward(p, x, mode="train")
        loss, dlogits = training.cross_entropy(probs, np.array([0, 1]))
        grads = p.trainable_views(network.backward(p, caches, dlogits))
        assert math.isfinite(loss)
        assert all(np.isfinite(g).all() for g in grads.values())

    def test_requires_double_precision(self):
        p = network.build(36, dtype=np.float32)
        with pytest.raises(NumericError):
            training.gradient_check(p, probes=5)
