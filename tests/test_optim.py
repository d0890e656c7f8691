from types import SimpleNamespace

import numpy as np
import pytest

from conftest import grad_check
from sagefuse import autodiff as ad
from sagefuse.autodiff import NumericsError, Parameter
from sagefuse.optim import AdamW, fit


class TestAdamW:
    def test_zero_gradient_applies_pure_decay_shrink(self):
        # With zero gradient the moments stay zero, so only the decoupled
        # decay acts: theta <- theta * (1 - lr * wd) exactly.
        p = Parameter(np.array([2.0, -3.0]), name="p")
        opt = AdamW([p], lr=3e-4, weight_decay=1e-2)
        opt.step()
        assert np.array_equal(p.value, np.array([2.0, -3.0]) * (1.0 - 3e-6))

    def test_first_step_with_unit_gradient_moves_by_about_lr(self):
        # Bias correction makes mhat = g and vhat = g^2 at t=1, so the
        # moment update is -lr * g/(|g| + eps) ~= -lr.
        lr = 3e-4
        p = Parameter(np.array([1.0]), name="p")
        p.grad[...] = 1.0
        opt = AdamW([p], lr=lr, weight_decay=1e-2)
        opt.step()
        expected = 1.0 * (1.0 - lr * 1e-2) - lr * 1.0 / (1.0 + 1e-8)
        assert p.value[0] == pytest.approx(expected, abs=1e-15)

    def test_nonfinite_gradient_aborts_naming_parameter(self):
        p = Parameter(np.array([1.0]), name="layer3.bias")
        p.grad[...] = np.nan
        with pytest.raises(NumericsError, match="layer3.bias"):
            AdamW([p]).step()

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([4.0]), name="p")
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        for _ in range(300):
            opt.zero_grad()
            ad.backward(ad.sum_(ad.mul(p, p)))
            opt.step()
        assert abs(p.value[0]) < 1e-2


class TestFit:
    """`fit` on a scalar weight pulled towards 0 by a quadratic loss, with a
    scripted validation metric."""

    @staticmethod
    def _run(metrics, patience=2, weights=(1,)):
        p = Parameter(np.array([4.0]), name="p")
        values, losses = [], []

        def epoch_losses(epoch):
            for w in weights:
                loss = ad.sum_(ad.mul(p, p))
                losses.append((float(ad.val(loss)), w))
                yield loss, w

        def val_metric():
            values.append(p.value.copy())
            return metrics[len(values) - 1]

        schedule = SimpleNamespace(lr=0.1, weight_decay=0.0,
                                   epochs=len(metrics) - 1, patience=patience)
        result = fit([p], schedule, epoch_losses, val_metric)
        return result, p, values, losses

    def test_a_tie_does_not_reset_patience(self):
        (best_epoch, best_metric, loss_trace, val_trace), _, values, _ = \
            self._run([0.5, 0.6, 0.6, 0.6, 0.7, 0.8])
        assert len(loss_trace) == 3 and len(values) == 4
        assert val_trace == [0.5, 0.6, 0.6, 0.6]
        assert (best_epoch, best_metric) == (1, 0.6)

    def test_best_weights_are_restored(self):
        result, p, values, _ = self._run([0.5, 0.7, 0.6, 0.6, 0.9],
                                         patience=3)
        assert result[0] == 4
        assert p.value.tobytes() == values[4].tobytes()
        result, p, values, _ = self._run([0.5, 0.7, 0.6, 0.6])
        assert result[0] == 1
        assert p.value.tobytes() == values[1].tobytes()
        assert p.value.tobytes() != values[3].tobytes()

    def test_no_epoch_keeps_the_initial_weights(self):
        result, p, _, _ = self._run([0.5])
        assert result == (0, 0.5, [], [0.5]) and p.value[0] == 4.0

    def test_epoch_loss_is_the_weighted_mean(self):
        result, _, _, losses = self._run([0.1, 0.2], weights=(3, 5, 2))
        total = 0.0
        for loss, w in losses:
            total += loss * w
        assert result[2] == [total / 10]
        assert len({loss for loss, _ in losses}) == 3  # one step per loss


def _linear_model():
    rng = np.random.default_rng(3)
    w = Parameter(rng.normal(0, 0.5, (4, 6)), name="w")
    b = Parameter(np.zeros(4), name="b")
    x = rng.normal(0, 1, (10, 6))
    labels = rng.integers(0, 4, 10)

    def loss_fn():
        return ad.cross_entropy(ad.linear(x, w, b), labels)

    return [w, b], loss_fn


class TestGradCheck:
    def test_linear_model_passes(self):
        params, loss_fn = _linear_model()
        report = grad_check(params, loss_fn)
        assert report.ok, report.summary()
        assert report.max_rel_error < 1e-4

    def test_corrupted_gradient_is_flagged(self):
        # The checker records analytic gradients from its first loss call
        # and re-evaluates the loss for finite differences afterwards, so a
        # loss that is doubled on the first call only yields analytic
        # gradients exactly 2x the numeric ones: a guaranteed failure.
        params, loss_fn = _linear_model()
        w = params[0]
        calls = {"n": 0}

        def inconsistent_loss():
            calls["n"] += 1
            scale = 2.0 if calls["n"] == 1 else 1.0
            return ad.mul(loss_fn(), scale)

        report = grad_check([w], inconsistent_loss)
        assert not report.ok

    def test_requires_float64(self):
        w = Parameter(np.ones(3, dtype=np.float32), name="w")
        with pytest.raises(NumericsError, match="float64"):
            grad_check([w], lambda: ad.sum_(ad.mul(w, w)))

    def test_subsample_is_deterministic_and_large_enough(self):
        rng = np.random.default_rng(5)
        w = Parameter(rng.normal(0, 0.1, (20, 20)), name="w")

        def loss_fn():
            return ad.sum_(ad.mul(w, w))

        r1 = grad_check([w], loss_fn, samples_per_tensor=64, seed=9)
        r2 = grad_check([w], loss_fn, samples_per_tensor=64, seed=9)
        assert r1.entries[0].checked == 64
        assert r1.entries[0].max_rel_error == r2.entries[0].max_rel_error
