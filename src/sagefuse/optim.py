"""AdamW with decoupled weight decay and the early-stopped loop both
training phases run on it."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import NumericsError


class AdamW:
    """Decoupled weight decay: the decay shrink is applied to the weight
    separately from the bias-corrected moment update. Every parameter it is
    given trains; a frozen weight is a plain array and never reaches it.
    """

    def __init__(self, params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=1e-2):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise NumericsError(f"non-finite gradient for {p.name!r}")
            if self.weight_decay:
                p.value -= self.lr * self.weight_decay * p.value
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            mhat = m / (1.0 - self.beta1 ** self.t)
            vhat = v / (1.0 - self.beta2 ** self.t)
            p.value -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def fit(params, schedule, epoch_losses, val_metric):
    """AdamW over `params` at `schedule.lr` and `schedule.weight_decay`, for
    up to `schedule.epochs` epochs, early-stopped on the validation metric.

    Epoch e takes one step per `(loss, weight)` that `epoch_losses(e)`
    yields and records the weight-averaged loss. `val_metric()` is read
    before training and after each epoch; a strict improvement keeps a copy
    of the weights, and `schedule.patience` epochs without one end the run.
    The best weights are restored before returning (best epoch, best
    metric, loss trace, val trace); the val trace starts with the metric
    before training."""
    params = list(params)
    opt = AdamW(params, lr=schedule.lr, weight_decay=schedule.weight_decay)
    best_metric = val_metric()
    best_epoch, best_values = 0, [p.value.copy() for p in params]
    loss_trace, val_trace = [], [float(best_metric)]
    for epoch in range(1, schedule.epochs + 1):
        total, count = 0.0, 0
        for loss, weight in epoch_losses(epoch):
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
            total += float(ad.val(loss)) * weight
            count += weight
        loss_trace.append(total / count)
        metric = val_metric()
        val_trace.append(float(metric))
        if metric > best_metric:
            best_metric, best_epoch = metric, epoch
            best_values = [p.value.copy() for p in params]
        elif epoch - best_epoch >= schedule.patience:
            break
    for p, value in zip(params, best_values):
        p.value[...] = value
    return best_epoch, float(best_metric), loss_trace, val_trace

