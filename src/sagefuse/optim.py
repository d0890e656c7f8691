"""AdamW with decoupled weight decay, the early-stopped loop both training
phases run on it, and a finite-difference grad checker."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import NumericsError


class AdamW:
    """Decoupled weight decay: the decay shrink is applied to the weight
    separately from the bias-corrected moment update. Frozen parameters are
    skipped entirely.
    """

    def __init__(self, params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=1e-2):
        self.params = [p for p in params if not p.frozen]
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
            g = p.gradient
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


@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    checked: int
    passed: bool


@dataclass
class GradCheckReport:
    epsilon: float
    tolerance: float
    entries: list = field(default_factory=list)

    @property
    def failures(self):
        return [e for e in self.entries if not e.passed]

    @property
    def max_rel_error(self):
        return max((e.max_rel_error for e in self.entries), default=0.0)

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        lines = [f"grad_check eps={self.epsilon:g} tol={self.tolerance:g}"]
        for e in self.entries:
            mark = "ok  " if e.passed else "FAIL"
            lines.append(f"  {mark} {e.name:<40s} max_rel={e.max_rel_error:.3e} "
                         f"({e.checked} scalars)")
        return "\n".join(lines)


def grad_check(params, loss_fn, epsilon=1e-5, tolerance=1e-4,
               samples_per_tensor=64, seed=0):
    """Compare analytic gradients against central differences.

    For each trainable parameter, a deterministic subsample of at least
    `samples_per_tensor` scalars (or all of them, for small tensors) is
    perturbed by +/- epsilon and the loss re-evaluated. Frozen parameters
    never appear in the report. Requires 64-bit parameter values.
    """
    trainable = [p for p in params if not p.frozen]
    for p in trainable:
        if p.value.dtype != np.float64:
            raise NumericsError(f"grad_check requires float64, got "
                                f"{p.value.dtype} for {p.name!r}")
        p.zero_grad()
    ad.backward(loss_fn())
    analytic = {id(p): p.gradient.copy() for p in trainable}

    report = GradCheckReport(epsilon=epsilon, tolerance=tolerance)
    for k, p in enumerate(trainable):
        flat = p.value.reshape(-1)
        n = flat.size
        if n <= samples_per_tensor:
            idxs = np.arange(n)
        else:
            rng = np.random.default_rng([seed, k])
            idxs = rng.choice(n, size=samples_per_tensor, replace=False)
        a_flat = analytic[id(p)].reshape(-1)
        worst = 0.0
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + epsilon
            plus = float(ad.val(loss_fn()))
            flat[i] = orig - epsilon
            minus = float(ad.val(loss_fn()))
            flat[i] = orig
            numeric = (plus - minus) / (2.0 * epsilon)
            a = float(a_flat[i])
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-6)
            worst = max(worst, rel)
        report.entries.append(GradCheckEntry(
            name=p.name, max_rel_error=worst, checked=len(idxs),
            passed=worst < tolerance))
    return report
