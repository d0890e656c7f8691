"""Reverse-mode autodiff over numpy arrays.

A forward pass records a graph of `_Record`s, one per op with a graph
input. A record holds what `backward` reads: the records of the op's
parents, the closure that maps the op's gradient to theirs, and the
gradient summed into it so far. The op's value lives apart, in the `Node`
the op returns. Children link to their parents' records, never to their
Nodes, so a value lives only while the caller holds its Node or while a
closure reads it. A closure holds only what its gradient reads: an
operand's shape where that is all the gradient needs, a ReLU's bool mask
in place of its output, and nothing for a constant operand, which gets no
closure at all. `backward` walks the records in reverse topological order
and accumulates gradients into the `Parameter` leaves.

A constant, such as a frozen weight, is a plain array: every op treats it
as such, so a forward pass with no `Parameter` below it runs as plain numpy
with zero bookkeeping.

A recorded graph serves exactly one `backward`: the walk releases each
record's closure, parents and gradient once it has passed them on, so the
loss keeps only its own value and a second `backward` is refused.

Reductions and matmuls delegate to numpy, which keeps a fixed evaluation
order for identical inputs, so losses are bitwise reproducible per seed.
"""

from __future__ import annotations

import contextlib

import numpy as np


class NumericsError(ValueError):
    pass


class ShapeError(NumericsError):
    def __init__(self, op, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(map(str, shapes))}")


_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording; all ops run as plain numpy."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"non-finite values in {name}")


class _Record:
    """The graph side of one recorded value. `backward(g)` returns
    (parent record, gradient) pairs. A leaf (a Parameter's record) has no
    parents and no closure; a record `backward` has passed has `parents`
    None."""

    __slots__ = ("grad", "parents", "backward")

    def __init__(self, parents=(), backward=None):
        self.grad = None
        self.parents = parents
        self.backward = backward


class Node:
    """One recorded value: the op's output array and its graph record."""

    __slots__ = ("value", "record")

    def __init__(self, value, record):
        self.value = value
        self.record = record

    @property
    def shape(self):
        return self.value.shape

    def __array__(self, dtype=None, copy=None):
        out = np.asarray(self.value, dtype=dtype)
        return out.copy() if copy else out


class Parameter(Node):
    """A named trainable tensor: a graph leaf whose `grad` persists across
    `backward` calls until `zero_grad`."""

    __slots__ = ("name",)

    def __init__(self, value, name=""):
        super().__init__(np.asarray(value), _Record())
        _check_finite(name or "parameter", self.value)
        self.name = name
        self.zero_grad()

    @property
    def grad(self):
        return self.record.grad

    @grad.setter
    def grad(self, g):
        self.record.grad = g

    @property
    def size(self):
        return self.value.size

    def zero_grad(self):
        self.grad = np.zeros_like(self.value)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def val(x):
    """Raw ndarray behind a Node (a Parameter included) or array-like."""
    if isinstance(x, Node):
        return x.value
    return np.asarray(x)


def lift(x):
    """Bring an input into the graph.

    A Parameter is its own leaf while grads are enabled and its plain value
    under `no_grad`; everything else passes through as a plain array and
    is treated as a constant by every op.
    """
    if isinstance(x, Node):
        return x if _GRAD_ENABLED else x.value
    return np.asarray(x)


def _lift_pair(a, b):
    """Lift both operands of a binary elementwise op.

    A Python int or float operand (`np.float64` included, since it
    subclasses float) becomes a 0-d array of the other operand's floating
    dtype. Under NumPy 2 a 0-d float64 array is not a weak scalar, so a
    constant such as `1 / sqrt(dk)` would otherwise promote a float32
    graph to float64. In a float64 graph the cast changes nothing.
    """
    def cast(x, other):
        if isinstance(x, (int, float)):
            dtype = val(other).dtype
            if dtype.kind == "f":
                return np.asarray(x, dtype=dtype)
        return lift(x)

    return cast(a, b), cast(b, a)


def _node(value, pairs):
    """A Node for `value` from (operand, grad_fn) pairs, or the raw array if
    no operand is a Node. The record links to the operands' records only."""
    live = [(p.record, fn) for p, fn in pairs if isinstance(p, Node)]
    if not live:
        return value

    def backward(g):
        return [(r, fn(g)) for r, fn in live]

    return Node(value, _Record(tuple(r for r, _ in live), backward))


def backward(loss):
    """Accumulate d(loss)/d(param) into the `grad` of every Parameter leaf,
    consuming the graph: each interior record drops its closure, parents
    and gradient as soon as it has passed its gradient on."""
    if not isinstance(loss, Node) or isinstance(loss, Parameter):
        raise NumericsError("backward called on a value with no recorded graph "
                            "(no trainable parameters in the forward pass?)")
    # Iterative post-order topological sort.
    topo, visited, stack = [], set(), [(loss.record, False)]
    while stack:
        rec, done = stack.pop()
        if done:
            topo.append(rec)
            continue
        if id(rec) in visited:
            continue
        if rec.parents is None:
            raise NumericsError("backward: graph already consumed")
        visited.add(id(rec))
        stack.append((rec, True))
        for p in rec.parents:
            if id(p) not in visited:
                stack.append((p, False))

    loss.record.grad = np.ones_like(loss.value)
    # Popping, rather than iterating, lets each record go once it is done.
    # Gradients are summed out of place: `add` and `_unbroadcast` pass `g`
    # through, so two records can hold the same array.
    while topo:
        rec = topo.pop()
        if rec.backward is not None:
            if rec.grad is not None:
                for parent, g in rec.backward(rec.grad):
                    parent.grad = g if parent.grad is None else parent.grad + g
            rec.backward, rec.parents, rec.grad = None, None, None


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, s) in enumerate(zip(g.shape, shape)):
        if s == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / structural ops

def add(a, b):
    a, b = _lift_pair(a, b)
    va, vb = val(a), val(b)
    sa, sb = va.shape, vb.shape
    return _node(va + vb, [(a, lambda g: _unbroadcast(g, sa)),
                           (b, lambda g: _unbroadcast(g, sb))])


def sub(a, b):
    a, b = _lift_pair(a, b)
    va, vb = val(a), val(b)
    sa, sb = va.shape, vb.shape
    return _node(va - vb, [(a, lambda g: _unbroadcast(g, sa)),
                           (b, lambda g: _unbroadcast(-g, sb))])


def mul(a, b):
    a, b = _lift_pair(a, b)
    va, vb = val(a), val(b)
    sa, sb = va.shape, vb.shape
    pairs = []
    if isinstance(a, Node):
        pairs.append((a, lambda g: _unbroadcast(g * vb, sa)))
    if isinstance(b, Node):
        pairs.append((b, lambda g: _unbroadcast(g * va, sb)))
    return _node(va * vb, pairs)


def sparse_matmul(m, x):
    """m @ x where `m` is a constant scipy sparse matrix. The gradient
    multiplies by m.T (a CSC view of a CSR `m`), built at the first backward
    pass that reaches a product with `m` and kept on `m`, so a matrix that
    every epoch multiplies by builds it once."""
    x = lift(x)
    vx = val(x)
    if m.shape[1] != vx.shape[0]:
        raise ShapeError("sparse_matmul", m.shape, vx.shape)
    out = np.asarray(m @ vx)

    def grad(g):
        if "_transpose" not in vars(m):
            m._transpose = m.T
        return np.asarray(m._transpose @ g)
    return _node(out, [(x, grad)])


def concat_cols(a, b):
    a, b = lift(a), lift(b)
    va, vb = val(a), val(b)
    if va.shape[:-1] != vb.shape[:-1]:
        raise ShapeError("concat_cols", va.shape, vb.shape)
    k = va.shape[-1]
    out = np.concatenate([va, vb], axis=-1)
    return _node(out, [(a, lambda g: g[..., :k]), (b, lambda g: g[..., k:])])


def reshape(a, shape):
    a = lift(a)
    va = val(a)
    sa = va.shape
    return _node(va.reshape(shape), [(a, lambda g: g.reshape(sa))])


def transpose(a, axes):
    a = lift(a)
    inv = np.argsort(axes)
    return _node(val(a).transpose(axes), [(a, lambda g: g.transpose(inv))])


def gather_rows(table, ids):
    """table[ids] along the first axis; backward scatter-adds."""
    table = lift(table)
    vt = val(table)
    ids = np.asarray(ids)
    out = vt[ids]
    # The gradient is laid out as np.zeros_like(vt) lays it out (axes in
    # the order of their strides), from the shape and strides alone.
    order = sorted(range(vt.ndim), key=lambda i: -abs(vt.strides[i]))
    shape, dtype = [vt.shape[i] for i in order], vt.dtype
    inv = np.argsort(order)

    def g_table(g):
        gt = np.zeros(shape, dtype).transpose(inv)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, *gt.shape[1:]))
        return gt

    return _node(out, [(table, g_table)])


def sum_(a, axis=None, keepdims=False):
    a = lift(a)
    va = val(a)
    sa = va.shape

    def ga(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, sa).copy()

    return _node(va.sum(axis=axis, keepdims=keepdims), [(a, ga)])


# ---------------------------------------------------------------------------
# nonlinearities

def sigmoid(a):
    a = lift(a)
    s = 1.0 / (1.0 + np.exp(-val(a)))
    return _node(s, [(a, lambda g: g * s * (1.0 - s))])


def layernorm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis, then scale and shift."""
    x, gamma, beta = lift(x), lift(gamma), lift(beta)
    vx, vg, vb = val(x), val(gamma), val(beta)
    if vx.shape[-1] != vg.shape[-1]:
        raise ShapeError("layernorm", vx.shape, vg.shape)
    d = vx.shape[-1]
    # One centering pass: `np.var` would compute the mean and x - μ again.
    xhat = vx - vx.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / d + eps)
    xhat *= inv
    out = vg * xhat + vb
    sg, sb = vg.shape, vb.shape

    def gx(g):
        gh = g * vg
        return inv * (gh - gh.mean(axis=-1, keepdims=True)
                      - xhat * (gh * xhat).sum(axis=-1, keepdims=True) / d)

    def ggamma(g):
        return _unbroadcast(g * xhat, sg)

    def gbeta(g):
        return _unbroadcast(g, sb)

    return _node(out, [(x, gx), (gamma, ggamma), (beta, gbeta)])


def _row_max(s):
    """s.max(axis=-1, keepdims=True) as a running maximum over the columns,
    which is faster than numpy's reduction over a short last axis; a
    maximum does not round, so the bits are the same."""
    out = s[..., :1].copy()
    for j in range(1, s.shape[-1]):
        np.maximum(out, s[..., j:j + 1], out=out)
    return out


def attention(q, k, v, mask_bias=None):
    """Scaled dot-product attention over the last two axes, as one op.

    `mask_bias` is an additive constant (e.g. -1e9 on padded key positions)
    broadcast onto the score matrix. The scores are scaled, masked and
    softmaxed in place, so the op keeps only the softmax `s` and the
    operands another operand's gradient reads. numpy's matmul bits depend
    on operand strides, so every product keeps the operand layout of the
    primitive-op chain this op replaced, and the gradients of a shared q,
    k and v are summed in that chain's order (v, q, k).
    """
    q, k, v = lift(q), lift(k), lift(v)
    vq, vk, vv = val(q), val(k), val(v)
    kt = np.swapaxes(vk, -1, -2)
    scale = np.asarray(1.0 / np.sqrt(vq.shape[-1]), dtype=vq.dtype)
    s = vq @ kt
    s *= scale
    if mask_bias is not None:
        s += mask_bias
    s -= _row_max(s)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    out = s @ vv
    rq, rk, rv = (p.record if isinstance(p, Node) else None
                  for p in (q, k, v))
    parents = tuple(r for r in (rq, rk, rv) if r is not None)
    if not parents:
        return out
    sq, skt, sv = vq.shape, kt.shape, vv.shape
    # Only k's gradient reads q, only q's reads k, and v enters the q and k
    # gradients alone.
    vq = vq if rk else None
    vk = vk if rq else None
    vv = vv if rq or rk else None

    def grads(g):
        pairs = []
        if rv:
            pairs.append((rv, _unbroadcast(np.swapaxes(s, -1, -2) @ g, sv)))
        if rq or rk:
            # d(scores): the softmax backward, then the scale.
            gs = g @ np.swapaxes(vv, -1, -2)
            gs -= (gs * s).sum(axis=-1, keepdims=True)
            gs *= s
            gs *= scale
            if rq:
                pairs.append((rq, _unbroadcast(gs @ vk, sq)))
            if rk:
                gkt = _unbroadcast(np.swapaxes(vq, -1, -2) @ gs, skt)
                pairs.append((rk, np.swapaxes(gkt, -1, -2)))
        return pairs

    return Node(out, _Record(parents, grads))


# ---------------------------------------------------------------------------
# loss

def cross_entropy(logits, labels):
    """Mean negative log-likelihood with max-subtraction stabilization."""
    logits = lift(logits)
    vl = val(logits)
    if vl.ndim != 2:
        raise ShapeError("cross_entropy", vl.shape)
    labels = np.asarray(labels)
    n, c = vl.shape
    if labels.shape != (n,):
        raise ShapeError("cross_entropy labels", vl.shape, labels.shape)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise NumericsError(f"cross_entropy: label {bad} out of range [0, {c})")
    shifted = vl - vl.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    nll = lse - shifted[np.arange(n), labels]
    dtype = vl.dtype
    out = nll.mean(dtype=dtype)
    _check_finite("cross_entropy", out)

    def ga(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        return (g * p / n).astype(dtype)

    return _node(np.asarray(out), [(logits, ga)])


def linear(x, w, b=None, relu=False):
    """x @ w.T (+ b), then with `relu` max(·, 0), as one op; weights stored
    as (d_out, d_in).

    The bias is added, and the ReLU applied, in place to the product: one
    node and one output array, where a product node, an add node and a
    ReLU node would hold three. A 3-D input is multiplied by a C-contiguous
    copy of w.T: numpy makes one BLAS call per batch row, and at the
    encoder's widths those run up to twice as fast on a contiguous operand.
    A 2-D input keeps the strided view, which keeps the bits of the
    GraphSAGE layers and the heads. Only a trainable weight's gradient
    reads x, so under a frozen weight the op keeps no array of x, and the
    ReLU keeps only its bool mask.
    """
    x, w = lift(x), lift(w)
    vx, vw = val(x), val(w)
    if vw.ndim < 2 or vx.shape[-1] != vw.shape[-1]:
        raise ShapeError("linear", vx.shape, vw.shape)
    wt = np.swapaxes(vw, -1, -2)
    out = vx @ (np.ascontiguousarray(wt) if vx.ndim > 2 else wt)
    sx = vx.shape
    live = [(x, lambda g: _unbroadcast(g @ vw, sx))]
    if isinstance(w, Node):
        swt = wt.shape
        live.append((w, lambda g: np.swapaxes(_unbroadcast(
            np.swapaxes(vx, -1, -2) @ g, swt), -1, -2)))
    if b is not None:
        b = lift(b)
        vb = val(b)
        out += vb
        sb = vb.shape
        live.append((b, lambda g: _unbroadcast(g, sb)))
    if relu:
        np.maximum(out, 0, out=out)
    node = _node(out, live)
    if relu and isinstance(node, Node):
        # The ReLU's gradient, once, ahead of every operand's.
        mask, grads = out > 0, node.record.backward
        node.record.backward = lambda g: grads(g * mask)
    return node
