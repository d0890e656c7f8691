import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import matmul, matmul_transposed, relu, transpose_last
from sagefuse import autodiff as ad
from sagefuse.autodiff import NumericsError, Parameter, ShapeError


class TestForwardOps:
    def test_relu(self):
        out = ad.linear(np.array([[-1.0, 0.0, 2.0]]), np.eye(3), relu=True)
        assert np.array_equal(out, [[0.0, 0.0, 2.0]])

    def test_attention_single_token_returns_value_row(self):
        # Softmax over a singleton is 1, so the output is exactly V.
        q = np.array([[0.3, -0.7]])
        k = np.array([[5.0, 2.0]])
        v = np.array([[1.25, -4.5]])
        assert np.array_equal(np.asarray(ad.attention(q, k, v)), v)

    def test_attention_weights_rows_sum_to_one(self):
        # With V the identity, the output is the attention weights.
        rng = np.random.default_rng(0)
        q, k = rng.normal(0, 5, (2, 30, 7))
        s = np.asarray(ad.attention(q, k, np.eye(30)))
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)
        assert (s >= 0).all()

    def test_matmul_shape_mismatch_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            matmul(np.ones((2, 3)), np.ones((4, 2)))
        with pytest.raises(ShapeError, match="matmul"):  # no 1-D operand
            matmul(np.ones((2, 3)), np.ones(3))

    def test_concat_cols_shape_mismatch_names_op(self):
        with pytest.raises(ShapeError, match="concat_cols"):
            ad.concat_cols(np.ones((2, 3)), np.ones((3, 3)))

    def test_linear_shape_mismatch_names_op(self):
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(np.ones((2, 3)), np.ones((4, 2)))
        with pytest.raises(ShapeError, match="linear"):  # no 1-D weight
            ad.linear(np.ones((2, 3)), np.ones(3))

    def test_layernorm_shape_mismatch_names_op(self):
        with pytest.raises(ShapeError, match="layernorm"):
            ad.layernorm(np.ones((2, 4)), np.ones(3), np.zeros(3))


class TestCrossEntropy:
    def test_uniform_logits_give_log_num_classes(self):
        logits = np.zeros((5, 4))
        loss = float(ad.val(ad.cross_entropy(logits, np.zeros(5, dtype=int))))
        assert loss == pytest.approx(np.log(4.0), abs=1e-12)

    def test_confident_correct_logits(self):
        # -log softmax([10, -10])[0] = log(1 + exp(-20))
        loss = float(ad.val(ad.cross_entropy(np.array([[10.0, -10.0]]), [0])))
        assert loss == pytest.approx(np.log1p(np.exp(-20.0)), rel=1e-12)
        assert loss == pytest.approx(2.06115362e-9, rel=1e-6)

    def test_class_permutation_invariance(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(0, 2, (10, 5))
        labels = rng.integers(0, 5, 10)
        perm = rng.permutation(5)
        base = float(ad.val(ad.cross_entropy(logits, labels)))
        permuted = float(ad.val(ad.cross_entropy(logits[:, perm],
                                                 np.argsort(perm)[labels])))
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            logits = rng.normal(0, 3, (8, 3))
            labels = rng.integers(0, 3, 8)
            assert float(ad.val(ad.cross_entropy(logits, labels))) >= 0.0

    def test_label_out_of_range_rejected(self):
        with pytest.raises(NumericsError, match="out of range"):
            ad.cross_entropy(np.zeros((2, 3)), [0, 3])

    def test_extreme_logits_stay_finite(self):
        loss = float(ad.val(ad.cross_entropy(np.array([[1e4, -1e4]]), [1])))
        assert np.isfinite(loss)


class TestBackward:
    def test_backward_without_recorded_graph_rejected(self):
        loss = ad.sum_(ad.mul(np.ones((2, 2)), 2.0))
        with pytest.raises(NumericsError):
            ad.backward(loss)

    def test_backward_on_a_bare_parameter_rejected(self):
        w = Parameter(np.ones(2), name="w")
        with pytest.raises(NumericsError, match="no recorded graph"):
            ad.backward(w)
        assert np.array_equal(w.grad, np.zeros(2))

    def test_sum_of_linear_map_gradient(self):
        # loss = sum(W @ x)  =>  dloss/dW = outer(ones, x)
        w = Parameter(np.ones((2, 3)), name="w")
        x = np.array([[1.0], [2.0], [3.0]])
        ad.backward(ad.sum_(matmul(w, x)))
        assert np.array_equal(w.grad, np.outer(np.ones(2), x))

    def test_elementwise_product_gradient(self):
        w = Parameter(np.array([4.0, 5.0]), name="w")
        x = np.array([2.0, -3.0])
        ad.backward(ad.sum_(ad.mul(w, x)))
        assert np.array_equal(w.grad, x)

    def test_gradient_accumulates_across_backward_calls(self):
        w = Parameter(np.ones(2), name="w")
        for _ in range(2):
            ad.backward(ad.sum_(ad.mul(w, np.array([1.0, 2.0]))))
        assert np.array_equal(w.grad, [2.0, 4.0])
        w.zero_grad()
        assert np.array_equal(w.grad, np.zeros(2))

    def test_shared_parameter_used_twice_sums_both_paths(self):
        w = Parameter(np.array([3.0]), name="w")
        loss = ad.add(ad.mul(w, 2.0), ad.mul(w, 5.0))
        ad.backward(ad.sum_(loss))
        assert np.array_equal(w.grad, [7.0])

    def test_no_grad_disables_recording(self):
        w = Parameter(np.ones(2), name="w")
        with ad.no_grad():
            out = ad.mul(w, 2.0)
        assert isinstance(out, np.ndarray)

    def test_broadcast_bias_gradient_sums_over_batch(self):
        b = Parameter(np.zeros(3), name="b")
        x = np.ones((5, 3))
        ad.backward(ad.sum_(ad.add(x, b)))
        assert np.array_equal(b.grad, np.full(3, 5.0))

    def test_second_backward_on_a_consumed_graph_rejected(self):
        w = Parameter(np.ones(2), name="w")
        hidden = ad.mul(w, np.array([1.0, 2.0]))
        loss = ad.sum_(hidden)
        ad.backward(loss)
        with pytest.raises(NumericsError,
                           match="^backward: graph already consumed$"):
            ad.backward(loss)
        with pytest.raises(NumericsError, match="already consumed"):
            ad.backward(ad.sum_(hidden))  # a new loss over a consumed node
        assert np.array_equal(w.grad, [1.0, 2.0])

    def test_backward_releases_interior_values(self):
        # `hidden` is read by v's gradient, `scaled` by no closure.
        w = Parameter(np.ones((3, 4)), name="w")
        v = Parameter(np.full(4, 2.0), name="v")
        hidden = relu(matmul(np.ones((5, 3)), w))
        scaled = ad.mul(hidden, v)
        read, unread = weakref.ref(ad.val(hidden)), weakref.ref(ad.val(scaled))
        loss = ad.sum_(scaled)
        del hidden, scaled
        assert unread() is None
        assert read() is not None
        ad.backward(loss)
        assert read() is None
        assert float(ad.val(loss)) == 120.0
        assert np.array_equal(w.grad, np.full((3, 4), 10.0))
        assert np.array_equal(v.grad, np.full(4, 15.0))


class TestStrictFinite:
    def test_parameter_rejects_nonfinite_values(self):
        with pytest.raises(NumericsError):
            Parameter(np.array([np.nan]), name="bad")


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_matmul_gradient_matches_transpose_identity(n, m, seed):
    # d(sum(W @ x))/dW = ones_outer_x for any shape; property over shapes.
    rng = np.random.default_rng(seed)
    w = Parameter(rng.normal(0, 1, (n, m)), name="w")
    x = rng.normal(0, 1, (m, 1))
    ad.backward(ad.sum_(matmul(w, x)))
    assert np.allclose(w.grad, np.outer(np.ones(n), x), atol=1e-12)


def mean_(a, axis):
    """A mean op built as the package builds its ops, for the dtype table
    below."""
    a = ad.lift(a)
    va = ad.val(a)
    out = va.mean(axis=axis)

    def ga(g):
        return np.broadcast_to(np.expand_dims(g, axis), va.shape).copy() \
            / va.shape[axis]

    return ad._node(out, [(a, ga)])


# Every public op, applied to a (4, 4) input `x` of the dtype under test.
# The Python-scalar and np.float64-scalar operands are the cases where
# NumPy 2 would otherwise promote a float32 graph to float64.
_DTYPE_OPS = {
    "add": lambda x: ad.add(x, x),
    "add_python_int": lambda x: ad.add(x, 2),
    "add_python_float_left": lambda x: ad.add(0.5, x),
    "sub": lambda x: ad.sub(x, ad.val(x)),
    "sub_python_float": lambda x: ad.sub(1.0, x),
    "sub_np_float64": lambda x: ad.sub(x, np.float64(0.25)),
    "mul": lambda x: ad.mul(x, x),
    "mul_python_float": lambda x: ad.mul(x, 3.0),
    "mul_np_float64": lambda x: ad.mul(x, 1.0 / np.sqrt(4)),
    "mul_np_float64_left": lambda x: ad.mul(np.float64(1.5), x),
    "matmul": lambda x: matmul(x, x),
    "sparse_matmul": lambda x: ad.sparse_matmul(
        sp.identity(4, dtype=ad.val(x).dtype, format="csr"), x),
    "concat_cols": lambda x: ad.concat_cols(x, x),
    "reshape": lambda x: ad.reshape(x, (2, 8)),
    "transpose": lambda x: ad.transpose(x, (1, 0)),
    "transpose_last": transpose_last,
    "gather_rows": lambda x: ad.gather_rows(x, [0, 2, 2]),
    "sum_": lambda x: ad.sum_(x, axis=0),
    "mean_": lambda x: mean_(x, axis=1),
    "sigmoid": ad.sigmoid,
    "layernorm": lambda x: ad.layernorm(
        x, np.ones(4, ad.val(x).dtype), np.zeros(4, ad.val(x).dtype)),
    "attention": lambda x: ad.attention(x, x, x),
    "attention_masked": lambda x: ad.attention(
        x, x, x, mask_bias=np.zeros((1, 4), ad.val(x).dtype)),
    "cross_entropy": lambda x: ad.cross_entropy(x, [0, 1, 2, 3]),
    "linear": lambda x: ad.linear(x, x, ad.val(x)[0]),
    "linear_relu": lambda x: ad.linear(x, x, ad.val(x)[0], relu=True),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", sorted(_DTYPE_OPS))
def test_op_keeps_input_dtype_forward_and_backward(op, dtype):
    rng = np.random.default_rng(0)
    x = ad.lift(Parameter(rng.normal(0, 1, (4, 4)).astype(dtype), name="x"))
    out = _DTYPE_OPS[op](x)
    assert ad.val(out).dtype == dtype
    ad.backward(ad.sum_(out))
    assert x.grad.dtype == dtype


# ---------------------------------------------------------------------------
# Retention: a recorded op keeps alive only the arrays its gradients read.
# Each case lists its operands as (name, kind, shape): a "node" is an
# interior node that only the caller's Node references, a "const" a plain
# array. After the caller drops every operand and the output, the arrays
# still alive must be exactly the listed ones, and `backward` must release
# them all.

def _linear_relu(x, w, b):
    return ad.linear(x, w, b, relu=True)


_RETENTION = {
    "add": ([("a", "node", (3, 4)), ("b", "node", (4,))], ad.add, ()),
    "sub": ([("a", "node", (3, 4)), ("b", "node", (3, 4))], ad.sub, ()),
    "mul": ([("a", "node", (3, 4)), ("b", "node", (3, 4))], ad.mul,
            ("a", "b")),
    "mul_constant": ([("a", "node", (3, 4)), ("b", "const", (3, 4))],
                     ad.mul, ("b",)),
    "sparse_matmul": ([("x", "node", (4, 3))], lambda x: ad.sparse_matmul(
        sp.identity(4, format="csr"), x), ()),
    "concat_cols": ([("a", "node", (3, 4)), ("b", "node", (3, 2))],
                    ad.concat_cols, ()),
    "reshape": ([("a", "node", (3, 4))], lambda a: ad.reshape(a, (2, 6)), ()),
    "transpose": ([("a", "node", (3, 4))],
                  lambda a: ad.transpose(a, (1, 0)), ()),
    "gather_rows": ([("a", "node", (3, 4))],
                    lambda a: ad.gather_rows(a, [0, 2, 2]), ()),
    "sum_": ([("a", "node", (3, 4))], lambda a: ad.sum_(a, axis=0), ()),
    "sigmoid": ([("a", "node", (3, 4))], ad.sigmoid, ("out",)),
    "layernorm": ([("x", "node", (3, 4)), ("g", "const", (4,)),
                   ("b", "const", (4,))], ad.layernorm, ("g",)),
    "layernorm_trainable": ([("x", "node", (3, 4)), ("g", "node", (4,)),
                             ("b", "node", (4,))], ad.layernorm, ("g",)),
    "attention": ([("q", "node", (2, 3, 4)), ("k", "node", (2, 3, 4)),
                   ("v", "node", (2, 3, 4))], ad.attention, ("q", "k", "v")),
    "attention_q": ([("q", "node", (2, 3, 4)), ("k", "const", (2, 3, 4)),
                     ("v", "const", (2, 3, 4))], ad.attention, ("k", "v")),
    "attention_v": ([("q", "const", (2, 3, 4)), ("k", "const", (2, 3, 4)),
                     ("v", "node", (2, 3, 4))], ad.attention, ()),
    "cross_entropy": ([("a", "node", (3, 4))],
                      lambda a: ad.cross_entropy(a, [0, 1, 3]), ()),
    "linear_frozen": ([("x", "node", (3, 4)), ("w", "const", (5, 4)),
                       ("b", "const", (5,))], ad.linear, ("w",)),
    "linear_trainable": ([("x", "node", (3, 4)), ("w", "node", (5, 4)),
                          ("b", "node", (5,))], ad.linear, ("x", "w")),
    "linear_constant_input": ([("x", "const", (3, 4)),
                               ("w", "node", (5, 4))], ad.linear, ("x",)),
    "linear_relu_frozen": ([("x", "node", (2, 3, 4)), ("w", "const", (5, 4)),
                            ("b", "const", (5,))], _linear_relu, ("w",)),
    "linear_relu_trainable": ([("x", "node", (2, 3, 4)), ("w", "node", (5, 4)),
                               ("b", "node", (5,))], _linear_relu,
                              ("x", "w")),
}


def _operands(specs):
    rng = np.random.default_rng(0)
    return [ad.add(Parameter(rng.normal(0, 1, shape), name=name), 0.0)
            if kind == "node" else rng.normal(0, 1, shape)
            for name, kind, shape in specs]


@pytest.mark.parametrize("case", sorted(_RETENTION))
def test_op_keeps_only_the_arrays_its_gradients_read(case):
    specs, op, kept = _RETENTION[case]
    operands = _operands(specs)
    out = op(*operands)
    refs = {name: weakref.ref(ad.val(x))
            for (name, _, _), x in zip(specs, operands)}
    refs["out"] = weakref.ref(ad.val(out))
    loss = ad.sum_(out)
    del operands, out
    alive = {name for name, ref in refs.items() if ref() is not None}
    assert alive == set(kept)
    ad.backward(loss)
    assert all(ref() is None for ref in refs.values())


def test_gather_rows_gradient_is_laid_out_like_its_table():
    # Gathering from a transposed view: the gradient keeps the layout
    # np.zeros_like gives, since strides can move matmul bits.
    x = ad.add(Parameter(np.ones((3, 5, 4)), name="x"), 0.0)
    for table in (x, ad.transpose(x, (1, 0, 2))):
        out = ad.gather_rows(table, 0)
        [(_, g)] = out.record.backward(np.ones(ad.val(out).shape))
        assert g.strides == np.zeros_like(ad.val(table)).strides


# ---------------------------------------------------------------------------
# Bitwise oracle: `attention` and `linear` as chains of primitive ops, frozen
# as they stood before each became one op. The one-op versions must give the
# same forward bits and the same bits in every input gradient. Widths of 32
# are used because there numpy's matmul bits depend on operand strides.

def reference_softmax(a, axis=-1):
    a = ad.lift(a)
    va = ad.val(a)
    shifted = va - va.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def ga(g):
        return s * (g - (g * s).sum(axis=axis, keepdims=True))

    return ad._node(s, [(a, ga)])


def reference_attention(q, k, v, mask_bias=None):
    dk = ad.val(q).shape[-1]
    scores = ad.mul(matmul(q, transpose_last(k)), 1.0 / np.sqrt(dk))
    if mask_bias is not None:
        scores = ad.add(scores, mask_bias)
    return matmul(reference_softmax(scores, axis=-1), v)


def reference_linear(x, w, b=None):
    out = matmul_transposed(x, w)
    if b is not None:
        out = ad.add(out, b)
    return out


def reference_layernorm(x, gamma, beta, eps=1e-5):
    """`ad.layernorm` as it stood with `np.var`, which computes the mean and
    x - μ a second time."""
    x, gamma, beta = ad.lift(x), ad.lift(gamma), ad.lift(beta)
    vx, vg, vb = ad.val(x), ad.val(gamma), ad.val(beta)
    mu = vx.mean(axis=-1, keepdims=True)
    var = vx.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (vx - mu) * inv
    out = vg * xhat + vb
    d = vx.shape[-1]
    sg, sb = vg.shape, vb.shape

    def gx(g):
        gh = g * vg
        return inv * (gh - gh.mean(axis=-1, keepdims=True)
                      - xhat * (gh * xhat).sum(axis=-1, keepdims=True) / d)

    def ggamma(g):
        return ad._unbroadcast(g * xhat, sg)

    def gbeta(g):
        return ad._unbroadcast(g, sb)

    return ad._node(out, [(x, gx), (gamma, ggamma), (beta, gbeta)])


def reference_linear_relu(x, w, b=None):
    return relu(ad.linear(x, w, b))


def _leaf(rng, shape, dtype, name, frozen=False):
    """A trainable Parameter, or with `frozen` the plain array a frozen
    weight is."""
    value = rng.normal(0, 1, shape).astype(dtype)
    return value if frozen else Parameter(value, name=name)


def _grads_through(op, params, make_inputs, weight):
    """Forward value and every parameter gradient of sum(op(...) * weight),
    from zeroed gradients."""
    for p in params:
        p.zero_grad()
    out = op(*make_inputs())
    value = ad.val(out).copy()
    ad.backward(ad.sum_(ad.mul(out, weight)))
    return value, [p.grad.copy() for p in params]


def _assert_same_bits(op, reference, params, make_inputs, weight):
    got, got_grads = _grads_through(op, params, make_inputs, weight)
    want, want_grads = _grads_through(reference, params, make_inputs, weight)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    for p, a, b in zip(params, got_grads, want_grads):
        assert a.tobytes() == b.tobytes(), p.name


class TestParentOpOracle:
    B, T, H, DH = 2, 32, 2, 32

    def _split_heads(self, t):
        # The encoder's head layout: a transposed view of a reshape.
        return ad.transpose(ad.reshape(t, (self.B, self.T, self.H, self.DH)),
                            (0, 2, 1, 3))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("shared", [False, True])
    def test_attention_matches_primitive_chain(self, dtype, masked, shared):
        rng = np.random.default_rng(3)
        d = self.H * self.DH
        names = ["x"] if shared else ["q", "k", "v"]
        params = [_leaf(rng, (self.B, self.T, d), dtype, n) for n in names]
        mask = np.ones((self.B, self.T))
        mask[0, 3:] = 0.0
        mask_bias = ((1.0 - mask) * np.asarray(-1e9, dtype)).reshape(
            self.B, 1, 1, self.T).astype(dtype) if masked else None
        weight = rng.normal(0, 1, (self.B, self.H, self.T, self.DH)
                            ).astype(dtype)

        def make_inputs():
            heads = [self._split_heads(ad.lift(p)) for p in params]
            q, k, v = heads * 3 if shared else heads
            return q, k, v, mask_bias

        _assert_same_bits(ad.attention, reference_attention, params,
                          make_inputs, weight)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True])
    def test_attention_with_constant_operands(self, dtype, masked):
        # Only q trains (LoRA on the query alone, below any trained layer).
        rng = np.random.default_rng(4)
        q = _leaf(rng, (self.B, self.H, self.T, self.DH), dtype, "q")
        k, v = (rng.normal(0, 1, (self.B, self.H, self.T, self.DH)
                           ).astype(dtype) for _ in range(2))
        mask_bias = np.zeros((self.B, 1, 1, self.T), dtype) if masked \
            else None
        weight = rng.normal(0, 1, (self.B, self.H, self.T, self.DH)
                            ).astype(dtype)
        _assert_same_bits(ad.attention, reference_attention, [q],
                          lambda: (ad.lift(q), k, v, mask_bias), weight)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("w_frozen", [False, True])
    @pytest.mark.parametrize("bias", ["none", "frozen", "trainable"])
    @pytest.mark.parametrize("x_shape", [(6, 32), (2, 8, 32)])
    def test_linear_matches_primitive_chain(self, dtype, w_frozen, bias,
                                            x_shape):
        rng = np.random.default_rng(5)
        x = _leaf(rng, x_shape, dtype, "x")
        w = _leaf(rng, (32, 32), dtype, "w", frozen=w_frozen)
        b = None if bias == "none" else _leaf(rng, (32,), dtype, "b",
                                              frozen=bias == "frozen")
        trainable = [p for p in (x, w, b) if isinstance(p, Parameter)]
        weight = rng.normal(0, 1, x_shape[:-1] + (32,)).astype(dtype)
        _assert_same_bits(ad.linear, reference_linear, trainable,
                          lambda: (ad.lift(x), w, b), weight)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape", [(64, 17, 32), (64, 17, 64),
                                         (64, 7, 16), (6, 32)])
    def test_layernorm_matches_the_var_form(self, dtype, x_shape):
        rng = np.random.default_rng(6)
        d = x_shape[-1]
        x = Parameter((rng.normal(0.5, 2, x_shape)).astype(dtype), name="x")
        gamma = _leaf(rng, (d,), dtype, "gamma")
        beta = _leaf(rng, (d,), dtype, "beta")
        weight = rng.normal(0, 1, x_shape).astype(dtype)
        _assert_same_bits(ad.layernorm, reference_layernorm, [x, gamma, beta],
                          lambda: (ad.lift(x), gamma, beta), weight)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("w_frozen", [False, True])
    @pytest.mark.parametrize("bias", ["none", "frozen", "trainable"])
    @pytest.mark.parametrize("x_shape", [(6, 32), (2, 8, 32)])
    def test_linear_relu_matches_relu_over_linear(self, dtype, w_frozen, bias,
                                                  x_shape):
        rng = np.random.default_rng(7)
        x = _leaf(rng, x_shape, dtype, "x")
        w = _leaf(rng, (64, 32), dtype, "w", frozen=w_frozen)
        b = None if bias == "none" else _leaf(rng, (64,), dtype, "b",
                                              frozen=bias == "frozen")
        trainable = [p for p in (x, w, b) if isinstance(p, Parameter)]
        weight = rng.normal(0, 1, x_shape[:-1] + (64,)).astype(dtype)

        def fused(x, w, b):
            return ad.linear(x, w, b, relu=True)

        _assert_same_bits(fused, reference_linear_relu, trainable,
                          lambda: (ad.lift(x), w, b), weight)


def test_linear_relu_closure_holds_only_the_mask():
    # Beyond the closure of the product's own gradients, the ReLU keeps its
    # bool mask and no float array: not the output, not the pre-ReLU sum.
    x = ad.add(Parameter(np.ones((2, 3, 4)), name="x"), 0.0)
    out = ad.linear(x, np.eye(5, 4) - 0.5, np.zeros(5), relu=True)
    held = [c.cell_contents for c in out.record.backward.__closure__]
    arrays = [h for h in held if isinstance(h, np.ndarray)]
    assert len(held) == 2 and len(arrays) == 1
    assert arrays[0].dtype == bool
    assert np.array_equal(arrays[0], ad.val(out) > 0)


# ---------------------------------------------------------------------------
# A row's bits do not depend on the batch it sits in: `ENCODE_BATCH`'s
# pieces and the ragged-length layouts rely on it. A 3-D `linear` runs one
# product per batch row over a C-contiguous weight copy, so any run of rows
# must give the bits those rows have in the full batch.

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("relu_", [False, True])
@pytest.mark.parametrize("t, d_in, d_out", [
    (17, 32, 32), (17, 64, 256), (17, 256, 64), (7, 16, 32), (17, 32, 4),
    (17, 4, 32)])
def test_linear_rows_independent_of_their_batch(dtype, relu_, t, d_in,
                                                d_out):
    rng = np.random.default_rng(8)
    x = rng.normal(0, 1, (64, t, d_in)).astype(dtype)
    w = rng.normal(0, 1, (d_out, d_in)).astype(dtype)
    b = rng.normal(0, 1, d_out).astype(dtype)
    full = ad.linear(x, w, b, relu=relu_)
    for size in (1, 2, 5, 33):
        for rows in (slice(0, size), slice(64 - size, 64)):
            part = ad.linear(x[rows], w, b, relu=relu_)
            assert part.tobytes() == full[rows].tobytes(), (size, rows)
