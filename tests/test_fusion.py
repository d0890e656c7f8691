import dataclasses

import numpy as np
import pytest

from conftest import (CONFIG_DIR, GPT2_BACKBONE, audit_parameters,
                      backbone_size, gpt2_audit, matmul, transpose_last)
from sagefuse import autodiff as ad
from sagefuse.config import ExperimentConfig
from sagefuse.fusion import (LORA_TARGETS, FusionAdapter, LoraPair,
                             audit_from_shapes, build_adapter_set,
                             default_placement, fusion_apply, lora_apply)
from sagefuse.textenc import BackboneConfig


def make_adapter(rank=1, d=2, g=1, **kwargs):
    return FusionAdapter(layer_index=0, source="pass1", rank=rank, d=d, g=g,
                         **kwargs)


class TestFusionApply:
    def test_hand_computed_example(self):
        # r=1, d=2, g=1: down [1,0], struct [2], up [1,1]^T, gate 0.5.
        # fused = 0.5*3 + 0.5*10 = 6.5; Z = [6.5, 6.5]; out = H1 + Z.
        a = make_adapter()
        a.w_a.value[...] = [[1.0, 0.0]]
        a.w_b.value[...] = [[2.0]]
        a.w_c.value[...] = [[1.0], [1.0]]
        out = np.asarray(fusion_apply(a, np.array([[[3.0, 4.0]]]),
                                      np.array([[5.0]])))
        assert out.shape == (1, 1, 2)
        assert np.allclose(out, [[[9.5, 10.5]]], atol=1e-15)

    def test_zero_up_projection_is_exact_identity(self):
        a = make_adapter(rank=3, d=8, g=4)  # w_c initializes to zero
        rng = np.random.default_rng(0)
        h1 = rng.normal(0, 1, (2, 5, 8))
        h2 = rng.normal(0, 1, (2, 4))
        assert np.array_equal(np.asarray(fusion_apply(a, h1, h2)), h1)

    def test_saturated_gate_ignores_structural_embedding(self):
        a = make_adapter(rank=2, d=4, g=3, seed=1)
        a.w_c.value[...] = np.random.default_rng(2).normal(0, 1, (4, 2))
        a.gate_logit.value[...] = 30.0
        h1 = np.random.default_rng(3).normal(0, 1, (1, 2, 4))
        h2 = np.zeros((1, 3))
        base = np.asarray(fusion_apply(a, h1, h2))
        eps = 1e-4
        for j in range(3):
            bumped = h2.copy()
            bumped[0, j] += eps
            diff = np.abs(np.asarray(fusion_apply(a, h1, bumped)) - base)
            assert diff.max() / eps < 1e-9

    def test_broadcast_reaches_every_token_position(self):
        a = make_adapter(rank=2, d=4, g=3, seed=4)
        a.w_c.value[...] = 1.0
        h1 = np.zeros((1, 5, 4))
        h2a = np.zeros((1, 3))
        h2b = np.ones((1, 3))
        out_a = np.asarray(fusion_apply(a, h1, h2a))
        out_b = np.asarray(fusion_apply(a, h1, h2b))
        changed = np.any(out_a != out_b, axis=-1)[0]
        assert changed.all()

    def test_dimension_mismatch_rejected(self):
        a = make_adapter(rank=1, d=2, g=1)
        with pytest.raises(ad.ShapeError, match="hidden states"):
            fusion_apply(a, np.ones((1, 3)), np.ones((1, 1)))
        with pytest.raises(ad.ShapeError, match="embeddings"):
            fusion_apply(a, np.ones((1, 2)), np.ones((1, 2)))

    def test_gate_stays_in_open_interval(self):
        a = make_adapter()
        # +/-30 is the widest range where float64 can still represent the
        # sigmoid strictly inside (0, 1).
        for logit in (-30.0, -1.0, 0.0, 1.0, 30.0):
            a.gate_logit.value[...] = logit
            assert 0.0 < float(ad.sigmoid(a.gate_logit.value)) < 1.0

    def test_gate_receives_gradient(self):
        a = make_adapter(rank=2, d=4, g=3, seed=5)
        a.w_c.value[...] = np.random.default_rng(6).normal(0, 1, (4, 2))
        h1 = np.random.default_rng(7).normal(0, 1, (2, 3, 4))
        h2 = np.random.default_rng(8).normal(0, 1, (2, 3))
        ad.backward(ad.sum_(ad.mul(fusion_apply(a, h1, h2),
                                   fusion_apply(a, h1, h2))))
        assert abs(a.gate_logit.grad) > 1e-10


class TestBuildAdapterSet:
    def test_default_12_layer_placement(self):
        assert default_placement(12) == ([5, 6, 7], [9, 10, 11])
        adapters = build_adapter_set([5, 6, 7], [9, 10, 11],
                                     rank=4, d=16, g=8)
        assert list(adapters) == [5, 6, 7, 9, 10, 11]
        sources = {layer: a.source for layer, a in adapters.items()}
        assert sources == {5: "pass1", 6: "pass1", 7: "pass1",
                           9: "pass2", 10: "pass2", 11: "pass2"}

    def test_scaled_down_placement(self):
        adapters = build_adapter_set([1], [3], rank=2, d=8, g=4)
        assert list(adapters) == [1, 3]

    def test_placement_scales_proportionally(self):
        assert default_placement(4) == ([1, 2], [3])
        assert default_placement(24) == ([10, 12, 14], [18, 20, 22])

    def test_initialization_contract(self):
        adapters = build_adapter_set([5], [9], rank=2, d=8, g=4)
        for a in adapters.values():
            assert np.array_equal(a.w_c.value, np.zeros((8, 2)))
            assert float(a.gate_logit.value) == 0.0
            assert float(ad.sigmoid(a.gate_logit.value)) == 0.5
            assert a.w_a.value.std() > 0

    def test_tied_projections_alias_lora_factors(self):
        pair = LoraPair(8, 8, rank=2, target="o")
        adapters = build_adapter_set([1], [3], rank=2, d=8, g=4,
                                     tie_pairs={1: pair, 3: pair})
        for a in adapters.values():
            assert a.w_a is pair.a
            assert a.w_c is pair.b
            assert a.tied
            assert {p.name for p in a.parameters()} == \
                   {a.w_b.name, a.gate_logit.name}


class TestLora:
    def test_zero_b_factor_is_exact_identity(self):
        rng = np.random.default_rng(0)
        pair = LoraPair(6, 4, rank=2, target="q")
        w = rng.normal(0, 1, (4, 6))
        x = rng.normal(0, 1, (3, 6))
        out = np.asarray(lora_apply(pair, w, x))
        assert np.array_equal(out, x @ w.T)

    def test_delta_has_rank_at_most_r(self):
        rng = np.random.default_rng(1)
        pair = LoraPair(16, 16, rank=3, target="q", seed=2)
        pair.b.value[...] = rng.normal(0, 1, (16, 3))
        delta = pair.b.value @ pair.a.value
        singular = np.linalg.svd(delta, compute_uv=False)
        assert (singular[3:] < 1e-10).all()

    def test_pair_parameter_count(self):
        pair = LoraPair(768, 2304, rank=4, target="qkv")
        assert sum(p.size for p in pair.parameters()) == 4 * (768 + 2304)

    def test_frozen_weight_untouched_by_training_step(self):
        from sagefuse.optim import AdamW
        rng = np.random.default_rng(3)
        pair = LoraPair(4, 4, rank=2, target="q")
        w = rng.normal(0, 1, (4, 4))
        before = w.copy()
        x = rng.normal(0, 1, (2, 4))
        opt = AdamW(pair.parameters(), lr=0.1)
        out = lora_apply(pair, w, x)
        ad.backward(ad.sum_(ad.mul(out, out)))
        opt.step()
        assert np.array_equal(w, before)
        assert np.any(pair.b.value != 0.0)


# ---------------------------------------------------------------------------
# Bitwise oracle: `lora_apply` and `fusion_apply` as they stood before every
# product became one `ad.linear`, each projection a matmul by the
# transposed view of its weight. The new forms must give the same forward
# bits and the same bits in every gradient. A width of 32 and a rank of 16
# are used because there numpy's matmul bits depend on operand strides (at
# rank 4 they do not, and a change of layout would go unseen).

def reference_lora_apply(pair, frozen_w, x, bias=None):
    base = ad.linear(x, frozen_w, bias)
    low = matmul(x, transpose_last(ad.lift(pair.a)))
    delta = matmul(low, transpose_last(ad.lift(pair.b)))
    return ad.add(base, delta)


def reference_fusion_apply(adapter, h1, h2):
    vh1, vh2 = ad.val(h1), np.asarray(h2)
    alpha = ad.sigmoid(ad.lift(adapter.gate_logit))
    text_part = matmul(h1, transpose_last(ad.lift(adapter.w_a)))
    struct_part = matmul(h2, transpose_last(ad.lift(adapter.w_b)))
    if vh1.ndim == 3:
        struct_part = ad.reshape(struct_part, (vh2.shape[0], 1, adapter.rank))
    fused = ad.add(ad.mul(alpha, text_part),
                   ad.mul(ad.sub(1.0, alpha), struct_part))
    z = matmul(fused, transpose_last(ad.lift(adapter.w_c)))
    return ad.add(h1, z)


class TestAdapterOracle:
    B, T, D, RANK, G = 2, 8, 32, 16, 16

    def _layer(self, dtype, tying):
        """One encoder layer's adapted pieces: a fusion adapter on the
        input and a LoRA pair on each of q, k, v and o over frozen weight
        arrays, every factor drawn away from its zero init. With `shared`
        tying the adapter aliases the o pair's factors, as in
        `Phase2Assembly`."""
        rng = np.random.default_rng(11)
        pairs = {t: LoraPair(self.D, self.D, self.RANK, t, seed=i,
                             dtype=dtype) for i, t in enumerate("qkvo")}
        for pair in pairs.values():
            pair.b.value[...] = rng.normal(0, 0.5, pair.b.shape)
        tie = (pairs["o"].a, pairs["o"].b) if tying == "shared" else None
        adapter = FusionAdapter(1, "pass1", self.RANK, self.D, self.G,
                                seed=3, tie=tie, dtype=dtype)
        if tie is None:
            adapter.w_c.value[...] = rng.normal(0, 0.5, adapter.w_c.shape)
        adapter.gate_logit.value[...] = 0.3
        weights = {t: (rng.normal(0, 0.2, (self.D, self.D)).astype(dtype),
                       rng.normal(0, 0.2, self.D).astype(dtype))
                   for t in pairs}
        x = ad.Parameter(rng.normal(0, 1, (self.B, self.T, self.D))
                         .astype(dtype), name="x")
        h2 = rng.normal(0, 1, (self.B, self.G)).astype(dtype)
        params = [x] + [p for t in pairs for p in pairs[t].parameters()]
        params += adapter.parameters()
        weight = rng.normal(0, 1, (self.B, self.T, self.D)).astype(dtype)
        return pairs, adapter, weights, x, h2, params, weight

    @staticmethod
    def _run(params, forward, weight):
        """Forward value and every parameter gradient of
        sum(forward() * weight), from zeroed gradients."""
        for p in params:
            p.zero_grad()
        out = forward()
        value = ad.val(out).copy()
        ad.backward(ad.sum_(ad.mul(out, weight)))
        return [value] + [p.grad.copy() for p in params]

    def _assert_same_bits(self, params, forward, reference, weight):
        got = self._run(params, forward, weight)
        want = self._run(params, reference, weight)
        assert got[0].dtype == want[0].dtype
        names = ["forward"] + [p.name for p in params]
        for name, a, b in zip(names, got, want):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", [False, True])
    def test_lora_apply_matches_matmul_chain(self, dtype, bias):
        pairs, _, weights, x, _, _, weight = self._layer(dtype, "separate")
        w, b = weights["q"]
        b = b if bias else None
        params = [x] + pairs["q"].parameters()

        def run(apply):
            return lambda: apply(pairs["q"], w, ad.lift(x), b)

        self._assert_same_bits(params, run(lora_apply),
                               run(reference_lora_apply), weight)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fusion_apply_matches_matmul_chain(self, dtype):
        _, adapter, _, x, h2, _, weight = self._layer(dtype, "separate")
        params = [x] + adapter.parameters()

        def run(apply):
            return lambda: apply(adapter, ad.lift(x), h2)

        self._assert_same_bits(params, run(fusion_apply),
                               run(reference_fusion_apply), weight)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tying", ["separate", "shared"])
    def test_adapted_projections_match_matmul_chains(self, dtype, tying):
        # The fused input feeds four adapted projections, so x's gradient
        # sums several paths, and a shared adapter's W_A/W_C take theirs
        # from both the fusion and the o pair.
        pairs, adapter, weights, x, h2, params, weight = \
            self._layer(dtype, tying)

        def run(fuse, project):
            def forward():
                h = fuse(adapter, ad.lift(x), h2)
                out = None
                for t, (w, b) in weights.items():
                    y = project(pairs[t], w, h, b)
                    out = y if out is None else ad.add(out, y)
                return out
            return forward

        self._assert_same_bits(
            params, run(fusion_apply, lora_apply),
            run(reference_fusion_apply, reference_lora_apply), weight)


class TestAudit:
    def test_gpt2_audit_config_is_the_gpt2_shape(self):
        cfg = ExperimentConfig.from_file(CONFIG_DIR / "gpt2_audit.cfg")
        assert cfg.backbone == GPT2_BACKBONE

    def test_gpt2_shaped_lora_subtotal_exact(self):
        audit = gpt2_audit(adapted_layers=[5, 6, 7, 9, 10, 11], rank=4,
                           fusion_tying="shared")
        assert audit.lora_pairs == 6 * (4 * (768 + 2304) + 4 * (768 + 768))
        assert audit.lora_pairs == 110_592

    def test_doubling_rank_doubles_lora_exactly(self):
        kwargs = dict(adapted_layers=[5, 6, 7, 9, 10, 11],
                      fusion_tying="shared")
        r4 = gpt2_audit(rank=4, **kwargs)
        r8 = gpt2_audit(rank=8, **kwargs)
        assert r8.lora_pairs == 2 * r4.lora_pairs

    def test_analytic_audit_matches_registry_walk(self):
        from sagefuse.sage import SageModel
        from sagefuse.textenc import EncoderBackbone
        from sagefuse.trainer import Phase2Assembly, Phase2Inputs, RunConfig
        cfg = BackboneConfig(dim=16, heads=2, layers=4, mlp_width=32,
                             max_tokens=8, precision="f64")
        backbone = EncoderBackbone(cfg, vocab_size=50)
        inputs = Phase2Inputs(
            labels=np.zeros(10, np.int64), split=None, num_classes=3,
            mask=np.ones((10, 8)), states=np.zeros((10, 8, 16)), layer=0,
            pass1=np.zeros((10, 8)), pass2=np.zeros((10, 8)))
        run = RunConfig(rank=2, pass1_layers=(1,), pass2_layers=(3,))
        assembly = Phase2Assembly(backbone, inputs, config=run, seed=0)
        gnn = SageModel(in_dim=16, embed_dim=8, hidden=6, num_classes=3)
        walked = audit_parameters(
            [("gnn", p) for p in gnn.parameters()] + assembly.registry(),
            backbone_size(backbone))
        analytic = audit_from_shapes(
            cfg, vocab_size=50, adapted_layers=[1, 3], rank=2, g=8,
            num_classes=3, gnn_hidden=6)
        assert walked.as_dict() == analytic.as_dict()

    def test_totals_are_component_sums(self):
        audit = gpt2_audit(adapted_layers=[5, 9], rank=4, num_classes=4)
        assert audit.phase2_trainable == (audit.fusion + audit.lora_pairs
                                          + audit.classifier_head)
        assert audit.total_trainable == audit.gnn + audit.phase2_trainable

    def test_shared_tying_counts_only_gate_and_struct_projection(self):
        kwargs = dict(adapted_layers=[5, 9], rank=4)
        shared = gpt2_audit(fusion_tying="shared", **kwargs)
        separate = gpt2_audit(fusion_tying="separate", **kwargs)
        assert shared.fusion == 2 * (4 * 64 + 1)
        assert separate.fusion == 2 * (4 * 768 + 4 * 64 + 768 * 4 + 1)

    def test_fused_qkv_shape_arithmetic(self):
        cfg = BackboneConfig(max_tokens=4, dim=8, heads=2, layers=1,
                             mlp_width=16, fused_qkv=True)
        attn = (8 * 24 + 24) + (8 * 8 + 8)
        per_layer = attn + 4 * 8 + (8 * 16 + 16) + (16 * 8 + 8)
        assert cfg.param_count(10) == 10 * 8 + 4 * 8 + per_layer + 16
        assert cfg.param_count(10) == \
            dataclasses.replace(cfg, fused_qkv=False).param_count(10)
        assert cfg.lora_target_shapes(LORA_TARGETS) == [(8, 24), (8, 8)]

    def test_table_renders_all_components(self):
        audit = gpt2_audit(adapted_layers=[5, 9], rank=4)
        table = audit.table()
        for label in ("gnn", "fusion", "lora", "classifier head",
                      "relative to backbone"):
            assert label in table
