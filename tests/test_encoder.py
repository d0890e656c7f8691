import dataclasses
import warnings

import numpy as np
import pytest

from conftest import (backbone_arrays, backbone_size, make_graph,
                      pad_columns, token_inputs, tokenize)
from sagefuse import autodiff as ad
from sagefuse.config import ConfigError
from sagefuse.optim import AdamW
from sagefuse.fusion import fusion_apply, lora_apply
from sagefuse.textenc import (CLS_ID, ENCODE_BATCH, PAD_ID, UNK_ID,
                              BackboneConfig, EncoderBackbone, Vocabulary,
                              VocabError, build_vocab, embed, encode,
                              node_features, prefix_states, readout,
                              split_tokens, tokenize_graph)
from sagefuse.trainer import Phase2Assembly, RunConfig, predict_logits

PRECISION = {np.float32: "f32", np.float64: "f64"}


@pytest.fixture(scope="module")
def micro_backbone():
    return EncoderBackbone(BackboneConfig(dim=16, heads=2, layers=4,
                                          mlp_width=32, max_tokens=16,
                                          seed=0, precision="f64"),
                           vocab_size=40)


def _vocab(*tokens):
    return Vocabulary(token_to_id={t: 3 + i for i, t in enumerate(tokens)})


class TestVocabulary:
    def test_frequency_order_after_reserved_ids(self):
        g = make_graph({0: [], 1: []}, texts=["a b", "a c"],
                       splits=["train", "train"])
        v = build_vocab(g)
        assert v.id_of("a") == 3  # most frequent gets the lowest free id
        assert {v.id_of("b"), v.id_of("c")} == {4, 5}

    def test_frequency_ties_break_lexicographically(self):
        g = make_graph({0: []}, texts=["zeta alpha"], splits=["train"])
        v = build_vocab(g)
        assert v.id_of("alpha") < v.id_of("zeta")

    def test_max_size_truncation(self):
        texts = [" ".join(f"tok{i}" for i in range(10))]
        g = make_graph({0: []}, texts=texts, splits=["train"])
        v = build_vocab(g, max_size=4)
        assert v.size == 4 + 3

    def test_token_only_in_test_split_maps_to_unk(self):
        g = make_graph({0: [], 1: []}, texts=["seen", "leaky"],
                       splits=["train", "test"])
        v = build_vocab(g)
        assert v.id_of("seen") != UNK_ID
        assert v.id_of("leaky") == UNK_ID

    def test_empty_training_corpus_rejected(self):
        g = make_graph({0: []}, texts=["x"], splits=["test"])
        with pytest.raises(VocabError):
            build_vocab(g)

    def test_tokenizer_lowercases_and_strips_punctuation(self):
        assert split_tokens("Hello, World-2!") == ["hello", "world", "2"]


class TestTokenize:
    def test_cls_prefix_and_padding(self):
        v = _vocab("a", "b")
        ids, mask = tokenize("a b", "", v, seq_len=8)
        assert ids.tolist() == [CLS_ID, v.id_of("a"), v.id_of("b")] + [PAD_ID] * 5
        assert mask.tolist() == [1, 1, 1, 0, 0, 0, 0, 0]

    def test_overlong_prompt_warns_and_starves_text(self):
        v = _vocab(*[f"p{i}" for i in range(10)], "x")
        prompt = " ".join(f"p{i}" for i in range(10))
        with pytest.warns(UserWarning, match="budget"):
            ids, _ = tokenize("x", prompt, v, seq_len=8)
        assert v.id_of("x") not in ids.tolist()

    def test_distinct_prompts_give_distinct_sequences(self):
        words = "classify this account bio whether commercial or not"
        v = _vocab(*words.split(), "hello")
        prompts = ["", "classify:", "classify this account bio:",
                   "classify whether this account is commercial or not:"]
        seqs = {tuple(tokenize("hello", p, v, 16)[0].tolist())
                for p in prompts}
        assert len(seqs) == 4

    def test_minimum_length_enforced(self):
        with pytest.raises(VocabError):
            tokenize("a", "", _vocab("a"), seq_len=3)


def reference_tokenize(text, prompt, vocab, seq_len):
    """The list-based single-text layout the batched tokenizer replaced."""
    ids = ([CLS_ID] + vocab.encode(prompt) + vocab.encode(text))[:seq_len]
    n = len(ids)
    return (np.array(ids + [PAD_ID] * (seq_len - n), dtype=np.int64),
            np.array([1.0] * n + [0.0] * (seq_len - n)))


class TestTokenizeGraph:
    TEXTS = ["hello world", "", "unseen words only", "hello " * 12,
             "World, hello!"]

    @pytest.mark.parametrize("prompt", ["", "classify this", "hello " * 9])
    @pytest.mark.parametrize("seq_len", [4, 8, 16])
    def test_matches_per_node_tokenize(self, prompt, seq_len):
        v = _vocab("hello", "world", "classify", "this")
        g = make_graph({i: [] for i in range(len(self.TEXTS))},
                       texts=self.TEXTS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ids, mask = tokenize_graph(g, v, prompt, seq_len)
            single = [tokenize(t, prompt, v, seq_len) for t in self.TEXTS]
        reference = [reference_tokenize(t, prompt, v, seq_len)
                     for t in self.TEXTS]
        assert ids.dtype == np.int64 and mask.dtype == np.float64
        assert ids.shape[1] == max(int(r[1].sum()) for r in reference)
        padded = pad_columns(ids, mask, seq_len)
        for rows in (single, reference):
            assert np.array_equal(padded[0], np.stack([r[0] for r in rows]))
            assert np.array_equal(padded[1], np.stack([r[1] for r in rows]))

    @pytest.mark.parametrize("seq_len, width", [(16, 6), (8, 6), (4, 4)])
    def test_width_is_the_longest_row_at_most_seq_len(self, seq_len, width):
        v = _vocab("a")
        g = make_graph({i: [] for i in range(3)},
                       texts=["a", "a a a a a", "a a"])
        ids, mask = tokenize_graph(g, v, "", seq_len)
        assert ids.shape == mask.shape == (3, width)
        assert mask[:, -1].any()  # no column is padding in every row
        assert mask.sum(axis=1).tolist() == [min(n, width) for n in (2, 6, 3)]

    def test_prompt_filling_seq_len_gives_width_seq_len(self):
        v = _vocab(*[f"p{i}" for i in range(10)])
        prompt = " ".join(f"p{i}" for i in range(10))
        g = make_graph({0: [], 1: []}, texts=["...", "?"])
        ids, mask = tokenize_graph(g, v, prompt, seq_len=8)
        assert ids.shape == (2, 8) and mask.all()

    def test_overlong_prompt_warns(self):
        v = _vocab(*[f"p{i}" for i in range(10)], "x")
        prompt = " ".join(f"p{i}" for i in range(10))
        g = make_graph({0: [], 1: []}, texts=["x", "x x"])
        with pytest.warns(UserWarning, match="budget"):
            ids, _ = tokenize_graph(g, v, prompt, seq_len=8)
        assert v.id_of("x") not in ids.tolist()

    def test_prompt_filling_budget_without_text_does_not_warn(self):
        v = _vocab(*[f"p{i}" for i in range(10)])
        prompt = " ".join(f"p{i}" for i in range(10))
        g = make_graph({0: []}, texts=["..."])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tokenize_graph(g, v, prompt, seq_len=8)


class TestEncode:
    def test_pure_function_of_inputs(self, micro_backbone):
        ids = np.array([[CLS_ID, 5, 6, PAD_ID]])
        mask = np.array([[1.0, 1.0, 1.0, 0.0]])
        with ad.no_grad():
            a = np.asarray(encode(micro_backbone, embed(micro_backbone, ids),
                                  mask))
            b = np.asarray(encode(micro_backbone, embed(micro_backbone, ids),
                                  mask))
        assert np.array_equal(a, b)

    def test_padded_token_ids_never_leak_into_unmasked_outputs(
            self, micro_backbone):
        rng = np.random.default_rng(0)
        for _ in range(10):
            ids = rng.integers(3, 40, (2, 8))
            mask = np.ones((2, 8))
            mask[:, 5:] = 0.0
            ids_a = ids.copy()
            ids_b = ids.copy()
            ids_b[:, 5:] = rng.integers(3, 40, (2, 3))  # perturb pads only
            with ad.no_grad():
                out_a = np.asarray(encode(micro_backbone,
                                          embed(micro_backbone, ids_a), mask))
                out_b = np.asarray(encode(micro_backbone,
                                          embed(micro_backbone, ids_b), mask))
            assert np.array_equal(out_a[:, :5], out_b[:, :5])

    def test_adapter_layer_beyond_depth_rejected(self, micro_backbone):
        from sagefuse.fusion import build_adapter_set
        states = embed(micro_backbone, np.array([[CLS_ID]]))
        adapters = build_adapter_set([1], [6], rank=2, d=16, g=8)
        h = {"pass1": np.zeros((1, 8)), "pass2": np.zeros((1, 8))}
        with pytest.raises(VocabError, match="layer 6"):
            encode(micro_backbone, states, np.array([[1.0]]),
                   adapters=adapters, node_embeddings=h)
        from sagefuse.fusion import LoraPair
        with pytest.raises(VocabError, match="layer 5"):
            encode(micro_backbone, states, np.array([[1.0]]),
                   lora={5: {"q": LoraPair(16, 16, 2, "layer5.q")}})

    def test_sequence_longer_than_positions_rejected(self, micro_backbone):
        assert embed(micro_backbone, np.zeros((1, 16), dtype=np.int64)
                     ).shape == (1, 16, 16)
        ids = np.zeros((1, 17), dtype=np.int64)
        with pytest.raises(VocabError, match="max_tokens"):
            embed(micro_backbone, ids)
        with pytest.raises(VocabError, match="max_tokens"):
            node_features(micro_backbone, ids, np.ones((1, 17)), layer=2)

    @pytest.mark.parametrize("layer", [0, 2, 4])
    def test_pass_split_at_a_layer_equals_one_pass(self, micro_backbone,
                                                   layer):
        rng = np.random.default_rng(3)
        ids = rng.integers(3, 40, (3, 8))
        mask = np.ones((3, 8))
        mask[0, 4:] = 0.0
        with ad.no_grad():
            x0 = embed(micro_backbone, ids)
            whole = np.asarray(encode(micro_backbone, x0, mask))
            states = encode(micro_backbone, x0, mask, stop=layer)
            resumed = np.asarray(encode(micro_backbone, states, mask, layer))
        assert states.shape == (3, 8, 16)
        assert np.array_equal(resumed, whole)

    def test_adapted_layer_below_start_rejected(self, micro_backbone):
        from sagefuse.fusion import LoraPair, build_adapter_set
        mask = np.ones((1, 4))
        states = np.zeros((1, 4, 16))
        adapters = build_adapter_set([1], [3], rank=2, d=16, g=8)
        h = {"pass1": np.zeros((1, 8)), "pass2": np.zeros((1, 8))}
        with pytest.raises(VocabError, match="adapted layer 1 lies outside"):
            encode(micro_backbone, states, mask, 2, adapters=adapters,
                   node_embeddings=h)
        lora = {1: {"q": LoraPair(16, 16, 2, "layer1.q")}}
        with pytest.raises(VocabError, match="adapted layer 1 lies outside"):
            encode(micro_backbone, states, mask, 2, lora=lora)

    def test_adapted_layer_at_or_above_stop_rejected(self, micro_backbone):
        from sagefuse.fusion import LoraPair, build_adapter_set
        states = embed(micro_backbone, np.array([[CLS_ID, 3, 4]]))
        mask = np.ones((1, 3))
        adapters = build_adapter_set([1], [3], rank=2, d=16, g=8)
        h = {"pass1": np.zeros((1, 8)), "pass2": np.zeros((1, 8))}
        with pytest.raises(VocabError, match=r"layer 3 lies outside the "
                                             r"encoded layers \[0, 2\)"):
            encode(micro_backbone, states, mask, 0, 2, adapters=adapters,
                   node_embeddings=h)
        lora = {2: {"q": LoraPair(16, 16, 2, "layer2.q")}}
        with pytest.raises(VocabError, match="layer 2 lies outside"):
            encode(micro_backbone, states, mask, 0, 2, lora=lora)

    def test_all_weights_frozen(self, micro_backbone):
        # Every weight is a plain array, a constant to every op, so a
        # grad-enabled pass with no adapters records no graph at all.
        assert all(type(a) is np.ndarray
                   for a in backbone_arrays(micro_backbone))
        ids = np.array([[CLS_ID, 3, 4, PAD_ID]])
        mask = (ids != PAD_ID).astype(float)
        features = readout(micro_backbone,
                           encode(micro_backbone, embed(micro_backbone, ids),
                                  mask), mask)
        assert type(features) is np.ndarray

    def test_param_count_matches_shape_arithmetic(self, micro_backbone):
        assert backbone_size(micro_backbone) == \
            micro_backbone.config.param_count(40)

    def test_fused_qkv_backbone_refused(self):
        with pytest.raises(ConfigError, match="audit-only shape"):
            EncoderBackbone(BackboneConfig(dim=16, heads=2, layers=2,
                                           fused_qkv=True), vocab_size=40)


def _with_pooling(backbone, pooling):
    """A backbone with the same weights as `backbone` and `pooling`."""
    return EncoderBackbone(dataclasses.replace(backbone.config,
                                               pooling=pooling),
                           vocab_size=len(backbone.tok_emb))


class TestNodeFeatures:
    def test_identical_texts_get_identical_rows(self, micro_backbone):
        g = make_graph({0: [1], 1: [0], 2: []},
                       texts=["same text", "same text", "other"],
                       splits=["train"] * 3)
        v = build_vocab(g)
        x, _ = node_features(micro_backbone,
                             *tokenize_graph(g, v, "", 8), layer=2)
        assert np.array_equal(x[0], x[1])
        assert not np.array_equal(x[0], x[2])

    def test_single_position_mean_equals_cls_state(self, micro_backbone):
        # A text with no in-vocab presence still has [CLS] + its UNK token;
        # use an empty-ish text so only CLS is unmasked: mask has one live
        # position, so the mean over non-pad states is that state.
        v = _vocab("a")
        ids, mask = tokenize("", "", v, seq_len=8)
        assert mask.sum() == 1.0
        with ad.no_grad():
            hidden = encode(micro_backbone, embed(micro_backbone, ids[None]),
                            mask[None])
            pooled = np.asarray(readout(micro_backbone, hidden, mask[None]))
            first = readout(_with_pooling(micro_backbone, "cls"), hidden,
                            mask[None])
        assert np.allclose(pooled[0], first[0], atol=1e-15)

    def test_batched_matches_per_node_recomputation(self, micro_backbone):
        g = make_graph({i: [] for i in range(20)},
                       texts=[f"word{i} word{(i * 7) % 5}" for i in range(20)],
                       splits=["train"] * 20)
        v = build_vocab(g)
        ids, mask = tokenize_graph(g, v, "", 8)
        x, _ = node_features(micro_backbone, ids, mask, layer=2)
        for i in range(20):
            row = slice(i, i + 1)
            with ad.no_grad():
                hidden = encode(micro_backbone,
                                embed(micro_backbone, ids[row]), mask[row])
                ref = np.asarray(readout(micro_backbone, hidden,
                                         mask[row]))[0]
            assert np.allclose(x[i], ref, atol=1e-12)

    def test_cls_pooling_supported(self, micro_backbone):
        g = make_graph({0: [], 1: []}, texts=["a b", "b"],
                       splits=["train"] * 2)
        v = build_vocab(g)
        ids, mask = tokenize_graph(g, v, "", 8)
        backbone = _with_pooling(micro_backbone, "cls")
        x, _ = node_features(backbone, ids, mask, layer=2)
        with ad.no_grad():
            final = ad.layernorm(encode(backbone, embed(backbone, ids), mask),
                                 backbone.ln_f_g, backbone.ln_f_b)
        assert x.shape == (2, 16)
        assert np.array_equal(x, final[:, 0])
        with pytest.raises(ConfigError, match=r"\[backbone\] pooling must be "
                           "one of"):
            _with_pooling(micro_backbone, "max")


# ---------------------------------------------------------------------------
# The encoder before it split into `embed`, `encode` and `readout`: a frozen
# copy kept as a bitwise oracle for the three stages and their callers.

def _reference_proj(x, w, b, pair):
    if pair is None:
        return ad.linear(x, w, b)
    return lora_apply(pair, w, x, bias=b)


def reference_encode(backbone, ids, mask, adapters=None, node_embeddings=None,
                     lora=None, states=None, start=0, stop=None):
    """One pass from token ids, or from the `states` at the input of layer
    `start`, to the input of layer `stop`, or else through the closing
    layernorm. The range and placement checks are left out."""
    cfg = backbone.config
    mask = np.atleast_2d(np.asarray(mask))
    bsz, seq = mask.shape
    end = cfg.layers if stop is None else stop
    by_layer = adapters or {}
    lora = lora or {}
    heads, dh = cfg.heads, cfg.dim // cfg.heads
    neg = np.asarray(-1e9, dtype=cfg.dtype)
    mask_bias = ((1.0 - mask) * neg).reshape(bsz, 1, 1, seq).astype(cfg.dtype)

    if states is None:
        ids = np.atleast_2d(np.asarray(ids))
        x = ad.add(ad.gather_rows(ad.lift(backbone.tok_emb), ids),
                   ad.val(backbone.pos_emb)[:seq])
    else:
        x = states
    for l in range(start, end):
        blk = backbone.blocks[l]
        if l in by_layer:
            adapter = by_layer[l]
            x = fusion_apply(adapter, x, node_embeddings[adapter.source])
        pairs = lora.get(l, {})
        a = ad.layernorm(x, blk["ln1_g"], blk["ln1_b"])
        q = _reference_proj(a, blk["q"], blk["q_b"], pairs.get("q"))
        k = _reference_proj(a, blk["k"], blk["k_b"], pairs.get("k"))
        v = _reference_proj(a, blk["v"], blk["v_b"], pairs.get("v"))

        def split_heads(t):
            return ad.transpose(ad.reshape(t, (bsz, seq, heads, dh)),
                                (0, 2, 1, 3))

        att = ad.attention(split_heads(q), split_heads(k), split_heads(v),
                           mask_bias=mask_bias)
        att = ad.reshape(ad.transpose(att, (0, 2, 1, 3)), (bsz, seq, cfg.dim))
        x = ad.add(x, _reference_proj(att, blk["o"], blk["o_b"],
                                      pairs.get("o")))
        h = ad.layernorm(x, blk["ln2_g"], blk["ln2_b"])
        h = ad.linear(ad.relu(ad.linear(h, blk["mlp1"], blk["mlp1_b"])),
                      blk["mlp2"], blk["mlp2_b"])
        x = ad.add(x, h)
    if stop is not None:
        return x
    return ad.layernorm(x, backbone.ln_f_g, backbone.ln_f_b)


def reference_pool_states(hidden, mask, pooling):
    if pooling == "cls":
        return hidden[:, 0, :] if not isinstance(hidden, ad.Node) \
            else ad.gather_rows(ad.transpose(hidden, (1, 0, 2)), 0)
    m = np.asarray(mask)
    weights = (m / m.sum(axis=1, keepdims=True))[..., None]
    return ad.sum_(ad.mul(hidden, weights.astype(ad.val(hidden).dtype)),
                   axis=1)


def reference_batches(n, size=64):
    return [slice(lo, lo + size) for lo in range(0, n, size)]


@pytest.fixture(scope="module",
                params=[(p, pool) for p in ("f32", "f64")
                        for pool in ("mean", "cls")],
                ids=lambda param: "-".join(param))
def oracle_case(request):
    """A backbone and ENCODE_BATCH + 6 random rows (a partial last batch)
    with lengths from 1 to 8 tokens."""
    precision, pooling = request.param
    backbone = EncoderBackbone(BackboneConfig(
        dim=16, heads=2, layers=4, mlp_width=32, max_tokens=16, seed=0,
        precision=precision, pooling=pooling), vocab_size=40)
    rng = np.random.default_rng(5)
    n = ENCODE_BATCH + 6
    mask = (np.arange(8) < rng.integers(1, 9, n)[:, None]).astype(np.float64)
    ids = np.where(mask > 0, rng.integers(3, 40, (n, 8)), PAD_ID)
    ids[:, 0] = CLS_ID
    return backbone, ids, mask


class TestParentEncoderOracle:
    def test_stages_compose_to_the_parent_pass(self, oracle_case):
        backbone, ids, mask = oracle_case
        with ad.no_grad():
            hidden = encode(backbone, embed(backbone, ids), mask)
            assert np.array_equal(hidden, reference_encode(
                backbone, ids, mask, stop=backbone.config.layers))
            got = readout(backbone, hidden, mask)
            want = reference_pool_states(reference_encode(backbone, ids, mask),
                                         mask, backbone.config.pooling)
        assert got.dtype == backbone.config.dtype
        assert np.array_equal(got, want)

    def test_prefix_states_split_at_each_layer(self, oracle_case):
        backbone, ids, mask = oracle_case
        layers = backbone.config.layers
        with ad.no_grad():
            want = [np.concatenate([reference_encode(backbone, ids[sl],
                                                     mask[sl], stop=layer)
                                    for sl in reference_batches(len(ids))])
                    for layer in range(layers + 1)]
        assert np.array_equal(embed(backbone, ids), want[0])
        for start in range(layers + 1):
            for stop in range(start, layers + 1):
                got = prefix_states(backbone, want[start], mask, start, stop)
                assert np.array_equal(got, want[stop]), (start, stop)

    @pytest.mark.parametrize("layer", [0, 1, 4])
    def test_node_features_equal_the_parent(self, oracle_case, layer):
        backbone, ids, mask = oracle_case
        pooling = backbone.config.pooling
        want_states = np.empty(mask.shape + (16,), backbone.config.dtype)
        want_x = np.empty((len(ids), 16), backbone.config.dtype)
        with ad.no_grad():
            for sl in reference_batches(len(ids)):
                want_states[sl] = reference_encode(backbone, ids[sl],
                                                   mask[sl], stop=layer)
            for sl in reference_batches(len(ids)):
                want_x[sl] = reference_pool_states(reference_encode(
                    backbone, None, mask[sl], states=want_states[sl],
                    start=layer), mask[sl], pooling)
        x, states = node_features(backbone, ids, mask, layer)
        assert np.array_equal(states, want_states)
        assert np.array_equal(x, want_x)


def _fused_assembly(graph, dtype):
    vocab = build_vocab(graph)
    backbone = EncoderBackbone(BackboneConfig(
        dim=16, heads=2, layers=4, mlp_width=32, max_tokens=16, seed=0,
        precision=PRECISION[dtype]), vocab.size)
    rng = np.random.default_rng(0)
    n = graph.num_nodes
    pass1, pass2 = (rng.normal(0, 0.5, (n, 8)).astype(dtype)
                    for _ in range(2))
    config = RunConfig(rank=2, pass1_layers=(1,), pass2_layers=(3,),
                       seq_len=8, baseline="fused")
    ids, mask = tokenize_graph(graph, vocab, "", 8)
    inputs = token_inputs(graph, backbone, ids, mask, pass1, pass2)
    assembly = Phase2Assembly(backbone, inputs, config, seed=0)
    return vocab, backbone, assembly, ids, mask, inputs


class TestPrecision:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_encoder_outputs_keep_config_dtype(self, micro_tag, dtype):
        vocab, backbone, assembly, ids, mask, inputs = _fused_assembly(
            micro_tag, dtype)
        assert inputs.states.dtype == dtype
        with ad.no_grad():
            hidden = encode(backbone, inputs.states[:4], mask[:4])
        assert ad.val(hidden).dtype == dtype
        x, states = node_features(backbone, ids, mask, layer=1)
        assert x.dtype == dtype and states.dtype == dtype
        batch = micro_tag.split_ids("train")[:4]
        logits = assembly.logits(inputs, batch)
        assert ad.val(logits).dtype == dtype

    def test_fused_phase2_step_in_f32_records_no_float64(self, micro_tag,
                                                         monkeypatch):
        _, _, assembly, _, _, inputs = _fused_assembly(micro_tag,
                                                       np.float32)
        seen = []
        record = ad._node

        def spy(value, pairs):
            seen.append(np.asarray(value).dtype)
            return record(value, pairs)

        monkeypatch.setattr(ad, "_node", spy)
        batch = micro_tag.split_ids("train")[:16]
        opt = AdamW(assembly.trainable_parameters())
        loss = ad.cross_entropy(assembly.logits(inputs, batch),
                                micro_tag.labels[batch])
        ad.backward(loss)
        opt.step()
        assert seen and np.dtype(np.float64) not in seen
        assert all(p.value.dtype == np.float32
                   for p in assembly.trainable_parameters())


class TestFrozenPrefix:
    """Phase-2 logits from precomputed prefix states equal a full pass of
    the parent encoder."""

    @pytest.mark.parametrize("pooling", ["mean", "cls"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("baseline", ["fused", "lora_only", "text_only"])
    def test_logits_bitwise_equal_with_and_without_states(
            self, micro_tag, dtype, baseline, pooling):
        vocab = build_vocab(micro_tag)
        backbone = EncoderBackbone(BackboneConfig(
            dim=16, heads=2, layers=4, mlp_width=32, max_tokens=16, seed=0,
            precision=PRECISION[dtype], pooling=pooling), vocab.size)
        rng = np.random.default_rng(0)
        n = micro_tag.num_nodes
        pass1, pass2 = (rng.normal(0, 0.5, (n, 8)).astype(dtype)
                        for _ in range(2))
        config = RunConfig(rank=2, pass1_layers=(1,), pass2_layers=(3,),
                           seq_len=8, baseline=baseline)
        start = config.first_adapted_layer(4)
        assert start == (4 if baseline == "text_only" else 1)
        ids, mask = tokenize_graph(micro_tag, vocab, "", 8)
        x, states = node_features(backbone, ids, mask, start)
        assert np.array_equal(states, prefix_states(
            backbone, embed(backbone, ids), mask, 0, start))
        tokens = token_inputs(micro_tag, backbone, ids, mask, pass1, pass2)
        cached = dataclasses.replace(tokens, states=states, layer=start)
        assembly = Phase2Assembly(backbone, tokens, config, seed=0)
        # Move the zero-initialized up-projections off the identity point.
        for p in assembly.trainable_parameters():
            p.value[...] = rng.normal(0, 0.05, p.value.shape)
        batch = micro_tag.split_ids("train")[:16]
        with ad.no_grad():
            full = reference_encode(backbone, ids[batch], mask[batch],
                                    adapters=assembly.adapters,
                                    node_embeddings={
                                        "pass1": pass1[batch],
                                        "pass2": pass2[batch]},
                                    lora=assembly.lora)
            reference = np.asarray(ad.linear(
                reference_pool_states(full, mask[batch], pooling),
                assembly.head_w, assembly.head_b))
            got = np.asarray(assembly.logits(cached, batch))
        assert got.dtype == dtype
        assert np.array_equal(got, reference)
        # With gradients on, the states of an adapted pass are graph nodes.
        assert np.array_equal(ad.val(assembly.logits(cached, batch)),
                              reference)
        nodes = np.arange(n)
        assert np.array_equal(predict_logits(assembly, cached, nodes),
                              predict_logits(assembly, tokens, nodes))
        assert np.array_equal(tokens.at_layer(backbone, start).states, states)

    def test_states_above_an_adapted_layer_rejected(self, micro_tag):
        _, backbone, assembly, _, _, inputs = _fused_assembly(micro_tag,
                                                              np.float64)
        # The pass-1 adapter and its LoRA pairs sit at layer 1.
        above = inputs.at_layer(backbone, 2)
        with pytest.raises(VocabError, match=r"encoded layers \[2, 4\)"):
            assembly.logits(above, micro_tag.split_ids("train")[:4])


class TestRaggedLengths:
    """Texts of 1 to `words` words under a `seq_len` longer than any row:
    phase 2 runs the encoder on L* columns, the longest row, not on
    `seq_len`. In the wide layout rows are far enough apart in length that
    a width cut per batch would give a row other bits."""

    # (words, seq_len, L*): L* is [CLS] plus the longest text.
    LAYOUTS = {"narrow": (5, 12, 6), "wide": (15, 20, 16)}
    # Fewer columns regroup the softmax and pooling sums, so the trimmed
    # logits need not be bitwise those of the untrimmed oracle (the narrow
    # layout's are not); they stay within these absolute bounds, for logits
    # below 1 in magnitude.
    ORACLE_ATOL = {np.float32: 1e-6, np.float64: 1e-14}

    @staticmethod
    def _graph(words):
        rng = np.random.default_rng(3)
        vocabulary = [f"w{i}" for i in range(12)]
        n = 70
        texts = [" ".join(rng.choice(vocabulary, rng.integers(1, words + 1)))
                 for _ in range(n)]
        return make_graph({i: [] for i in range(n)},
                          labels=rng.integers(0, 3, n).tolist(), texts=texts,
                          num_classes=3, splits=["train"] * n)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("pooling", ["mean", "cls"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("baseline", ["fused", "text_only"])
    def test_trimmed_logits_match_the_untrimmed_oracle(self, dtype, baseline,
                                                       pooling, layout):
        words, seq_len, width = self.LAYOUTS[layout]
        graph = self._graph(words)
        n = graph.num_nodes
        vocab = build_vocab(graph)
        backbone = EncoderBackbone(BackboneConfig(
            dim=16, heads=2, layers=4, mlp_width=32, max_tokens=32, seed=0,
            precision=PRECISION[dtype], pooling=pooling), vocab.size)
        rng = np.random.default_rng(0)
        pass1, pass2 = (rng.normal(0, 0.5, (n, 8)).astype(dtype)
                        for _ in range(2))
        config = RunConfig(rank=2, pass1_layers=(1,), pass2_layers=(3,),
                           seq_len=seq_len, baseline=baseline)
        ids, mask = tokenize_graph(graph, vocab, "", seq_len)
        tokens = token_inputs(graph, backbone, ids, mask, pass1, pass2)
        assembly = Phase2Assembly(backbone, tokens, config, seed=0)
        for p in assembly.trainable_parameters():
            p.value[...] = rng.normal(0, 0.05, p.value.shape)
        lengths = mask.sum(axis=1)
        assert lengths.min() == 2 and lengths.max() == width
        assert ids.shape == (n, width)
        # The untrimmed oracle runs on the same rows padded to seq_len.
        full_ids, full_mask = pad_columns(ids, mask, seq_len)
        start = config.first_adapted_layer(4)
        inputs = tokens.at_layer(backbone, start)
        assert inputs.mask.shape == (n, width)
        assert inputs.states.shape == (n, width, 16)
        # Phase 1's prefix states are the ones phase 2 runs from.
        _, states = node_features(backbone, ids, mask, start)
        assert np.array_equal(states, inputs.states)

        nodes = np.arange(n)
        with ad.no_grad():
            full = reference_encode(backbone, full_ids, full_mask,
                                    adapters=assembly.adapters,
                                    node_embeddings={
                                        "pass1": pass1, "pass2": pass2},
                                    lora=assembly.lora)
            reference = np.asarray(ad.linear(
                reference_pool_states(full, full_mask, pooling),
                assembly.head_w, assembly.head_b))
            got = np.asarray(assembly.logits(inputs, nodes))
            # A row's bits do not depend on the rows that share its batch:
            # batches of shorter rows only, batches with a longest row, and
            # shuffled batches of 16 give the same logits. Every batch holds
            # at least 2 rows: a 1-row head product takes another BLAS path.
            short = nodes[lengths < width]
            longest = nodes[lengths == width]
            pairs = np.concatenate([
                np.asarray(assembly.logits(inputs, short[i:i + 2]))
                for i in range(0, len(short) - 1, 2)])
            with_longest = np.concatenate([
                np.asarray(assembly.logits(inputs, np.array([v, longest[0]])))
                [:1] for v in short])
            order = rng.permutation(n)
            shuffled = np.empty_like(got)
            for i in range(0, n, 16):
                shuffled[order[i:i + 16]] = ad.val(
                    assembly.logits(inputs, order[i:i + 16]))
        assert got.dtype == dtype
        np.testing.assert_allclose(got, reference, rtol=0,
                                   atol=self.ORACLE_ATOL[dtype])
        assert np.array_equal(pairs, got[short[:len(pairs)]])
        assert np.array_equal(with_longest, got[short])
        assert np.array_equal(shuffled, got)
        assert np.array_equal(predict_logits(assembly, inputs, nodes), got)
