"""Transformer encoder-decoder with controllable quantized reasoning.

The encoder output can be routed through per-category codebooks: tokens are
quantized per active category, mixed with predicted scalar weights, passed
through the straight-through estimator, and fused back onto the encoder
output with a residual sum before decoding. Three strategies share the same
parameter set: ``notags`` (plain seq-to-seq), ``tags`` (reasoning tags only
in the input question), and ``retag`` (tags plus the codebook path).

Gradient routing notes that matter for training and verification:

* the category-weight head reads a stop-gradiented pooled encoding, so the
  codebook loss trains the codes and the head but never the encoder stack;
* ``forward_train(..., frozen=...)`` runs the same forward with the code
  selections, the pooled head input and the stop-gradient arguments pinned
  to constants taken from an earlier pass (``FrozenForward``). That variant
  is smooth, has the same autodiff gradients at the pinned point, and is what
  finite differences are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .codebook import TWO_BANK_CATEGORIES, CodebookBank, mix, straight_through, vq_losses
from .errors import ConfigError, ContractError, LengthError
from .numerics.rng import RngStream
from .numerics.tensor import (
    Tensor,
    gather,
    gelu,
    layer_norm,
    masked_fill,
    matmul,
    softmax,
    stop_gradient,
    transpose,
)
from .numerics import dropout as dropout_op
from .tables import (
    BOS,
    CATEGORIES,
    EOS,
    STRATEGIES,
    Instance,
    Vocab,
    build_input,
    build_question,
    decode_text,
    encode_text,
    linearize,
)

_NEG_FILL = -1e9


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    layers: int = 2
    heads: int = 4
    hidden: int = 128
    ffn: int = 256
    max_len: int = 256
    k: int = 64
    strategy: str = "retag"
    codebook_count: int = 6
    dropout: float = 0.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.codebook_count not in (2, 6):
            raise ConfigError(f"codebook_count must be 2 or 6, got {self.codebook_count}")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.vocab_size < 7:
            raise ConfigError("vocabulary too small")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} outside [0, 1)")
        if self.k < 2 or self.layers < 1 or self.max_len < 4:
            raise ConfigError("layers must be >= 1, k >= 2, max_len >= 4")

    def to_json(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "layers": self.layers,
            "heads": self.heads,
            "hidden": self.hidden,
            "ffn": self.ffn,
            "max_len": self.max_len,
            "k": self.k,
            "strategy": self.strategy,
            "codebook_count": self.codebook_count,
            "dropout": self.dropout,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ModelConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**payload)


@dataclass
class Prepared:
    """A tokenized training/eval item: input ids, target ids, category flags."""

    instance: Instance
    input_ids: np.ndarray
    target_ids: np.ndarray
    category_mask: tuple[bool, ...]
    kind: str

    @property
    def ci_target(self) -> int:
        return 0 if self.kind == "descriptive" else 1


def prepare_instance(
    vocab: Vocab,
    instance: Instance,
    strategy: str,
    tags_override: frozenset[str] | None = None,
) -> Prepared:
    cats = tags_override if tags_override is not None else instance.categories
    question = build_question(strategy, cats)
    text = build_input(question, linearize(instance.table, instance.highlights))
    return Prepared(
        instance=instance,
        input_ids=np.asarray(encode_text(vocab, text), dtype=np.int64),
        target_ids=np.asarray(encode_text(vocab, instance.reference), dtype=np.int64),
        category_mask=tuple(c in cats for c in CATEGORIES),
        kind=instance.kind,
    )


@dataclass
class ForwardOutput:
    logits: Tensor | None  # (T_out, V) next-token scores under teacher forcing; None if not decoded
    ci_logits: Tensor  # (2,) [descriptive, analytical]
    codebook_loss: Tensor
    commitment_loss: Tensor
    weights: list | None  # per bank category: 0.0 or a scalar tensor
    enc: Tensor  # (N, H) encoder output
    mixed: Tensor | None  # (N, H) weighted quantization; None without the codebook path
    indices: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class FrozenForward:
    """Values from one forward pass that pin every non-smooth choice of another.

    Fields left None are not pinned; the default instance is the live forward.
    """

    indices: dict[str, np.ndarray] | None = None  # code selected per token, per active category
    enc0: np.ndarray | None = None  # encoder output
    mixed0: np.ndarray | None = None  # weighted quantization
    pool0: np.ndarray | None = None  # pooled encoding read by the weight head


_LIVE = FrozenForward()


# -- parameter construction -------------------------------------------------------


def _attn_names(prefix: str) -> list[str]:
    return [f"{prefix}.{n}" for n in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")]


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    h, f, v = config.hidden, config.ffn, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        "enc.tok_emb": (v, h),
        "enc.pos_emb": (config.max_len, h),
        "dec.tok_emb": (v, h),
        "dec.pos_emb": (config.max_len, h),
        "dec.out.w": (h, v),
        "dec.out.b": (v,),
        "weight_head.w": (h, config.codebook_count),
        "weight_head.b": (config.codebook_count,),
        "ci.w": (h, 2),
        "ci.b": (2,),
    }
    for side, blocks in (("enc", ("ln1", "attn", "ln2", "ff")), ("dec", ("ln1", "self", "ln2", "cross", "ln3", "ff"))):
        for i in range(config.layers):
            for block in blocks:
                base = f"{side}.l{i}.{block}"
                if block.startswith("ln"):
                    shapes[f"{base}.g"] = (h,)
                    shapes[f"{base}.b"] = (h,)
                elif block == "ff":
                    shapes[f"{base}.w1"] = (h, f)
                    shapes[f"{base}.b1"] = (f,)
                    shapes[f"{base}.w2"] = (f, h)
                    shapes[f"{base}.b2"] = (h,)
                else:
                    for name in _attn_names(base):
                        shapes[name] = (h, h) if name.split(".")[-1].startswith("w") else (h,)
        shapes[f"{side}.ln_f.g"] = (h,)
        shapes[f"{side}.ln_f.b"] = (h,)
    cats = CATEGORIES if config.codebook_count == 6 else TWO_BANK_CATEGORIES
    for cat in cats:
        shapes[f"codebook.{cat}"] = (config.k, h)
    return shapes


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> dict[str, Tensor]:
    """Embeddings ~ N(0, 0.02); weight matrices Xavier-uniform; biases and
    layer-norm offsets zero; gains one; codes ~ U(-1/K, 1/K)."""
    root = RngStream(seed, ("init",))
    params: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config).items():
        stream = root.child(name)
        leaf = name.split(".")[-1]
        if name.startswith("codebook."):
            data = stream.uniform(-1.0 / config.k, 1.0 / config.k, size=shape)
        elif "emb" in name:
            data = stream.normal(0.0, 0.02, size=shape)
        elif leaf == "g":
            data = np.ones(shape)
        elif leaf.startswith("b"):
            data = np.zeros(shape)
        else:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            data = stream.uniform(-limit, limit, size=shape)
        params[name] = Tensor(data, requires_grad=True, dtype=dtype)
    return params


def parameter_group(params: dict[str, Tensor], prefixes: Sequence[str]) -> dict[str, Tensor]:
    return {n: p for n, p in params.items() if any(n.startswith(pre) for pre in prefixes)}


class Model:
    """Parameters plus vocabulary plus configuration; forward methods below."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor], vocab: Vocab):
        if config.vocab_size != len(vocab):
            raise ConfigError(f"config vocab_size {config.vocab_size} != vocabulary size {len(vocab)}")
        expected = parameter_shapes(config)
        if set(params) != set(expected):
            missing = sorted(set(expected) - set(params))
            extra = sorted(set(params) - set(expected))
            raise ConfigError(f"parameter manifest mismatch: missing {missing}, extra {extra}")
        for name, shape in expected.items():
            if params[name].shape != shape:
                raise ConfigError(f"parameter {name} has shape {params[name].shape}, expected {shape}")
        self.config = config
        self.params = params
        self.vocab = vocab

    @classmethod
    def init(cls, config: ModelConfig, vocab: Vocab, seed: int = 0, dtype=np.float32) -> "Model":
        return cls(config, init_params(config, seed, dtype=dtype), vocab)

    @property
    def dtype(self):
        return self.params["enc.tok_emb"].dtype

    def bank(self) -> CodebookBank:
        tensors = {n.split(".", 1)[1]: p for n, p in self.params.items() if n.startswith("codebook.")}
        return CodebookBank.from_tensors(tensors)

    def clone(self) -> "Model":
        return Model(self.config, dict(self.params), self.vocab)

    # -- building blocks ---------------------------------------------------------

    def _p(self, name: str) -> Tensor:
        return self.params[name]

    def _mha(self, base: str, q_in: Tensor, kv_in: Tensor, attn_mask: np.ndarray | None) -> Tensor:
        heads = self.config.heads
        dh = self.config.hidden // heads
        nq = q_in.shape[-2]

        def split_heads(x: Tensor) -> Tensor:
            # (..., T, H) -> (..., heads, T, dh)
            shaped = x.reshape(x.shape[:-1] + (heads, dh))
            axes = tuple(range(shaped.ndim - 3)) + (shaped.ndim - 2, shaped.ndim - 3, shaped.ndim - 1)
            return transpose(shaped, axes)

        q = split_heads(q_in @ self._p(f"{base}.wq") + self._p(f"{base}.bq"))
        k = split_heads(kv_in @ self._p(f"{base}.wk") + self._p(f"{base}.bk"))
        v = split_heads(kv_in @ self._p(f"{base}.wv") + self._p(f"{base}.bv"))
        scores = matmul(q, transpose(k)) * (1.0 / np.sqrt(dh))
        if attn_mask is not None:
            scores = masked_fill(scores, attn_mask, _NEG_FILL)
        ctx = matmul(softmax(scores, axis=-1), v)  # (..., heads, Tq, dh)
        axes = tuple(range(ctx.ndim - 3)) + (ctx.ndim - 2, ctx.ndim - 3, ctx.ndim - 1)
        merged = transpose(ctx, axes).reshape(ctx.shape[:-3] + (nq, heads * dh))
        return merged @ self._p(f"{base}.wo") + self._p(f"{base}.bo")

    def _ff(self, base: str, x: Tensor) -> Tensor:
        return gelu(x @ self._p(f"{base}.w1") + self._p(f"{base}.b1")) @ self._p(f"{base}.w2") + self._p(f"{base}.b2")

    def _ln(self, base: str, x: Tensor) -> Tensor:
        return layer_norm(x, self._p(f"{base}.g"), self._p(f"{base}.b"))

    def _maybe_dropout(self, x: Tensor, rng) -> Tensor:
        if rng is None or self.config.dropout <= 0.0:
            return x
        return dropout_op(x, self.config.dropout, rng)

    def _embed(self, side: str, ids: np.ndarray) -> Tensor:
        length = ids.shape[-1]
        if length > self.config.max_len:
            raise LengthError(f"sequence of {length} tokens exceeds max_len {self.config.max_len}")
        tok = gather(self._p(f"{side}.tok_emb"), ids, axis=0)
        pos = gather(self._p(f"{side}.pos_emb"), np.arange(length), axis=0)
        return tok + pos

    # -- encoder ------------------------------------------------------------------

    def encode(self, token_ids, dropout_rng=None) -> Tensor:
        """Token+position embeddings through pre-norm self-attention blocks."""
        ids = np.asarray(token_ids, dtype=np.int64)
        x = self._maybe_dropout(self._embed("enc", ids), dropout_rng)
        for i in range(self.config.layers):
            base = f"enc.l{i}"
            h = self._ln(f"{base}.ln1", x)
            x = x + self._maybe_dropout(self._mha(f"{base}.attn", h, h, None), dropout_rng)
            x = x + self._maybe_dropout(self._ff(f"{base}.ff", self._ln(f"{base}.ln2", x)), dropout_rng)
        return self._ln("enc.ln_f", x)

    # -- decoder ------------------------------------------------------------------

    def _decode(self, memory: Tensor, dec_ids: np.ndarray, dropout_rng=None) -> Tensor:
        ids = np.asarray(dec_ids, dtype=np.int64)
        t = ids.shape[-1]
        causal = np.triu(np.ones((t, t), dtype=bool), k=1)
        x = self._maybe_dropout(self._embed("dec", ids), dropout_rng)
        for i in range(self.config.layers):
            base = f"dec.l{i}"
            h = self._ln(f"{base}.ln1", x)
            x = x + self._maybe_dropout(self._mha(f"{base}.self", h, h, causal), dropout_rng)
            x = x + self._maybe_dropout(
                self._mha(f"{base}.cross", self._ln(f"{base}.ln2", x), memory, None), dropout_rng
            )
            x = x + self._maybe_dropout(self._ff(f"{base}.ff", self._ln(f"{base}.ln3", x)), dropout_rng)
        x = self._ln("dec.ln_f", x)
        return x @ self._p("dec.out.w") + self._p("dec.out.b")

    # -- reasoning path -----------------------------------------------------------

    def _pool(self, x: Tensor) -> Tensor:
        return x.mean(axis=tuple(range(x.ndim - 1)))

    def predict_weights(self, enc: Tensor, category_mask: Sequence[bool], pooled_const: np.ndarray | None = None):
        """Masked softmax over the active bank categories.

        Returns one entry per bank category: exact float zero when inactive,
        a scalar tensor otherwise. The head reads a stop-gradiented pooled
        encoding (or ``pooled_const``), so this path never backpropagates
        into the encoder stack.
        """
        bank = self.bank()
        bank_mask = bank.mask_for(category_mask)
        active = [i for i, m in enumerate(bank_mask) if m]
        if not active:
            raise ContractError("at least one category must be active")
        if pooled_const is not None:
            pooled = Tensor(pooled_const, dtype=self.dtype)
        else:
            pooled = self._pool(stop_gradient(enc))
        scores = pooled.reshape((1, -1)) @ self._p("weight_head.w") + self._p("weight_head.b")
        active_scores = gather(scores.reshape((-1,)), np.asarray(active), axis=0)
        probs = softmax(active_scores, axis=0)
        weights: list = [0.0] * len(bank_mask)
        for pos, i in enumerate(active):
            weights[i] = probs[pos]
        return weights, bank_mask

    def _weighted_mix(self, enc: Tensor, category_mask: Sequence[bool], pin: FrozenForward = _LIVE):
        """Predicted category weights, then the weighted per-category quantization of ``enc``.

        Returns (weights, mixed, selected code indices per active category).
        """
        weights, bank_mask = self.predict_weights(enc, category_mask, pooled_const=pin.pool0)
        mixed, results = mix(self.bank(), enc, bank_mask, weights, indices=pin.indices)
        return weights, mixed, {cat: qr.indices for cat, qr in results.items()}

    def classify_ci(self, fused: Tensor) -> Tensor:
        pooled = self._pool(fused)
        return (pooled.reshape((1, -1)) @ self._p("ci.w") + self._p("ci.b")).reshape((-1,))

    # -- training forward -----------------------------------------------------------

    def forward_train(
        self,
        prepared: Prepared,
        beta: float = 0.25,
        dropout_rng=None,
        frozen: FrozenForward | None = None,
        decode: bool = True,
    ) -> ForwardOutput:
        """Teacher-forced forward for one instance.

        With ``frozen`` given, code selections, the weight head's input and
        every stop-gradient argument are pinned to its constants, producing a
        smooth function with the same gradients at the pinned point. With
        ``decode=False`` the decoder does not run and ``logits`` is None.
        """
        enc = self.encode(prepared.input_ids, dropout_rng=dropout_rng)
        if self.config.strategy == "retag":
            pin = frozen or _LIVE
            weights, mixed, indices = self._weighted_mix(enc, prepared.category_mask, pin)
            codebook_loss, commitment_loss = vq_losses(enc, mixed, beta, pin.enc0, pin.mixed0)
            offset = None if frozen is None else frozen.mixed0 - frozen.enc0
            memory = straight_through(enc, mixed, offset) + enc
        else:
            weights, mixed, indices = None, None, {}
            codebook_loss = commitment_loss = Tensor(np.zeros((), dtype=self.dtype))
            memory = enc
        ci_logits = self.classify_ci(memory)
        logits = self._decode(memory, prepared.target_ids[:-1], dropout_rng=dropout_rng) if decode else None
        return ForwardOutput(
            logits=logits,
            ci_logits=ci_logits,
            codebook_loss=codebook_loss,
            commitment_loss=commitment_loss,
            weights=weights,
            enc=enc,
            mixed=mixed,
            indices=indices,
        )

    # -- generation -------------------------------------------------------------------

    def _memory(self, input_ids, category_mask: Sequence[bool] | None) -> Tensor:
        enc = self.encode(input_ids)
        if self.config.strategy != "retag":
            return enc
        if category_mask is None:
            raise ContractError("retag generation needs a category mask")
        _, mixed, _ = self._weighted_mix(enc, category_mask)
        return straight_through(enc, mixed) + enc

    def generate(
        self,
        input_ids,
        category_mask: Sequence[bool] | None = None,
        beam: int = 10,
        max_len: int | None = None,
    ) -> tuple[str, float]:
        """Beam search maximizing summed token log-probability.

        No length normalization; hypotheses end at <eos> or at ``max_len``
        tokens. Returns the best finished hypothesis (special tokens
        stripped) and its log-probability.
        """
        if beam < 1:
            raise ConfigError(f"beam width must be >= 1, got {beam}")
        max_len = min(max_len or self.config.max_len, self.config.max_len)
        memory = self._memory(np.asarray(input_ids, dtype=np.int64), category_mask)

        active: list[tuple[list[int], float]] = [([BOS], 0.0)]
        finished: list[tuple[list[int], float]] = []
        for _ in range(max_len - 1):
            if not active:
                break
            ids = np.asarray([seq for seq, _ in active], dtype=np.int64)
            logits = self._decode(memory, ids).data[:, -1, :]
            shifted = logits - logits.max(axis=-1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            candidates: list[tuple[float, int, int]] = []
            for b, (seq, score) in enumerate(active):
                top = np.argsort(logp[b])[::-1][:beam]
                candidates.extend((score + float(logp[b, t]), b, int(t)) for t in top)
            candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
            next_active = []
            for cand_score, b, tok in candidates:
                if len(next_active) >= beam:
                    break
                seq = active[b][0] + [tok]
                if tok == EOS:
                    finished.append((seq, cand_score))
                else:
                    next_active.append((seq, cand_score))
            active = next_active
            # token log-probs are <= 0, so no active path can beat a finished one it trails
            if finished:
                best_finished = max(s for _, s in finished)
                if all(s <= best_finished for _, s in active):
                    break
        finished.extend(active)  # length-capped hypotheses count as finished
        best_seq, best_score = max(finished, key=lambda c: c[1])
        return decode_text(self.vocab, best_seq), best_score
