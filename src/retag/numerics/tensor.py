"""Dense tensors with reverse-mode automatic differentiation.

Values are immutable numpy arrays (float32 by default, float64 for
verification runs). Differentiable operations record a backward rule on the
active :class:`Tape` whenever some input requires gradients; with no tape
active the same functions run forward-only, which is what generation and
finite-difference probing rely on.

Broadcasting follows numpy and is intended for leading axes (bias adds,
per-head score scaling); shape conformance is checked up front so errors
name the offending op and both shapes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import ContractError, DimensionError

DEFAULT_DTYPE = np.float32
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_TAPE_STACK: list["Tape"] = []


def _active_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """An immutable dense array, optionally tracked on the active tape.

    ``node_id`` / ``tape`` are bookkeeping for the tape the tensor last
    participated in; a tensor reused under a fresh tape is treated as a leaf
    there (its old history is not carried over).
    """

    __slots__ = ("data", "requires_grad", "node_id", "tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.array(data, dtype=dtype, copy=True)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        arr.flags.writeable = False
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node_id: int | None = None
        self.tape: "Tape | None" = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        t = object.__new__(cls)
        try:
            arr.flags.writeable = False
        except ValueError:
            pass  # read-only view of a read-only base
        t.data = arr
        t.requires_grad = requires_grad
        t.node_id = None
        t.tape = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not provided; multiply by a reciprocal")
        return mul(self, 1.0 / float(other))

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return index(self, key)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad})"


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def _as_tensor(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor._wrap(np.asarray(value, dtype=dtype), requires_grad=False)


class _Record:
    __slots__ = ("op", "input_ids", "output_id", "backward")

    def __init__(self, op: str, input_ids: list, output_id: int, backward: Callable):
        self.op = op
        self.input_ids = input_ids
        self.output_id = output_id
        self.backward = backward


class Tape:
    """Ordered log of op records forming a DAG in topological order.

    Use as a context manager; ops executed inside record their backward
    rules here when gradients are required. ``backward`` must run before the
    block exits: leaving it drops the records, so the step's activations are
    freed at once rather than by the cycle collector. The active-tape stack is
    module-global, so tapes are single-threaded.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._next_id = 0
        self._leaves: dict[int, Tensor] = {}
        self._produced: set[int] = set()

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape stack corrupted"
        self._records.clear()
        self._leaves.clear()
        self._produced.clear()

    def __len__(self) -> int:
        return len(self._records)

    def _alloc(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def _ensure_id(self, t: Tensor) -> int:
        if t.tape is not self:
            t.tape = self
            t.node_id = self._alloc()
            if t.requires_grad and t.node_id not in self._produced:
                self._leaves[t.node_id] = t
        return t.node_id

    def _record(self, op: str, inputs: Sequence[Tensor], out: Tensor, backward: Callable) -> None:
        input_ids = [self._ensure_id(t) if t.requires_grad or t.tape is self else None for t in inputs]
        out.tape = self
        out.node_id = self._alloc()
        self._produced.add(out.node_id)
        self._records.append(_Record(op, input_ids, out.node_id, backward))


def apply_op(
    op: str,
    out_data: np.ndarray,
    inputs: Sequence[Tensor],
    backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
) -> Tensor:
    """Wrap ``out_data`` as an op output, recording ``backward`` if needed.

    ``backward`` maps the output gradient to one gradient (or None) per input,
    in order. This is the extension point every primitive below goes through.
    """
    requires = any(t.requires_grad for t in inputs)
    out = Tensor._wrap(out_data, requires_grad=requires)
    tape = _active_tape()
    if tape is not None and requires:
        tape._record(op, inputs, out, backward)
    return out


def backward(loss: Tensor, params: Iterable[Tensor] | None = None) -> dict[Tensor, np.ndarray]:
    """Reverse-sweep the tape of a scalar loss; return leaf gradients.

    Every leaf in ``params`` (or every grad-requiring leaf the tape saw, if
    ``params`` is None) gets an entry; leaves with no path to the loss get
    exact zeros. Each tape node is visited exactly once.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    requested = list(params) if params is not None else None
    if loss.tape is None or not loss.requires_grad:
        if requested is None:
            raise ContractError("loss is not connected to any tape")
        return {t: np.zeros_like(t.data) for t in requested}

    tape = loss.tape
    if tape not in _TAPE_STACK:
        raise ContractError("backward after the loss's tape was closed")
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones((), dtype=loss.data.dtype)}
    for rec in reversed(tape._records):
        g = grads.pop(rec.output_id, None)
        if g is None:
            continue
        for input_id, gi in zip(rec.input_ids, rec.backward(g)):
            if input_id is None or gi is None:
                continue
            prev = grads.get(input_id)
            grads[input_id] = gi if prev is None else prev + gi

    targets = requested if requested is not None else list(tape._leaves.values())
    out: dict[Tensor, np.ndarray] = {}
    for t in targets:
        g = grads.get(t.node_id) if t.tape is tape else None
        out[t] = np.zeros_like(t.data) if g is None else np.broadcast_to(g, t.data.shape).astype(t.data.dtype, copy=False)
    return out


def stop_gradient(x: Tensor) -> Tensor:
    """Identity in the forward pass; contributes exactly zero gradient to x."""
    return Tensor._wrap(x.data, requires_grad=False)


# -- shape plumbing ----------------------------------------------------------


def _check_broadcast(op: str, a_shape, b_shape) -> None:
    try:
        np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {tuple(a_shape)} and {tuple(b_shape)} do not broadcast") from None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _norm_axis(op: str, axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise IndexError(f"{op}: axis {axis} out of range for {ndim}-d tensor")
    return axis % ndim


# -- elementwise and linear algebra -----------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_broadcast("add", a.shape, b.shape)
    out = a.data + b.data
    a_shape, b_shape = a.shape, b.shape
    return apply_op("add", out, (a, b), lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))


def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_broadcast("sub", a.shape, b.shape)
    out = a.data - b.data
    a_shape, b_shape = a.shape, b.shape
    return apply_op("sub", out, (a, b), lambda g: (_unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)))


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_broadcast("mul", a.shape, b.shape)
    out = a.data * b.data
    a_data, b_data = a.data, b.data
    return apply_op(
        "mul",
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b_data, a_data.shape), _unbroadcast(g * a_data, b_data.shape)),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul: operands must be at least 2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    _check_broadcast("matmul", a.shape[:-2], b.shape[:-2])
    out = a.data @ b.data
    a_data, b_data = a.data, b.data

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_data.shape)
        gb = _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_data.shape)
        return ga, gb

    return apply_op("matmul", out, (a, b), bwd)


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        if a.ndim < 2:
            raise DimensionError(f"transpose: need at least 2-d input, got shape {a.shape}")
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError(f"transpose: axes {axes} are not a permutation for shape {a.shape}")
    inverse = tuple(np.argsort(axes))
    return apply_op("transpose", a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if shape.count(-1) > 1:
        raise DimensionError(f"reshape: at most one -1 allowed, got {shape}")
    if -1 in shape:
        known = int(np.prod([s for s in shape if s != -1], dtype=np.int64))
        if known == 0 or a.data.size % known != 0:
            raise DimensionError(f"reshape: cannot view shape {a.shape} as {shape}")
        shape = tuple(a.data.size // known if s == -1 else s for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise DimensionError(f"reshape: cannot view shape {a.shape} as {shape}")
    old = a.shape
    return apply_op("reshape", a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def index(a: Tensor, key) -> Tensor:
    """Basic (int/slice) indexing; gradient scatters back into zeros."""
    out = a.data[key]
    shape, dtype = a.shape, a.data.dtype

    def bwd(g):
        ga = np.zeros(shape, dtype=dtype)
        ga[key] = g
        return (ga,)

    return apply_op("index", out, (a,), bwd)


def gather(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Select rows (or slices along ``axis``) by integer index, with repeats."""
    axis = _norm_axis("gather", axis, a.ndim)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[axis]):
        raise IndexError(f"gather: index out of range for axis {axis} with size {a.shape[axis]}")
    out = np.take(a.data, idx, axis=axis)
    shape, dtype = a.shape, a.data.dtype

    def bwd(g):
        ga = np.zeros(shape, dtype=dtype)
        if axis == 0:
            np.add.at(ga, idx, g)
        else:
            ga_m = np.moveaxis(ga, axis, 0)
            np.add.at(ga_m, idx, np.moveaxis(g, axis, 0))
        return (ga,)

    return apply_op("gather", out, (a,), bwd)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is not None:
        axis = tuple(_norm_axis("sum", ax, a.ndim) for ax in (axis if isinstance(axis, tuple) else (axis,)))
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).astype(a.data.dtype, copy=False),)

    return apply_op("sum", out, (a,), bwd)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[_norm_axis("mean", ax, a.ndim)] for ax in axes]))
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# -- nonlinearities and structured ops ---------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    axis = _norm_axis("softmax", axis, a.ndim)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return apply_op("softmax", out, (a,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    h = x.shape[-1]
    if gain.shape != (h,) or bias.shape != (h,):
        raise DimensionError(f"layer_norm: affine shapes {gain.shape}/{bias.shape} do not match width {h}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gain.data + bias.data
    gain_data = gain.data

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=lead)
        dbias = g.sum(axis=lead)
        dxhat = g * gain_data
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, dgain, dbias

    return apply_op("layer_norm", out, (x, gain, bias), bwd)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh form)."""
    x3 = x.data * x.data * x.data
    inner = _GELU_C * (x.data + _GELU_A * x3)
    t = np.tanh(inner)
    out = 0.5 * x.data * (1.0 + t)
    x_data = x.data

    def bwd(g):
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x_data * x_data)
        dt = (1.0 - t * t) * dinner
        return (g * (0.5 * (1.0 + t) + 0.5 * x_data * dt),)

    return apply_op("gelu", out, (x,), bwd)


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace positions where ``mask`` is True with ``value`` (a constant)."""
    mask = np.asarray(mask, dtype=bool)
    _check_broadcast("masked_fill", x.shape, mask.shape)
    if np.broadcast_shapes(x.shape, mask.shape) != x.shape:
        raise DimensionError(f"masked_fill: mask {mask.shape} does not broadcast into {x.shape}")
    mask_b = np.broadcast_to(mask, x.shape)
    out = np.where(mask_b, np.asarray(value, dtype=x.data.dtype), x.data)

    def bwd(g):
        return (np.where(mask_b, 0.0, g),)

    return apply_op("masked_fill", out, (x,), bwd)


def cross_entropy(logits: Tensor, targets, ignore_index: int | None = None) -> Tensor:
    """Mean negative log-likelihood over the vocabulary axis.

    ``logits`` is (T, V); ``targets`` is (T,) integer ids. Positions equal to
    ``ignore_index`` contribute nothing (and receive zero gradient).
    """
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy: logits must be 2-d, got {logits.shape}")
    tgt = np.asarray(targets, dtype=np.int64)
    if tgt.shape != (logits.shape[0],):
        raise DimensionError(f"cross_entropy: targets {tgt.shape} do not match logits {logits.shape}")
    keep = np.ones_like(tgt, dtype=bool) if ignore_index is None else tgt != ignore_index
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise ContractError("cross_entropy: every target position is ignored")
    safe_tgt = np.where(keep, tgt, 0)
    if safe_tgt.max(initial=0) >= logits.shape[1]:
        raise IndexError(f"cross_entropy: target id out of range for vocab {logits.shape[1]}")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    rows = np.arange(tgt.shape[0])
    nll = -logp[rows, safe_tgt]
    out = np.asarray((nll * keep).sum() / n_keep, dtype=logits.data.dtype)
    probs = np.exp(logp)

    def bwd(g):
        grad = probs.copy()
        grad[rows, safe_tgt] -= 1.0
        grad *= (keep / n_keep)[:, None]
        return (grad * g,)

    return apply_op("cross_entropy", out, (logits,), bwd)


def dropout(x: Tensor, rate: float, rng) -> Tensor:
    """Inverted dropout driven by an explicit stream; rate 0 is the identity."""
    if rate <= 0.0:
        return x
    if not 0.0 < rate < 1.0:
        raise ContractError(f"dropout: rate {rate} outside [0, 1)")
    keep = (rng.uniform(size=x.shape) >= rate).astype(x.data.dtype)
    return mul(x, Tensor._wrap(keep / (1.0 - rate), requires_grad=False))
