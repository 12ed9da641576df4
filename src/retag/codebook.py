"""Per-category code tables: nearest-code quantization, masked weighted
mixing, the two vector-quantization losses, and the straight-through
estimator.

Gradient routing is deliberate and asymmetric: the codebook loss trains the
codes (and, through the mixing weights, the weight head) while the encoder
sees it as a constant; the commitment loss trains the encoder while the
codes see it as a constant; the straight-through estimator hands decoder
gradients to the encoder and none to the codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractError, DimensionError
from .numerics.tensor import Tensor, apply_op, gather, reduce_mean, stop_gradient
from .tables import CATEGORIES

TWO_BANK_CATEGORIES = ("descriptive", "analytical")


@dataclass
class QuantizeResult:
    quantized: Tensor  # (N, H), rows are copies of the selected codes
    indices: np.ndarray  # (N,) selected code per token


class Codebook:
    """A K x H table of prototype vectors for one category."""

    def __init__(self, category: str, codes: Tensor):
        if codes.ndim != 2 or codes.shape[0] < 2:
            raise ContractError(f"codebook {category!r} needs a (K>=2, H) code table, got {codes.shape}")
        if not np.all(np.isfinite(codes.data)):
            raise ContractError(f"codebook {category!r} contains non-finite codes")
        self.category = category
        self.codes = codes

    @property
    def k(self) -> int:
        return self.codes.shape[0]

    @property
    def width(self) -> int:
        return self.codes.shape[1]


def quantize(cb: Codebook, enc: Tensor, indices: np.ndarray | None = None) -> QuantizeResult:
    """Replace each row of ``enc`` with its nearest code (L2, lowest index on ties).

    ``indices`` overrides the nearest-code search with a fixed selection,
    which keeps the function smooth for finite-difference probing.
    """
    if enc.ndim != 2 or enc.shape[1] != cb.width:
        raise DimensionError(f"quantize: encodings {enc.shape} do not match codebook width {cb.width}")
    if indices is None:
        diffs = enc.data[:, None, :] - cb.codes.data[None, :, :]
        d2 = np.einsum("nkh,nkh->nk", diffs, diffs)
        indices = d2.argmin(axis=1)
    else:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.shape != (enc.shape[0],):
            raise DimensionError(f"quantize: fixed indices {indices.shape} do not match {enc.shape[0]} tokens")
    return QuantizeResult(quantized=gather(cb.codes, indices, axis=0), indices=indices)


class CodebookBank:
    """One codebook per category, all sharing the same width.

    The standard bank has six codebooks (one per reasoning category); the
    collapsed two-bank variant keeps ``descriptive`` and folds the five
    analytical categories into a single shared ``analytical`` table.
    """

    def __init__(self, codebooks: Mapping[str, Codebook], categories: Sequence[str]):
        if tuple(categories) not in (CATEGORIES, TWO_BANK_CATEGORIES):
            raise ContractError(f"unsupported bank layout {tuple(categories)}")
        if set(codebooks) != set(categories):
            raise ContractError(f"bank needs exactly one codebook per category in {tuple(categories)}")
        widths = {cb.width for cb in codebooks.values()}
        if len(widths) != 1:
            raise ContractError(f"codebook widths differ: {sorted(widths)}")
        self.categories = tuple(categories)
        self.codebooks = dict(codebooks)

    @classmethod
    def from_tensors(cls, tensors: Mapping[str, Tensor]) -> "CodebookBank":
        categories = CATEGORIES if set(tensors) == set(CATEGORIES) else TWO_BANK_CATEGORIES
        return cls({cat: Codebook(cat, tensors[cat]) for cat in categories}, categories)

    def mask_for(self, active_categories: Sequence[bool]) -> tuple[bool, ...]:
        """Convert a six-category activation into this bank's layout."""
        if len(active_categories) != len(CATEGORIES):
            raise ContractError(f"expected {len(CATEGORIES)} category flags, got {len(active_categories)}")
        if len(self.categories) == 6:
            return tuple(bool(b) for b in active_categories)
        analytical = any(bool(b) for b, cat in zip(active_categories, CATEGORIES) if cat != "descriptive")
        return (bool(active_categories[0]), analytical)

    def usage_histogram(self, indices_by_category: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Diagnostic: per-category counts of how often each code was selected."""
        out = {}
        for cat, idx in indices_by_category.items():
            counts = np.bincount(np.asarray(idx, dtype=np.int64), minlength=self.codebooks[cat].k)
            out[cat] = counts
        return out


def _check_mask_and_weights(bank: CodebookBank, mask: Sequence[bool], weights: Sequence) -> list[int]:
    if len(mask) != len(bank.categories):
        raise ContractError(f"mask length {len(mask)} does not match bank of {len(bank.categories)}")
    if len(weights) != len(bank.categories):
        raise ContractError(f"weights length {len(weights)} does not match bank of {len(bank.categories)}")
    active = [i for i, m in enumerate(mask) if m]
    if not active:
        raise ContractError("at least one category must be active")
    if bank.categories[0] == "descriptive" and mask[0] and len(active) > 1:
        raise ContractError("descriptive is exclusive in the category mask")
    total = 0.0
    for i, w in enumerate(weights):
        value = float(w.data) if isinstance(w, Tensor) else float(w)
        if i not in active:
            if value != 0.0:
                raise ContractError(f"inactive category {bank.categories[i]!r} has nonzero weight {value}")
        else:
            total += value
    if abs(total - 1.0) > 1e-6:
        raise ContractError(f"active weights sum to {total}, expected 1")
    return active


def mix(
    bank: CodebookBank,
    enc: Tensor,
    mask: Sequence[bool],
    weights: Sequence,
    indices: Mapping[str, np.ndarray] | None = None,
) -> tuple[Tensor, dict[str, QuantizeResult]]:
    """Weighted sum of per-category quantizations, restricted to active categories.

    ``weights`` must be a masked distribution: exactly zero on inactive
    entries and summing to one over active ones. Entries may be floats or
    scalar tensors (the latter keep the weight head differentiable).
    """
    active = _check_mask_and_weights(bank, mask, weights)
    results: dict[str, QuantizeResult] = {}
    mixed: Tensor | None = None
    for i in active:
        cat = bank.categories[i]
        fixed = None if indices is None else indices.get(cat)
        qr = quantize(bank.codebooks[cat], enc, indices=fixed)
        results[cat] = qr
        term = qr.quantized * weights[i]
        mixed = term if mixed is None else mixed + term
    return mixed, results


def vq_losses(
    enc: Tensor,
    mixed: Tensor,
    beta: float,
    enc_const: np.ndarray | None = None,
    mixed_const: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """(codebook_loss, commitment_loss), each a mean over tokens and dims.

    codebook_loss treats the encoder output as a constant and pulls the mixed
    quantization toward it; commitment_loss is the beta-scaled mirror image
    that pulls the encoder toward the (constant) quantization. Those constants
    are the current values of ``enc`` and ``mixed`` unless ``enc_const`` /
    ``mixed_const`` pin them to fixed arrays.
    """
    if enc.shape != mixed.shape:
        raise DimensionError(f"vq_losses: shapes {enc.shape} and {mixed.shape} differ")
    enc_sg = stop_gradient(enc) if enc_const is None else Tensor(enc_const, dtype=enc.dtype)
    mixed_sg = stop_gradient(mixed) if mixed_const is None else Tensor(mixed_const, dtype=mixed.dtype)
    d_cb = enc_sg - mixed
    codebook_loss = reduce_mean(d_cb * d_cb)
    d_commit = enc - mixed_sg
    commitment_loss = reduce_mean(d_commit * d_commit) * float(beta)
    return codebook_loss, commitment_loss


def straight_through(enc: Tensor, mixed: Tensor, offset: np.ndarray | None = None) -> Tensor:
    """Forward the quantized values; route the backward pass to the encoder.

    Equivalent to ``enc + stop_gradient(mixed - enc)`` but with the forward
    value taken from ``mixed`` exactly (no floating-point round trip): the
    output gradient is copied to ``enc`` unchanged, and nothing reaches the
    codes through this path. A fixed ``offset`` replaces ``mixed - enc``,
    giving the smooth ``enc + offset``.
    """
    if enc.shape != mixed.shape:
        raise DimensionError(f"straight_through: shapes {enc.shape} and {mixed.shape} differ")
    if offset is not None:
        return enc + Tensor(offset, dtype=enc.dtype)
    return apply_op("straight_through", mixed.data, (enc, mixed), lambda g: (g, None))
