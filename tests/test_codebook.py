"""Quantization against brute force, masked mixing, VQ losses, straight-through."""

import numpy as np
import pytest

from retag.codebook import (
    TWO_BANK_CATEGORIES,
    Codebook,
    CodebookBank,
    mix,
    quantize,
    straight_through,
    vq_losses,
)
from retag.errors import ContractError, DimensionError
from retag.numerics import RngStream, Tape, backward, tensor
from retag.tables import CATEGORIES


def brute_force_nearest(enc: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Independent oracle: per-row scan of all code distances."""
    out = np.empty(enc.shape[0], dtype=np.int64)
    for n in range(enc.shape[0]):
        best, best_d = 0, np.inf
        for k in range(codes.shape[0]):
            d = float(np.linalg.norm(enc[n] - codes[k]))
            if d < best_d:
                best, best_d = k, d
        out[n] = best
    return out


def mk_bank(k=4, width=3, seed=0, count=6):
    rng = RngStream(seed, ("init",))
    codes = {
        cat: rng.child(f"codebook.{cat}").uniform(-1.0 / k, 1.0 / k, size=(k, width))
        for cat in (CATEGORIES if count == 6 else TWO_BANK_CATEGORIES)
    }
    return CodebookBank.from_tensors({cat: tensor(c, requires_grad=True, dtype=np.float64) for cat, c in codes.items()})


def test_quantize_row_equal_to_a_code():
    codes = tensor(np.eye(4, 3), dtype=np.float64)
    cb = Codebook("numerical", codes)
    enc = tensor(codes.data[3:4].copy(), dtype=np.float64)
    qr = quantize(cb, enc)
    assert qr.indices.tolist() == [3]
    assert np.array_equal(qr.quantized.data, codes.data[3:4])


def test_quantize_two_code_hand_case():
    cb = Codebook("numerical", tensor([[0.0, 0.0], [1.0, 1.0]], dtype=np.float64))
    qr = quantize(cb, tensor([[0.9, 0.9]], dtype=np.float64))
    assert qr.indices.tolist() == [1]
    assert np.array_equal(qr.quantized.data, [[1.0, 1.0]])


def test_quantize_tie_takes_lowest_index():
    codes = tensor([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [5.0, 5.0], [1.0, 1.0]], dtype=np.float64)
    cb = Codebook("entity", codes)
    qr = quantize(cb, tensor([[1.0, 1.1], [5.0, 5.0]], dtype=np.float64))
    assert qr.indices.tolist() == [1, 2]


def test_quantize_matches_brute_force_on_random_cases():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        k = int(rng.integers(2, 17))
        h = int(rng.integers(1, 9))
        n = int(rng.integers(1, 7))
        codes = rng.normal(size=(k, h))
        enc = rng.normal(size=(n, h))
        qr = quantize(Codebook("tabular", tensor(codes, dtype=np.float64)), tensor(enc, dtype=np.float64))
        assert np.array_equal(qr.indices, brute_force_nearest(enc, codes))


def test_quantize_width_mismatch():
    cb = Codebook("numerical", tensor(np.zeros((2, 3)) + [[0, 0, 0], [1, 1, 1]], dtype=np.float64))
    with pytest.raises(DimensionError):
        quantize(cb, tensor(np.zeros((2, 4)), dtype=np.float64))


def test_codebook_requires_two_codes():
    with pytest.raises(ContractError):
        Codebook("numerical", tensor(np.zeros((1, 3)), dtype=np.float64))


# -- mixing -----------------------------------------------------------------------


def six_mask(*names):
    return tuple(cat in names for cat in CATEGORIES)


def test_single_active_category_equals_plain_quantize():
    bank = mk_bank()
    enc = tensor(np.random.default_rng(0).normal(size=(5, 3)), dtype=np.float64)
    mask = six_mask("numerical")
    weights = [0.0] * 6
    weights[CATEGORIES.index("numerical")] = 1.0
    mixed, results = mix(bank, enc, mask, weights)
    direct = quantize(bank.codebooks["numerical"], enc)
    assert np.array_equal(mixed.data, direct.quantized.data)
    assert set(results) == {"numerical"}


def test_two_way_mix_is_the_weighted_average():
    bank = mk_bank()
    enc = tensor([[0.25, -0.5, 0.1]], dtype=np.float64)
    mask = six_mask("numerical", "temporal")
    weights = [0.0] * 6
    weights[CATEGORIES.index("numerical")] = 0.5
    weights[CATEGORIES.index("temporal")] = 0.5
    mixed, results = mix(bank, enc, mask, weights)
    expected = 0.5 * results["numerical"].quantized.data + 0.5 * results["temporal"].quantized.data
    assert np.allclose(mixed.data, expected, atol=1e-15)


def test_descriptive_only_mask_uses_descriptive_codebook():
    bank = mk_bank()
    enc = tensor(np.random.default_rng(1).normal(size=(3, 3)), dtype=np.float64)
    mixed, results = mix(bank, enc, six_mask("descriptive"), [1.0, 0, 0, 0, 0, 0])
    assert set(results) == {"descriptive"}
    assert np.array_equal(mixed.data, quantize(bank.codebooks["descriptive"], enc).quantized.data)


def test_mix_ignores_inactive_codebooks():
    rng = np.random.default_rng(5)
    enc = tensor(rng.normal(size=(4, 3)), dtype=np.float64)
    mask = six_mask("numerical")
    weights = [0.0] * 6
    weights[CATEGORIES.index("numerical")] = 1.0
    bank_a = mk_bank(seed=0)
    out_a, _ = mix(bank_a, enc, mask, weights)
    # perturb every inactive codebook
    books = dict(bank_a.codebooks)
    for cat in CATEGORIES:
        if cat != "numerical":
            books[cat] = Codebook(cat, tensor(rng.normal(size=(4, 3)), dtype=np.float64))
    out_b, _ = mix(CodebookBank(books, CATEGORIES), enc, mask, weights)
    assert np.array_equal(out_a.data, out_b.data)


def test_mix_contract_errors():
    bank = mk_bank()
    enc = tensor(np.zeros((2, 3)), dtype=np.float64)
    with pytest.raises(ContractError):
        mix(bank, enc, (False,) * 6, [0.0] * 6)
    bad = [0.0] * 6
    bad[CATEGORIES.index("numerical")] = 0.7  # does not sum to 1
    with pytest.raises(ContractError):
        mix(bank, enc, six_mask("numerical"), bad)
    leak = [0.0] * 6
    leak[CATEGORIES.index("numerical")] = 1.0
    leak[CATEGORIES.index("entity")] = 0.1  # nonzero on an inactive category
    with pytest.raises(ContractError):
        mix(bank, enc, six_mask("numerical"), leak)


def test_two_bank_mask_collapses_analytical_categories():
    bank = mk_bank(count=2)
    assert bank.categories == ("descriptive", "analytical")
    assert bank.mask_for(six_mask("numerical", "temporal")) == (False, True)
    assert bank.mask_for(six_mask("descriptive")) == (True, False)


# -- losses ------------------------------------------------------------------------


def test_vq_losses_zero_when_equal():
    enc = tensor(np.ones((2, 3)), dtype=np.float64)
    cb_loss, commit = vq_losses(enc, tensor(np.ones((2, 3)), dtype=np.float64), beta=0.25)
    assert float(cb_loss.data) == 0.0 and float(commit.data) == 0.0


def test_commitment_scales_linearly_with_beta():
    rng = np.random.default_rng(2)
    enc = tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    mixed = tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    cb1, c1 = vq_losses(enc, mixed, beta=0.25)
    cb2, c2 = vq_losses(enc, mixed, beta=0.5)
    assert np.isclose(float(c2.data), 2 * float(c1.data))
    assert np.isclose(float(cb1.data), float(cb2.data))
    assert np.isclose(float(c1.data) / 0.25, float(cb1.data))  # same squared distance


def test_vq_loss_gradient_routing():
    rng = np.random.default_rng(3)
    enc_leaf = tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
    codes = tensor(rng.normal(size=(5, 4)), requires_grad=True, dtype=np.float64)
    cb = Codebook("numerical", codes)
    with Tape():
        qr = quantize(cb, enc_leaf)
        cb_loss, commit = vq_losses(enc_leaf, qr.quantized, beta=0.25)
        g_cb = backward(cb_loss, [enc_leaf, codes])
        assert np.array_equal(g_cb[enc_leaf], np.zeros((3, 4)))
        assert np.abs(g_cb[codes]).max() > 0
    with Tape():
        qr = quantize(cb, enc_leaf)
        _, commit = vq_losses(enc_leaf, qr.quantized, beta=0.25)
        g_c = backward(commit, [enc_leaf, codes])
        assert np.array_equal(g_c[codes], np.zeros((5, 4)))
        assert np.abs(g_c[enc_leaf]).max() > 0


# -- straight-through ----------------------------------------------------------------


def test_straight_through_forwards_mixed_exactly():
    rng = np.random.default_rng(4)
    enc = tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    mixed = tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    out = straight_through(enc, mixed)
    assert np.array_equal(out.data, mixed.data)


def test_straight_through_gradient_is_identity_to_encoder():
    enc = tensor([[1.0, 2.0]], requires_grad=True, dtype=np.float64)
    mixed = tensor([[5.0, -3.0]], requires_grad=True, dtype=np.float64)
    with Tape():
        grads = backward(straight_through(enc, mixed).sum(), [enc, mixed])
    assert np.array_equal(grads[enc], np.ones((1, 2)))
    assert np.array_equal(grads[mixed], np.zeros((1, 2)))


def test_residual_over_straight_through_doubles_encoder_gradient():
    # 1x2 case: u = straight_through(e, q) + e, so du/de is exactly 2I
    e = tensor([[0.3, -0.7]], requires_grad=True, dtype=np.float64)
    q = tensor([[1.0, 1.0]], requires_grad=True, dtype=np.float64)
    for j in range(2):
        with Tape():
            u = straight_through(e, q) + e
            grads = backward(u[0, j], [e, q])
        expected = np.zeros((1, 2))
        expected[0, j] = 2.0
        assert np.array_equal(grads[e], expected)
        assert np.array_equal(grads[q], np.zeros((1, 2)))


def test_no_gradient_reaches_codes_through_straight_through():
    rng = np.random.default_rng(6)
    enc_leaf = tensor(rng.normal(size=(4, 3)), requires_grad=True, dtype=np.float64)
    codes = tensor(rng.normal(size=(6, 3)), requires_grad=True, dtype=np.float64)
    with Tape():
        qr = quantize(Codebook("temporal", codes), enc_leaf)
        st = straight_through(enc_leaf, qr.quantized)
        grads = backward((st * st).sum(), [codes, enc_leaf])
    assert np.array_equal(grads[codes], np.zeros((6, 3)))
    assert np.abs(grads[enc_leaf]).max() > 0


def test_bank_usage_histogram():
    bank = mk_bank(k=4)
    hist = bank.usage_histogram({"numerical": np.array([0, 0, 3])})
    assert hist["numerical"].tolist() == [2, 0, 0, 1]
