"""Wire format: roundtrips, corruption detection, offset reporting."""

import math
import struct

import numpy as np
import pytest

import hefl.ckks as ckks
from hefl.errors import ParseError


@pytest.fixture
def sample_ct(ctx_small, keys_small):
    _, pk = keys_small
    pt = ckks.encode(np.linspace(-2, 2, 32), ctx_small)
    return ckks.encrypt(pt, pk, ctx_small, 77)


def test_ciphertext_roundtrip_byte_identical(ctx_small, keys_small,
                                             sample_ct):
    blob = ckks.serialize_ciphertext(sample_ct, ctx_small)
    back = ckks.deserialize_ciphertext(blob, ctx_small)
    assert ckks.serialize_ciphertext(back, ctx_small) == blob
    assert back.level == sample_ct.level
    assert back.scale == sample_ct.scale
    assert back.noise_bits == sample_ct.noise_bits
    assert back.value_bits == sample_ct.value_bits
    sk, _ = keys_small
    a = ckks.decode(ckks.decrypt(sample_ct, sk, ctx_small), ctx_small)
    b = ckks.decode(ckks.decrypt(back, sk, ctx_small), ctx_small)
    assert np.array_equal(a, b)


def test_key_roundtrips(ctx_small, keys_small):
    sk, pk = keys_small
    sk_blob = ckks.serialize_secret_key(sk, ctx_small)
    pk_blob = ckks.serialize_public_key(pk, ctx_small)
    sk2 = ckks.deserialize_secret_key(sk_blob, ctx_small)
    pk2 = ckks.deserialize_public_key(pk_blob, ctx_small)
    assert ckks.serialize_secret_key(sk2, ctx_small) == sk_blob
    assert ckks.serialize_public_key(pk2, ctx_small) == pk_blob
    assert np.array_equal(sk.s_ntt, sk2.s_ntt)
    assert np.array_equal(pk.pair_sh, pk2.pair_sh)


def test_truncated_header_reports_length(ctx_small, sample_ct):
    blob = ckks.serialize_ciphertext(sample_ct, ctx_small)
    with pytest.raises(ParseError) as err:
        ckks.deserialize_ciphertext(blob[:10], ctx_small)
    assert err.value.offset == 10


def test_truncated_body_rejected(ctx_small, sample_ct):
    blob = ckks.serialize_ciphertext(sample_ct, ctx_small)
    with pytest.raises(ParseError):
        ckks.deserialize_ciphertext(blob[:-8], ctx_small)


def test_bad_magic_offset_zero(ctx_small, sample_ct):
    blob = bytearray(ckks.serialize_ciphertext(sample_ct, ctx_small))
    blob[0] = 0x58
    with pytest.raises(ParseError) as err:
        ckks.deserialize_ciphertext(bytes(blob), ctx_small)
    assert err.value.offset == 0


def test_wrong_version_rejected(ctx_small, sample_ct):
    blob = bytearray(ckks.serialize_ciphertext(sample_ct, ctx_small))
    blob[4] = 9
    with pytest.raises(ParseError) as err:
        ckks.deserialize_ciphertext(bytes(blob), ctx_small)
    assert err.value.offset == 4


def test_kind_confusion_rejected(ctx_small, keys_small, sample_ct):
    blob = ckks.serialize_ciphertext(sample_ct, ctx_small)
    with pytest.raises(ParseError) as err:
        ckks.deserialize_public_key(blob, ctx_small)
    assert err.value.offset == 6


def test_cross_params_fingerprint_rejected(ctx_small, ctx_paper, sample_ct):
    blob = ckks.serialize_ciphertext(sample_ct, ctx_small)
    with pytest.raises(ParseError) as err:
        ckks.deserialize_ciphertext(blob, ctx_paper)
    assert err.value.offset == 7


def test_out_of_range_residue_rejected(ctx_small, sample_ct):
    blob = bytearray(ckks.serialize_ciphertext(sample_ct, ctx_small))
    # first residue word belongs to prime 0; force it to 2^63
    start = 50
    blob[start:start + 8] = (2**63).to_bytes(8, "little")
    with pytest.raises(ParseError) as err:
        ckks.deserialize_ciphertext(bytes(blob), ctx_small)
    assert "residue" in str(err.value)


def test_non_ternary_secret_rejected(ctx_small, keys_small):
    sk, _ = keys_small
    good = ckks.serialize_secret_key(sk, ctx_small)
    n, q1 = ctx_small.params.ring_dim, ctx_small.params.modulus_chain[1]
    row1 = 50 + n * 8
    shifted = (int.from_bytes(good[row1:row1 + 8], "little") + 12345) % q1
    # coefficient 5 is not ternary; a shifted row-1 residue (still below
    # q1) no longer lifts the secret that row 0 holds
    for pos, word in ((50, 5), (row1, shifted)):
        blob = bytearray(good)
        blob[pos:pos + 8] = word.to_bytes(8, "little")
        with pytest.raises(ParseError) as err:
            ckks.deserialize_secret_key(bytes(blob), ctx_small)
        assert err.value.offset == pos


def test_domain_byte_fixed_by_kind(ctx_small, keys_small, sample_ct):
    # a ciphertext and a public key are NTT form (1), a secret key is
    # coefficient form (0); the other code is rejected at its own offset
    sk, pk = keys_small
    for blob, load, swapped in (
            (ckks.serialize_ciphertext(sample_ct, ctx_small),
             ckks.deserialize_ciphertext, 0),
            (ckks.serialize_public_key(pk, ctx_small),
             ckks.deserialize_public_key, 0),
            (ckks.serialize_secret_key(sk, ctx_small),
             ckks.deserialize_secret_key, 1)):
        assert blob[49] == 1 - swapped
        for code in (swapped, 2):
            bad = bytearray(blob)
            bad[49] = code
            with pytest.raises(ParseError) as err:
                load(bytes(bad), ctx_small)
            assert err.value.offset == 49


@pytest.mark.parametrize("offset,value", [
    (24, math.nan), (32, math.nan), (40, math.nan), (32, math.inf)])
def test_non_finite_header_field_rejected(ctx_small, sample_ct, offset,
                                          value):
    # a NaN scale decodes to all-NaN slots, and a NaN noise estimate or
    # value bound makes the noise budget NaN, which decrypt cannot refuse
    blob = bytearray(ckks.serialize_ciphertext(sample_ct, ctx_small))
    blob[offset:offset + 8] = struct.pack("<d", value)
    with pytest.raises(ParseError, match="not finite") as err:
        ckks.deserialize_ciphertext(bytes(blob), ctx_small)
    assert err.value.offset == offset
