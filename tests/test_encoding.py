"""Codeword tables, round trips, and validation for the four encodings."""

import pytest

from qudenc.encoding import (BLOCK_UNARY, GRAY, SB, UNARY, EncodingSpec,
                             InvalidCodeword, bitmask_subset, codeword, decode,
                             encode, format_bits, hamming_distance, num_qubits,
                             parse_bits)


def bits_msb_first(spec, l):
    return "".join(str(b) for b in reversed(encode(spec, l)))


def test_sb_codewords_d8():
    spec = EncodingSpec(SB, 8)
    assert num_qubits(spec) == 3
    assert [bits_msb_first(spec, l) for l in range(8)] == [
        "000", "001", "010", "011", "100", "101", "110", "111"]


def test_gray_codewords_d8():
    spec = EncodingSpec(GRAY, 8)
    assert num_qubits(spec) == 3
    assert [bits_msb_first(spec, l) for l in range(8)] == [
        "000", "001", "011", "010", "110", "111", "101", "100"]


def test_gray_adjacent_levels_differ_by_one_bit():
    for d in (3, 5, 8, 13, 16):
        spec = EncodingSpec(GRAY, d)
        for l in range(d - 1):
            assert hamming_distance(encode(spec, l), encode(spec, l + 1)) == 1


def test_unary_codewords():
    spec = EncodingSpec(UNARY, 5)
    assert num_qubits(spec) == 5
    for l in range(5):
        bits = encode(spec, l)
        assert sum(bits) == 1 and bits[l] == 1
        assert bitmask_subset(spec, l) == {l}


def test_block_unary_codewords_g3_d12():
    spec = EncodingSpec(BLOCK_UNARY, 12, g=3)
    assert spec.block_width == 2
    assert num_qubits(spec) == 8
    # level 7 -> block 2, local value (7 mod 3) + 1 = 2 -> bits 01 in block 2
    bits = encode(spec, 7)
    assert bits[4:6] == (0, 1)
    assert sum(bits) == 1
    assert bitmask_subset(spec, 7) == {4, 5}
    # level 2 -> block 0, local value 3 -> bits 11
    assert encode(spec, 2)[0:2] == (1, 1)


def test_block_unary_qubit_count_formula():
    for d in range(2, 17):
        for g in (2, 3, 4):
            spec = EncodingSpec(BLOCK_UNARY, d, g=g)
            blocks = -(-d // g)
            assert num_qubits(spec) == blocks * g.bit_length()


def test_round_trip_all_encodings():
    for d in range(2, 17):
        specs = [EncodingSpec(SB, d), EncodingSpec(GRAY, d), EncodingSpec(UNARY, d),
                 EncodingSpec(BLOCK_UNARY, d, g=3),
                 EncodingSpec(BLOCK_UNARY, d, g=3, local_kind=GRAY)]
        for spec in specs:
            for l in range(d):
                assert decode(spec, encode(spec, l)) == l


def test_decode_rejects_non_codewords():
    with pytest.raises(InvalidCodeword):
        decode(EncodingSpec(UNARY, 4), (1, 1, 0, 0))
    with pytest.raises(InvalidCodeword):
        decode(EncodingSpec(UNARY, 4), (0, 0, 0, 0))
    with pytest.raises(InvalidCodeword):
        decode(EncodingSpec(SB, 3), (1, 1))  # level 3 >= d
    # block unary: two occupied blocks
    bu = EncodingSpec(BLOCK_UNARY, 12, g=3)
    with pytest.raises(InvalidCodeword):
        decode(bu, (1, 0, 1, 0, 0, 0, 0, 0))
    # block unary with g=2: local pattern 11 = 3 > g is invalid
    bu2 = EncodingSpec(BLOCK_UNARY, 4, g=2)
    with pytest.raises(InvalidCodeword):
        decode(bu2, (1, 1, 0, 0))
    # block unary: level past the cutoff (last block, too-high local value)
    bu11 = EncodingSpec(BLOCK_UNARY, 11, g=3)
    bad = [0] * num_qubits(bu11)
    bad[6], bad[7] = 1, 1  # block 3 local value 3 -> level 11 >= d
    with pytest.raises(InvalidCodeword):
        decode(bu11, tuple(bad))


def test_spec_validation():
    with pytest.raises(ValueError):
        EncodingSpec(SB, 1)
    with pytest.raises(ValueError):
        EncodingSpec(SB, 2 ** 16 + 1)
    with pytest.raises(ValueError):
        EncodingSpec(BLOCK_UNARY, 8, g=0)
    with pytest.raises(ValueError):
        EncodingSpec("ternary", 8)
    with pytest.raises(ValueError):
        EncodingSpec(BLOCK_UNARY, 8, g=3, local_kind=UNARY)
    with pytest.raises(ValueError):
        encode(EncodingSpec(SB, 4), 4)
    with pytest.raises(ValueError):
        encode(EncodingSpec(SB, 4), -1)


def test_format_and_parse_bits():
    sb = EncodingSpec(SB, 8)
    assert format_bits(sb, encode(sb, 5)) == "101"
    assert parse_bits("101") == (1, 0, 1)
    bu = EncodingSpec(BLOCK_UNARY, 12, g=3)
    text = format_bits(bu, encode(bu, 7))
    assert text == "00 10 00 00"
    assert parse_bits(text) == encode(bu, 7)


def test_compact_codes_use_every_pattern_once():
    for d in (4, 8, 16):
        for kind in (SB, GRAY):
            spec = EncodingSpec(kind, d)
            seen = {encode(spec, l) for l in range(d)}
            assert len(seen) == d


def test_bitmask_subset_compact_is_full_register():
    spec = EncodingSpec(GRAY, 6)
    for l in range(6):
        assert bitmask_subset(spec, l) == {0, 1, 2}


@pytest.mark.parametrize("make", [
    lambda d: EncodingSpec(SB, d),
    lambda d: EncodingSpec(GRAY, d),
    lambda d: EncodingSpec(UNARY, d),
    *(lambda d, g=g, local=local: EncodingSpec(BLOCK_UNARY, d, local_kind=local, g=g)
      for g in (1, 2, 3, 4) for local in (SB, GRAY)),
], ids=["sb", "gray", "unary", *(f"bu-{local}-g{g}" for g in (1, 2, 3, 4)
                                 for local in ("sb", "gray"))])
def test_decode_is_exactly_the_inverse_of_encode(make):
    """Every bitstring of every register up to 12 qubits (d = 2..12): the
    codewords decode to their levels and everything else is InvalidCodeword."""
    for d in range(2, 13):
        spec = make(d)
        n = num_qubits(spec)
        levels = {encode(spec, l): l for l in range(d)}
        for x in range(1 << n):
            bits = tuple((x >> q) & 1 for q in range(n))
            if bits in levels:
                assert decode(spec, bits) == levels[bits]
            else:
                with pytest.raises(InvalidCodeword):
                    decode(spec, bits)


def _closed_form_specs():
    """Every kind at d = 2..40, block unary at g = 1..d+2 under both local codes."""
    for d in range(2, 41):
        yield from (EncodingSpec(kind, d) for kind in (SB, GRAY, UNARY))
        for g in range(1, d + 3):
            yield from (EncodingSpec(BLOCK_UNARY, d, local_kind=local, g=g)
                        for local in (SB, GRAY))


def test_geometry_matches_the_closed_forms():
    """num_qubits, codeword and bitmask_subset against the module docstring's
    formulas, written out per kind here."""
    for spec in _closed_form_specs():
        d = spec.d
        K = next(k for k in range(d) if 2 ** k >= d)  # ceil(log2 d)
        if spec.kind == SB:
            n, forms = K, [(l, set(range(K))) for l in range(d)]
        elif spec.kind == GRAY:
            n, forms = K, [(l ^ (l >> 1), set(range(K))) for l in range(d)]
        elif spec.kind == UNARY:
            n, forms = d, [(1 << l, {l}) for l in range(d)]
        else:
            g = spec.g
            w = next(k for k in range(g + 1) if 2 ** k >= g + 1)  # ceil(log2(g+1))
            n, forms = -(-d // g) * w, []
            for l in range(d):
                block, local = l // g, l % g + 1
                if spec.local_kind == GRAY:
                    local ^= local >> 1
                forms.append((local << block * w, set(range(block * w, (block + 1) * w))))
        assert num_qubits(spec) == n, spec
        for l, (word, subset) in enumerate(forms):
            assert codeword(spec, l) == word, (spec, l)
            assert encode(spec, l) == tuple((word >> q) & 1 for q in range(n)), (spec, l)
            assert bitmask_subset(spec, l) == subset, (spec, l)
