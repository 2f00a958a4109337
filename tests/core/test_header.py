"""Unit tests for the Figure 9 header flit format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.header import (
    MAX_MISROUTES,
    Header,
    decode,
    encode,
    header_bits,
    offset_field_bits,
)


class TestHeaderState:
    def test_at_destination(self):
        assert Header(offsets=[0, 0]).at_destination()
        assert not Header(offsets=[1, 0]).at_destination()

    def test_distance(self):
        assert Header(offsets=[2, -3]).distance() == 5

    def test_apply_hop_reduces_offset(self):
        h = Header(offsets=[2, 0])
        h.apply_hop(0, +1, k=8)
        assert h.offsets == [1, 0]

    def test_apply_hop_negative_direction(self):
        h = Header(offsets=[-2, 0])
        h.apply_hop(0, -1, k=8)
        assert h.offsets == [-1, 0]

    def test_apply_hop_misroute_grows_offset(self):
        h = Header(offsets=[1, 0])
        h.apply_hop(0, -1, k=8)
        assert h.offsets == [2, 0]

    def test_apply_hop_wraps_canonically(self):
        # Offset 4 on k=8 (half-way); moving away wraps to the other side.
        h = Header(offsets=[4, 0])
        h.apply_hop(0, -1, k=8)
        # 4 - (-1) = 5 > 4 -> canonical form 5 - 8 = -3.
        assert h.offsets == [-3, 0]

    def test_apply_hop_half_way_stays_positive(self):
        h = Header(offsets=[-3, 0])
        h.apply_hop(0, -1, k=8)
        assert h.offsets == [-2, 0]

    def test_misroute_into_half_way_tie_canonicalizes_positive(self):
        # Moving *away* from the destination into the exact half-way
        # offset must land on the positive alias, matching
        # KAryNCube.offset (which prefers +k/2 on even-k ties).
        h = Header(offsets=[-2, 0])
        h.apply_hop(0, +1, k=6)
        assert h.offsets == [3, 0]

    def test_backtrack_then_forward_restores(self):
        h = Header(offsets=[2, -1])
        h.apply_hop(1, -1, k=8)
        h.apply_hop(1, +1, k=8)
        assert h.offsets == [2, -1]


class TestEncoding:
    def test_field_widths_16ary_2cube(self):
        # 1 header + 1 backtrack + 3 misroute + 1 detour + 1 SR
        # + 2 offsets of ceil(log2(17)) = 5 bits -> 17 bits total.
        assert offset_field_bits(16) == 5
        assert header_bits(16, 2) == 17

    def test_small_radix_field(self):
        assert offset_field_bits(4) == 3

    def test_roundtrip_simple(self):
        h = Header(offsets=[3, -2], backtrack=True, misroutes=5,
                   detour=True, sr=True)
        assert decode(encode(h, 16), 16, 2) == h

    def test_roundtrip_zero(self):
        h = Header(offsets=[0, 0])
        assert decode(encode(h, 16), 16, 2) == h

    # Literal words pin the Figure 9 bit order, which a round trip cannot:
    # the last case has detour != SR and a non-palindromic misroute count,
    # so swapping any two one-bit fields, or reversing the misroute
    # field, changes the word.
    @pytest.mark.parametrize("header, k, word", [
        (Header([0, 0]), 16, 65536),
        (Header([3, -2], backtrack=True, misroutes=5, detour=True, sr=True),
         16, 0b1_1_101_1_1_00011_11110),
        (Header([3, -2], misroutes=6, detour=True),
         16, 0b1_0_110_1_0_00011_11110),
    ])
    def test_figure9_literal_words(self, header, k, word):
        assert encode(header, k) == word
        assert decode(word, k, len(header.offsets)) == header

    def test_misroute_field_overflow(self):
        h = Header(offsets=[0, 0], misroutes=MAX_MISROUTES + 1)
        with pytest.raises(ValueError):
            encode(h, 16)

    def test_offset_out_of_range(self):
        h = Header(offsets=[9, 0])
        with pytest.raises(ValueError):
            encode(h, 16)

    def test_decode_requires_header_bit(self):
        h = Header(offsets=[1, 1])
        word = encode(h, 16)
        # Strip the leading header-identification bit.
        stripped = word - (1 << (header_bits(16, 2) - 1))
        with pytest.raises(ValueError):
            decode(stripped, 16, 2)

    @given(
        st.integers(min_value=3, max_value=16),
        st.integers(min_value=1, max_value=3),
        st.booleans(), st.booleans(), st.booleans(),
        st.integers(min_value=0, max_value=MAX_MISROUTES),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_property(self, k, n, backtrack, detour, sr,
                                misroutes, data):
        half = k // 2
        offsets = data.draw(
            st.lists(st.integers(min_value=-half, max_value=half),
                     min_size=n, max_size=n)
        )
        h = Header(offsets=list(offsets), backtrack=backtrack,
                   misroutes=misroutes, detour=detour, sr=sr)
        assert decode(encode(h, k), k, n) == h
