"""Memory model tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.memory import Memory, MemoryError_

addresses = st.integers(min_value=0, max_value=0xFFFF_FFF0)


class TestBasicAccess:
    def test_default_zero(self):
        assert Memory().load(0x1234, 4) == 0

    def test_word_roundtrip(self):
        memory = Memory()
        memory.store(0x100, 0xDEADBEEF, 4)
        assert memory.load(0x100, 4) == 0xDEADBEEF

    def test_big_endian_byte_order(self):
        memory = Memory()
        memory.store(0x100, 0x11223344, 4)
        assert memory.load(0x100, 1) == 0x11
        assert memory.load(0x101, 1) == 0x22
        assert memory.load(0x102, 2) == 0x3344

    def test_halfword(self):
        memory = Memory()
        memory.store(0x10, 0xABCD, 2)
        assert memory.load(0x10, 2) == 0xABCD
        assert memory.load(0x10, 1) == 0xAB

    def test_store_truncates(self):
        memory = Memory()
        memory.store(0, 0x1FF, 1)
        assert memory.load(0, 1) == 0xFF

    def test_cross_page_access(self):
        memory = Memory()
        memory.store(0xFFE, 0xA1B2C3D4, 4)   # spans the 4 KiB page boundary
        assert memory.load(0xFFE, 4) == 0xA1B2C3D4
        assert memory.load(0x1000, 1) == 0xC3

    def test_high_addresses(self):
        memory = Memory()
        memory.store(0xFFFF_FFF0, 0x12345678, 4)
        assert memory.load(0xFFFF_FFF0, 4) == 0x12345678


class TestValidation:
    def test_bad_size(self):
        with pytest.raises(MemoryError_):
            Memory().load(0, 3)

    def test_out_of_range(self):
        with pytest.raises(MemoryError_):
            Memory().load(0xFFFF_FFFE, 4)
        with pytest.raises(MemoryError_):
            Memory().store(-4, 0, 4)


class TestCopyAndIteration:
    def test_copy_is_independent(self):
        memory = Memory()
        memory.store(0, 42, 4)
        clone = memory.copy()
        clone.store(0, 7, 4)
        assert memory.load(0, 4) == 42
        assert clone.load(0, 4) == 7

    def test_words_iterator(self):
        memory = Memory()
        memory.store_word(0x10, 1)
        memory.store_word(0x2000, 2)
        words = dict(memory.words())
        assert words == {0x10: 1, 0x2000: 2}


class TestProperties:
    @given(addr=addresses, value=st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_word_roundtrip_property(self, addr, value):
        memory = Memory()
        memory.store(addr, value, 4)
        assert memory.load(addr, 4) == value

    @given(addr=addresses,
           values=st.lists(st.integers(min_value=0, max_value=255),
                           min_size=4, max_size=4))
    def test_bytes_compose_word(self, addr, values):
        memory = Memory()
        for offset, byte in enumerate(values):
            memory.store(addr + offset, byte, 1)
        expected = int.from_bytes(bytes(values), "big")
        assert memory.load(addr, 4) == expected


def _byte_load(memory, address, size):
    """Reference read: one single-byte access per byte."""
    value = 0
    for offset in range(size):
        value = (value << 8) | memory.load(address + offset, 1)
    return value


class TestWordFastPath:
    """Aligned accesses read and write one page slice; everything else
    keeps the per-byte path.  Both must agree byte for byte."""

    @given(addr=st.integers(min_value=0, max_value=0x3FFF),
           size=st.sampled_from([1, 2, 4]),
           value=st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_any_alignment_matches_byte_reads(self, addr, size, value):
        memory = Memory()
        memory.store(addr, value, size)
        expected = value & ((1 << (8 * size)) - 1)
        assert memory.load(addr, size) == expected
        assert _byte_load(memory, addr, size) == expected

    @pytest.mark.parametrize("address", [0xFFD, 0xFFE, 0xFFF, 0x1FFF])
    def test_page_straddling_word(self, address):
        memory = Memory()
        memory.store(address, 0xA1B2C3D4, 4)
        assert memory.load(address, 4) == 0xA1B2C3D4
        assert _byte_load(memory, address, 4) == 0xA1B2C3D4
        assert len(memory._pages) == 2

    def test_page_straddling_halfword(self):
        memory = Memory()
        memory.store(0xFFF, 0xBEEF, 2)
        assert memory.load(0xFFF, 2) == 0xBEEF
        assert memory.load(0x1000, 1) == 0xEF

    @pytest.mark.parametrize("address,size", [(0x101, 4), (0x102, 4),
                                              (0x103, 2)])
    def test_unaligned_inside_page(self, address, size):
        memory = Memory()
        memory.store(0x100, 0x11223344, 4)
        memory.store(0x104, 0x55667788, 4)
        assert memory.load(address, size) == _byte_load(
            memory, address, size)

    def test_aligned_load_of_unwritten_page(self):
        memory = Memory()
        assert memory.load(0x5000, 4) == 0
        assert memory.load(0x5002, 2) == 0
        assert not memory._pages            # reads never allocate

    @pytest.mark.parametrize("address,size", [
        (0xFFFF_FFFC, 8), (-1, 1), (-4, 4), (0xFFFF_FFFF, 2),
        (0xFFFF_FFFE, 4), (1 << 32, 1),
    ])
    def test_out_of_range_raises(self, address, size):
        with pytest.raises(MemoryError_):
            Memory().load(address, size)
        with pytest.raises(MemoryError_):
            Memory().store(address, 0, size)

    def test_last_word_of_address_space(self):
        memory = Memory()
        memory.store(0xFFFF_FFFC, 0xCAFEF00D, 4)
        assert memory.load(0xFFFF_FFFC, 4) == 0xCAFEF00D
        memory.store(0xFFFF_FFFF, 0x7F, 1)
        assert memory.load(0xFFFF_FFFF, 1) == 0x7F


def _per_word(words):
    memory = Memory()
    for address, word in words.items():
        memory.store(address, word, 4)
    return memory


class TestBulkLoad:
    """``store_words`` (one page fill per touched page) leaves exactly the
    pages one ``store`` per word leaves."""

    @given(words=st.dictionaries(
        st.integers(min_value=0, max_value=0x7FFF).map(lambda w: 4 * w),
        st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=64))
    def test_aligned_images_match_per_word(self, words):
        memory = Memory()
        memory.store_words(words)
        assert memory._pages == _per_word(words)._pages

    @pytest.mark.parametrize("address", [0x1, 0x2, 0x1003])
    def test_unaligned_address_raises(self, address):
        memory = Memory()
        with pytest.raises(MemoryError_, match="not aligned"):
            memory.store_words({0x0: 1, address: 2})
        assert not memory._pages

    def test_zero_words_still_allocate_pages(self):
        memory = Memory()
        memory.store_words({0x3000: 0, 0x8004: 0})
        assert memory._pages == _per_word({0x3000: 0, 0x8004: 0})._pages
        assert sorted(memory._pages) == [3, 8]

    def test_merges_into_existing_pages(self):
        memory = Memory()
        memory.store(0x10, 0xAAAAAAAA, 4)
        memory.store(0x22, 0xBB, 1)
        memory.store(0x31, 0xCC, 1)
        memory.store_words({0x10: 0x01020304, 0x20: 0x05060708})
        assert memory.load(0x10, 4) == 0x01020304
        assert memory.load(0x20, 4) == 0x05060708
        assert memory.load(0x30, 4) == 0x00CC0000
        memory.store(0x1000, 1, 1)
        memory.store_words({0x2000: 9})
        assert memory.load(0x1000, 1) == 1

    @pytest.mark.parametrize("address", [-4, 0xFFFF_FFFE, 1 << 32,
                                         1 << 70])
    def test_out_of_range_raises(self, address):
        with pytest.raises(MemoryError_):
            Memory().store_words({0x0: 1, address: 2})

    def test_empty_image(self):
        memory = Memory()
        memory.store_words({})
        assert not memory._pages
