"""Tightly-coupled SRAM model.

The customised core uses fast single-cycle SRAM macros for both instruction
and data memory (paper §III-A).  Functionally this is a flat, big-endian,
byte-addressable store; timing is handled by the timing model, which treats
the SRAM macros as path endpoints like any flip-flop.

Aligned accesses never straddle a 4 KiB page, so they read and write one
page slice through ``int.from_bytes``/``to_bytes``; unaligned accesses
keep the per-byte loop, which handles page-straddling words.  A program
image (word-aligned by construction) is loaded in bulk
(:meth:`Memory.store_words`), one NumPy page fill per touched page rather
than one store per word.
"""

import numpy as np

from repro.utils.bitops import WORD_MASK

_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_PAGE_MASK = _PAGE_SIZE - 1
_ADDRESS_LIMIT = 1 << 32
_SIZE_MASK = {1: 0xFF, 2: 0xFFFF, 4: WORD_MASK}


class MemoryError_(ValueError):
    """Raised for invalid accesses (bad size, address range)."""


class Memory:
    """Sparse big-endian byte-addressable memory."""

    def __init__(self, name="mem"):
        self.name = name
        self._pages = {}

    def _page(self, address):
        index = address >> _PAGE_BITS
        page = self._pages.get(index)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[index] = page
        return page

    def load(self, address, size):
        """Read ``size`` bytes (1, 2 or 4) big-endian; unwritten bytes are 0."""
        self._check(address, size)
        if not address & (size - 1):
            page = self._pages.get(address >> _PAGE_BITS)
            if page is None:
                return 0
            offset = address & _PAGE_MASK
            return int.from_bytes(page[offset:offset + size], "big")
        value = 0
        for offset in range(size):
            byte_addr = address + offset
            page = self._pages.get(byte_addr >> _PAGE_BITS)
            byte = page[byte_addr & _PAGE_MASK] if page else 0
            value = (value << 8) | byte
        return value

    def store(self, address, value, size):
        """Write the low ``size`` bytes of ``value`` big-endian."""
        self._check(address, size)
        value &= _SIZE_MASK[size]
        if not address & (size - 1):
            offset = address & _PAGE_MASK
            self._page(address)[offset:offset + size] = value.to_bytes(
                size, "big"
            )
            return
        for offset in range(size):
            byte = (value >> (8 * (size - 1 - offset))) & 0xFF
            byte_addr = address + offset
            self._page(byte_addr)[byte_addr & _PAGE_MASK] = byte

    def store_words(self, words):
        """Bulk :meth:`store` of a word-aligned ``{address: word}`` image
        (32-bit words, big-endian): one NumPy fill per touched page, with
        the same resulting pages as one ``store`` per item.  Raises
        :class:`MemoryError_` on an unaligned or out-of-range address."""
        if not words:
            return
        self._check(min(words), 4)
        self._check(max(words), 4)
        addresses = np.fromiter(words, dtype=np.int64, count=len(words))
        unaligned = np.flatnonzero(addresses & 3)
        if len(unaligned):
            raise MemoryError_(
                f"word address not aligned: {int(addresses[unaligned[0]]):#x}"
            )
        page_ids = addresses >> _PAGE_BITS
        touched, slot = np.unique(page_ids, return_inverse=True)
        block = np.zeros((len(touched), _PAGE_SIZE), dtype=np.uint8)
        indices = touched.tolist()
        for row, index in enumerate(indices):
            page = self._pages.get(index)
            if page is not None:
                block[row] = np.frombuffer(page, dtype=np.uint8)
        block.view(">u4")[slot, (addresses & _PAGE_MASK) >> 2] = list(
            words.values()
        )
        for row, index in enumerate(indices):
            self._pages[index] = bytearray(block[row].tobytes())

    @staticmethod
    def _check(address, size):
        if size not in (1, 2, 4):
            raise MemoryError_(f"unsupported access size {size}")
        if address < 0 or address + size > _ADDRESS_LIMIT:
            raise MemoryError_(f"address out of range: {address:#x}")

    def load_word(self, address):
        return self.load(address, 4)

    def store_word(self, address, value):
        self.store(address, value, 4)

    def words(self):
        """Iterate (address, word) over all word-aligned non-zero words."""
        for index in sorted(self._pages):
            page = self._pages[index]
            base = index << _PAGE_BITS
            for offset in range(0, _PAGE_SIZE, 4):
                chunk = page[offset:offset + 4]
                if any(chunk):
                    yield base + offset, int.from_bytes(chunk, "big")

    def copy(self):
        """Deep copy (used to snapshot initial images for repeated runs)."""
        clone = Memory(self.name)
        clone._pages = {k: bytearray(v) for k, v in self._pages.items()}
        return clone
