"""Sparse byte-addressable memory.

Backs both host DRAM and card HBM/DDR functionally.  Pages are allocated
lazily so multi-gigabyte address spaces cost nothing until touched.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["SparseMemory"]

_BACKING_PAGE = 4096
_ZERO_PAGE = bytes(_BACKING_PAGE)


class SparseMemory:
    """A dictionary-of-pages byte store with zero-fill semantics."""

    def __init__(self, size: int, name: str = "mem"):
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self.name = name
        self._pages: Dict[int, bytearray] = {}

    def _check_range(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size:
            raise ValueError(
                f"{self.name}: access [{addr:#x}, {addr + length:#x}) outside "
                f"size {self.size:#x}"
            )

    def read(self, addr: int, length: int) -> bytes:
        self._check_range(addr, length)
        page_no, page_off = divmod(addr, _BACKING_PAGE)
        end = page_off + length
        if end <= _BACKING_PAGE:
            # One backing page (every packet-sized access): one copy.
            page = self._pages.get(page_no)
            if page is None:
                return bytes(length)
            if length == _BACKING_PAGE:
                return bytes(page)
            return bytes(page[page_off:end])
        # Longer reads join the pages themselves; untouched ones read as
        # the shared zero page.
        get = self._pages.get
        last_no, last_end = divmod(addr + length, _BACKING_PAGE)
        parts = [memoryview(get(page_no, _ZERO_PAGE))[page_off:]]
        parts += [get(n, _ZERO_PAGE) for n in range(page_no + 1, last_no)]
        if last_end:
            parts.append(memoryview(get(last_no, _ZERO_PAGE))[:last_end])
        return b"".join(parts)

    def write(self, addr: int, data: bytes) -> None:
        length = len(data)
        self._check_range(addr, length)
        pages = self._pages
        page_no, page_off = divmod(addr, _BACKING_PAGE)
        end = page_off + length
        if end <= _BACKING_PAGE:
            # One backing page: no loop, no slice of ``data``.
            if length:
                page = pages.get(page_no)
                if page is None:
                    page = pages[page_no] = bytearray(_BACKING_PAGE)
                page[page_off:end] = data
            return
        view = memoryview(data)
        offset = 0
        while offset < length:
            take = min(length - offset, _BACKING_PAGE - page_off)
            chunk = view[offset : offset + take]
            page = pages.get(page_no)
            if page is None and take == _BACKING_PAGE:
                # A fresh page written whole is born from the data.
                pages[page_no] = bytearray(chunk)
            else:
                if page is None:
                    page = pages[page_no] = bytearray(_BACKING_PAGE)
                page[page_off : page_off + take] = chunk
            offset += take
            page_no += 1
            page_off = 0

    def fill(self, addr: int, length: int, value: int = 0) -> None:
        self.write(addr, bytes([value]) * length)

    @property
    def resident_bytes(self) -> int:
        """Bytes of backing store actually allocated."""
        return len(self._pages) * _BACKING_PAGE
