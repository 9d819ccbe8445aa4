"""Unit and property tests for the sparse memory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import SparseMemory


def test_zero_fill_semantics():
    mem = SparseMemory(1 << 20)
    assert mem.read(0, 16) == b"\x00" * 16
    assert mem.read(12345, 7) == b"\x00" * 7


def test_write_read_roundtrip():
    mem = SparseMemory(1 << 20)
    mem.write(100, b"hello world")
    assert mem.read(100, 11) == b"hello world"
    # Neighbours untouched.
    assert mem.read(99, 1) == b"\x00"
    assert mem.read(111, 1) == b"\x00"


def test_cross_page_write():
    mem = SparseMemory(1 << 20)
    data = bytes(range(200)) * 50  # 10 KB spanning 3 backing pages
    mem.write(4090, data)
    assert mem.read(4090, len(data)) == data


def test_out_of_range_rejected():
    mem = SparseMemory(4096)
    with pytest.raises(ValueError):
        mem.read(4000, 200)
    with pytest.raises(ValueError):
        mem.write(-1, b"x")
    with pytest.raises(ValueError):
        SparseMemory(0)


def test_fill():
    mem = SparseMemory(1 << 16)
    mem.fill(10, 5, 0xAB)
    assert mem.read(10, 5) == b"\xab" * 5


def test_resident_bytes_grows_lazily():
    mem = SparseMemory(1 << 30)
    assert mem.resident_bytes == 0
    mem.write(0, b"x")
    assert mem.resident_bytes == 4096
    mem.write(1 << 20, b"y")
    assert mem.resident_bytes == 8192


@settings(max_examples=50, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=60_000),
            st.binary(min_size=1, max_size=5_000),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_matches_reference_bytearray(writes):
    """Sparse memory behaves exactly like one big bytearray."""
    size = 1 << 16
    mem = SparseMemory(size)
    reference = bytearray(size)
    for addr, data in writes:
        data = data[: size - addr]
        if not data:
            continue
        mem.write(addr, data)
        reference[addr : addr + len(data)] = data
    assert mem.read(0, size) == bytes(reference)


_SIZE = 1 << 16
_PAGE = 4096
#: Addresses on, just before and just after a backing-page boundary, and
#: anywhere; lengths from nothing to several pages.
_addrs = st.one_of(
    st.integers(0, _SIZE),
    st.builds(
        lambda page, skew: min(max(page * _PAGE + skew, 0), _SIZE),
        st.integers(0, _SIZE // _PAGE), st.integers(-3, 3),
    ),
)
_lengths = st.one_of(
    st.integers(0, 64), st.sampled_from([2048, _PAGE, 2 * _PAGE]), st.integers(0, 4 * _PAGE)
)
_ops = st.one_of(
    st.tuples(st.just("read"), _addrs, _lengths),
    st.tuples(
        st.sampled_from(["bytes", "bytearray", "memoryview"]), _addrs,
        st.binary(max_size=3 * _PAGE + 7),
    ),
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_ops, max_size=30))
def test_reads_and_writes_match_a_bytearray_oracle(ops):
    """Any interleaving of reads and writes — page-straddling,
    zero-length, ``bytearray``/``memoryview`` input, never-written
    ranges — returns what one flat ``bytearray`` would, as ``bytes``,
    and allocates only the pages a non-empty write touched."""
    mem = SparseMemory(_SIZE)
    oracle = bytearray(_SIZE)
    touched = set()
    for kind, addr, arg in ops:
        if kind == "read":
            length = min(arg, _SIZE - addr)
            got = mem.read(addr, length)
            assert type(got) is bytes
            assert got == bytes(oracle[addr : addr + length])
            continue
        data = arg[: _SIZE - addr]
        mem.write(addr, {"bytes": bytes, "bytearray": bytearray, "memoryview": memoryview}[kind](data))
        oracle[addr : addr + len(data)] = data
        if data:
            touched.update(range(addr // _PAGE, (addr + len(data) - 1) // _PAGE + 1))
    assert mem.resident_bytes == len(touched) * _PAGE
    assert mem.read(0, _SIZE) == bytes(oracle)


def test_range_is_checked_before_anything_is_allocated():
    mem = SparseMemory(2 * _PAGE)
    with pytest.raises(ValueError):
        mem.write(_PAGE, bytes(_PAGE + 1))
    with pytest.raises(ValueError):
        mem.read(2 * _PAGE, 1)
    mem.write(2 * _PAGE, b"")  # zero-length at the very end is in range
    assert mem.read(2 * _PAGE, 0) == b""
    assert mem.resident_bytes == 0
