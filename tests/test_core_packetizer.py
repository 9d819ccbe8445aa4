"""Tests for the packetizer (paper §6.3)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Descriptor, Packetizer, StreamType


def desc(length, vaddr=0x1000):
    return Descriptor(vfpga_id=0, pid=1, vaddr=vaddr, length=length)


def test_packet_size_is_told_not_defaulted():
    # Each mover derives its own size; there is no module default to drift.
    with pytest.raises(TypeError):
        Packetizer()
    assert Packetizer(4096).packet_bytes == 4096


def test_single_packet_request():
    packets = list(Packetizer(4096).split(desc(100)))
    assert len(packets) == 1
    assert packets[0].length == 100
    assert packets[0].last


def test_exact_multiple_split():
    packets = list(Packetizer(4096).split(desc(3 * 4096)))
    assert [p.length for p in packets] == [4096, 4096, 4096]
    assert [p.last for p in packets] == [False, False, True]


def test_remainder_packet():
    packets = list(Packetizer(4096).split(desc(4096 + 100)))
    assert [p.length for p in packets] == [4096, 100]


def test_addresses_are_contiguous():
    packets = list(Packetizer(4096).split(desc(10_000, vaddr=0x5000)))
    assert packets[0].vaddr == 0x5000
    assert packets[1].vaddr == 0x5000 + 4096
    assert packets[2].vaddr == 0x5000 + 8192


def test_configurable_chunk():
    packets = list(Packetizer(packet_bytes=512).split(desc(2048)))
    assert len(packets) == 4


def test_count():
    p = Packetizer(4096)
    assert p.count(1) == 1
    assert p.count(4096) == 1
    assert p.count(4097) == 2


def test_invalid_packet_size():
    with pytest.raises(ValueError):
        Packetizer(packet_bytes=0)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        Descriptor(vfpga_id=0, pid=0, vaddr=0, length=0)
    with pytest.raises(ValueError):
        Descriptor(vfpga_id=0, pid=0, vaddr=-1, length=10)


@settings(max_examples=100, deadline=None)
@given(
    length=st.integers(min_value=1, max_value=1 << 22),
    chunk=st.sampled_from([512, 1024, 4096, 8192]),
)
def test_split_covers_exactly_once(length, chunk):
    """Packets tile the request exactly: no gaps, no overlap, one last."""
    packets = list(Packetizer(chunk).split(desc(length, vaddr=0)))
    assert sum(p.length for p in packets) == length
    expected_vaddr = 0
    for p in packets:
        assert p.vaddr == expected_vaddr
        assert 0 < p.length <= chunk
        expected_vaddr += p.length
    assert sum(1 for p in packets if p.last) == 1
    assert packets[-1].last


def test_length_exactly_packet_bytes_is_single_last_packet():
    """Boundary: a request of exactly one packet takes the fast path and
    still carries last=True (the completion trigger)."""
    packets = list(Packetizer(4096).split(desc(4096)))
    assert len(packets) == 1
    assert packets[0].length == 4096
    assert packets[0].last


def test_zero_length_descriptor_yields_no_packets():
    """A zero-length descriptor emits *no* packets — so no last=True, so
    no completion.  Descriptor.__post_init__ rejects it at construction
    and the driver rejects it at submit (ZeroLengthDescriptorError);
    this pins the underlying hazard those guards exist for."""
    d = desc(1)
    d.length = 0  # bypass construction-time validation
    assert list(Packetizer(4096).split(d)) == []
    assert Packetizer(4096).count(0) == 0


@settings(max_examples=200, deadline=None)
@given(
    packets=st.integers(min_value=1, max_value=4096),
    short_by=st.integers(min_value=0, max_value=8191),
    chunk=st.sampled_from([1, 512, 1024, 4096, 8192]),
)
@example(packets=1, short_by=0, chunk=4096)  # exactly one packet
@example(packets=1, short_by=4095, chunk=4096)  # one byte
@example(packets=3, short_by=0, chunk=512)  # an exact multiple
@example(packets=512, short_by=0, chunk=8192)  # 1 << 22, the largest request
def test_count_matches_split(packets, short_by, chunk):
    """count() is the closed form of len(list(split())) for every length,
    including exact multiples and the single-packet boundary.  The packet
    count is drawn, not the length: a 4 MiB request at ``chunk=1`` is four
    million ``Packet`` objects and covers no boundary 4096 do not."""
    length = packets * chunk - short_by % chunk
    p = Packetizer(chunk)
    assert p.count(length) == len(list(p.split(desc(length)))) == packets


@settings(max_examples=200, deadline=None)
@given(
    vaddr=st.integers(min_value=0, max_value=1 << 16),
    length=st.integers(min_value=1, max_value=1 << 15),
    chunk=st.sampled_from([512, 2048, 4096]),
    page=st.sampled_from([1024, 4096, 8192]),
)
@example(vaddr=1024, length=4096, chunk=2048, page=4096)  # 1 KiB into a page
def test_page_bytes_cut_packets_at_page_boundaries(vaddr, length, chunk, page):
    """With ``page_bytes``, packets still tile the request in order, and
    each lies in one page (it is translated once, at its first byte).  A
    packet is cut short only by a page boundary or the request's end."""
    packets = list(Packetizer(chunk).split(desc(length, vaddr=vaddr), page))
    expected_vaddr = vaddr
    for p in packets:
        assert p.vaddr == expected_vaddr
        assert 0 < p.length <= chunk
        end = p.vaddr + p.length
        assert p.vaddr // page == (end - 1) // page
        assert p.length == chunk or end % page == 0 or p.last
        expected_vaddr = end
    assert expected_vaddr == vaddr + length
    assert [p.last for p in packets] == [False] * (len(packets) - 1) + [True]


def test_page_aligned_requests_split_as_without_pages():
    """A request that starts on a page splits exactly as with no page
    size: every benchmark buffer is page-aligned, so none moves."""
    request = desc(3 * 4096 + 100, vaddr=0x4000)
    plain = list(Packetizer(2048).split(request))
    paged = list(Packetizer(2048).split(request, 4096))
    assert [(p.vaddr, p.length, p.last) for p in paged] == [
        (p.vaddr, p.length, p.last) for p in plain
    ]
