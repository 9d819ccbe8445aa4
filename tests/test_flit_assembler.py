"""The write units' flit assembler against a specification of it.

A write unit pushes kernel flits only while the next packet lacks bytes,
then takes the packet (``_FlitAssembler``).  Generated streams of real
and timing-only (``data=None``) flits, taken in generated packet sizes
that rarely and often line up with the flits, must give every take the
specification's answer — including the takes where a flit that is
exactly the next packet, with nothing staged, is handed through
uncopied.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.axi.types import Flit
from repro.core.movers import _FlitAssembler

#: Sizes a kernel and a mover both use, so flits and packets line up.
ALIGNED = st.sampled_from([64, 2048, 4096])


def specification(flits, lengths):
    """Each take's chunk of the concatenated payloads, or ``None`` when
    any byte from the last stream boundary (a take that ends where a
    flit ends) to the chunk's end was timing-only."""
    payload = b"".join(f.data if f.data is not None else bytes(f.length) for f in flits)
    spans, end = [], 0
    for flit in flits:
        spans.append((end, end + flit.length, flit.data is None))
        end += flit.length
    ends = {stop for _, stop, _ in spans}
    out, start, boundary = [], 0, 0
    for length in lengths:
        stop = start + length
        timed = any(t and lo < stop and hi > boundary for lo, hi, t in spans)
        out.append(None if timed else payload[start:stop])
        boundary = stop if stop in ends else boundary
        start = stop
    return out


def drive(flits, lengths):
    """Take ``lengths`` as a write unit does; stops at the first take the
    flits cannot fill.  Returns the takes made."""
    asm, pending, out = _FlitAssembler(), iter(flits), []
    for length in lengths:
        while asm.available < length:
            flit = next(pending, None)
            if flit is None:
                return out
            asm.push(flit)
        out.append(asm.take(length))
    return out


def _flit(length, real, seed):
    data = bytes((seed + i) % 251 for i in range(length)) if real else None
    return Flit(length=length, data=data)


flits = st.lists(
    st.builds(
        _flit,
        st.one_of(ALIGNED, st.integers(1, 5000)),
        st.booleans(),
        st.integers(0, 250),
    ),
    max_size=12,
)
takes = st.lists(st.one_of(ALIGNED, st.integers(1, 4096)), max_size=16)


@given(flits, takes)
def test_every_take_matches_the_specification(stream, lengths):
    got = drive(stream, lengths)
    assert got == specification(stream, lengths)[: len(got)]


def test_a_flit_that_is_the_next_packet_is_handed_through_uncopied():
    payload = bytes(range(256)) * 8
    asm = _FlitAssembler()
    asm.push(Flit(length=len(payload), data=payload))
    assert asm.take(len(payload)) is payload
    assert asm.available == 0
