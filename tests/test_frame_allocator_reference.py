"""The counting frame allocator against the listed one it replaced.

``FrameAllocator`` used to build ``list(range(num_frames - 1, -1, -1))``
and pop from it; it now counts up and keeps only the frames handed
back.  The list form stays here as the oracle: under generated
alloc / free / double-free / misaligned-free / exhaust / refill
sequences both must hand out the **same address** or raise the **same
exception type** at every step — physical addresses pick TLB sets and
HBM stripes, so the order is part of every simulated time.  Two pins
hold the cost without reading a clock.
"""

import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Driver, Environment, Shell, ShellConfig
from repro.mem import FrameAllocator, OutOfMemoryError
from repro.mem.tlb import PAGE_2M, PAGE_4K


class _ListedFrames:
    """The reference: every free frame on a stack, lowest on top."""

    def __init__(self, num_frames, frame_size):
        self.frame_size = frame_size
        self.stack = list(range(num_frames - 1, -1, -1))
        self.used = set()

    def allocate(self):
        if not self.stack:
            raise OutOfMemoryError
        frame = self.stack.pop()
        self.used.add(frame)
        return frame * self.frame_size

    def free(self, paddr):
        frame, rem = divmod(paddr, self.frame_size)
        if rem or frame not in self.used:
            raise ValueError
        self.used.discard(frame)
        self.stack.append(frame)


def _outcome(call, *args):
    try:
        return call(*args)
    except (OutOfMemoryError, ValueError) as exc:
        return type(exc)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "free", "double_free", "misaligned", "exhaust", "refill"]),
        st.integers(min_value=0, max_value=1 << 16),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(
    num_frames=st.integers(min_value=1, max_value=64),
    frame_size=st.sampled_from([PAGE_4K, PAGE_2M]),
    ops=_OPS,
)
@example(num_frames=1, frame_size=PAGE_4K, ops=[("exhaust", 0), ("alloc", 0), ("refill", 0), ("alloc", 0)])
@example(num_frames=3, frame_size=PAGE_2M, ops=[("exhaust", 0), ("free", 1), ("free", 0), ("alloc", 0), ("alloc", 0), ("alloc", 0)])
def test_same_addresses_and_errors_as_the_listed_allocator(num_frames, frame_size, ops):
    new = FrameAllocator(num_frames * frame_size, frame_size)
    ref = _ListedFrames(num_frames, frame_size)
    held, freed = [], []

    def both(method, *args):
        got = _outcome(getattr(new, method), *args)
        assert got == _outcome(getattr(ref, method), *args)
        assert new.frames_free + new.frames_used == new.num_frames == num_frames
        assert new.frames_free == len(ref.stack)
        return got

    for kind, pick in ops:
        if kind == "alloc":
            got = both("allocate")
            if got is not OutOfMemoryError:
                held.append(got)
        elif kind == "free" and held:
            paddr = held.pop(pick % len(held))
            assert both("free", paddr) is None
            freed.append(paddr)
        elif kind == "double_free":
            # A frame freed earlier (ValueError unless since re-allocated,
            # which both sides must agree on) or one never handed out.
            paddr = freed[pick % len(freed)] if freed else (pick % num_frames) * frame_size
            if both("free", paddr) is None:
                held.remove(paddr)
        elif kind == "misaligned":
            offset = 1 + pick % (frame_size - 1)
            assert both("free", (pick % num_frames) * frame_size + offset) is ValueError
        elif kind in ("exhaust", "refill"):
            # refill first hands everything back in a generated order:
            # the re-pop order is last-in first-out.
            while kind == "refill" and held:
                paddr = held.pop(pick % len(held))
                assert both("free", paddr) is None
                freed.append(paddr)
            while (got := both("allocate")) is not OutOfMemoryError:
                held.append(got)


def test_constructs_at_a_size_no_list_could():
    """2^38 frames: the cost of building one does not depend on its size."""
    frames = FrameAllocator(1 << 50, PAGE_4K)
    assert frames.num_frames == 1 << 38
    assert [frames.allocate(), frames.allocate()] == [0, PAGE_4K]
    frames.free(0)
    assert frames.allocate() == 0
    assert (frames.frames_used, frames.frames_free) == (2, (1 << 38) - 2)


def test_building_a_card_allocates_under_2_mib():
    """A listed 8 GiB host region alone was 80.8 MiB."""
    env = Environment()
    tracemalloc.start()
    try:
        driver = Driver(env, Shell(env, ShellConfig()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert driver._host_frames[PAGE_4K].num_frames == 2_097_152
    assert peak < 2 << 20
