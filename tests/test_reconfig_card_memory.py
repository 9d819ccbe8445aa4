"""A shell swap re-instantiates the HBM and the driver's card-frame
allocator: no page-table entry may outlive the HBM that holds its frame.
Card-resident pages go home before the swap and their frames are
returned; a swap with nothing on the card costs what it always did."""

from repro import CThread
from repro.apps import PassThroughApp
from repro.mem import MemLocation
from repro.mem.tlb import PAGE_2M
from repro.synth import BuildFlow

from .platforms import card


def _card():
    env, shell, driver = card(PassThroughApp())
    services = shell.config.services
    bitstream = BuildFlow("u55c").shell_flow(services, ["passthrough"]).bitstream

    def swap():
        start = env.now
        yield env.process(
            driver.reconfigure_shell(bitstream, services, [PassThroughApp()])
        )
        return env.now - start

    return env, driver, swap


def _offloaded(ct, fill: bytes):
    buf = yield from ct.get_mem(PAGE_2M)
    ct.write_buffer(buf.vaddr, fill * 4)
    yield ct.env.process(ct.driver.offload(ct.pid, buf.vaddr, buf.length))
    return buf


def test_offloaded_data_survives_shell_swap():
    env, driver, swap = _card()

    def main():
        ct = CThread(driver, 0, pid=7)
        buf = yield from _offloaded(ct, b"A")
        yield env.process(swap())
        yield env.process(driver.sync(ct.pid, buf.vaddr, buf.length))
        return ct.read_buffer(buf.vaddr, 4)

    assert env.run(env.process(main())) == b"AAAA"


def test_buffers_offloaded_across_a_swap_do_not_alias():
    env, driver, swap = _card()

    def main():
        ct = CThread(driver, 0, pid=7)
        first = yield from _offloaded(ct, b"A")
        yield env.process(swap())
        second = yield from _offloaded(ct, b"B")
        yield env.process(driver.offload(ct.pid, first.vaddr, first.length))
        table = driver.processes[ct.pid].page_table
        frames = [table.walk(b.vaddr).card_paddr for b in (first, second)]
        for buf in (first, second):
            yield env.process(driver.sync(ct.pid, buf.vaddr, buf.length))
        return frames, ct.read_buffer(first.vaddr, 4), ct.read_buffer(second.vaddr, 4)

    frames, first, second = env.run(env.process(main()))
    assert len(set(frames)) == 2
    assert (first, second) == (b"AAAA", b"BBBB")


def test_free_and_close_after_shell_swap():
    env, driver, swap = _card()

    def main():
        ct = CThread(driver, 0, pid=7)
        freed = yield from _offloaded(ct, b"A")
        yield from _offloaded(ct, b"B")  # left for close() to free
        # Synced home but still holding its card frame: nothing to
        # migrate, the frame is returned all the same.
        synced = yield from _offloaded(ct, b"C")
        yield env.process(driver.sync(ct.pid, synced.vaddr, synced.length))
        yield env.process(swap())
        ct.free_mem(freed)
        entry = driver.processes[ct.pid].page_table.walk(synced.vaddr)
        assert (entry.location, entry.card_paddr) == (MemLocation.HOST, None)
        assert driver._card_frames.frames_used == 0
        ct.close()

    env.run(env.process(main()))
    assert 7 not in driver.processes
    host = driver._host_frames[PAGE_2M]
    assert host.frames_used == 0


def test_swap_with_empty_card_costs_what_it_did():
    """Host-resident buffers add neither time nor faults to a swap."""
    env, driver, swap = _card()
    bare_env, _, bare_swap = _card()
    bare = bare_env.run(bare_env.process(bare_swap()))

    def main():
        ct = CThread(driver, 0, pid=7)
        buf = yield from ct.get_mem(PAGE_2M)
        ct.write_buffer(buf.vaddr, b"host")
        elapsed = yield env.process(swap())
        return elapsed, ct.read_buffer(buf.vaddr, 4)

    elapsed, data = env.run(env.process(main()))
    assert elapsed == bare
    assert data == b"host"
    assert driver.page_faults == 0
