"""``Shell.post_descriptor`` is the one checked entry to the datapath.

A descriptor the shell cannot serve — a stream index past the region's
geometry, a CARD stream on a shell built without the memory service, a
NET stream — is refused synchronously with a typed
:class:`DescriptorError` in the submitter's own frame: nothing is
queued, nothing is registered in the in-flight table, no mover process
dies, and neighbouring tenants never notice.  Covers both software
submit paths (``invoke`` and ``post_many``) and hardware-issued requests
(``VFpga.read`` / ``VFpga.write``).  A served descriptor goes from the
door straight onto its data mover's dispatch queue, with no relay
process between.
"""

import re

import pytest

from repro import CThread, LocalSg, Oper, ServiceConfig, SgEntry, StreamType
from repro.apps import PassThroughApp
from repro.axi import Flit
from repro.core import Descriptor, DescriptorError, UserApp
from repro.driver import RingOp, RingOpcode

from .platforms import card, twice_sanitized

LENGTH = 4096
PAYLOAD = bytes(range(256)) * (LENGTH // 256)

#: name -> (services, how the request is unservable).
CASES = {
    "bad_dest": (ServiceConfig(), dict(stream=StreamType.HOST, dest=9)),
    "card_without_memory_service": (
        ServiceConfig(en_memory=False), dict(stream=StreamType.CARD, dest=0),
    ),
}


class Client:
    """A cThread with one source and one destination buffer that can
    submit a TRANSFER through ``invoke`` or through a ring batch."""

    def __init__(self, driver, vfpga_id, pid, via):
        self.thread = CThread(driver, vfpga_id, pid=pid)
        self.via = via

    def setup(self):
        thread = self.thread
        self.src = (yield from thread.get_mem(LENGTH)).vaddr
        self.dst = (yield from thread.get_mem(LENGTH)).vaddr
        thread.write_buffer(self.src, PAYLOAD)
        if self.via == "post_many":
            thread.setup_rings(slots=4)
            self.src_mr = yield from thread.register_mr(self.src, LENGTH, writable=False)
            self.dst_mr = yield from thread.register_mr(self.dst, LENGTH)

    def ring_op(self, stream=StreamType.HOST, dest=0, dst_dest=0):
        return RingOp(
            RingOpcode.TRANSFER, mr_key=self.src_mr.key, length=LENGTH,
            stream=stream, dest=dest, dst_mr_key=self.dst_mr.key,
            dst_stream=stream, dst_dest=dst_dest,
        )

    def transfer(self, stream=StreamType.HOST, dest=0, dst_dest=None):
        dst_dest = dest if dst_dest is None else dst_dest
        if self.via == "post_many":
            return (yield from self.thread.post_many(
                [self.ring_op(stream, dest, dst_dest)]
            ))[0]
        sg = LocalSg(
            src_addr=self.src, src_len=LENGTH, dst_addr=self.dst, dst_len=LENGTH,
            src_stream=stream, dst_stream=stream, src_dest=dest, dst_dest=dst_dest,
        )
        return (yield from self.thread.invoke(Oper.LOCAL_TRANSFER, SgEntry(local=sg)))

    def result(self):
        return self.thread.read_buffer(self.dst, LENGTH)


@pytest.mark.parametrize("via", ["invoke", "post_many"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_unservable_request_is_refused_at_the_door(case, via):
    services, bad = CASES[case]
    env, shell, driver = card(PassThroughApp(), PassThroughApp(), services=services)
    tenant = Client(driver, 0, pid=1, via=via)
    neighbour = Client(driver, 1, pid=2, via="invoke")
    seen = {}

    def tenant_main():
        yield from tenant.setup()
        with pytest.raises(DescriptorError):
            yield from tenant.transfer(**bad)
        # The error came back in this frame; the in-flight table holds
        # no gate and no absorb key for the refused request.
        seen["rings_after_refusal"] = len(tenant.thread.ctx.rings)
        # The region keeps serving: a valid request right behind it.
        entry = yield from tenant.transfer()
        seen["later"] = entry.status

    def neighbour_main():
        yield from neighbour.setup()
        yield env.timeout(50_000)  # well after the bad submit
        entry = yield from neighbour.transfer()
        seen["neighbour"] = entry.status

    env.process(tenant_main())
    env.process(neighbour_main())
    env.run()  # returns: no relay died, nothing raised out of the loop

    assert seen == {"rings_after_refusal": 0, "later": "success", "neighbour": "success"}
    assert tenant.result() == PAYLOAD and neighbour.result() == PAYLOAD
    assert len(tenant.thread.ctx.rings) == 0 and len(neighbour.thread.ctx.rings) == 0


@pytest.mark.parametrize("via", ["invoke", "post_many"])
def test_transfer_with_a_bad_write_half_posts_neither_half(via):
    """The read half alone would feed the kernel data nobody collects;
    both halves pass the check before either is queued."""
    env, shell, driver = card(PassThroughApp(), num_vfpgas=2)
    tenant = Client(driver, 0, pid=1, via=via)

    def main():
        yield from tenant.setup()
        with pytest.raises(DescriptorError, match="stream 9"):
            yield from tenant.transfer(dest=0, dst_dest=9)
        assert len(tenant.thread.ctx.rings) == 0
        return (yield from tenant.transfer())

    assert env.run(env.process(main())).status == "success"
    env.run()
    assert tenant.result() == PAYLOAD
    assert shell.vfpgas[0].app.flits_moved == LENGTH // 2048  # only the valid request's


def test_the_door_puts_a_descriptor_straight_on_its_mover():
    """One 2 KiB TRANSFER invoke dispatches 38 events, from submit to
    completion.  A send-queue relay process between the door and the
    mover cost 43: a get and a put per descriptor (39 while the DMA
    engines were processes).  No such relay is started, so none is
    left parked at drain."""

    def run():
        env, shell, driver = card(PassThroughApp())
        client = Client(driver, 0, pid=1, via="invoke")
        out = {}

        def main():
            yield from client.setup()
            before = env.events_processed
            sg = LocalSg(src_addr=client.src, src_len=2048, dst_addr=client.dst, dst_len=2048)
            entry = yield from client.thread.invoke(Oper.LOCAL_TRANSFER, SgEntry(local=sg))
            out["invoke"] = (entry.status, env.events_processed - before)

        env.run(env.process(main()))
        env.run()
        out["relays"] = [
            entry.process for entry in env.sanitizer.stuck_ledger(env)
            if re.fullmatch(r"v\d+-sq-(rd|wr)-dispatch", entry.process)
        ]
        out["bytes"] = client.thread.read_buffer(client.dst, 2048) == PAYLOAD[:2048]
        return out

    first, second = twice_sanitized(run)
    assert first == second
    assert first == {"invoke": ("success", 38), "relays": [], "bytes": True}


def test_ring_batch_with_one_bad_op_posts_nothing():
    env, shell, driver = card(PassThroughApp(), num_vfpgas=2)
    tenant = Client(driver, 0, pid=1, via="post_many")

    def main():
        yield from tenant.setup()
        with pytest.raises(DescriptorError):
            yield from tenant.thread.post_many([tenant.ring_op(), tenant.ring_op(dest=9)])
        assert len(tenant.thread.ctx.rings) == 0
        assert tenant.thread.ctx.rings.cmd.occupancy == 0

    env.run(env.process(main()))
    env.run()
    assert shell.vfpgas[0].app.flits_moved == 0
    assert tenant.result() == bytes(LENGTH)


def test_net_descriptor_is_refused():
    env, shell, driver = card(num_vfpgas=2)
    desc = Descriptor(vfpga_id=0, pid=1, vaddr=0, length=64, stream=StreamType.NET)
    with pytest.raises(DescriptorError, match="send queues"):
        shell.post_descriptor(desc, write=True)


# ------------------------------------------------- hardware-issued requests


class SelfSourcingApp(UserApp):
    """Sources its own input with ``vfpga.read`` and sinks its output
    with ``vfpga.write`` — no software descriptor involved — inverting
    every byte on the way through."""

    name = "selfsource"

    def __init__(self, pid, src, dst, length, dest=0):
        self.args = (pid, src, dst, length, dest)
        self.refused = None

    def run(self, vfpga):
        pid, src, dst, length, dest = self.args
        try:
            yield vfpga.read(pid, src, length, dest=dest)
        except DescriptorError as exc:
            self.refused = exc
            return
        yield vfpga.write(pid, dst, length, dest=dest)
        moved = 0
        while moved < length:
            flit = yield from vfpga.recv(dest=dest)
            moved += flit.length
            data = bytes(b ^ 0xFF for b in flit.data)
            yield from vfpga.send(Flit(length=flit.length, data=data), dest=dest)


def test_hardware_issued_read_and_write_move_bytes_exactly():
    env, shell, driver = card(num_vfpgas=2)
    owner = Client(driver, 0, pid=1, via="invoke")

    def main():
        yield from owner.setup()
        shell.load_app(0, SelfSourcingApp(1, owner.src, owner.dst, LENGTH, dest=2))

    env.run(env.process(main()))
    env.run()
    assert owner.result() == bytes(b ^ 0xFF for b in PAYLOAD)
    # The completions belonged to no software request: nothing was left
    # waiting on them and nothing is stranded in the queues.
    assert len(owner.thread.ctx.rings) == 0
    assert len(shell.vfpgas[0].cq_rd) == 0 and len(shell.vfpgas[0].cq_wr) == 0


def test_bad_hardware_issued_descriptor_leaves_the_region_serving():
    env, shell, driver = card(num_vfpgas=2)
    owner = Client(driver, 0, pid=1, via="invoke")
    rogue = SelfSourcingApp(1, 0, 0, LENGTH, dest=9)

    def main():
        yield from owner.setup()
        shell.load_app(0, rogue)
        yield env.timeout(1_000)
        # The kernel's own frame got the error; the region's movers
        # are alive and serve software work on the same region.
        shell.load_app(0, PassThroughApp())
        return (yield from owner.transfer())

    assert env.run(env.process(main())).status == "success"
    env.run()
    assert isinstance(rogue.refused, DescriptorError)
    assert owner.result() == PAYLOAD
