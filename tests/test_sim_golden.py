"""The host and card datapaths' simulated times as a golden digest.

Four runs, each the shape of one ``bench_e2e`` workload at test size,
pin what the shell does to a local request, to the nanosecond:

``host_small``  one pass-through region served through its rings: three
                64-slot doorbell batches of single-packet TRANSFER, READ
                and WRITE ops over two pinned MRs;
``host_bulk``   four tenants, one region each, contending for the host
                link with four 128 KiB-ish pass-through invokes apiece;
``card_hbm``    eight card streams of one region moving 64 KiB-ish
                transfers out of HBM and back, three rounds of eight;
``svm_thrash``  4 KiB pages at 8x the TLB's reach, a quarter of the
                sources offloaded to card memory first, so the host
                mover faults them back.

Each run's entry in ``golden/sim_digest.json`` holds a SHA-256 over its
ordered ``(completion time, id, status)`` tuples, their count, and in
clear the headline ``sim_*`` values (latency p50 and p99, simulated
GB/s, and Jain's index over the clients' goodputs), so a mismatch says
what moved.  Engine event counts are left out on purpose: a change that
removes events and keeps every simulated time must keep this file.  A
change that moves simulated time on purpose edits the file by hand,
with a ``reason`` that says why; the failing test prints the entries to
paste.
"""

import hashlib
import json
from pathlib import Path

from repro import CThread, LocalSg, Oper, ServiceConfig, SgEntry, StreamType
from repro.apps import PassThroughApp
from repro.core import VFpgaConfig
from repro.driver import RingOp, RingOpcode
from repro.mem import PAGE_4K, AllocType, MmuConfig, TlbConfig
from repro.sim import AllOf, LatencyStats

from .platforms import card

GOLDEN = Path(__file__).parent / "golden" / "sim_digest.json"
KIB = 1024


class Ledger:
    """Every request's end, in the order the requests ended."""

    def __init__(self, env):
        self.env = env
        self.ends = []  # (completion time, id, status)
        self.spans = []  # (client, nbytes, start, end)

    def done(self, rid, status, client, nbytes, start, end=None):
        end = self.env.now if end is None else end
        self.ends.append((end, rid, status))
        self.spans.append((client, nbytes, start, end))

    def entry(self):
        latency = LatencyStats(samples=[end - start for _c, _n, start, end in self.spans])
        by_client = {}
        for client, nbytes, start, end in self.spans:
            span = by_client.setdefault(client, [0, start, end])
            span[0] += nbytes
            span[2] = end
        rates = [n / (end - start) for n, start, end in by_client.values()]
        first = min(start for _c, _n, start, _e in self.spans)
        last = max(end for _c, _n, _s, end in self.spans)
        return {
            "sha256": hashlib.sha256(repr(self.ends).encode()).hexdigest(),
            "completions": len(self.ends),
            "sim_p50_ns": latency.percentile(50),
            "sim_p99_ns": latency.percentile(99),
            "sim_gbps": sum(n for _c, n, _s, _e in self.spans) / (last - first),
            "sim_fairness_jain": sum(rates) ** 2 / (len(rates) * sum(r * r for r in rates)),
        }


def _jitter(nominal, index):
    """A request length just under ``nominal``: no two neighbours equal,
    so the completions are not one latency repeated."""
    return nominal - (nominal // 256) * (index * 7 % 16) - index % 5


def host_small():
    """Three doorbell batches of 64 single-packet ring ops: half
    TRANSFERs, a quarter lone READs feeding a quarter lone WRITEs."""
    batch, slot = 64, 2 * KIB
    env, _shell, driver = card(PassThroughApp())
    thread = CThread(driver, 0, pid=1)
    region = batch * slot
    ledger = Ledger(env)

    def main():
        src = yield from thread.get_mem(region)
        dst = yield from thread.get_mem(region)
        thread.write_buffer(src.vaddr, bytes(i % 251 for i in range(region)))
        thread.setup_rings(slots=batch)
        src_mr = yield from thread.register_mr(src.vaddr, region, writable=False)
        dst_mr = yield from thread.register_mr(dst.vaddr, region)
        for number in range(3):
            kinds = [
                (RingOpcode.TRANSFER, RingOpcode.READ, RingOpcode.TRANSFER,
                 RingOpcode.WRITE)[(i * 5 + number) % 4]
                for i in range(batch)
            ]
            lengths = [_jitter(slot, i + number) for i in range(batch)]
            # The lone WRITEs drain what the lone READs fed the kernel.
            reads = iter([n for k, n in zip(kinds, lengths) if k is RingOpcode.READ])
            ops = []
            for index, kind in enumerate(kinds):
                offset = index * slot
                if kind is RingOpcode.TRANSFER:
                    ops.append(RingOp(
                        opcode=kind, mr_key=src_mr.key, offset=offset,
                        length=lengths[index], dst_mr_key=dst_mr.key, dst_offset=offset,
                    ))
                elif kind is RingOpcode.READ:
                    ops.append(RingOp(
                        opcode=kind, mr_key=src_mr.key, offset=offset, length=lengths[index],
                    ))
                else:
                    ops.append(RingOp(
                        opcode=kind, mr_key=dst_mr.key, offset=offset, length=next(reads),
                    ))
            submit = env.now
            entries = yield from thread.post_many(ops)
            for index, (op, entry) in enumerate(zip(ops, entries)):
                ledger.done(
                    (number, index), entry.status, 0, op.length, submit, entry.timestamp_ns
                )

    env.run(env.process(main()))
    return ledger.entry()


def host_bulk():
    """Four tenants, four pass-through invokes each, one host link."""
    tenants, size, requests = 4, 128 * KIB, 4
    env, _shell, driver = card(*(PassThroughApp() for _ in range(tenants)))
    threads = [CThread(driver, i, pid=100 + i) for i in range(tenants)]
    ledger = Ledger(env)

    def client(index, thread):
        src = yield from thread.get_mem(size)
        dst = yield from thread.get_mem(size)
        thread.write_buffer(src.vaddr, bytes([index + 1]) * size)
        for request in range(requests):
            length = _jitter(size, requests * index + request)
            sg = SgEntry(local=LocalSg(
                src_addr=src.vaddr, src_len=length, dst_addr=dst.vaddr, dst_len=length,
            ))
            start = env.now
            entry = yield from thread.invoke(Oper.LOCAL_TRANSFER, sg)
            assert thread.read_buffer(dst.vaddr, length) == bytes([index + 1]) * length
            ledger.done((index, request), entry.status, index, length, start)

    env.run(AllOf(env, [env.process(client(i, t)) for i, t in enumerate(threads)]))
    return ledger.entry()


def card_hbm():
    """Eight card streams, three rounds of eight concurrent transfers out
    of offloaded buffers; both directions count as payload."""
    streams, size, rounds = 8, 64 * KIB, 3
    env, _shell, driver = card(
        PassThroughApp(num_streams=streams, stream=StreamType.CARD),
        vfpga=VFpgaConfig(num_card_streams=streams),
    )
    thread = CThread(driver, 0, pid=1)
    ledger = Ledger(env)
    total = streams * size

    def transfer(src, dst, number, stream):
        offset = stream * size
        length = _jitter(size, streams * number + stream)
        sg = SgEntry(local=LocalSg(
            src_addr=src.vaddr + offset, src_len=length,
            dst_addr=dst.vaddr + offset, dst_len=length,
            src_stream=StreamType.CARD, dst_stream=StreamType.CARD,
            src_dest=stream, dst_dest=stream,
        ))
        start = env.now
        entry = yield from thread.invoke(Oper.LOCAL_TRANSFER, sg)
        ledger.done((number, stream), entry.status, stream, 2 * length, start)

    def main():
        src = yield from thread.get_mem(total)
        dst = yield from thread.get_mem(total)
        thread.write_buffer(src.vaddr, bytes(i % 241 for i in range(total)))
        for buf in (src, dst):
            yield from thread.invoke(
                Oper.LOCAL_OFFLOAD, SgEntry(local=LocalSg(src_addr=buf.vaddr, src_len=total))
            )
        for number in range(rounds):
            yield AllOf(env, [
                env.process(transfer(src, dst, number, stream)) for stream in range(streams)
            ])

    env.run(env.process(main()))
    return ledger.entry()


def svm_thrash():
    """96 one-page transfers over 128 pages behind a 16-entry TLB; every
    fourth source is offloaded to card memory just before its transfer."""
    pages, count = 128, 96
    env, _shell, driver = card(
        PassThroughApp(),
        services=ServiceConfig(mmu=MmuConfig(tlb=TlbConfig(
            page_size=PAGE_4K, num_entries=16, associativity=4,
        ))),
    )
    thread = CThread(driver, 0, pid=1)
    ledger = Ledger(env)
    image = bytes(i % 239 for i in range(pages * PAGE_4K))

    def main():
        src = yield from thread.get_mem(pages * PAGE_4K, AllocType.REG)
        dst = yield from thread.get_mem(pages * PAGE_4K, AllocType.REG)
        thread.write_buffer(src.vaddr, image)
        for index in range(count):
            src_page, dst_page = index * 37 % pages, index * 53 % pages
            src_addr = src.vaddr + src_page * PAGE_4K
            dst_addr = dst.vaddr + dst_page * PAGE_4K
            if index % 4 == 1:
                yield from thread.invoke(
                    Oper.LOCAL_OFFLOAD,
                    SgEntry(local=LocalSg(src_addr=src_addr, src_len=PAGE_4K)),
                )
            length = _jitter(PAGE_4K, index)
            sg = SgEntry(local=LocalSg(
                src_addr=src_addr, src_len=length, dst_addr=dst_addr, dst_len=length,
            ))
            start = env.now
            entry = yield from thread.invoke(Oper.LOCAL_TRANSFER, sg)
            offset = src_page * PAGE_4K
            assert thread.read_buffer(dst_addr, length) == image[offset : offset + length]
            ledger.done(index, entry.status, 0, length, start)

    env.run(env.process(main()))
    return ledger.entry()


RUNS = {
    "host_small": host_small,
    "host_bulk": host_bulk,
    "card_hbm": card_hbm,
    "svm_thrash": svm_thrash,
}


def test_datapath_runs_match_the_golden_digest():
    golden = json.loads(GOLDEN.read_text())
    got = {name: run() for name, run in RUNS.items()}
    stale = {
        name: entry for name, entry in got.items()
        if {k: v for k, v in golden.get(name, {}).items() if k != "reason"} != entry
    }
    assert not stale, (
        "simulated datapath times moved; if on purpose, paste these entries into "
        f"{GOLDEN.name} with a 'reason':\n" + json.dumps(stale, indent=2, sort_keys=True)
    )
