"""Tests for the cluster helper, isolation enforcement and determinism."""

import pytest

from repro import CThread, Descriptor, Environment, LocalSg, Oper, RdmaSg, SgEntry
from repro.apps import PassThroughApp
from repro.cluster import FpgaCluster
from repro.driver import DriverError, QpOwnerError
from repro.net import RdmaError
from repro.sim import AllOf

from .platforms import card


# ------------------------------------------------------------------ cluster

def test_cluster_builds_n_nodes():
    env = Environment()
    cluster = FpgaCluster(env, 3)
    assert len(cluster) == 3
    macs = {node.mac for node in cluster.nodes}
    ips = {node.ip for node in cluster.nodes}
    assert len(macs) == 3 and len(ips) == 3


def test_cluster_validation():
    with pytest.raises(ValueError):
        FpgaCluster(Environment(), 0)


def test_cluster_rdma_end_to_end():
    env = Environment()
    cluster = FpgaCluster(env, 2)
    thread_a, thread_b = cluster.connect_qps(0, 1, pid_a=1, pid_b=2, qpn_a=1, qpn_b=2)
    payload = bytes(range(256)) * 64

    def main():
        src = yield from thread_a.get_mem(len(payload))
        dst = yield from thread_b.get_mem(len(payload))
        thread_a.write_buffer(src.vaddr, payload)
        yield from thread_a.invoke(
            Oper.REMOTE_RDMA_WRITE,
            SgEntry(rdma=RdmaSg(local_addr=src.vaddr, remote_addr=dst.vaddr,
                                len=len(payload), qpn=1)),
        )
        return thread_b.read_buffer(dst.vaddr, len(payload))

    assert env.run(env.process(main())) == payload


def test_one_sided_verb_on_a_qp_with_no_memory_fails_in_the_submitter():
    """A QP made on the stack directly (no ``CThread.create_qp``, so no
    MMU binding) cannot source a WRITE or sink a READ: the submitter gets
    the stack's typed error when it arms the verb, and nothing is raised
    out of ``env.run()`` from a helper process.  SEND needs no local
    memory and still works (the collective mesh's QPs are like that)."""
    env = Environment()
    cluster = FpgaCluster(env, 2)
    a, b = (node.shell.dynamic.rdma for node in cluster.nodes)
    qa, qb = a.create_qp(1, psn=10), b.create_qp(2, psn=20)
    qa.connect(qb.local)
    qb.connect(qa.local)
    seen = {}

    def submitter():
        for verb in (a.rdma_write, a.rdma_read):
            try:
                yield from verb(1, 0, 0, 64)
            except RdmaError as exc:
                seen[verb.__name__] = exc
        receiver = env.process(b.recv(2))
        yield from a.send(1, b"still fine")
        seen["msg"] = yield receiver

    env.process(submitter())
    env.run()
    for verb in ("rdma_write", "rdma_read"):
        assert type(seen[verb]) is RdmaError
        assert "no local memory binding" in str(seen[verb])
    assert seen["msg"] == b"still fine"


# ---------------------------------------------------------------- isolation

def test_a_tenant_cannot_post_a_verb_on_another_tenants_qp():
    """Pid 1 on region 0 owns QP 1.  Pid 3 on region 1, and pid 4 on
    pid 1's own region, name QP 1 with pid 1's buffer as the local side:
    both verbs are refused in the submitter's frame, before any process
    starts, and nothing of pid 1's lands at the remote.  The owner's own
    WRITE then goes through; once the owner closes, nobody owns QP 1."""
    env = Environment()
    cluster = FpgaCluster(env, 2, num_vfpgas=2)
    owner, remote = cluster.connect_qps(0, 1, pid_a=1, pid_b=2, qpn_a=1, qpn_b=2)
    driver = cluster.nodes[0].driver
    stack = cluster.nodes[0].shell.dynamic.rdma
    intruders = [CThread(driver, 1, pid=3), CThread(driver, 0, pid=4)]
    secret = b"S" * 8

    def main():
        src = yield from owner.get_mem(4096)
        far = yield from remote.get_mem(4096)
        owner.write_buffer(src.vaddr, secret)
        sg = SgEntry(rdma=RdmaSg(local_addr=src.vaddr, remote_addr=far.vaddr, len=8, qpn=1))
        for intruder in intruders:
            for oper in (Oper.REMOTE_RDMA_WRITE, Oper.REMOTE_RDMA_READ):
                with pytest.raises(QpOwnerError) as refused:
                    yield from intruder.invoke(oper, sg)
                assert (refused.value.pid, refused.value.qpn, refused.value.owner) == (
                    intruder.pid, 1, 1,
                )
        yield env.timeout(100_000)
        assert stack.stats["tx_packets"] == 0
        assert remote.read_buffer(far.vaddr, 8) == bytes(8)
        yield from owner.invoke(Oper.REMOTE_RDMA_WRITE, sg)
        assert remote.read_buffer(far.vaddr, 8) == secret
        owner.close()
        with pytest.raises(QpOwnerError, match="no process owns"):
            yield from CThread(driver, 0, pid=1).invoke(Oper.REMOTE_RDMA_WRITE, sg)

    env.run(env.process(main()))


def test_descriptor_for_foreign_vfpga_rejected():
    env, shell, driver = card(PassThroughApp(), PassThroughApp())
    driver.open(1, 0)  # pid 1 owns vFPGA 0
    rogue = Descriptor(vfpga_id=1, pid=1, vaddr=0x1000, length=4096)
    with pytest.raises(DriverError, match="bound to vFPGA 0"):
        driver.post_descriptor(rogue, write=False)


def test_unregistered_pid_rejected():
    env, shell, driver = card()
    rogue = Descriptor(vfpga_id=0, pid=99, vaddr=0x1000, length=4096)
    with pytest.raises(DriverError, match="not registered"):
        driver.post_descriptor(rogue, write=False)


# -------------------------------------------------------------- determinism

def _timed_run(seed_payload: bytes) -> float:
    env, shell, driver = card(num_vfpgas=2)
    for v in range(2):
        shell.load_app(v, PassThroughApp())

    def client(v):
        ct = CThread(driver, v, pid=10 + v)
        src = yield from ct.get_mem(len(seed_payload))
        dst = yield from ct.get_mem(len(seed_payload))
        ct.write_buffer(src.vaddr, seed_payload)
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=len(seed_payload),
                                   dst_addr=dst.vaddr, dst_len=len(seed_payload)))
        yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)

    procs = [env.process(client(v)) for v in range(2)]
    env.run(AllOf(env, procs))
    return env.now


def test_simulation_is_deterministic():
    """Identical workloads produce bit-identical simulated timings."""
    payload = bytes(range(256)) * 128
    assert _timed_run(payload) == _timed_run(payload)
