"""AES-128 user applications: ECB (multi-tenant) and CBC (multi-threaded).

The cipher itself is a complete FIPS-197 AES-128 implementation, verified
against the standard test vectors, so the shell moves *real* ciphertext.
The hardware timing model mirrors the paper's core (§9.5): a 10-stage
pipeline at the 250 MHz fabric clock.

* **ECB** is fully pipelined and wide (512-bit datapath, 4 lanes): ~32 GB/s
  per core — far above the ~12 GB/s host link, so the benchmark is
  memory-bound and exercises the fair-sharing machinery (Figure 8).
* **CBC** chains each 128-bit block on the previous ciphertext, so a single
  stream keeps only 1 of the 10 pipeline stages busy; multiple cThreads
  (one per parallel host stream) interleave through the same pipeline via
  a round-robin arbiter and recover the idle slots (Figures 9/10).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from ..axi.types import Flit
from ..core.interfaces import StreamType
from ..core.vfpga import UserApp, VFpga
from ..sim.clock import FABRIC_CLOCK
from ..sim.rate import FifoServer

__all__ = [
    "aes_expand_key",
    "aes_encrypt_block",
    "aes_decrypt_block",
    "aes_ecb_encrypt",
    "aes_cbc_encrypt",
    "aes_cbc_decrypt",
    "AesEcbApp",
    "AesCbcApp",
    "PIPELINE_STAGES",
]

#: Depth of the hardware encryption pipeline (paper Figure 9).
PIPELINE_STAGES = 10

# ----------------------------------------------------------- the cipher

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]
_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _mul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def aes_expand_key(key: bytes) -> List[bytes]:
    """Expand a 16-byte key into 11 round keys (FIPS-197 key schedule)."""
    if len(key) != 16:
        raise ValueError("AES-128 requires a 16-byte key")
    words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]  # RotWord
            temp = [_SBOX[b] for b in temp]  # SubWord
            temp[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    return [
        bytes(sum((words[4 * r + c] for c in range(4)), []))
        for r in range(11)
    ]


def _add_round_key(state: List[int], round_key: bytes) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


def _sub_bytes(state: List[int], box: List[int]) -> None:
    for i in range(16):
        state[i] = box[state[i]]


def _shift_rows(state: List[int]) -> List[int]:
    # State is column-major: state[4*col + row].
    out = state[:]
    for row in range(1, 4):
        for col in range(4):
            out[4 * col + row] = state[4 * ((col + row) % 4) + row]
    return out


def _inv_shift_rows(state: List[int]) -> List[int]:
    out = state[:]
    for row in range(1, 4):
        for col in range(4):
            out[4 * ((col + row) % 4) + row] = state[4 * col + row]
    return out


def _mix_columns(state: List[int]) -> List[int]:
    out = [0] * 16
    for col in range(4):
        a = state[4 * col : 4 * col + 4]
        out[4 * col + 0] = _mul(a[0], 2) ^ _mul(a[1], 3) ^ a[2] ^ a[3]
        out[4 * col + 1] = a[0] ^ _mul(a[1], 2) ^ _mul(a[2], 3) ^ a[3]
        out[4 * col + 2] = a[0] ^ a[1] ^ _mul(a[2], 2) ^ _mul(a[3], 3)
        out[4 * col + 3] = _mul(a[0], 3) ^ a[1] ^ a[2] ^ _mul(a[3], 2)
    return out


def _inv_mix_columns(state: List[int]) -> List[int]:
    out = [0] * 16
    for col in range(4):
        a = state[4 * col : 4 * col + 4]
        out[4 * col + 0] = _mul(a[0], 14) ^ _mul(a[1], 11) ^ _mul(a[2], 13) ^ _mul(a[3], 9)
        out[4 * col + 1] = _mul(a[0], 9) ^ _mul(a[1], 14) ^ _mul(a[2], 11) ^ _mul(a[3], 13)
        out[4 * col + 2] = _mul(a[0], 13) ^ _mul(a[1], 9) ^ _mul(a[2], 14) ^ _mul(a[3], 11)
        out[4 * col + 3] = _mul(a[0], 11) ^ _mul(a[1], 13) ^ _mul(a[2], 9) ^ _mul(a[3], 14)
    return out


def aes_encrypt_block(block: bytes, round_keys: List[bytes]) -> bytes:
    if len(block) != 16:
        raise ValueError("AES block must be 16 bytes")
    state = list(block)
    _add_round_key(state, round_keys[0])
    for rnd in range(1, 10):
        _sub_bytes(state, _SBOX)
        state = _shift_rows(state)
        state = _mix_columns(state)
        _add_round_key(state, round_keys[rnd])
    _sub_bytes(state, _SBOX)
    state = _shift_rows(state)
    _add_round_key(state, round_keys[10])
    return bytes(state)


def aes_decrypt_block(block: bytes, round_keys: List[bytes]) -> bytes:
    if len(block) != 16:
        raise ValueError("AES block must be 16 bytes")
    state = list(block)
    _add_round_key(state, round_keys[10])
    for rnd in range(9, 0, -1):
        state = _inv_shift_rows(state)
        _sub_bytes(state, _INV_SBOX)
        _add_round_key(state, round_keys[rnd])
        state = _inv_mix_columns(state)
    state = _inv_shift_rows(state)
    _sub_bytes(state, _INV_SBOX)
    _add_round_key(state, round_keys[0])
    return bytes(state)


def _check_padded(data: bytes) -> None:
    if len(data) % 16:
        raise ValueError("data must be a multiple of the 16-byte block size")


def aes_ecb_encrypt(
    data: bytes, key: bytes, round_keys: Optional[List[bytes]] = None
) -> bytes:
    """ECB-encrypt ``data``; pass a pre-expanded ``round_keys`` schedule
    to skip the per-call key expansion (the hardware expands once per
    setCSR, not once per message)."""
    _check_padded(data)
    if round_keys is None:
        round_keys = aes_expand_key(key)
    return b"".join(
        aes_encrypt_block(data[i : i + 16], round_keys) for i in range(0, len(data), 16)
    )


def aes_cbc_encrypt(
    data: bytes, key: bytes, iv: bytes, round_keys: Optional[List[bytes]] = None
) -> bytes:
    _check_padded(data)
    if len(iv) != 16:
        raise ValueError("IV must be 16 bytes")
    if round_keys is None:
        round_keys = aes_expand_key(key)
    out = []
    chain = iv
    for i in range(0, len(data), 16):
        block = bytes(a ^ b for a, b in zip(data[i : i + 16], chain))
        chain = aes_encrypt_block(block, round_keys)
        out.append(chain)
    return b"".join(out)


def aes_cbc_decrypt(
    data: bytes, key: bytes, iv: bytes, round_keys: Optional[List[bytes]] = None
) -> bytes:
    _check_padded(data)
    if round_keys is None:
        round_keys = aes_expand_key(key)
    out = []
    chain = iv
    for i in range(0, len(data), 16):
        block = data[i : i + 16]
        plain = aes_decrypt_block(block, round_keys)
        out.append(bytes(a ^ b for a, b in zip(plain, chain)))
        chain = block
    return b"".join(out)


# ------------------------------------------------------ hardware kernels

#: CSR layout shared by both AES apps: key halves at 0/1, IV halves at 2/3.
CSR_KEY_LO = 0
CSR_KEY_HI = 1
CSR_IV_LO = 2
CSR_IV_HI = 3


class _AesAppBase(UserApp):
    """Key/IV management via the control bus (paper Code 1: setCSR)."""

    required_services = frozenset({"host"})

    def __init__(self, num_streams: int = 4, stream: StreamType = StreamType.HOST):
        self.num_streams = num_streams
        self.stream = stream
        self._round_keys: Optional[List[bytes]] = None
        self._key = bytes(16)
        self._iv = bytes(16)

    def on_csr_write(self, index: int, value: int) -> None:
        if index in (CSR_KEY_LO, CSR_KEY_HI):
            lo = self._key[:8] if index == CSR_KEY_HI else value.to_bytes(8, "little")
            hi = value.to_bytes(8, "little") if index == CSR_KEY_HI else self._key[8:]
            self._key = lo + hi
            self._round_keys = aes_expand_key(self._key)
        elif index in (CSR_IV_LO, CSR_IV_HI):
            lo = self._iv[:8] if index == CSR_IV_HI else value.to_bytes(8, "little")
            hi = value.to_bytes(8, "little") if index == CSR_IV_HI else self._iv[8:]
            self._iv = lo + hi

    def _keys(self) -> List[bytes]:
        if self._round_keys is None:
            self._round_keys = aes_expand_key(self._key)
        return self._round_keys


class AesEcbApp(_AesAppBase):
    """Fully-pipelined, 4-lane AES ECB core: one core per vFPGA (tenant)."""

    name = "aes_ecb"

    #: 512-bit datapath at 250 MHz -> 64 B/cycle -> 16 GB/s... the paper's
    #: core is comfortably faster than the 12 GB/s host link; we model
    #: 128 B/cycle (two 512-bit words in flight) = 32 GB/s.
    BYTES_PER_CYCLE = 128

    def run(self, vfpga: VFpga) -> Generator:
        from ..sim.resources import Store

        core = FifoServer(vfpga.env)
        rate = FABRIC_CLOCK.bytes_per_ns(self.BYTES_PER_CYCLE)
        for dest in range(self.num_streams):
            # Egress runs as its own pipeline stage so wire-out overlaps
            # the next block's encryption; the bounded queue preserves
            # back-pressure and per-stream ordering.
            egress: Store = Store(vfpga.env, capacity=2)
            vfpga.spawn(
                self._lane(vfpga, core, rate, dest, egress),
                name=f"v{vfpga.vfpga_id}-ecb{dest}",
            )
            vfpga.spawn(
                self._egress(vfpga, dest, egress),
                name=f"v{vfpga.vfpga_id}-ecb-out{dest}",
            )
        yield vfpga.env.event()  # the app itself persists until reconfigured

    def _lane(self, vfpga: VFpga, core: FifoServer, rate: float, dest: int, egress) -> Generator:
        env = vfpga.env
        while True:
            flit = yield from vfpga.recv(self.stream, dest)
            yield env.timeout_at(core.book(flit.length / rate))
            data = flit.data
            if data is not None:
                pad = (-len(data)) % 16
                ciphertext = aes_ecb_encrypt(
                    data + bytes(pad), self._key, round_keys=self._keys()
                )
                data = ciphertext[: len(data) + pad]
            out = Flit(
                length=len(data) if data is not None else flit.length,
                data=data,
                tid=flit.tid,
                last=flit.last,
            )
            yield egress.put(out)

    def _egress(self, vfpga: VFpga, dest: int, egress) -> Generator:
        while True:
            out = yield egress.get()
            yield from vfpga.send(out, self.stream, dest)


class AesCbcApp(_AesAppBase):
    """10-stage CBC pipeline shared by up to N cThreads (paper §9.5).

    Each parallel host stream carries one cThread's messages; a
    round-robin arbiter (implicit in the shared issue port's FIFO booking)
    interleaves their 128-bit blocks into the pipeline.  A single thread
    is chain-limited to one block per 10 cycles; ``k`` threads fill ``k``
    of the 10 stages, scaling throughput linearly until the pipeline is
    full.
    """

    name = "aes_cbc"

    BLOCK_BYTES = 16

    def run(self, vfpga: VFpga) -> Generator:
        # The shared issue port accepts one block per fabric cycle.
        issue = FifoServer(vfpga.env)
        rate = FABRIC_CLOCK.bytes_per_ns(self.BLOCK_BYTES)
        for dest in range(self.num_streams):
            vfpga.spawn(
                self._thread_lane(vfpga, issue, rate, dest),
                name=f"v{vfpga.vfpga_id}-cbc{dest}",
            )
        yield vfpga.env.event()

    def _thread_lane(self, vfpga: VFpga, issue: FifoServer, rate: float, dest: int) -> Generator:
        env = vfpga.env
        stage_ns = FABRIC_CLOCK.cycles_to_ns(PIPELINE_STAGES)
        chain = self._iv
        while True:
            flit = yield from vfpga.recv(self.stream, dest)
            nblocks = -(-flit.length // self.BLOCK_BYTES)
            # Chain dependency: this stream completes one block per
            # PIPELINE_STAGES cycles, regardless of pipeline width...
            chain_done = env.now + nblocks * stage_ns
            # ...while the shared issue port bounds *aggregate* throughput
            # to one block per cycle across all threads.
            yield env.timeout_at(issue.book(nblocks * self.BLOCK_BYTES / rate))
            if env.now < chain_done:
                yield env.timeout(chain_done - env.now)
            data = flit.data
            if data is not None:
                pad = (-len(data)) % 16
                ciphertext = aes_cbc_encrypt(
                    data + bytes(pad), self._key, chain, round_keys=self._keys()
                )
                chain = ciphertext[-16:]
                data = ciphertext[: len(data) + pad]
            out = Flit(
                length=len(data) if data is not None else flit.length,
                data=data,
                tid=flit.tid,
                last=flit.last,
            )
            yield from vfpga.send(out, self.stream, dest)
