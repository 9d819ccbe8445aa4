"""Unit tests for the HBM controller model."""

import pytest

from repro.faults import (
    HBM_ECC_DOUBLE,
    HBM_ECC_SINGLE,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.mem import HbmConfig, HbmController
from repro.sim import Environment


def small_config(**kw):
    defaults = dict(num_channels=4, channel_bytes=1 << 20, stripe_bytes=4096)
    defaults.update(kw)
    return HbmConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        HbmConfig(num_channels=0)
    with pytest.raises(ValueError):
        HbmConfig(stripe_bytes=3000)


def test_channel_bandwidth_is_nominal_hbm():
    cfg = HbmConfig()
    # 32 bytes/cycle at 450 MHz = 14.4 GB/s
    assert cfg.channel_bandwidth == pytest.approx(14.4)


def test_striping_maps_consecutive_stripes_to_consecutive_channels():
    env = Environment()
    hbm = HbmController(env, small_config())
    assert hbm.channel_of(0) == 0
    assert hbm.channel_of(4096) == 1
    assert hbm.channel_of(4 * 4096) == 0  # wraps


def test_functional_write_read_roundtrip():
    env = Environment()
    hbm = HbmController(env, small_config())
    payload = bytes(range(256)) * 64  # 16 KB across all 4 channels

    def proc():
        yield from hbm.write(100, payload)
        data = yield from hbm.read(100, len(payload))
        return data

    assert env.run(env.process(proc())) == payload


def test_striped_access_faster_than_single_channel():
    """Reading N bytes striped over 4 channels beats one channel."""
    cfg_striped = small_config()
    cfg_single = small_config(num_channels=1)
    times = {}
    for tag, cfg in [("striped", cfg_striped), ("single", cfg_single)]:
        env = Environment()
        hbm = HbmController(env, cfg)

        def proc(h=hbm, e=env):
            yield from h.read(0, 64 * 1024)
            return e.now

        times[tag] = env.run(env.process(proc()))
    assert times["striped"] < times["single"] / 2


def test_counters():
    env = Environment()
    hbm = HbmController(env, small_config())

    def proc():
        yield from hbm.write(0, b"a" * 1000)
        yield from hbm.read(0, 500)

    env.run(env.process(proc()))
    assert hbm.bytes_written == 1000
    assert hbm.bytes_read == 500


def test_untimed_access():
    env = Environment()
    hbm = HbmController(env, small_config())
    hbm.write_now(42, b"hello")
    assert hbm.read_now(42, 5) == b"hello"


def test_unaligned_request_splits_at_stripe_boundary():
    env = Environment()
    hbm = HbmController(env, small_config())
    stripes = list(hbm._stripes(4000, 200))
    # Crosses the 4096 boundary: 96 bytes on channel 0, 104 on channel 1.
    assert stripes == [(0, 4000, 96), (1, 4096, 104)]


# --------------------------------------------- booked channels (no queue)


def _stripe_ns(hbm, nbytes):
    config = hbm.config
    return config.access_latency_ns + config.clock.cycles_to_ns(
        -(-nbytes // config.port_width_bytes)
    )


def test_one_access_costs_one_event_however_many_stripes():
    """Every stripe is booked on its channel at the call and the access
    waits once, for the last finish: no process per stripe, no AllOf."""
    env = Environment()
    hbm = HbmController(env, small_config())

    def proc():
        before = env.events_processed
        yield from hbm.read(0, 4 * 4096)  # one stripe on each channel
        return env.events_processed - before, env.now

    events, now = env.run(env.process(proc()))
    assert events == 1
    assert now == _stripe_ns(hbm, 4096)
    assert hbm.channel_accesses == [1, 1, 1, 1]


def test_channel_utilization_counts_channels_holding_work_now():
    env = Environment()
    hbm = HbmController(env, small_config())
    seen = {}

    def reader():
        yield from hbm.read(0, 2 * 4096 + 64)  # channels 0, 1 and (64 B) 2

    def probe():
        seen["idle"] = hbm.channel_utilization()
        yield env.timeout(1)
        seen["all three busy"] = hbm.channel_utilization()
        yield env.timeout(_stripe_ns(hbm, 64))
        seen["short stripe done"] = hbm.channel_utilization()
        yield env.timeout(_stripe_ns(hbm, 4096))
        seen["drained"] = hbm.channel_utilization()

    env.process(probe())
    env.process(reader())
    env.run()
    assert seen == {
        "idle": [0, 0, 0, 0],
        "all three busy": [1, 1, 1, 0],
        "short stripe done": [1, 1, 0, 0],
        "drained": [0, 0, 0, 0],
    }


def _armed(hbm, *rules):
    injector = FaultInjector(FaultPlan(seed=5, rules=list(rules)))
    hbm.faults = injector
    return injector


def test_double_bit_ecc_doubles_the_stripe_and_single_only_counts():
    env = Environment()
    hbm = HbmController(env, small_config())
    injector = _armed(
        hbm,
        FaultRule(site=HBM_ECC_SINGLE, at_events=(0, 2)),
        FaultRule(site=HBM_ECC_DOUBLE, at_events=(1,)),
    )

    def proc():
        yield from hbm.write(0, b"\x5a" * (3 * 4096))  # channels 0, 1, 2
        first = env.now
        data = yield from hbm.read(4096, 4096)  # channel 1 again, clean
        return first, env.now, data

    first, second, data = env.run(env.process(proc()))
    stripe = _stripe_ns(hbm, 4096)
    # The access ends with its slowest stripe: channel 1's doubled burst.
    assert first == 2.0 * stripe
    assert second == first + stripe
    assert data == b"\x5a" * 4096  # a transient: the data is intact
    assert (hbm.ecc_corrected, hbm.ecc_uncorrected) == (2, 1)
    assert injector.event_counts[HBM_ECC_DOUBLE] == 4  # one draw a stripe


def test_ecc_is_drawn_at_booking_in_issue_order():
    """Two accesses issued at one instant draw per stripe in the order
    they were issued (A's stripes, then B's), not in the order the
    channels would have come free: the third draw is B's channel-0
    stripe, queued behind A's long one, and it is the one that doubles."""
    env = Environment()
    hbm = HbmController(env, small_config())
    _armed(hbm, FaultRule(site=HBM_ECC_DOUBLE, at_events=(2,)))
    done = {}

    def access(tag, addr, length):
        yield from hbm.read(addr, length)
        done[tag] = env.now

    long, short = _stripe_ns(hbm, 4096), _stripe_ns(hbm, 32)
    env.process(access("A", 0, 4096 + 32))  # channel 0 long, channel 1 short
    env.process(access("B", 4 * 4096, 4096 + 32))  # same two channels
    env.run()
    assert short < long
    assert done == {"A": long, "B": long + 2.0 * long}
    assert hbm.ecc_uncorrected == 1


# ------------------------------------- edges of the one-stripe fast path


def test_zero_length_access_completes_now_and_books_no_channel():
    env = Environment()
    hbm = HbmController(env, small_config())

    def proc():
        yield env.timeout(100)
        data = yield from hbm.read(4096, 0)
        read_at = env.now
        yield from hbm.write(4096, b"")
        return data, read_at, env.now

    assert env.run(env.process(proc())) == (b"", 100, 100)
    assert hbm.channel_accesses == [0, 0, 0, 0]
    assert hbm.channel_utilization() == [0, 0, 0, 0]


def test_access_straddling_two_stripes_books_both_and_ends_at_the_later():
    """The straddle's 96 bytes on channel 0 are free at once; its 104 on
    channel 1 queue behind a whole stripe booked there first."""
    env = Environment()
    hbm = HbmController(env, small_config())
    done = {}

    def access(tag, addr, length):
        yield from hbm.read(addr, length)
        done[tag] = env.now

    env.process(access("stripe", 4096, 4096))
    env.process(access("straddle", 4000, 200))
    env.run()
    assert done == {
        "stripe": _stripe_ns(hbm, 4096),
        "straddle": _stripe_ns(hbm, 4096) + _stripe_ns(hbm, 104),
    }
    assert _stripe_ns(hbm, 96) < done["straddle"]
    assert hbm.channel_accesses == [1, 2, 0, 0]


def test_single_stripe_access_with_double_bit_ecc_armed_doubles_its_delay():
    env = Environment()
    hbm = HbmController(env, small_config())
    _armed(hbm, FaultRule(site=HBM_ECC_DOUBLE, at_events=(0,)))

    def proc():
        yield from hbm.read(2 * 4096, 4096)
        first = env.now
        yield from hbm.read(2 * 4096, 4096)
        return first, env.now

    first, second = env.run(env.process(proc()))
    assert first == 2.0 * _stripe_ns(hbm, 4096)
    assert second == first + _stripe_ns(hbm, 4096)
    assert hbm.ecc_uncorrected == 1
    assert hbm.channel_accesses == [0, 0, 2, 0]
