"""Tests for the hls4ml-style compiler, quantization and overlays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Environment, ServiceConfig
from repro.baselines import PynqVitisOverlay
from repro.ml import (
    CoyoteOverlay,
    FixedPointType,
    HlsConfig,
    ModelSpec,
    config_from_model,
    convert_model,
    intrusion_detection_model,
)

from .platforms import card


# ----------------------------------------------------------- fixed point

def test_fixed_point_validation():
    with pytest.raises(ValueError):
        FixedPointType(1, 1)
    with pytest.raises(ValueError):
        FixedPointType(16, 20)


def test_quantize_roundtrip_of_representable_values():
    q = FixedPointType(16, 6)
    values = np.array([0.0, 1.0, -1.0, 0.5, -31.5])
    assert np.array_equal(q.roundtrip(values), values)


def test_quantize_saturates():
    q = FixedPointType(8, 4)  # range [-8, 7.9375]
    assert q.roundtrip(np.array([100.0]))[0] == pytest.approx(7.9375)
    assert q.roundtrip(np.array([-100.0]))[0] == pytest.approx(-8.0)


def test_quantize_rounds_to_nearest():
    q = FixedPointType(16, 8)
    resolution = q.resolution
    value = 3 * resolution + resolution * 0.4
    assert q.roundtrip(np.array([value]))[0] == pytest.approx(3 * resolution)


def test_str_format():
    assert str(FixedPointType(16, 6)) == "ap_fixed<16,6>"


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
def test_quantization_error_bounded(value):
    q = FixedPointType(16, 6)
    assert abs(q.roundtrip(np.array([value]))[0] - value) <= q.resolution / 2 + 1e-12


# ----------------------------------------------------------------- model

def test_model_spec_wiring():
    model = ModelSpec(input_width=10)
    model.add_dense(5).add_dense(3, "linear")
    assert model.layers[0].n_in == 10
    assert model.layers[1].n_in == 5
    assert model.output_width == 3


def test_dense_validation():
    from repro.ml import DenseSpec

    with pytest.raises(ValueError):
        DenseSpec(weights=np.zeros(3), bias=np.zeros(3))  # 1-D weights
    with pytest.raises(ValueError):
        DenseSpec(weights=np.zeros((3, 2)), bias=np.zeros(5))
    with pytest.raises(ValueError):
        DenseSpec(weights=np.zeros((3, 2)), bias=np.zeros(2), activation="gelu")


def test_float_forward_relu():
    model = ModelSpec(input_width=2)
    model.add_dense(1, "relu", weights=np.array([[1.0], [-1.0]]), bias=np.array([0.0]))
    out = model.predict_float(np.array([[3.0, 1.0], [1.0, 3.0]]))
    assert out.tolist() == [[2.0], [0.0]]


def test_unknown_backend_rejected():
    model = intrusion_detection_model()
    with pytest.raises(ValueError, match="backend"):
        convert_model(model, backend="CUDA")


def test_predict_requires_compile():
    hls = convert_model(intrusion_detection_model())
    with pytest.raises(RuntimeError):
        hls.predict(np.zeros((1, 49)))


def test_emulation_tracks_float_model():
    model = intrusion_detection_model()
    hls = convert_model(model, config_from_model(model))
    hls.compile()
    x = np.random.default_rng(0).normal(size=(256, 49))
    emu = hls.predict(x)
    ref = model.predict_float(x)
    corr = np.corrcoef(emu.ravel(), ref.ravel())[0, 1]
    assert corr > 0.999


def test_ip_estimates_scale_with_reuse_factor():
    model = intrusion_detection_model()
    fast = convert_model(model, HlsConfig(reuse_factor=1)).build()
    slow = convert_model(model, HlsConfig(reuse_factor=64)).build()
    assert fast.initiation_interval_cycles < slow.initiation_interval_cycles
    assert fast.resources.dsps > slow.resources.dsps


def test_sample_byte_widths():
    ip = convert_model(intrusion_detection_model()).build()
    assert ip.sample_in_bytes == 49 * 2
    assert ip.sample_out_bytes == 2 * 2


# -------------------------------------------------------------- overlays

def make_deployed_overlay():
    model = intrusion_detection_model()
    hls = convert_model(model, config_from_model(model))
    hls.compile()
    env, shell, driver = card(services=ServiceConfig(en_memory=False))
    return env, hls, CoyoteOverlay(driver, hls)


def test_overlay_requires_matching_backend():
    model = intrusion_detection_model()
    hls = convert_model(model, backend="VitisPynq")
    env, shell, driver = card()
    with pytest.raises(ValueError, match="CoyoteAccelerator"):
        CoyoteOverlay(driver, hls)


def test_overlay_predict_requires_programming():
    env, hls, overlay = make_deployed_overlay()

    def main():
        yield from overlay.predict(np.zeros((4, 49)))

    env.process(main())
    with pytest.raises(RuntimeError, match="program_fpga"):
        env.run()


def test_overlay_fpga_matches_emulation_bit_exactly():
    env, hls, overlay = make_deployed_overlay()
    x = np.random.default_rng(5).normal(size=(300, 49))

    def main():
        yield env.process(overlay.program_fpga())
        preds = yield from overlay.predict(x, batch_size=128)
        return preds

    fpga = env.run(env.process(main()))
    assert np.array_equal(fpga, hls.predict(x))


def test_overlay_rejects_bad_input_shape():
    env, hls, overlay = make_deployed_overlay()

    def main():
        yield env.process(overlay.program_fpga())
        yield from overlay.predict(np.zeros((4, 7)))

    env.process(main())
    with pytest.raises(ValueError, match="expected"):
        env.run()


def test_pynq_baseline_is_slower_but_correct():
    model = intrusion_detection_model()
    hls = convert_model(model, config_from_model(model))
    hls.compile()
    x = np.random.default_rng(2).normal(size=(512, 49))
    env, _hls, overlay = make_deployed_overlay()

    def coyote():
        yield env.process(overlay.program_fpga())
        start = env.now
        preds = yield from overlay.predict(x, batch_size=512)
        return preds, env.now - start

    cpreds, ctime = env.run(env.process(coyote()))

    env_b = Environment()
    pynq = PynqVitisOverlay(env_b, hls.build())

    def baseline():
        start = env_b.now
        preds = yield from pynq.predict(x, batch_size=512)
        return preds, env_b.now - start

    ppreds, ptime = env_b.run(env_b.process(baseline()))
    assert np.array_equal(cpreds, ppreds)
    assert ptime / ctime > 5.0
