"""The scalar model path, pinned bit for bit.

predict_levels, sweep_pump, reconcile_discrepancy and
loss_only_explanation_check on the bundled config are compared by
``float.hex`` against values frozen from direct evaluation, so any change to
the arithmetic of the path (not only to its rounding at 1e-9) shows here.
The box-edge scan of reconcile_discrepancy is also compared against a copy of
the scan built on ``np.linspace``.  The return-type and domain contracts of
the scalar helpers of ``opo`` and ``detection`` are checked alongside.
"""

import dataclasses
import math

import numpy as np
import pytest

from sqzlab import (
    DetectionChain,
    ParameterDomainError,
    PumpSpec,
    ReconcileResult,
    VarianceLevels,
    apply_circuit_noise,
    load_config,
    loss_only_explanation_check,
    min_max_levels,
    operating_point,
    predict_levels,
    quadrature_variance,
    reconcile_discrepancy,
    remove_circuit_noise,
    sweep_pump,
)
from sqzlab.analysis import EFFICIENCY_SCALE_BOX, GAIN_SCALE_BOX, _scaled_prediction_db
from sqzlab.opo import from_db, to_db

from conftest import CANONICAL_CONFIG

# the pumps of the model_inverse benchmark workload; the last four are above threshold
SWEEP_POWERS_W = (0.020, 0.040, 0.061, 0.080, 0.100, 0.120, 0.140, 0.149,
                  0.1496, 0.150, 0.170, 0.200)

PREDICT = ('0x1.77919147b2a79p-2', '0x1.ef4a4291dda6fp+2',
           '-0x1.16ca731dcce78p+2', '0x1.1c60a32470826p+3')
PREDICT_CIRCUIT_NOISE = ('0x1.9065112f78f0bp-2', '0x1.dec7098531ddep+2',
                         '-0x1.04ffd787ca7e4p+2', '0x1.17aa4a85497c7p+3')
SWEEP = [
    ('0x1.47ae147ae147bp-6', '0x1.3e2139adf9101p+1', '0x1.7676f5008e843p-2',
     ('0x1.dc361b1cdec85p-2', '0x1.a3e249af512d1p+1', '-0x1.a999ab8020c4ap+1', '0x1.4a30377403207p+2'),
     None, 'power', True),
    ('0x1.47ae147ae147bp-5', '0x1.1285602d4c319p+2', '0x1.08c958d42a870p-1',
     ('0x1.896656336f7d3p-2', '0x1.8b86f28e85b7fp+2', '-0x1.09e5edc4d3e6ap+2', '0x1.fa3cd60403decp+2'),
     None, 'power', True),
    ('0x1.f3b645a1cac08p-5', '0x1.ea22c509d8dfdp+2', '0x1.46fcba807dcdep-1',
     ('0x1.6294e89452c0ep-2', '0x1.639db61ae9db9p+3', '-0x1.26c607539d99fp+2', '0x1.4eaa81dc6875cp+3'),
     None, 'power', True),
    ('0x1.47ae147ae147bp-4', '0x1.bb7792cfc354fp+3', '0x1.7676f5008e843p-1',
     ('0x1.50186a19eb9eap-2', '0x1.24eff3bade2c5p+4', '-0x1.35a7ec9b0c9bap+2', '0x1.940cac846767dp+3'),
     None, 'power', True),
    ('0x1.999999999999ap-4', '0x1.e176c1c9e10e6p+4', '0x1.a2aa0b52d24c9p-1',
     ('0x1.453d251c25d76p-2', '0x1.ddccc4a46e34fp+4', '-0x1.3ec84d2d7db58p+2', '0x1.d80a5373b8584p+3'),
     None, 'power', True),
    ('0x1.eb851eb851eb8p-4', '0x1.700befbbe9f70p+6', '0x1.ca9faa3cd7498p-1',
     ('0x1.3f7e897f16bc1p-2', '0x1.68755c7ff2584p+5', '-0x1.43bc4fbb0472fp+2', '0x1.089a39243a8cap+4'),
     None, 'power', True),
    ('0x1.1eb851eb851ecp-3', '0x1.d9f4302df5603p+9', '0x1.ef5ec5aaa74ebp-1',
     ('0x1.3ce906a7b8347p-2', '0x1.d42439e997cafp+5', '-0x1.45fe245cbb3d4p+2', '0x1.1ac4150bea3cep+4'),
     None, 'power', True),
    ('0x1.3126e978d4fdfp-3', '0x1.1897afcf2a1a4p+18', '0x1.ff0b79cc203d0p-1',
     ('0x1.3c77336472dcfp-2', '0x1.ed8ee70aff2d5p+5', '-0x1.46620b1c96a90p+2', '0x1.1e7093058fb11p+4'),
     None, 'power', True),
    ('0x1.32617c1bda512p-3', None, None, None, None, 'power', False),
    ('0x1.3333333333333p-3', None, None, None, None, 'power', False),
    ('0x1.5c28f5c28f5c3p-3', None, None, None, None, 'power', False),
    ('0x1.999999999999ap-3', None, None, None, None, 'power', False),
]
RECONCILE = {
    (-2.75, 7.00): ('0x1.a4668c612b6d9p-1', '0x1.94a8ddc30e345p-1', '0x1.0000000000000p-50',
                    '0x1.cff1f4f661784p-1', '0x1.1683f033932bcp+2', 0, True),
    (-0.5, 14.0): ('0x1.7ffffe5280d65p+0', '0x1.bfc6e28d205e5p-1', '0x1.42ede13dd9579p+2',
                   '0x1.3988e0913ab2ep+0', '0x1.fcccca93b7826p+2', 0, False),
    (-6.0, 2.0): ('0x1.0000035afe535p-1', '0x1.0000000000000p+0', '0x1.168bb2245e48cp+2',
                  '0x1.6a09e8c75a27cp-1', '0x1.533337a55dc80p+1', 0, False),
}
LOSS_ONLY = ('0x1.8a671faecc0b2p-1', '0x1.f1a98d93fa58dp+2', '0x1.8d4c6c9fd2c68p-1',
             False, '0x1.999999999999ap-4')


def _hexes(obj):
    """Field values of a result dataclass, floats as float.hex, nested results
    as tuples; every float field must be a Python float."""
    out = []
    for fld in dataclasses.fields(obj):
        value = getattr(obj, fld.name)
        if isinstance(value, float):
            out.append(value.hex())
        elif dataclasses.is_dataclass(value):
            out.append(_hexes(value))
        else:
            out.append(value)
    return tuple(out)


@pytest.fixture(scope="module")
def bundled():
    cfg = load_config(CANONICAL_CONFIG)
    return cfg, cfg.acquisition.center_frequency


class TestGoldenOutputs:
    def test_predict_levels(self, bundled):
        cfg, f = bundled
        assert _hexes(predict_levels(cfg.cavity, cfg.detection, cfg.pump, f)) == PREDICT

    def test_predict_levels_with_circuit_noise(self, bundled):
        cfg, f = bundled
        levels = predict_levels(cfg.cavity, cfg.detection, cfg.pump, f, include_circuit_noise=True)
        assert _hexes(levels) == PREDICT_CIRCUIT_NOISE

    def test_sweep_pump(self, bundled):
        cfg, f = bundled
        rows = sweep_pump(cfg.cavity, cfg.detection,
                          [PumpSpec(pump_power=p) for p in SWEEP_POWERS_W], f)
        assert [_hexes(r) for r in rows] == SWEEP

    @pytest.mark.parametrize("pair_db", sorted(RECONCILE))
    def test_reconcile_discrepancy(self, bundled, pair_db):
        cfg, f = bundled
        result = reconcile_discrepancy(VarianceLevels.from_db(*pair_db), cfg.cavity,
                                       cfg.detection, cfg.pump, f)
        assert _hexes(result) == RECONCILE[pair_db]

    def test_loss_only_explanation_check(self, bundled):
        cfg, f = bundled
        report = loss_only_explanation_check(VarianceLevels.from_db(-2.75, 7.00), cfg.cavity,
                                             cfg.detection, cfg.pump, f)
        assert _hexes(report) == LOSS_ONLY


def _linspace_reconcile_oracle(measured, cavity, chain, pump, frequency_hz):
    """reconcile_discrepancy with each round's edge grid built by
    np.linspace(lo, hi, 65, axis=-1)."""
    gain = pump.parametric_gain
    alpha, rho, _, omega_norm = operating_point(cavity, chain, pump, frequency_hz)
    clearance = chain.circuit_noise_clearance_db
    s_min, s_max = remove_circuit_noise(np.array([measured.s_min_db, measured.s_max_db]),
                                        clearance)

    def misfit(g, e):
        lo_db, hi_db = _scaled_prediction_db(g, e, gain, alpha, rho, omega_norm, clearance)
        return np.hypot(lo_db - measured.s_min_db, hi_db - measured.s_max_db)

    g_lo, g_hi = GAIN_SCALE_BOX
    e_lo, e_hi = EFFICIENCY_SCALE_BOX
    in_box = False
    if 0.0 < 1.0 - s_min < s_max - 1.0:
        ratio = (s_max - 1.0) / (1.0 - s_min)
        w2 = 4.0 * omega_norm * omega_norm
        disc = (1.0 + ratio) ** 2 - (1.0 - ratio) ** 2 * (1.0 + w2)
        if disc >= 0.0:
            x = (ratio - 1.0) * (1.0 + w2) / (1.0 + ratio + math.sqrt(disc))
            if x < 1.0:
                g = 1.0 / ((1.0 - x) ** 2 * gain)
                e = (s_max - 1.0) * ((1.0 - x) ** 2 + w2) / (4.0 * alpha * rho * x)
                in_box = g_lo < g < g_hi and e_lo < e <= e_hi + 1e-12
    if not in_box:
        eps = 1e-7
        g_lo, g_hi, e_lo = g_lo + eps, g_hi - eps, e_lo + eps
        fixed = np.array([[g_lo], [g_hi], [e_lo], [e_hi]])
        scans_e = np.array([[True], [True], [False], [False]])
        lo, hi = np.array([e_lo, e_lo, g_lo, g_lo]), np.array([e_hi, e_hi, g_hi, g_hi])
        rows = np.arange(4)
        for _ in range(5):
            t = np.linspace(lo, hi, 65, axis=-1)
            gs, es = np.where(scans_e, fixed, t), np.where(scans_e, t, fixed)
            values = misfit(gs, es)
            i = np.argmin(values, axis=1)
            lo, hi = t[rows, np.maximum(i - 1, 0)], t[rows, np.minimum(i + 1, 64)]
        best = np.argmin(values[rows, i])
        g, e = gs[best, i[best]], es[best, i[best]]
    norm = float(misfit(g, e))
    return ReconcileResult(gain_scale=float(g), efficiency_scale=min(float(e), e_hi),
                           residual_db=norm, amplitude_gain_scale=math.sqrt(g),
                           corrected_gain=float(g * gain), iterations=0,
                           exact_match=norm < 1e-6)


class TestEdgeGridMatchesLinspace:
    def test_seeded_in_box_and_out_of_box_pairs(self, bundled):
        cfg, f = bundled
        rng = np.random.default_rng(2006)
        exact = 0
        for _ in range(200):
            measured = VarianceLevels.from_db(rng.uniform(-8.0, 0.5), rng.uniform(-0.5, 16.0))
            pump = PumpSpec(parametric_gain=float(rng.uniform(1.5, 10.0)))
            result = reconcile_discrepancy(measured, cfg.cavity, cfg.detection, pump, f)
            oracle = _linspace_reconcile_oracle(measured, cfg.cavity, cfg.detection, pump, f)
            assert repr(result) == repr(oracle)
            exact += result.exact_match
        assert 20 <= exact <= 180  # both branches are exercised

    @pytest.mark.parametrize("clearance_db", [10.0, 20.0])
    @pytest.mark.parametrize("frequency_hz", [0.5e6, 3e6])
    def test_other_clearances_and_frequencies(self, bundled, clearance_db, frequency_hz):
        cfg, _ = bundled
        chain = dataclasses.replace(cfg.detection, circuit_noise_clearance_db=clearance_db)
        _assert_seeded_pairs_match_linspace(cfg.cavity, chain, frequency_hz, 2021)

    def test_a_chain_other_than_the_bundled_one(self, bundled):
        cfg, f = bundled
        chain = DetectionChain(quantum_efficiency=0.85, visibility=0.97,
                               propagation_efficiency=0.9, circuit_noise_clearance_db=17.0)
        _assert_seeded_pairs_match_linspace(cfg.cavity, chain, f, 2022)


def _assert_seeded_pairs_match_linspace(cavity, chain, frequency_hz, seed):
    """reconcile_discrepancy against the linspace oracle on 100 seeded pairs:
    every other pair is predicted from gain and efficiency scales drawn
    around the box, so both branches are exercised at any frequency."""
    rng = np.random.default_rng(seed)
    exact = 0
    for k in range(100):
        pump = PumpSpec(parametric_gain=float(rng.uniform(1.5, 10.0)))
        if k % 2:
            measured = VarianceLevels.from_db(rng.uniform(-8.0, 0.5), rng.uniform(-0.5, 16.0))
        else:
            scaled = dataclasses.replace(
                chain, propagation_efficiency=chain.propagation_efficiency * rng.uniform(0.2, 1.0))
            gain = PumpSpec(parametric_gain=pump.parametric_gain * rng.uniform(0.7, 1.7))
            measured = predict_levels(cavity, scaled, gain, frequency_hz,
                                      include_circuit_noise=True)
        result = reconcile_discrepancy(measured, cavity, chain, pump, frequency_hz)
        oracle = _linspace_reconcile_oracle(measured, cavity, chain, pump, frequency_hz)
        assert repr(result) == repr(oracle)
        exact += result.exact_match
    assert 10 <= exact <= 90


class TestScalarReturnContract:
    @pytest.mark.parametrize("fn, value", [(to_db, 2.0), (from_db, 3.0),
                                           (lambda v: remove_circuit_noise(v, 14.0), 3.0),
                                           (lambda v: apply_circuit_noise(v, 14.0), 2.0)])
    def test_scalar_in_python_float_out(self, fn, value):
        for arg in (value, np.float64(value), np.array(value)):
            assert type(fn(arg)) is float

    @pytest.mark.parametrize("fn", [to_db, from_db, lambda v: remove_circuit_noise(v, 14.0),
                                    lambda v: apply_circuit_noise(v, 14.0)])
    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 3)])
    def test_array_in_same_shape_array_out(self, fn, shape):
        out = fn(np.full(shape, 2.0))
        assert isinstance(out, np.ndarray) and out.shape == shape

    @pytest.mark.parametrize("fn, values, clearances", [
        (remove_circuit_noise, (-10.0, 30.0), (10.5, 40.0)),  # dB, above every floor
        (apply_circuit_noise, (0.01, 40.0), (0.5, 40.0)),     # linear variance
    ])
    def test_float_float64_and_0d_inputs_agree_bit_for_bit(self, fn, values, clearances):
        rng = np.random.default_rng(15)
        for value, clearance in zip(rng.uniform(*values, 2000).tolist(),
                                    rng.uniform(*clearances, 2000).tolist()):
            expected = fn(value, clearance)
            assert fn(np.float64(value), clearance) == expected
            assert fn(np.array(value), clearance) == expected

    def test_list_input_is_an_array(self):
        assert to_db([1.0, 10.0]).tolist() == [0.0, 10.0]
        assert remove_circuit_noise([0.0, 0.0], 14.0) == pytest.approx([1.0, 1.0], abs=1e-15)


class TestScalarDomainContract:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, np.array(0.0), np.array(math.nan)])
    def test_apply_circuit_noise_rejects(self, bad):
        with pytest.raises(ParameterDomainError, match=r"^variance must be > 0$"):
            apply_circuit_noise(bad, 14.0)

    @pytest.mark.parametrize("bad", [-20.0, -math.inf, math.nan, np.array(-20.0),
                                     np.array(math.nan), [0.0, math.nan]])
    def test_remove_circuit_noise_rejects(self, bad):
        with pytest.raises(ParameterDomainError,
                           match=r"^observed level lies at or below the electronic floor$"):
            remove_circuit_noise(bad, 14.0)

    @pytest.mark.parametrize("args, message", [
        ((-0.1, 0.8, 0.5, 0.1), "detection efficiency must be in [0, 1], got -0.1"),
        ((1.1, 0.8, 0.5, 0.1), "detection efficiency must be in [0, 1], got 1.1"),
        ((math.nan, 0.8, 0.5, 0.1), "detection efficiency must be in [0, 1], got nan"),
        ((0.8, -0.1, 0.5, 0.1), "escape efficiency must be in [0, 1], got -0.1"),
        ((0.8, 1.1, 0.5, 0.1), "escape efficiency must be in [0, 1], got 1.1"),
        ((0.8, math.nan, 0.5, 0.1), "escape efficiency must be in [0, 1], got nan"),
        ((0.8, 0.8, 1.0, 0.1), "pump parameter must be in [0, 1), got 1.0"),
        ((0.8, 0.8, -0.1, 0.1), "pump parameter must be in [0, 1), got -0.1"),
        ((0.8, 0.8, math.nan, 0.1), "pump parameter must be in [0, 1), got nan"),
        ((0.8, 0.8, 0.5, -0.1), "detuning parameter must be >= 0, got -0.1"),
        ((0.8, 0.8, 0.5, math.nan), "detuning parameter must be >= 0, got nan"),
    ])
    def test_levels_and_variance_share_messages(self, args, message):
        for call in (lambda: min_max_levels(*args), lambda: quadrature_variance(0.0, *args)):
            with pytest.raises(ParameterDomainError) as info:
                call()
            assert str(info.value) == message
