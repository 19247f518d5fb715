"""The scalar model path, pinned bit for bit.

predict_levels, sweep_pump, reconcile_discrepancy and
loss_only_explanation_check on the bundled config are compared by
``float.hex`` against values frozen from direct evaluation, so any change to
the arithmetic of the path (not only to its rounding at 1e-9) shows here.
The return-type and domain contracts of the scalar helpers of ``opo`` and
``detection`` are checked alongside.
"""

import dataclasses
import math

import numpy as np
import pytest

from sqzlab import (
    ParameterDomainError,
    PumpSpec,
    VarianceLevels,
    apply_circuit_noise,
    load_config,
    loss_only_explanation_check,
    min_max_levels,
    predict_levels,
    quadrature_variance,
    reconcile_discrepancy,
    remove_circuit_noise,
    sweep_pump,
)
from sqzlab.detection import circuit_noise_floor
from sqzlab.opo import from_db, to_db

from conftest import CANONICAL_CONFIG, closed_form_reconcile

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

    def test_reconcile_maps_each_level_with_the_scalar_call(self, bundled):
        """(-3.97, +8.15) dB, whose levels a 2-element array map puts an ulp
        away from the scalar map, gives the closed-form root on the
        scalar-mapped levels."""
        cfg, f = bundled
        clearance = cfg.detection.circuit_noise_clearance_db
        n = circuit_noise_floor(clearance)
        assert (10.0 ** (np.array([-3.97, 8.15]) / 10.0) * (1.0 + n) - n).tolist() != [
            remove_circuit_noise(v, clearance) for v in (-3.97, 8.15)]
        measured = VarianceLevels.from_db(-3.97, 8.15)
        result = reconcile_discrepancy(measured, cfg.cavity, cfg.detection, cfg.pump, f)
        assert result.exact_match
        assert repr(result) == repr(closed_form_reconcile(measured, cfg.cavity, cfg.detection,
                                                          cfg.pump, f))
        assert (result.gain_scale.hex(), result.efficiency_scale.hex()) == (
            '0x1.c1d58ef7bfd51p-1', '0x1.ffd1e2f756e4dp-1')

    def test_loss_only_explanation_check(self, bundled):
        cfg, f = bundled
        report = loss_only_explanation_check(VarianceLevels.from_db(-2.75, 7.00), cfg.cavity,
                                             cfg.detection, cfg.pump, f)
        assert _hexes(report) == LOSS_ONLY


class TestScalarReturnContract:
    @pytest.mark.parametrize("fn, value", [(to_db, 2.0), (from_db, 3.0),
                                           (lambda v: remove_circuit_noise(v, 14.0), 3.0),
                                           (lambda v: apply_circuit_noise(v, 14.0), 2.0)])
    def test_scalar_in_python_float_out(self, fn, value):
        for arg in (value, np.float64(value), np.array(value)):
            assert type(fn(arg)) is float

    @pytest.mark.parametrize("fn", [to_db, from_db, lambda v: apply_circuit_noise(v, 14.0)])
    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 3)])
    def test_array_in_same_shape_array_out(self, fn, shape):
        out = fn(np.full(shape, 2.0))
        assert isinstance(out, np.ndarray) and out.shape == shape

    @pytest.mark.parametrize("arg", [np.full(1, 2.0), np.full(3, 2.0), [0.0, 0.0]])
    def test_remove_circuit_noise_takes_one_scalar(self, arg):
        with pytest.raises(TypeError):
            remove_circuit_noise(arg, 14.0)

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


class TestScalarDomainContract:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, np.array(0.0), np.array(math.nan)])
    def test_apply_circuit_noise_rejects(self, bad):
        with pytest.raises(ParameterDomainError, match=r"^variance must be > 0$"):
            apply_circuit_noise(bad, 14.0)

    @pytest.mark.parametrize("bad, message", [
        *((bad, r"^observed level lies at or below the electronic floor$")
          for bad in (-20.0, -math.inf, math.nan, np.array(-20.0), np.array(math.nan))),
        (4000.0, r"^observed level 4000.0 dB overflows as a linear variance$"),
        # 10^(L/10) is finite at 3082.5 dB, its product with 1 + n (n = 0.04) is not
        (3082.5, r"^observed level 3082.5 dB overflows as a linear variance$"),
        (1e300, r"^observed level 1e\+300 dB overflows as a linear variance$"),
    ], ids=["-20.0", "-inf", "nan", "bad3", "bad4", "4000.0", "3082.5", "1e+300"])
    def test_remove_circuit_noise_rejects(self, bad, message):
        with pytest.raises(ParameterDomainError, match=message):
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
