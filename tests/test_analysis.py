import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st
from scipy.optimize import brentq

from sqzlab import (
    CavityParams,
    DetectionChain,
    ParameterDomainError,
    PumpSpec,
    SweepRow,
    VarianceLevels,
    apply_circuit_noise,
    detection_efficiency,
    escape_efficiency,
    loss_only_explanation_check,
    min_max_levels,
    operating_point,
    predict_levels,
    pump_parameter,
    reconcile_discrepancy,
    spectral_point,
    sweep_pump,
    threshold_power,
)
from sqzlab.analysis import _scaled_prediction_db
from sqzlab.detection import circuit_noise_floor

from conftest import (F0, closed_form_reconcile, grid_search_oracle,
                      sequential_edge_reconcile)

MEASURED = VarianceLevels.from_db(-2.75, 7.00)

# frozen from direct evaluation of the composed pipeline
PREDICTED_DB = (-4.356106547452888, 8.886796542330625)
CORRECTED_DB = (-4.078115351303469, 8.739537487341194)


class TestPredictLevels:
    def test_quoted_pipeline(self, cavity, chain, pump_gain):
        levels = predict_levels(cavity, chain, pump_gain, F0)
        assert levels.s_min_db == pytest.approx(PREDICTED_DB[0], abs=1e-9)
        assert levels.s_max_db == pytest.approx(PREDICTED_DB[1], abs=1e-9)

    def test_circuit_corrected(self, cavity, chain, pump_gain):
        levels = predict_levels(cavity, chain, pump_gain, F0, include_circuit_noise=True)
        assert levels.s_min_db == pytest.approx(CORRECTED_DB[0], abs=1e-9)
        assert levels.s_max_db == pytest.approx(CORRECTED_DB[1], abs=1e-9)

    def test_unit_gain_is_shot_noise(self, cavity, chain):
        levels = predict_levels(cavity, chain, PumpSpec(parametric_gain=1.0), F0)
        assert levels.s_min_db == pytest.approx(0.0, abs=1e-12)
        assert levels.s_max_db == pytest.approx(0.0, abs=1e-12)


class TestSweep:
    GAINS = [2.0, 2.8, 3.6, 4.4, 5.3, 6.0, 6.7, 7.5, 8.2, 9.0]

    def test_monotone_in_gain(self, cavity, chain):
        rows = sweep_pump(cavity, chain, [PumpSpec(parametric_gain=g) for g in self.GAINS], F0)
        smin = [r.predicted.s_min_db for r in rows]
        smax = [r.predicted.s_max_db for r in rows]
        assert all(b < a for a, b in zip(smin, smin[1:]))
        assert all(b > a for a, b in zip(smax, smax[1:]))

    def test_contains_quoted_point(self, cavity, chain):
        rows = sweep_pump(cavity, chain, [PumpSpec(parametric_gain=g) for g in self.GAINS], F0)
        row = next(r for r in rows if r.parametric_gain == 5.3)
        assert row.predicted.s_min_db == pytest.approx(PREDICTED_DB[0], abs=1e-9)
        assert row.predicted.s_max_db == pytest.approx(PREDICTED_DB[1], abs=1e-9)
        assert row.pump_parameter == pytest.approx(0.5656277572369306, rel=1e-12)

    def test_rows_ordered_by_power(self, cavity, chain):
        pumps = [PumpSpec(parametric_gain=g) for g in (9.0, 2.0, 5.3)]
        rows = sweep_pump(cavity, chain, pumps, F0)
        powers = [r.pump_power for r in rows]
        assert powers == sorted(powers)

    def test_above_threshold_marked_invalid(self, cavity, chain):
        p_th = threshold_power(cavity)
        pumps = [PumpSpec(pump_power=0.5 * p_th), PumpSpec(pump_power=2.0 * p_th)]
        rows = sweep_pump(cavity, chain, pumps, F0)
        assert len(rows) == 2
        assert rows[0].valid and rows[0].predicted is not None
        assert not rows[1].valid and rows[1].predicted is None

    def test_measured_attached_to_nearest(self, cavity, chain):
        pumps = [PumpSpec(parametric_gain=g) for g in (2.0, 5.3, 9.0)]
        measured = [(0.0478, MEASURED)]  # W, closest to the G = 5.3 row
        rows = sweep_pump(cavity, chain, pumps, F0, measured)
        tagged = [r for r in rows if r.measured is not None]
        assert len(tagged) == 1
        assert tagged[0].parametric_gain == 5.3

    def test_empty_pumps_rejected(self, cavity, chain):
        with pytest.raises(ParameterDomainError):
            sweep_pump(cavity, chain, [], F0)

    def test_two_measured_rows_on_one_row_rejected(self, cavity, chain):
        pumps = [PumpSpec(pump_power=p) for p in (0.061, 0.200)]
        message = ("^measured rows at 0.06 W and 0.062 W both attach to "
                   "the sweep row at 0.061 W$")
        with pytest.raises(ParameterDomainError, match=message):
            sweep_pump(cavity, chain, pumps, F0, [(0.060, MEASURED), (0.062, MEASURED)])

    @pytest.mark.parametrize("power, shown", [(math.nan, "nan"), (math.inf, "inf"),
                                              (-0.005, "-0.005")])
    def test_measured_power_outside_the_pump_domain_rejected(self, cavity, chain, power, shown):
        pumps = [PumpSpec(pump_power=p) for p in (0.020, 0.061)]
        message = f"^measured pump power must be finite and >= 0, got {shown} W$"
        with pytest.raises(ParameterDomainError, match=message):
            sweep_pump(cavity, chain, pumps, F0, [(power, MEASURED)])


class TestReconcile:
    def test_agrees_with_grid_oracle(self, cavity, chain, pump_gain):
        result = reconcile_discrepancy(MEASURED, cavity, chain, pump_gain, F0)
        g_grid, e_grid, r_grid = grid_search_oracle(MEASURED, cavity, chain, 5.3)
        assert abs(result.gain_scale - g_grid) <= 2e-3
        assert abs(result.efficiency_scale - e_grid) <= 2e-3
        assert result.residual_db <= r_grid + 1e-9

    def test_identity_when_consistent(self, cavity, chain, pump_gain):
        nominal = predict_levels(cavity, chain, pump_gain, F0, include_circuit_noise=True)
        result = reconcile_discrepancy(nominal, cavity, chain, pump_gain, F0)
        assert result.gain_scale == pytest.approx(1.0, abs=1e-6)
        assert result.efficiency_scale == pytest.approx(1.0, abs=1e-6)
        assert result.residual_db < 1e-8

    def test_requires_gain_pump(self, cavity, chain):
        with pytest.raises(ParameterDomainError):
            reconcile_discrepancy(MEASURED, cavity, chain, PumpSpec(pump_power=0.061), F0)

    def test_unreachable_measurement_flagged(self, cavity, chain, pump_gain):
        # more anti-squeezing than any in-box correction can produce
        impossible = VarianceLevels.from_db(-0.5, 14.0)
        result = reconcile_discrepancy(impossible, cavity, chain, pump_gain, F0)
        assert not result.exact_match
        assert result.residual_db > 0.05


def _forward_levels(cavity, chain, pump, gain_scale, efficiency_scale, frequency_hz=F0):
    """Observed-level pair predicted with scaled gain and efficiency."""
    scaled = replace(chain, propagation_efficiency=chain.propagation_efficiency * efficiency_scale)
    gain = PumpSpec(parametric_gain=pump.parametric_gain * gain_scale)
    return predict_levels(cavity, scaled, gain, frequency_hz, include_circuit_noise=True)


class TestLossOnly:
    def test_quoted_measurement_is_infeasible(self, cavity, chain, pump_gain):
        report = loss_only_explanation_check(MEASURED, cavity, chain, pump_gain, F0)
        assert not report.feasible
        assert abs(report.s_max_error_db) > 0.3
        assert report.efficiency_scale == pytest.approx(0.770318021857767, abs=1e-9)

    def test_bisection_oracle_agreement(self, cavity, chain, pump_gain):
        report = loss_only_explanation_check(MEASURED, cavity, chain, pump_gain, F0)
        alpha, rho, x, omega = operating_point(cavity, chain, pump_gain, F0)
        clearance = chain.circuit_noise_clearance_db

        def smin_residual(e):
            levels = min_max_levels(e * alpha, rho, x, omega)
            return float(apply_circuit_noise(levels.s_min, clearance)) - MEASURED.s_min_db

        e_oracle = brentq(smin_residual, 1e-9, 1.0, xtol=1e-12)
        assert report.efficiency_scale == pytest.approx(e_oracle, abs=1e-9)

    def test_loss_only_data_is_feasible(self, cavity, chain, pump_gain):
        forged = _forward_levels(cavity, chain, pump_gain, gain_scale=1.0, efficiency_scale=0.9)
        report = loss_only_explanation_check(forged, cavity, chain, pump_gain, F0)
        assert report.feasible
        assert report.efficiency_scale == pytest.approx(0.9, abs=1e-3)
        assert abs(report.s_max_error_db) < 1e-6

    def test_nominal_measurement_is_feasible_at_unity(self, cavity, chain, pump_gain):
        nominal = predict_levels(cavity, chain, pump_gain, F0, include_circuit_noise=True)
        report = loss_only_explanation_check(nominal, cavity, chain, pump_gain, F0)
        assert report.feasible
        assert report.efficiency_scale == pytest.approx(1.0, abs=1e-9)


def _assert_boundary_optimum(measured, cavity, chain, pump):
    """No in-box root: the result is an edge point no worse than the grid oracle."""
    result = reconcile_discrepancy(measured, cavity, chain, pump, F0)
    _, _, r_grid = grid_search_oracle(measured, cavity, chain, pump.parametric_gain)
    assert result.residual_db <= r_grid + 1e-9
    assert not result.exact_match
    assert min(abs(result.gain_scale - 0.5), abs(result.gain_scale - 1.5),
               abs(result.efficiency_scale - 0.3), abs(result.efficiency_scale - 1.0)) <= 1e-6


class TestReconcileClosedForm:
    @pytest.mark.parametrize("pair_db", [(-0.5, 14.0), (-2.0, 0.0)])
    def test_out_of_box_pair_no_worse_than_grid_oracle(self, cavity, chain, pump_gain, pair_db):
        _assert_boundary_optimum(VarianceLevels.from_db(*pair_db), cavity, chain, pump_gain)

    @pytest.mark.parametrize("g_true", [1.6, 1.8, 2.0])
    @pytest.mark.parametrize("e_true", [0.5, 0.9])
    def test_pair_made_beyond_box_no_worse_than_grid_oracle(self, cavity, chain, pump_gain,
                                                            g_true, e_true):
        forged = _forward_levels(cavity, chain, pump_gain, g_true, e_true)
        _assert_boundary_optimum(forged, cavity, chain, pump_gain)

    @pytest.mark.parametrize("g_true", [0.55, 0.7, 0.85, 1.0, 1.15, 1.3, 1.45])
    @pytest.mark.parametrize("e_true", [0.35, 0.48, 0.61, 0.74, 0.87, 1.0])
    def test_in_box_recovery(self, cavity, chain, pump_gain, g_true, e_true):
        forged = _forward_levels(cavity, chain, pump_gain, g_true, e_true)
        result = reconcile_discrepancy(forged, cavity, chain, pump_gain, F0)
        assert result.gain_scale == pytest.approx(g_true, abs=1e-10)
        assert result.efficiency_scale == pytest.approx(e_true, abs=1e-10)
        assert result.exact_match
        assert result.iterations == 0

    def test_level_below_electronic_floor_rejected(self, cavity, chain, pump_gain):
        # the 14 dB clearance puts the observable floor near -14.2 dB
        below_floor = VarianceLevels.from_db(-20.0, 7.0)
        with pytest.raises(ParameterDomainError):
            reconcile_discrepancy(below_floor, cavity, chain, pump_gain, F0)


class TestOperatingPoint:
    def test_equals_separate_calls(self, cavity, chain, pump_gain):
        point = operating_point(cavity, chain, pump_gain, F0)
        assert point == (
            detection_efficiency(chain),
            escape_efficiency(cavity),
            pump_parameter(pump_gain, threshold_power(cavity)),
            spectral_point(cavity, F0).detuning_parameter,
        )


# (cavity, frequency) of a detuning whose 4*W^2 overflows and of a finite frequency whose
# 2*pi*f does, with the message the float detuning gives each
_DETUNING_FAILURES = {
    "4W^2": (CavityParams(1e160, 0.10, 0.0173, 0.023), F0,
             r"^detuning_parameter \S+ overflows 4\*detuning_parameter\^2$"),
    "2pi*f": (None, 1e308, r"^analysis frequency 1e\+308 Hz overflows the angular frequency 2\*pi\*f$"),
}
_MODEL_CALLS = {
    "operating_point": operating_point,
    "predict_levels": predict_levels,
    "sweep_pump": lambda cavity, chain, pump, f: sweep_pump(cavity, chain, [pump], f),
    "reconcile_discrepancy":
        lambda cavity, chain, pump, f: reconcile_discrepancy(MEASURED, cavity, chain, pump, f),
    "loss_only_explanation_check":
        lambda cavity, chain, pump, f: loss_only_explanation_check(MEASURED, cavity, chain, pump, f),
}


class TestDetuningDomain:
    """Every model call derives the detuning parameter through the one float
    map, so it refuses with the message of spectral_point."""

    @pytest.mark.parametrize("failure", sorted(_DETUNING_FAILURES))
    @pytest.mark.parametrize("call", sorted(_MODEL_CALLS))
    def test_same_message_as_spectral_point(self, cavity, chain, pump_gain, call, failure):
        bad_cavity, frequency_hz, message = _DETUNING_FAILURES[failure]
        bad_cavity = bad_cavity or cavity
        with pytest.raises(ParameterDomainError, match=message) as expected:
            spectral_point(bad_cavity, frequency_hz)
        with pytest.raises(ParameterDomainError) as info:
            _MODEL_CALLS[call](bad_cavity, chain, pump_gain, frequency_hz)
        assert str(info.value) == str(expected.value)


class TestScaledPredictionFloatPath:
    """Float scales take math.sqrt and max; 0-d arrays take np.sqrt and
    np.maximum, the operations of the array path, with the same bits."""

    @pytest.mark.parametrize("gain", [1.2, 5.3, 30.0])  # at 1.2, g*G < 1 clamps to x = 0
    def test_floats_match_0d_arrays_bit_for_bit(self, cavity, chain, gain, pump_gain):
        alpha, rho, _, omega = operating_point(cavity, chain, pump_gain, F0)
        rng = np.random.default_rng(27)
        for g, e in zip(rng.uniform(0.5, 1.5, 300).tolist(), rng.uniform(0.3, 1.0, 300).tolist()):
            levels = _scaled_prediction_db(g, e, gain, alpha, rho, omega, 14.0)
            arrays = _scaled_prediction_db(np.array(g), np.array(e), gain, alpha, rho, omega, 14.0)
            assert [type(v) for v in levels] == [float, float]
            assert [v.hex() for v in levels] == [float(v).hex() for v in arrays]


class TestLossOnlyDomain:
    @pytest.mark.parametrize("pump", [PumpSpec(parametric_gain=1.0), PumpSpec(pump_parameter=0.0)])
    def test_zero_pump_rejected(self, cavity, chain, pump):
        with pytest.raises(ParameterDomainError):
            loss_only_explanation_check(MEASURED, cavity, chain, pump, F0)

    def test_squeezing_level_above_shot_noise_rejected(self, cavity, chain, pump_gain):
        above = VarianceLevels.from_db(0.5, 7.0)
        with pytest.raises(ParameterDomainError, match="must lie below shot noise"):
            loss_only_explanation_check(above, cavity, chain, pump_gain, F0)


def _per_pump_sweep_oracle(cavity, chain, pumps, measured=None):
    """sweep_pump rows built with one full predict_levels call per pump."""
    p_th = threshold_power(cavity)
    rows = []
    for pump in pumps:
        if pump.kind == "power" and pump.pump_power >= p_th:
            rows.append(SweepRow(pump_power=pump.pump_power, parametric_gain=None,
                                 pump_parameter=None, predicted=None, primary="power",
                                 valid=False))
            continue
        x = pump_parameter(pump, p_th)
        rows.append(SweepRow(
            pump_power=pump.pump_power if pump.kind == "power" else x * x * p_th,
            parametric_gain=pump.parametric_gain if pump.kind == "gain" else 1.0 / (1.0 - x) ** 2,
            pump_parameter=x, predicted=predict_levels(cavity, chain, pump, F0),
            primary=pump.kind))
    rows.sort(key=lambda r: r.pump_power)
    powers = np.array([r.pump_power for r in rows])
    assigned, attached_at = {}, {}
    for p, levels in measured or []:
        i = int(np.argmin(np.abs(powers - p)))
        if i in assigned:
            raise ParameterDomainError(f"measured rows at {attached_at[i]} W and {p} W both "
                                       f"attach to the sweep row at {rows[i].pump_power} W")
        assigned[i], attached_at[i] = levels, p
    return [SweepRow(pump_power=r.pump_power, parametric_gain=r.parametric_gain,
                     pump_parameter=r.pump_parameter, predicted=r.predicted,
                     measured=assigned.get(i), primary=r.primary, valid=r.valid)
            for i, r in enumerate(rows)]


def _assert_matches_oracle(measured, cavity, chain, pump, frequency_hz=F0):
    """reconcile_discrepancy against the closed form where the pair has a root
    in the box and against the sequential edge scan where it has none, bit
    for bit; returns whether the result is an exact match."""
    result = reconcile_discrepancy(measured, cavity, chain, pump, frequency_hz)
    oracle = (closed_form_reconcile(measured, cavity, chain, pump, frequency_hz)
              or sequential_edge_reconcile(measured, cavity, chain, pump, frequency_hz))
    assert repr(result) == repr(oracle)
    return result.exact_match


class TestBatchedEdgeScanEquivalence:
    """The one-array-per-round scan of all four edges reproduces the four
    sequential per-edge scans bit for bit, and an in-box root the closed form."""

    def test_seeded_out_of_box_pairs(self, cavity, chain):
        assert _seeded_edge_points(cavity, chain, F0, 8, 240, -14.0) >= 200

    def test_seeded_in_box_and_out_of_box_pairs(self, cavity, chain):
        rng = np.random.default_rng(2006)
        exact = 0
        for _ in range(200):
            measured = VarianceLevels.from_db(rng.uniform(-8.0, 0.5), rng.uniform(-0.5, 16.0))
            pump = PumpSpec(parametric_gain=float(rng.uniform(1.5, 10.0)))
            exact += _assert_matches_oracle(measured, cavity, chain, pump)
        assert 20 <= exact <= 180  # both branches are exercised

    @pytest.mark.parametrize("pair_db", [(-0.5, 14.0), (-2.0, 0.0)])
    def test_probe_pairs(self, cavity, chain, pump_gain, pair_db):
        assert not _assert_matches_oracle(VarianceLevels.from_db(*pair_db), cavity, chain,
                                          pump_gain)

    @pytest.mark.parametrize("clearance_db", [10.0, 20.0])
    @pytest.mark.parametrize("frequency_hz", [0.5e6, 3e6])
    def test_other_clearances_and_frequencies(self, cavity, chain, clearance_db, frequency_hz):
        chain = replace(chain, circuit_noise_clearance_db=clearance_db)
        assert _seeded_edge_points(cavity, chain, frequency_hz, 9, 60, 0.5 - clearance_db) >= 40
        _assert_half_predicted_pairs_match(cavity, chain, frequency_hz, 2021)

    @pytest.mark.parametrize("pair_db", [(0.0, 0.0), (-0.05, 0.05), (0.02, -0.02)])
    def test_gain_clamped_to_unity_on_the_low_gain_edge(self, cavity, chain, pair_db):
        # at G = 1.2 the g < 1/G part of the gain edges has g*G < 1, clamped to x = 0
        _assert_matches_oracle(VarianceLevels.from_db(*pair_db), cavity, chain,
                               PumpSpec(parametric_gain=1.2))

    def test_a_chain_other_than_the_fixture(self, cavity):
        chain = DetectionChain(quantum_efficiency=0.85, visibility=0.97,
                               propagation_efficiency=0.9, circuit_noise_clearance_db=17.0)
        assert _seeded_edge_points(cavity, chain, F0, 10, 60, 0.5 - 17.0) >= 40
        _assert_half_predicted_pairs_match(cavity, chain, F0, 2022)


def _seeded_edge_points(cavity, chain, frequency_hz, seed, pairs, lowest_db):
    """_assert_matches_oracle on seeded pairs, each squeezing level drawn from
    lowest_db up to 1 dB; returns how many of them lie out of the box."""
    rng = np.random.default_rng(seed)
    edge_points = 0
    for _ in range(pairs):
        measured = VarianceLevels.from_db(rng.uniform(lowest_db, 1.0), rng.uniform(-1.0, 20.0))
        pump = PumpSpec(parametric_gain=float(rng.uniform(1.0, 12.0)))
        edge_points += not _assert_matches_oracle(measured, cavity, chain, pump, frequency_hz)
    return edge_points


def _assert_half_predicted_pairs_match(cavity, chain, frequency_hz, seed):
    """_assert_matches_oracle on 100 seeded pairs: every other pair is
    predicted from gain and efficiency scales drawn around the box, so both
    branches are exercised at any frequency."""
    rng = np.random.default_rng(seed)
    exact = 0
    for k in range(100):
        pump = PumpSpec(parametric_gain=float(rng.uniform(1.5, 10.0)))
        if k % 2:
            measured = VarianceLevels.from_db(rng.uniform(-8.0, 0.5), rng.uniform(-0.5, 16.0))
        else:  # the efficiency scale is drawn first
            e = rng.uniform(0.2, 1.0)
            measured = _forward_levels(cavity, chain, pump, rng.uniform(0.7, 1.7), e, frequency_hz)
        exact += _assert_matches_oracle(measured, cavity, chain, pump, frequency_hz)
    assert 10 <= exact <= 90


@st.composite
def _reconcile_inputs(draw):
    """reconcile_discrepancy arguments: a cavity, chain, gain and analysis
    frequency from the ranges of a sub-threshold OPO bench, and a level pair
    above the chain's electronic floor."""
    unit = st.floats(0.05, 1.0)
    cavity = CavityParams(round_trip_length=draw(st.floats(0.01, 10.0)),
                          coupler_transmittance=draw(st.floats(1e-3, 0.5)),
                          intracavity_loss=draw(st.floats(0.0, 0.2)),
                          nonlinear_efficiency=draw(st.floats(1e-3, 1.0)))
    chain = DetectionChain(draw(unit), draw(unit), draw(unit), draw(st.floats(1.0, 60.0)))
    n = circuit_noise_floor(chain.circuit_noise_clearance_db)
    level = st.floats(10.0 * math.log10(n / (1.0 + n)), 40.0, exclude_min=True)
    measured = VarianceLevels.from_db(draw(level), draw(level))
    pump = PumpSpec(parametric_gain=draw(st.floats(1.0, 1e4)))
    return measured, cavity, chain, pump, draw(st.floats(1e3, 1e9))


class TestReconcileDomain:
    # The box-edge scan maps its levels through the electronic floor without
    # apply_circuit_noise's check that they are > 0.  None is needed: on every
    # row ar = e*alpha*rho <= 1 and x = 1 - 1/sqrt(max(g*G, 1)) < 1, so
    # s_max = 1 + 4ar*x / ((1-x)^2 + W^2) >= 1 and
    # s_min = ((1-x)^2 + 4x*(1 - ar) + W^2) / ((1+x)^2 + W^2) >= (1-x)^2 / ((1+x)^2 + W^2) > 0.
    @given(_reconcile_inputs())
    def test_a_point_in_the_box_with_a_finite_residual_or_a_domain_error(self, inputs):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                result = reconcile_discrepancy(*inputs)
            except ParameterDomainError:
                return
        assert 0.5 < result.gain_scale < 1.5
        assert 0.3 < result.efficiency_scale <= 1.0
        assert math.isfinite(result.residual_db)


@st.composite
def _accepted_inputs(draw):
    """Any cavity, chain and pump the types accept, any finite analysis
    frequency > 0 and any pair of finite levels."""
    positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
    unit = st.floats(0.0, 1.0, exclude_min=True)
    transmittance = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    try:
        cavity = CavityParams(draw(positive), transmittance,
                              draw(st.floats(0.0, 1.0 - transmittance, exclude_max=True)),
                              draw(positive))
        chain = DetectionChain(draw(unit), draw(unit), draw(unit), draw(positive))
        pump = draw(st.one_of(st.builds(PumpSpec, parametric_gain=st.floats(1.0)),
                              st.builds(PumpSpec, pump_parameter=st.floats(0.0, 1.0, exclude_max=True)),
                              st.builds(PumpSpec, pump_power=st.floats(0.0))))
    except ParameterDomainError:
        reject()
    level = st.floats(allow_nan=False, allow_infinity=False)
    measured = VarianceLevels.from_db(draw(level), draw(level))
    return measured, cavity, chain, pump, draw(positive)


class TestAcceptedInputDomain:
    """Inputs the types accept, however degenerate, end in a result or a
    ParameterDomainError: never another exception or a numpy warning."""

    @given(_accepted_inputs())
    def test_a_finite_result_or_a_domain_error(self, inputs):
        measured, cavity, chain, pump, frequency_hz = inputs
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for observed in (False, True):
                try:
                    levels = predict_levels(cavity, chain, pump, frequency_hz, observed)
                except ParameterDomainError:
                    continue
                assert math.isfinite(levels.s_min_db) and math.isfinite(levels.s_max_db)
            try:
                result = reconcile_discrepancy(*inputs)
            except ParameterDomainError:
                pass
            else:
                assert 0.5 < result.gain_scale < 1.5
                assert 0.3 < result.efficiency_scale <= 1.0
                assert math.isfinite(result.residual_db)
            try:
                report = loss_only_explanation_check(*inputs)
            except ParameterDomainError:
                pass
            else:
                assert 0.0 <= report.efficiency_scale <= 1.0

    # alpha*rho = alpha * 2e-150: 0 at alpha = 1e-200, subnormal at 1e-160; a
    # root's x can be as small as ~5e-17, so 4*alpha*rho*x needs a normal product
    @pytest.mark.parametrize("alpha", [1e-200, 1e-160])
    def test_an_efficiency_product_that_underflows_is_a_domain_error(self, alpha):
        cavity = CavityParams(0.6, 1e-150, 0.5, 0.023)
        chain = DetectionChain(alpha, 1.0, 1.0, 14.0)
        pump = PumpSpec(parametric_gain=5.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ParameterDomainError, match="alpha\\*rho underflows"):
                reconcile_discrepancy(MEASURED, cavity, chain, pump, F0)
            if alpha * 2e-150 == 0.0:
                with pytest.raises(ParameterDomainError, match="4\\*alpha\\*rho\\*x underflows to 0"):
                    loss_only_explanation_check(MEASURED, cavity, chain, pump, F0)

    def test_a_discriminant_that_overflows_has_no_root(self, chain, pump_gain):
        # W ~ 2e153 for a 1e154 m cavity: 4*W^2 is finite, (1 - R)^2*(1 + 4*W^2) is not
        cavity = CavityParams(1e154, 0.10, 0.0173, 0.023)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = reconcile_discrepancy(MEASURED, cavity, chain, pump_gain, F0)
        assert not result.exact_match and math.isfinite(result.residual_db)

    def test_a_level_ratio_whose_square_overflows_has_no_root(self, cavity, chain, pump_gain):
        # R = (S_max - 1)/(1 - S_min) ~ 2e160: (1 +- R)^2 overflows; the box-edge
        # point is the parent's, which reached it through an overflow warning
        measured = VarianceLevels.from_db(-3.0, 1600.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = reconcile_discrepancy(measured, cavity, chain, pump_gain, F0)
        assert (result.gain_scale, result.efficiency_scale) == (1.4999999, 1.0)
        assert result.residual_db == 1589.5466322616326 and not result.exact_match

    def test_a_gain_at_threshold_at_the_top_of_the_box_is_a_domain_error(self, cavity, chain):
        # PumpSpec takes G = 2.5e32 (x < 1 up to G = 2**108 ~ 3.2e32), 1.5*G is past it
        pump = PumpSpec(parametric_gain=2.5e32)
        with pytest.raises(ParameterDomainError, match=r"^parametric gain 2.5e\+32 scaled by 1.5 "
                                                       "is at threshold to double precision$"):
            reconcile_discrepancy(MEASURED, cavity, chain, pump, F0)


def _outcome(sweep, *args):
    """The rows of a sweep, or the type and message of the error it raised."""
    try:
        return repr(sweep(*args))
    except ParameterDomainError as exc:
        return type(exc), str(exc)


class TestSweepEquivalence:
    """Deriving the operating point once per sweep and the dB levels in one
    pass gives the rows and errors of one predict_levels call per pump, bit
    for bit."""

    def test_mixed_pump_lists(self, cavity, chain):
        rng = np.random.default_rng(9)
        p_th = threshold_power(cavity)
        errors = 0
        for n in range(1, 41):
            pumps = []
            for kind in rng.integers(3, size=n):
                if kind == 0:  # up to 1.5x threshold, so some rows are invalid
                    pumps.append(PumpSpec(pump_power=float(rng.uniform(0.0, 1.5 * p_th))))
                elif kind == 1:
                    pumps.append(PumpSpec(parametric_gain=float(rng.uniform(1.0, 30.0))))
                else:
                    pumps.append(PumpSpec(pump_parameter=float(rng.uniform(0.0, 0.999))))
            measured = [(float(rng.uniform(0.0, p_th)), MEASURED) for _ in range(n % 3)]
            outcome = _outcome(sweep_pump, cavity, chain, pumps, F0, measured)
            assert outcome == _outcome(_per_pump_sweep_oracle, cavity, chain, pumps, measured)
            errors += isinstance(outcome, tuple)
        assert 0 < errors < 13  # some of the 13 lists with two measured rows collide

    def test_threshold_straddling_powers(self, cavity, chain):
        pumps = [PumpSpec(pump_power=p) for p in (0.020, 0.061, 0.1496, 0.149, 0.200)]
        rows = sweep_pump(cavity, chain, pumps, F0, [(0.061, MEASURED)])
        assert [r.valid for r in rows] == [True, True, True, False, False]
        assert repr(rows) == repr(_per_pump_sweep_oracle(cavity, chain, pumps,
                                                         [(0.061, MEASURED)]))

    # (kind, value) per pump, a power in units of the threshold power: a power
    # of exactly P_th and one of inf are invalid rows, like every row of the
    # last list; numpy scalars must still give levels in Python floats
    @pytest.mark.parametrize("drives, valid", [
        ((("power", 0.4), ("power", 1.0), ("gain", 5.3), ("power", math.inf)),
         [True, True, False, False]),
        ((("power", 0.4),), [True]),
        ((("gain", 5.3),), [True]),
        ((("x", 0.5),), [True]),
        ((("x", np.float64(0.5)), ("gain", np.float64(5.3))), [True, True]),
        ((("power", 1.0),), [False]),
        ((("power", math.inf), ("power", 1.5), ("power", 1.0)), [False, False, False]),
    ], ids=["at-threshold-and-inf", "one-power", "one-gain", "one-x", "numpy-scalars",
            "one-at-threshold", "all-above-threshold"])
    def test_boundary_pump_lists(self, cavity, chain, drives, valid):
        p_th = threshold_power(cavity)
        pumps = [PumpSpec(pump_power=value * p_th) if kind == "power"
                 else PumpSpec(parametric_gain=value) if kind == "gain"
                 else PumpSpec(pump_parameter=value) for kind, value in drives]
        rows = sweep_pump(cavity, chain, pumps, F0)
        assert [r.valid for r in rows] == valid
        assert repr(rows) == repr(_per_pump_sweep_oracle(cavity, chain, pumps))
