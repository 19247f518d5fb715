import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sqzlab import (
    CavityParams,
    ParameterDomainError,
    PumpSpec,
    SpectralPoint,
    cavity_decay_rate,
    detuning_at,
    detuning_parameter,
    escape_efficiency,
    extremal_variances,
    from_db,
    gain_from_pump_parameter,
    min_max_levels,
    pump_parameter,
    quadrature_variance,
    spectral_point,
    threshold_power,
    to_db,
)

# values computed once by direct evaluation of the formulas and frozen
THRESHOLD_W = 0.1495575
RHO = 0.8525149190110828
GAMMA = 58609425.539
OMEGA = 0.10720434894893513
X_FROM_GAIN = 0.5656277572369306
X_FROM_POWER = 0.6377042156569663
S_MIN = 0.36676623344525405
S_MAX = 7.7389074730368606
S_MIN_DB = -4.356106547452888
S_MAX_DB = 8.886796542330625
ALPHA = 0.819819


class TestThresholdPower:
    def test_value(self, cavity):
        assert threshold_power(cavity) == pytest.approx(THRESHOLD_W, rel=1e-12)
        # within 1% of the quoted 150 mW
        assert threshold_power(cavity) == pytest.approx(0.150, rel=0.01)

    def test_round_numbers(self):
        cav = CavityParams(0.6, 0.10, 0.0, 0.025)
        assert threshold_power(cav) == pytest.approx(0.100, rel=1e-12)

    def test_doubling_nonlinearity_halves_threshold(self, cavity):
        doubled = CavityParams(cavity.round_trip_length, cavity.coupler_transmittance,
                               cavity.intracavity_loss, 2 * cavity.nonlinear_efficiency)
        assert threshold_power(doubled) == pytest.approx(threshold_power(cavity) / 2, rel=1e-12)


class TestEscapeEfficiency:
    def test_value(self, cavity):
        assert escape_efficiency(cavity) == pytest.approx(RHO, rel=1e-12)
        assert escape_efficiency(cavity) == pytest.approx(0.85, abs=0.01)

    def test_lossless(self):
        assert escape_efficiency(CavityParams(0.6, 0.2, 0.0, 0.02)) == 1.0

    def test_equal_loss(self):
        assert escape_efficiency(CavityParams(0.6, 0.1, 0.1, 0.02)) == pytest.approx(0.5)


class TestCavityDecayRate:
    def test_value(self, cavity):
        assert cavity_decay_rate(cavity) == pytest.approx(GAMMA, rel=1e-9)

    def test_scaling(self, cavity):
        double_loss = CavityParams(0.6, 0.20, 0.0346, 0.023)
        assert cavity_decay_rate(double_loss) == pytest.approx(2 * cavity_decay_rate(cavity), rel=1e-12)
        double_length = CavityParams(1.2, 0.10, 0.0173, 0.023)
        assert cavity_decay_rate(double_length) == pytest.approx(cavity_decay_rate(cavity) / 2, rel=1e-12)


class TestDetuning:
    def test_value(self, cavity):
        omega = 2 * math.pi * 1e6
        assert detuning_parameter(cavity, omega) == pytest.approx(OMEGA, rel=1e-12)
        assert detuning_parameter(cavity, omega) == pytest.approx(0.107, abs=1e-3)
        assert spectral_point(cavity, 1e6).detuning_parameter == pytest.approx(OMEGA, rel=1e-12)

    def test_at_decay_rate(self, cavity):
        assert detuning_parameter(cavity, cavity_decay_rate(cavity)) == pytest.approx(1.0, rel=1e-12)

    def test_small_frequency_limit(self, cavity):
        assert detuning_parameter(cavity, 1e-6) < 1e-12

    def test_rejects_nonpositive(self, cavity):
        with pytest.raises(ParameterDomainError):
            detuning_parameter(cavity, 0.0)

    @pytest.mark.parametrize("omega", [math.inf, math.nan, -math.inf], ids=["inf", "nan", "-inf"])
    def test_rejects_non_finite(self, cavity, omega):
        with pytest.raises(ParameterDomainError, match="must be finite and > 0"):
            detuning_parameter(cavity, omega)

    @pytest.mark.parametrize("value", [-0.1, math.nan], ids=["-0.1", "nan"])
    def test_spectral_point_rejects_a_negative_or_nan_detuning(self, value):
        with pytest.raises(ParameterDomainError,
                           match=rf"^detuning_parameter must be >= 0, got {value}$"):
            SpectralPoint(value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's overflow warning must not leak
    def test_detuning_whose_square_overflows_rejected(self):
        # W = omega/gamma ~ 2e159 for a 1e160 m cavity: 4*W^2 overflows
        cavity = CavityParams(1e160, 0.10, 0.0173, 0.023)
        with pytest.raises(ParameterDomainError,
                           match=r"^detuning_parameter \S+ overflows 4\*detuning_parameter\^2$"):
            spectral_point(cavity, 1e6)
        with pytest.raises(ParameterDomainError,
                           match=r"^detuning_parameter 1e\+160 overflows 4\*detuning_parameter\^2$"):
            SpectralPoint(np.float64(1e160))

    def test_float_detuning_is_the_spectral_point_bit_for_bit(self):
        # seeded cavities, frequencies log-uniform from 1 Hz up to the edge where 4*W^2
        # overflows, and the largest frequency below that edge on a grid of 1e-3 in log10
        rng = np.random.default_rng(27)
        for _ in range(300):
            cavity = CavityParams(float(10.0 ** rng.uniform(-3.0, 150.0)), float(rng.uniform(0.01, 0.5)),
                                  float(rng.uniform(0.0, 0.4)), 0.023)
            edge = math.sqrt(sys.float_info.max / 4.0) * cavity_decay_rate(cavity) / (2.0 * math.pi)
            top = math.log10(min(edge, 1e307))
            for f in (float(10.0 ** rng.uniform(0.0, top)), 10.0 ** (math.floor(top * 1e3) / 1e3)):
                w = detuning_at(cavity, f)
                assert type(w) is float
                assert w.hex() == spectral_point(cavity, f).detuning_parameter.hex()
                assert w.hex() == (2.0 * math.pi * f / cavity_decay_rate(cavity)).hex()

    @pytest.mark.parametrize("make_cavity, frequency_hz, message", [
        (lambda cavity: CavityParams(1e160, 0.10, 0.0173, 0.023), 1e6,
         r"^detuning_parameter \S+ overflows 4\*detuning_parameter\^2$"),
        (lambda cavity: cavity, 1e308,
         r"^analysis frequency 1e\+308 Hz overflows the angular frequency 2\*pi\*f$"),
        (lambda cavity: cavity, math.inf, r"^analysis frequency must be finite and > 0, got inf$"),
        (lambda cavity: cavity, 0.0, r"^analysis frequency must be finite and > 0, got 0.0$"),
        (lambda cavity: cavity, -1.0, r"^analysis frequency must be finite and > 0, got -1.0$"),
    ], ids=["4W^2", "2pi*f", "inf", "zero", "negative"])
    def test_float_detuning_refuses_with_the_spectral_point_message(self, cavity, make_cavity,
                                                                   frequency_hz, message):
        cavity = make_cavity(cavity)
        with pytest.raises(ParameterDomainError, match=message) as info:
            detuning_at(cavity, frequency_hz)
        with pytest.raises(ParameterDomainError) as wrapped:
            spectral_point(cavity, frequency_hz)
        assert str(wrapped.value) == str(info.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's overflow warning must not leak
    @pytest.mark.parametrize("frequency_hz", [1e308, np.float64(1e308)], ids=["float", "float64"])
    def test_frequency_overflowing_to_infinite_omega_rejected(self, cavity, frequency_hz):
        # 2*pi*1e308 Hz overflows to omega = inf; the message names the frequency in Hz
        with pytest.raises(ParameterDomainError,
                           match=r"^analysis frequency 1e\+308 Hz overflows the angular frequency 2\*pi\*f$"):
            spectral_point(cavity, frequency_hz)


class TestPumpParameter:
    def test_gain_variant(self):
        assert pump_parameter(PumpSpec(parametric_gain=5.3)) == pytest.approx(X_FROM_GAIN, rel=1e-12)
        assert pump_parameter(PumpSpec(parametric_gain=5.3)) == pytest.approx(0.57, abs=0.005)

    def test_power_variant(self):
        x = pump_parameter(PumpSpec(pump_power=0.061), threshold=0.150)
        assert x == pytest.approx(X_FROM_POWER, rel=1e-12)
        # deliberately differs from the gain-derived value
        assert abs(x - X_FROM_GAIN) > 0.05

    def test_no_gain_no_pumping(self):
        assert pump_parameter(PumpSpec(parametric_gain=1.0)) == 0.0

    def test_above_threshold_rejected(self):
        with pytest.raises(ParameterDomainError,
                           match=r"^pump power 0.15 W is at or above threshold 0.15 W$"):
            pump_parameter(PumpSpec(pump_power=0.150), threshold=0.150)
        with pytest.raises(ParameterDomainError,
                           match=r"^pump power 0.2 W is at or above threshold 0.15 W$"):
            pump_parameter(PumpSpec(pump_power=0.2), threshold=0.150)

    def test_power_variant_needs_threshold(self):
        with pytest.raises(ParameterDomainError):
            pump_parameter(PumpSpec(pump_power=0.061))

    def test_spec_validation(self):
        with pytest.raises(ParameterDomainError):
            PumpSpec(parametric_gain=0.5)
        with pytest.raises(ParameterDomainError):
            PumpSpec(pump_power=-1.0)
        with pytest.raises(ParameterDomainError):
            PumpSpec(pump_parameter=1.0)
        with pytest.raises(ParameterDomainError):
            PumpSpec()
        with pytest.raises(ParameterDomainError):
            PumpSpec(pump_power=0.01, parametric_gain=2.0)

    # x = 1 - 1/sqrt(G) rounds to 1 from G = 2**108 on; the largest gain below
    # it is the largest accepted
    LARGEST_GAIN = float.fromhex("0x1.fffffffffffffp+107")

    @pytest.mark.parametrize("gain", [2.0 ** 108, 1e40, math.inf, 1e300])
    def test_gain_at_threshold_to_double_precision_rejected(self, gain):
        message = r"^parametric_gain \S+ is at threshold to double precision"
        with pytest.raises(ParameterDomainError, match=message):
            PumpSpec(parametric_gain=gain)

    def test_largest_accepted_gain(self):
        assert pump_parameter(PumpSpec(parametric_gain=self.LARGEST_GAIN)) < 1.0
        assert math.nextafter(self.LARGEST_GAIN, math.inf) == 2.0 ** 108

    def test_kind_is_preserved(self):
        assert PumpSpec(pump_power=0.01).kind == "power"
        assert PumpSpec(parametric_gain=2.0).kind == "gain"
        assert PumpSpec(pump_parameter=0.3).kind == "x"


class TestGainFromPumpParameter:
    def test_inverse_of_quoted_point(self):
        assert gain_from_pump_parameter(0.5656) == pytest.approx(5.2993227, rel=1e-6)
        assert gain_from_pump_parameter(0.5656) == pytest.approx(5.30, abs=0.01)

    def test_trivials(self):
        assert gain_from_pump_parameter(0.0) == 1.0
        assert gain_from_pump_parameter(0.5) == pytest.approx(4.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            gain_from_pump_parameter(1.0)
        with pytest.raises(ParameterDomainError):
            gain_from_pump_parameter(-0.1)

    @given(st.floats(min_value=1.0, max_value=1e6))
    def test_round_trip_with_gain_variant(self, gain):
        x = pump_parameter(PumpSpec(parametric_gain=gain))
        assert gain_from_pump_parameter(x) == pytest.approx(gain, rel=1e-9)

    @given(st.floats(min_value=0.0, max_value=0.999999))
    def test_composition_with_threshold(self, x):
        p_th = THRESHOLD_W
        got = pump_parameter(PumpSpec(pump_power=p_th * x * x), threshold=p_th)
        assert got == pytest.approx(x, rel=1e-12, abs=1e-12)


class TestQuadratureVariance:
    def test_antisqueezing_at_quoted_parameters(self):
        s = quadrature_variance(0.0, ALPHA, RHO, X_FROM_GAIN, OMEGA)
        assert s == pytest.approx(S_MAX, rel=1e-12)
        assert to_db(s) == pytest.approx(8.9, abs=0.05)  # quoted as +8.9 dB

    def test_squeezing_at_quoted_parameters(self):
        s = quadrature_variance(math.pi / 2, ALPHA, RHO, X_FROM_GAIN, OMEGA)
        assert s == pytest.approx(S_MIN, rel=1e-12)
        assert to_db(s) == pytest.approx(-4.4, abs=0.05)  # quoted as -4.4 dB

    def test_rounded_inputs(self):
        # direct evaluation at 4-digit rounded inputs, frozen
        s = quadrature_variance(0.0, 0.8200, 0.8525, 0.5656, 0.1072)
        assert s == pytest.approx(7.739361092853849, rel=1e-12)

    def test_unpumped_is_shot_noise(self):
        for theta in np.linspace(-7, 7, 29):
            assert quadrature_variance(theta, 0.8, 0.9, 0.0, 0.1) == pytest.approx(1.0, rel=1e-15)

    def test_mid_angle_point(self):
        s = quadrature_variance(math.pi / 4, 1.0, 1.0, 0.5, 0.0)
        assert s == pytest.approx(41.0 / 9.0, rel=1e-12)

    def test_vectorized(self):
        thetas = np.linspace(0, math.pi, 64)
        s = quadrature_variance(thetas, ALPHA, RHO, X_FROM_GAIN, OMEGA)
        assert s.shape == (64,)
        assert s[0] == pytest.approx(S_MAX, rel=1e-12)
        assert s[-1] == pytest.approx(S_MAX, rel=1e-12)

    def test_domain_checks(self):
        with pytest.raises(ParameterDomainError):
            quadrature_variance(0.0, 1.1, 0.5, 0.5, 0.1)
        with pytest.raises(ParameterDomainError):
            quadrature_variance(0.0, 0.5, -0.1, 0.5, 0.1)
        with pytest.raises(ParameterDomainError):
            quadrature_variance(0.0, 0.5, 0.5, 1.0, 0.1)
        with pytest.raises(ParameterDomainError):
            quadrature_variance(0.0, 0.5, 0.5, 0.5, -0.1)


_params = st.tuples(
    st.floats(min_value=0.01, max_value=1.0),   # alpha
    st.floats(min_value=0.01, max_value=1.0),   # rho
    st.floats(min_value=0.0, max_value=0.99),   # x
    st.floats(min_value=0.0, max_value=5.0),    # omega_norm
)


class TestVarianceProperties:
    @given(_params, st.floats(min_value=-10.0, max_value=10.0))
    def test_positive(self, params, theta):
        assert quadrature_variance(theta, *params) > 0.0

    @given(_params, st.floats(min_value=-3.0, max_value=3.0))
    def test_period_pi_and_even(self, params, theta):
        s = quadrature_variance(theta, *params)
        assert quadrature_variance(theta + math.pi, *params) == pytest.approx(s, rel=1e-9, abs=1e-11)
        assert quadrature_variance(-theta, *params) == pytest.approx(s, rel=1e-9, abs=1e-11)

    @given(_params)
    @example((1.0, 1.0, 0.9864836195985224, 0.0))  # s_max ~ 2.2e4: one ulp exceeds the allowance
    def test_extrema_locations(self, params):
        levels = min_max_levels(*params)
        thetas = np.linspace(0.0, math.pi, 721)
        s = quadrature_variance(thetas, *params)
        assert np.all(s <= levels.s_max + 1e-12)
        assert np.all(s >= levels.s_min - 1e-12)

    @given(st.lists(_params, min_size=1, max_size=8))
    def test_extremal_variances_match_min_max_levels_elementwise(self, points):
        s_min, s_max = extremal_variances(*(np.array(column) for column in zip(*points)))
        for i, params in enumerate(points):
            levels = min_max_levels(*params)
            assert (s_min[i], s_max[i]) == (levels.s_min, levels.s_max)  # bit for bit

    @given(st.floats(min_value=0.01, max_value=0.97), st.floats(min_value=0.0, max_value=2.0))
    def test_monotone_in_pump(self, x, omega_norm):
        lo1 = min_max_levels(0.8, 0.85, x, omega_norm)
        lo2 = min_max_levels(0.8, 0.85, x + 0.02, omega_norm)
        assert lo2.s_min < lo1.s_min
        assert lo2.s_max > lo1.s_max

    @given(st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=0.0, max_value=2.0))
    def test_detuning_degrades_both(self, x, omega_norm):
        lo1 = min_max_levels(0.8, 0.85, x, omega_norm)
        lo2 = min_max_levels(0.8, 0.85, x, omega_norm + 0.05)
        assert lo2.s_min > lo1.s_min
        assert lo2.s_max < lo1.s_max

    @given(_params)
    def test_levels_bracket_shot_noise(self, params):
        levels = min_max_levels(*params)
        assert 0.0 < levels.s_min <= 1.0 + 1e-15
        assert levels.s_max >= 1.0 - 1e-15


class TestMinMaxLevels:
    def test_quoted_point(self):
        levels = min_max_levels(ALPHA, RHO, X_FROM_GAIN, OMEGA)
        assert levels.s_min_db == pytest.approx(S_MIN_DB, abs=1e-9)
        assert levels.s_max_db == pytest.approx(S_MAX_DB, abs=1e-9)

    def test_unpumped(self):
        levels = min_max_levels(0.8, 0.9, 0.0, 0.1)
        assert levels.s_min_db == pytest.approx(0.0, abs=1e-12)
        assert levels.s_max_db == pytest.approx(0.0, abs=1e-12)

    def test_minimum_uncertainty_product(self):
        for x in np.linspace(0.0, 0.999, 41):
            levels = min_max_levels(1.0, 1.0, float(x), 0.0)
            assert levels.s_min * levels.s_max == pytest.approx(1.0, rel=1e-12)


class TestDecibels:
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_round_trip(self, s):
        assert from_db(to_db(s)) == pytest.approx(s, rel=1e-12)

    def test_exact_definition(self):
        assert to_db(1.0) == 0.0
        assert to_db(10.0) == pytest.approx(10.0, rel=1e-15)
        assert from_db(-10.0) == pytest.approx(0.1, rel=1e-15)


class TestCavityValidation:
    def test_bad_transmittance(self):
        with pytest.raises(ParameterDomainError, match="coupler_transmittance"):
            CavityParams(0.6, 1.2, 0.01, 0.02)

    def test_bad_total_loss(self):
        with pytest.raises(ParameterDomainError, match="T \\+ L"):
            CavityParams(0.6, 0.6, 0.5, 0.02)

    def test_bad_length(self):
        with pytest.raises(ParameterDomainError, match="round_trip_length"):
            CavityParams(0.0, 0.1, 0.01, 0.02)

    def test_bad_nonlinearity(self):
        with pytest.raises(ParameterDomainError, match="nonlinear_efficiency"):
            CavityParams(0.6, 0.1, 0.01, 0.0)

    @pytest.mark.parametrize("fields, message", [
        ((0.6, 0.1, 1.0, 0.02), r"^intracavity_loss must be in \[0, 1\), got 1.0$"),
        ((math.inf, 0.1, 0.01, 0.02), r"^round_trip_length must be finite and > 0, got inf$"),
        ((math.nan, 0.1, 0.01, 0.02), r"^round_trip_length must be finite and > 0, got nan$"),
        ((0.6, 0.1, 0.01, math.inf), r"^nonlinear_efficiency must be finite and > 0, got inf$"),
    ])
    def test_out_of_domain_field(self, fields, message):
        # an infinite length used to reach spectral_point as a zero decay rate
        with pytest.raises(ParameterDomainError, match=message):
            CavityParams(*fields)

    @pytest.mark.parametrize("fields, message", [
        ((5.9e216, 1.2e-294, 0.0, 0.02), r"^cavity decay rate c\*\(T \+ L\)/l underflows to 0$"),
        ((0.6, 1e-170, 0.0, 0.02), r"^cavity threshold \(T \+ L\)\^2/\(4\*E_NL\) underflows to 0$"),
    ], ids=["decay rate", "threshold"])
    def test_derived_rate_or_threshold_underflowing_to_zero(self, fields, message):
        # a zero decay rate made detuning_parameter divide by zero
        with pytest.raises(ParameterDomainError, match=message):
            CavityParams(*fields)

    @pytest.mark.parametrize("fields, message", [
        ((1e-303, 0.1, 0.01, 0.02), r"^cavity decay rate c\*\(T \+ L\)/l overflows$"),
        ((0.6, 0.1, 0.01, 5e-324), r"^cavity threshold \(T \+ L\)\^2/\(4\*E_NL\) overflows$"),
    ], ids=["decay rate", "threshold"])
    def test_derived_rate_or_threshold_overflowing(self, fields, message):
        # JSON has no Infinity for an infinite decay rate or threshold
        with pytest.raises(ParameterDomainError, match=message):
            CavityParams(*fields)
