//! Voltage, error-rate and energy modelling (Figures 5.2 and 6.7).
//!
//! Application robustification saves energy by *voltage overscaling*: the
//! supply voltage is dropped below the guardbanded minimum, the FPU starts
//! producing timing errors at a voltage-dependent rate, and the robustified
//! software tolerates them. Reproducing Figure 6.7 therefore needs two
//! models, both provided here:
//!
//! * the FPU **error rate as a function of voltage** (Figure 5.2 — in the
//!   paper this was fit from circuit-level simulation), and
//! * the **dynamic power as a function of voltage** (`P ∝ V²` at fixed
//!   frequency), so that `energy = power(V) × #FLOPs`, matching the paper's
//!   y-axis "Energy (Power * # of FLOP)".

use crate::fault::FaultRate;
use crate::json::{JsonCodec, JsonValue};
use crate::json_object;
use std::cmp::Ordering;

/// A monotone map between FPU supply voltage and timing-error rate, with the
/// inverse map and a dynamic-power model.
///
/// The default calibration reproduces the shape of the paper's Figure 5.2:
/// the error rate climbs from ~1e-9 errors/op at the nominal 1.0 V to ~1e-1
/// errors/op at 0.6 V, exponentially in the voltage deficit. Calibration
/// points are interpolated log-linearly and the model is pluggable, so a
/// measured curve can be substituted verbatim.
///
/// # Examples
///
/// ```
/// use stochastic_fpu::VoltageErrorModel;
///
/// let model = VoltageErrorModel::paper_figure_5_2();
/// let rate = model.error_rate(0.8);
/// assert!(rate > model.error_rate(0.9), "lower voltage, more errors");
/// let v = model.voltage_for_rate(rate);
/// assert!((v - 0.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageErrorModel {
    /// Calibration points `(voltage, error_rate)` sorted by descending
    /// voltage; rates strictly increase as voltage decreases.
    points: Vec<(f64, f64)>,
    /// Nominal (guardbanded) supply voltage; power is normalized to 1.0
    /// at this voltage.
    nominal_voltage: f64,
}

impl VoltageErrorModel {
    /// Builds a model from `(voltage, error_rate)` calibration points.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given, if voltages are not
    /// strictly decreasing, or if error rates are not strictly increasing
    /// and positive.
    pub fn from_points(nominal_voltage: f64, points: Vec<(f64, f64)>) -> Self {
        if let Err(e) = check_calibration(nominal_voltage, &points) {
            panic!("{e}");
        }
        VoltageErrorModel {
            points,
            nominal_voltage,
        }
    }

    /// The calibration shaped like the paper's Figure 5.2: error rate
    /// 1e-9 → 1e-1 errors/op as the supply scales 1.0 V → 0.60 V.
    pub fn paper_figure_5_2() -> Self {
        // log10(rate) rises linearly from -9 at 1.0 V to -1 at 0.60 V,
        // one decade per 50 mV of overscaling.
        let points: Vec<(f64, f64)> = (0..9)
            .map(|i| {
                let v = 1.0 - 0.05 * i as f64;
                let log10 = -9.0 + i as f64;
                (v, 10f64.powf(log10))
            })
            .collect();
        Self::from_points(1.0, points)
    }

    /// The nominal (guardbanded) voltage.
    pub fn nominal_voltage(&self) -> f64 {
        self.nominal_voltage
    }

    /// The calibration points `(voltage, error_rate)`, sorted by
    /// descending voltage.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Lowest calibrated voltage.
    pub fn min_voltage(&self) -> f64 {
        self.points.last().expect("at least two points").0
    }

    /// Highest calibrated voltage (the clamp target of
    /// [`voltage_for_rate`](Self::voltage_for_rate) for rates at or below
    /// [`min_rate`](Self::min_rate)).
    pub fn max_voltage(&self) -> f64 {
        self.points[0].0
    }

    /// Lowest calibrated error rate (attained at
    /// [`max_voltage`](Self::max_voltage)).
    pub fn min_rate(&self) -> f64 {
        self.points[0].1
    }

    /// Highest calibrated error rate (attained at
    /// [`min_voltage`](Self::min_voltage)).
    pub fn max_rate(&self) -> f64 {
        self.points.last().expect("at least two points").1
    }

    /// FPU error rate (errors per FLOP) at the given supply voltage.
    ///
    /// # Clamping
    ///
    /// Returned rates are clamped to the calibrated range
    /// `[min_rate, max_rate]`: voltages at or above
    /// [`max_voltage`](Self::max_voltage) return exactly
    /// [`min_rate`](Self::min_rate), voltages at or below
    /// [`min_voltage`](Self::min_voltage) return exactly
    /// [`max_rate`](Self::max_rate). Interpolation is linear in
    /// `log10(rate)`. Together with the mirrored clamp of
    /// [`voltage_for_rate`](Self::voltage_for_rate) this makes the
    /// round-trip exact at the boundaries:
    /// `voltage_for_rate(error_rate(v)) == clamp(v)` for every `v`, where
    /// `clamp` saturates to `[min_voltage, max_voltage]` — the inverse
    /// property holds *within* the calibrated range (up to interpolation
    /// rounding) and degrades to the clamped boundary outside it.
    ///
    /// # Panics
    ///
    /// Panics if `voltage` is NaN (every non-NaN voltage, including
    /// infinities, clamps).
    pub fn error_rate(&self, voltage: f64) -> f64 {
        assert!(!voltage.is_nan(), "voltage must not be NaN");
        let first = self.points[0];
        if voltage >= first.0 {
            return first.1;
        }
        let last = *self.points.last().expect("at least two points");
        if voltage <= last.0 {
            return last.1;
        }
        for w in self.points.windows(2) {
            let (v_hi, r_hi) = w[0];
            let (v_lo, r_lo) = w[1];
            if voltage <= v_hi && voltage >= v_lo {
                let t = (v_hi - voltage) / (v_hi - v_lo);
                let log10 = r_hi.log10() * (1.0 - t) + r_lo.log10() * t;
                return 10f64.powf(log10);
            }
        }
        unreachable!("voltage {voltage} not bracketed by calibration points")
    }

    /// The highest voltage at which the FPU's error rate reaches `rate`
    /// (i.e. the most aggressive overscale admissible for a solver that
    /// tolerates that rate).
    ///
    /// # Clamping
    ///
    /// Returned voltages are clamped to the calibrated range
    /// `[min_voltage, max_voltage]`: rates at or below
    /// [`min_rate`](Self::min_rate) (including zero and negative rates,
    /// which no calibrated voltage reaches) return exactly
    /// [`max_voltage`](Self::max_voltage), rates at or above
    /// [`max_rate`](Self::max_rate) return exactly
    /// [`min_voltage`](Self::min_voltage). This mirrors the clamp of
    /// [`error_rate`](Self::error_rate), so
    /// `error_rate(voltage_for_rate(r)) == clamp(r)` for every `r`, where
    /// `clamp` saturates to `[min_rate, max_rate]` — the documented
    /// inverse property holds within the calibrated range and degrades to
    /// the clamped boundary outside it, never extrapolating.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is NaN (every non-NaN rate, including zero,
    /// negatives and infinities, clamps).
    pub fn voltage_for_rate(&self, rate: f64) -> f64 {
        assert!(!rate.is_nan(), "rate must not be NaN");
        let first = self.points[0];
        if rate <= first.1 {
            return first.0;
        }
        let last = *self.points.last().expect("at least two points");
        if rate >= last.1 {
            return last.0;
        }
        for w in self.points.windows(2) {
            let (v_hi, r_hi) = w[0];
            let (v_lo, r_lo) = w[1];
            if rate >= r_hi && rate <= r_lo {
                let t = (rate.log10() - r_hi.log10()) / (r_lo.log10() - r_hi.log10());
                return v_hi + (v_lo - v_hi) * t;
            }
        }
        unreachable!("rate {rate} not bracketed by calibration points")
    }

    /// The [`FaultRate`] the FPU exhibits at `voltage`, for wiring a
    /// [`NoisyFpu`](crate::NoisyFpu) to a chosen operating point.
    pub fn fault_rate_at(&self, voltage: f64) -> FaultRate {
        FaultRate::per_flop(self.error_rate(voltage).min(1.0))
    }

    /// Dynamic power at `voltage`, normalized so the nominal voltage draws
    /// power 1.0 (`P ∝ V²` at fixed frequency).
    pub fn power(&self, voltage: f64) -> f64 {
        let r = voltage / self.nominal_voltage;
        r * r
    }

    /// Energy (in normalized `power × FLOP` units, the paper's Figure 6.7
    /// y-axis) of executing `flops` operations at `voltage`.
    pub fn energy(&self, flops: u64, voltage: f64) -> f64 {
        self.power(voltage) * flops as f64
    }
}

/// `{"nominal_voltage":…,"points":[[voltage,rate],…]}`: the full
/// calibration, checked on the way in as [`VoltageErrorModel::from_points`]
/// checks it.
impl JsonCodec for VoltageErrorModel {
    fn to_value(&self) -> JsonValue {
        let pair = |&(v, r): &(f64, f64)| JsonValue::Array(vec![v.into(), r.into()]);
        json_object!(
            "nominal_voltage" => self.nominal_voltage,
            "points" => self.points.iter().map(pair).collect::<JsonValue>(),
        )
    }

    fn from_value(value: &JsonValue) -> Result<Self, String> {
        let f = value.fields("voltage model");
        let nominal = f.get("nominal_voltage")?;
        let pair = |p: &JsonValue| match p.as_array()? {
            [v, r] => Some((v.as_f64()?, r.as_f64()?)),
            _ => None,
        };
        let points = f.map(
            "[voltage, rate] pairs in",
            "points",
            |points: &[JsonValue]| points.iter().map(pair).collect::<Option<Vec<_>>>(),
        )?;
        check_calibration(nominal, &points)?;
        Ok(VoltageErrorModel {
            points,
            nominal_voltage: nominal,
        })
    }
}

/// The calibration invariants [`VoltageErrorModel::from_points`] panics on
/// and [`VoltageErrorModel::from_value`] returns.
fn check_calibration(nominal_voltage: f64, points: &[(f64, f64)]) -> Result<(), String> {
    if points.len() < 2 {
        return Err("need at least two calibration points".into());
    }
    if !(nominal_voltage > 0.0 && nominal_voltage.is_finite()) {
        return Err("nominal voltage must be positive and finite".into());
    }
    for w in points.windows(2) {
        if w[0].0.partial_cmp(&w[1].0) != Some(Ordering::Greater) {
            return Err("voltages must be strictly decreasing".into());
        }
        if w[0].1.partial_cmp(&w[1].1) != Some(Ordering::Less) {
            return Err("error rates must strictly increase as voltage drops".into());
        }
    }
    for &(v, r) in points {
        if !(v > 0.0 && r > 0.0 && r <= 1.0) {
            return Err(format!("invalid calibration point ({v}, {r})"));
        }
    }
    Ok(())
}

impl Default for VoltageErrorModel {
    fn default() -> Self {
        Self::paper_figure_5_2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_5_2_endpoints() {
        let m = VoltageErrorModel::paper_figure_5_2();
        assert!((m.error_rate(1.0) - 1e-9).abs() < 1e-12);
        assert!((m.error_rate(0.60).log10() - (-1.0)).abs() < 1e-9);
    }

    #[test]
    fn error_rate_monotone_in_voltage() {
        let m = VoltageErrorModel::paper_figure_5_2();
        let mut prev = m.error_rate(1.05);
        let mut v = 1.0;
        while v > 0.55 {
            let r = m.error_rate(v);
            assert!(r >= prev, "rate decreased at {v}");
            prev = r;
            v -= 0.01;
        }
    }

    #[test]
    fn voltage_for_rate_inverts_error_rate() {
        let m = VoltageErrorModel::paper_figure_5_2();
        for &v in &[0.62, 0.7, 0.775, 0.85, 0.93, 0.99] {
            let r = m.error_rate(v);
            let back = m.voltage_for_rate(r);
            assert!((back - v).abs() < 1e-9, "v {v} -> rate {r} -> v {back}");
        }
    }

    #[test]
    fn clamping_outside_calibration() {
        let m = VoltageErrorModel::paper_figure_5_2();
        assert_eq!(m.error_rate(1.2), m.error_rate(1.0));
        assert_eq!(m.error_rate(0.4), m.error_rate(0.6));
        assert_eq!(m.voltage_for_rate(1e-12), 1.0);
        assert_eq!(m.voltage_for_rate(0.9), 0.6);
    }

    #[test]
    fn calibrated_range_accessors() {
        let m = VoltageErrorModel::paper_figure_5_2();
        assert_eq!(m.max_voltage(), 1.0);
        assert_eq!(m.min_voltage(), 0.6);
        assert!((m.min_rate() - 1e-9).abs() < 1e-18);
        assert!((m.max_rate() - 1e-1).abs() < 1e-10);
    }

    #[test]
    fn round_trip_is_exact_at_clamp_boundaries() {
        let m = VoltageErrorModel::paper_figure_5_2();
        // Voltages at or beyond the calibrated boundary round-trip to the
        // clamped boundary exactly, never beyond it and never to a panic.
        for v in [
            1.5,
            m.max_voltage(),
            m.min_voltage(),
            0.2,
            0.0,
            f64::INFINITY,
        ] {
            let back = m.voltage_for_rate(m.error_rate(v));
            assert_eq!(back, v.clamp(m.min_voltage(), m.max_voltage()));
        }
        // Out-of-range rates (including zero and negatives, which no
        // calibrated voltage reaches) round-trip to the clamped rate.
        for r in [
            0.0,
            -1.0,
            1e-30,
            m.min_rate(),
            m.max_rate(),
            0.5,
            f64::INFINITY,
        ] {
            let back = m.error_rate(m.voltage_for_rate(r));
            assert_eq!(back, r.clamp(m.min_rate(), m.max_rate()));
        }
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_voltage_rejected() {
        VoltageErrorModel::paper_figure_5_2().error_rate(f64::NAN);
    }

    #[test]
    fn power_is_quadratic() {
        let m = VoltageErrorModel::paper_figure_5_2();
        assert_eq!(m.power(1.0), 1.0);
        assert!((m.power(0.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn energy_scales_with_flops_and_voltage() {
        let m = VoltageErrorModel::paper_figure_5_2();
        assert_eq!(m.energy(100, 1.0), 100.0);
        assert!(m.energy(100, 0.7) < 100.0 * 0.5 + 1.0);
        // Halving voltage quarters energy per FLOP: a 4x-iteration overscaled
        // run at 0.5x voltage breaks even.
        let base = m.energy(1000, 1.0);
        let overscaled = m.energy(4000, 0.5);
        assert!((base - overscaled).abs() < 1e-9);
    }

    #[test]
    fn fault_rate_at_is_clamped_to_valid_rate() {
        let m = VoltageErrorModel::paper_figure_5_2();
        let r = m.fault_rate_at(0.3);
        assert!(r.fraction() <= 1.0);
        assert_eq!(m.fault_rate_at(1.0).fraction(), 1e-9);
    }

    /// Every invalid calibration makes `from_points` panic and
    /// `from_json` return `Err`, with the same message.
    #[test]
    fn invalid_calibrations_fail_alike_on_both_paths() {
        let cases = [
            (1.0, vec![(1.0, 1e-9)], "at least two"),
            (0.0, vec![(1.0, 1e-9), (0.9, 1e-8)], "nominal voltage"),
            (-1.0, vec![(1.0, 1e-9), (0.9, 1e-8)], "nominal voltage"),
            (1.0, vec![(0.8, 1e-9), (0.9, 1e-8)], "strictly decreasing"),
            (1.0, vec![(1.0, 1e-3), (0.9, 1e-5)], "strictly increase"),
            (
                1.0,
                vec![(1.0, 0.0), (0.9, 1e-5)],
                "invalid calibration point (1, 0)",
            ),
            (
                1.0,
                vec![(1.0, 1e-3), (0.9, 1.5)],
                "invalid calibration point (0.9, 1.5)",
            ),
        ];
        for (nominal, points, expected) in cases {
            let pairs: Vec<String> = points.iter().map(|(v, r)| format!("[{v},{r}]")).collect();
            let json = format!(
                "{{\"nominal_voltage\":{nominal},\"points\":[{}]}}",
                pairs.join(",")
            );
            let returned = VoltageErrorModel::from_json(&json).expect_err(&json);
            let panicked = std::panic::catch_unwind(|| {
                VoltageErrorModel::from_points(nominal, points.clone())
            })
            .expect_err(&json);
            let panicked = panicked.downcast_ref::<String>().expect("formatted panic");
            assert_eq!(panicked, &returned, "{json}");
            assert!(returned.contains(expected), "{json}: {returned}");
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        for model in [
            VoltageErrorModel::paper_figure_5_2(),
            VoltageErrorModel::from_points(1.2, vec![(1.2, 1e-8), (0.8, 1e-2)]),
        ] {
            let json = model.to_json();
            let parsed = VoltageErrorModel::from_json(&json).unwrap();
            assert_eq!(parsed, model);
            assert_eq!(parsed.to_json(), json);
        }
    }

    #[test]
    fn from_json_rejects_bad_calibrations() {
        for bad in [
            r#"{"points":[[1.0,1e-9],[0.9,1e-8]]}"#,
            r#"{"nominal_voltage":1.0,"points":[[1.0,1e-9],[0.9,"x"]]}"#,
        ] {
            assert!(VoltageErrorModel::from_json(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn custom_model_interpolates() {
        let m = VoltageErrorModel::from_points(1.2, vec![(1.2, 1e-8), (0.8, 1e-2)]);
        let mid = m.error_rate(1.0);
        assert!((mid.log10() - (-5.0)).abs() < 1e-9);
        assert_eq!(m.power(1.2), 1.0);
    }
}
