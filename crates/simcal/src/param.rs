//! Calibration parameters, parameter spaces, and calibrations.
//!
//! Search algorithms operate in the **unit hypercube** `[0,1]^d`; a
//! [`ParameterSpace`] maps unit points to **natural-unit** values and back.
//! Three parameter kinds cover everything the paper's case studies need:
//!
//! - [`ParamKind::Continuous`] — uniform in `[lo, hi]` (latencies,
//!   overheads, bandwidth factors, change points);
//! - [`ParamKind::Exponential`] — `2^x` with `x` uniform in
//!   `[lo_exp, hi_exp]` (the paper's bandwidth/core-speed ranges, §5.3.1);
//! - [`ParamKind::Integer`] — integer-valued in `[lo, hi]` (maximum
//!   concurrent I/O operations at a disk).

use serde::{Deserialize, Serialize};

/// The shape of one calibratable parameter.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ParamKind {
    /// Uniform continuous in `[lo, hi]`.
    Continuous {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// `2^x` for `x` uniform in `[lo_exp, hi_exp]`: log-uniform over
    /// `[2^lo_exp, 2^hi_exp]`.
    Exponential {
        /// Lower bound of the exponent.
        lo_exp: f64,
        /// Upper bound of the exponent.
        hi_exp: f64,
    },
    /// Integers in `[lo, hi]`, both inclusive.
    Integer {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
}

impl ParamKind {
    /// Map a unit-interval coordinate to a natural-unit value.
    pub fn denormalize(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        match *self {
            ParamKind::Continuous { lo, hi } => lo + u * (hi - lo),
            ParamKind::Exponential { lo_exp, hi_exp } => (lo_exp + u * (hi_exp - lo_exp)).exp2(),
            ParamKind::Integer { lo, hi } => {
                let span = (hi - lo) as f64;
                (lo as f64 + (u * (span + 1.0)).floor().min(span)).round()
            }
        }
    }

    /// Map a natural-unit value back to the unit interval (clamped).
    pub fn normalize(&self, v: f64) -> f64 {
        let u = match *self {
            ParamKind::Continuous { lo, hi } => {
                if hi > lo {
                    (v - lo) / (hi - lo)
                } else {
                    0.5
                }
            }
            ParamKind::Exponential { lo_exp, hi_exp } => {
                if hi_exp > lo_exp {
                    (v.max(f64::MIN_POSITIVE).log2() - lo_exp) / (hi_exp - lo_exp)
                } else {
                    0.5
                }
            }
            ParamKind::Integer { lo, hi } => {
                let span = (hi - lo) as f64;
                if span > 0.0 {
                    // Centre of the value's bucket, so denormalize(normalize(v)) == v.
                    ((v - lo as f64) + 0.5) / (span + 1.0)
                } else {
                    0.5
                }
            }
        };
        u.clamp(0.0, 1.0)
    }
}

/// A named parameter.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParamDef {
    /// Human-readable identifier, unique within a space.
    pub name: String,
    /// Range and scale.
    pub kind: ParamKind,
}

/// An ordered set of named parameters: the domain of a calibration problem.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ParameterSpace {
    params: Vec<ParamDef>,
}

impl ParameterSpace {
    /// An empty space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style: add a parameter and return `self`.
    ///
    /// # Panics
    /// Panics on a duplicate name or an empty/invalid range.
    pub fn with(mut self, name: &str, kind: ParamKind) -> Self {
        self.add(name, kind);
        self
    }

    /// Add a parameter.
    ///
    /// # Panics
    /// Panics on a duplicate name or an empty/invalid range.
    pub fn add(&mut self, name: &str, kind: ParamKind) {
        assert!(
            self.params.iter().all(|p| p.name != name),
            "duplicate parameter name {name:?}"
        );
        match kind {
            ParamKind::Continuous { lo, hi } => {
                assert!(
                    lo.is_finite() && hi.is_finite() && lo <= hi,
                    "invalid range for {name:?}"
                )
            }
            ParamKind::Exponential { lo_exp, hi_exp } => assert!(
                lo_exp.is_finite() && hi_exp.is_finite() && lo_exp <= hi_exp,
                "invalid exponent range for {name:?}"
            ),
            ParamKind::Integer { lo, hi } => assert!(lo <= hi, "invalid range for {name:?}"),
        }
        self.params.push(ParamDef {
            name: name.to_string(),
            kind,
        });
    }

    /// Number of parameters (the dimensionality of the search).
    pub fn dim(&self) -> usize {
        self.params.len()
    }

    /// The parameter definitions, in order.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// Index of the parameter named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name == name)
    }

    /// Map a unit-hypercube point to a natural-unit [`Calibration`].
    ///
    /// # Panics
    /// Panics if `unit.len() != self.dim()`.
    pub fn denormalize(&self, unit: &[f64]) -> Calibration {
        assert_eq!(unit.len(), self.dim(), "dimension mismatch");
        Calibration {
            values: self
                .params
                .iter()
                .zip(unit)
                .map(|(p, &u)| p.kind.denormalize(u))
                .collect(),
        }
    }

    /// Map a natural-unit calibration to the unit hypercube.
    ///
    /// # Panics
    /// Panics if `calib.values.len() != self.dim()`.
    pub fn normalize(&self, calib: &Calibration) -> Vec<f64> {
        assert_eq!(calib.values.len(), self.dim(), "dimension mismatch");
        self.params
            .iter()
            .zip(&calib.values)
            .map(|(p, &v)| p.kind.normalize(v))
            .collect()
    }

    /// Sample a uniform point in the unit hypercube.
    pub fn sample_unit(&self, rng: &mut numeric::Rng) -> Vec<f64> {
        (0..self.dim()).map(|_| rng.unit()).collect()
    }

    /// Build a calibration from `(name, value)` pairs (natural units).
    ///
    /// # Panics
    /// Panics if a name is unknown or missing.
    pub fn calibration_from_pairs(&self, pairs: &[(&str, f64)]) -> Calibration {
        let mut values = vec![f64::NAN; self.dim()];
        for (name, v) in pairs {
            let idx = self
                .index_of(name)
                .unwrap_or_else(|| panic!("unknown parameter {name:?}"));
            values[idx] = *v;
        }
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "missing parameter values: {:?}",
            self.params
                .iter()
                .zip(&values)
                .filter(|(_, v)| v.is_nan())
                .map(|(p, _)| &p.name)
                .collect::<Vec<_>>()
        );
        Calibration { values }
    }

    /// Value of the parameter named `name` within `calib`.
    ///
    /// # Panics
    /// Panics if the name is unknown.
    pub fn value(&self, calib: &Calibration, name: &str) -> f64 {
        calib.values[self
            .index_of(name)
            .unwrap_or_else(|| panic!("unknown parameter {name:?}"))]
    }
}

/// A point in a [`ParameterSpace`], in natural units.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// One value per parameter, in the space's parameter order.
    pub values: Vec<f64>,
}

impl Calibration {
    /// Wrap a raw natural-unit vector.
    pub fn new(values: Vec<f64>) -> Self {
        Self { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::rng_from_seed;
    use proptest::prelude::*;

    fn space3() -> ParameterSpace {
        ParameterSpace::new()
            .with("lat", ParamKind::Continuous { lo: 0.0, hi: 0.01 })
            .with(
                "bw",
                ParamKind::Exponential {
                    lo_exp: 20.0,
                    hi_exp: 40.0,
                },
            )
            .with("conc", ParamKind::Integer { lo: 1, hi: 100 })
    }

    #[test]
    fn continuous_denormalize_endpoints() {
        let k = ParamKind::Continuous { lo: 2.0, hi: 6.0 };
        assert_eq!(k.denormalize(0.0), 2.0);
        assert_eq!(k.denormalize(1.0), 6.0);
        assert_eq!(k.denormalize(0.5), 4.0);
    }

    #[test]
    fn exponential_is_log_uniform() {
        let k = ParamKind::Exponential {
            lo_exp: 10.0,
            hi_exp: 20.0,
        };
        assert_eq!(k.denormalize(0.0), 1024.0);
        assert_eq!(k.denormalize(1.0), 1024.0 * 1024.0);
        assert_eq!(k.denormalize(0.5), 2f64.powi(15));
    }

    #[test]
    fn integer_covers_all_values_uniformly() {
        let k = ParamKind::Integer { lo: 1, hi: 3 };
        assert_eq!(k.denormalize(0.0), 1.0);
        assert_eq!(k.denormalize(0.34), 2.0);
        assert_eq!(k.denormalize(0.99), 3.0);
        assert_eq!(k.denormalize(1.0), 3.0);
    }

    #[test]
    fn normalize_roundtrips_through_denormalize() {
        let s = space3();
        let calib =
            s.calibration_from_pairs(&[("lat", 0.004), ("bw", 2f64.powi(30)), ("conc", 42.0)]);
        let unit = s.normalize(&calib);
        let back = s.denormalize(&unit);
        assert!((back.values[0] - 0.004).abs() < 1e-12);
        assert!((back.values[1].log2() - 30.0).abs() < 1e-9);
        assert_eq!(back.values[2], 42.0);
    }

    #[test]
    fn named_access() {
        let s = space3();
        let c = s.calibration_from_pairs(&[("conc", 7.0), ("lat", 0.001), ("bw", 1e6)]);
        assert_eq!(s.value(&c, "conc"), 7.0);
        assert_eq!(s.value(&c, "lat"), 0.001);
        assert_eq!(s.index_of("bw"), Some(1));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_name_rejected() {
        ParameterSpace::new()
            .with("x", ParamKind::Continuous { lo: 0.0, hi: 1.0 })
            .with("x", ParamKind::Continuous { lo: 0.0, hi: 1.0 });
    }

    #[test]
    #[should_panic(expected = "missing parameter")]
    fn missing_pair_rejected() {
        space3().calibration_from_pairs(&[("lat", 0.0)]);
    }

    #[test]
    #[should_panic(expected = "unknown parameter")]
    fn unknown_pair_rejected() {
        space3().calibration_from_pairs(&[("nope", 0.0)]);
    }

    #[test]
    fn sampling_is_in_unit_cube_and_deterministic() {
        let s = space3();
        let mut r1 = rng_from_seed(3);
        let mut r2 = rng_from_seed(3);
        let a = s.sample_unit(&mut r1);
        let b = s.sample_unit(&mut r2);
        assert_eq!(a, b);
        assert!(a.iter().all(|u| (0.0..=1.0).contains(u)));
        assert_eq!(a.len(), 3);
    }

    proptest! {
        #[test]
        fn prop_denormalize_within_bounds(u in 0.0f64..=1.0) {
            let c = ParamKind::Continuous { lo: -5.0, hi: 5.0 };
            let v = c.denormalize(u);
            prop_assert!((-5.0..=5.0).contains(&v));

            let e = ParamKind::Exponential { lo_exp: 0.0, hi_exp: 10.0 };
            let v = e.denormalize(u);
            prop_assert!((1.0..=1024.0).contains(&v));

            let i = ParamKind::Integer { lo: 3, hi: 9 };
            let v = i.denormalize(u);
            prop_assert!((3.0..=9.0).contains(&v));
            prop_assert_eq!(v, v.round());
        }

        #[test]
        fn prop_integer_roundtrip(v in 1i64..=100) {
            let k = ParamKind::Integer { lo: 1, hi: 100 };
            let u = k.normalize(v as f64);
            prop_assert_eq!(k.denormalize(u), v as f64);
        }

        #[test]
        fn prop_continuous_roundtrip(v in 0.0f64..=0.01) {
            let k = ParamKind::Continuous { lo: 0.0, hi: 0.01 };
            prop_assert!((k.denormalize(k.normalize(v)) - v).abs() < 1e-12);
        }

        #[test]
        fn prop_denormalize_monotone(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            for k in [
                ParamKind::Continuous { lo: -3.0, hi: 7.0 },
                ParamKind::Exponential { lo_exp: 5.0, hi_exp: 25.0 },
                ParamKind::Integer { lo: 0, hi: 50 },
            ] {
                prop_assert!(k.denormalize(lo) <= k.denormalize(hi));
            }
        }
    }
}
