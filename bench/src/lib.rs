//! Workload benchmark for the Duplexity simulator.
//!
//! Four named workloads run through the experiments' public APIs and report
//! host-time end-to-end metrics; a separate traced run wraps every call
//! the benchmark makes in a span and times each layer's public functions
//! on fixed inputs. See `bench/README.md` for the command, the workloads
//! and the metric tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod probes;
pub mod run;
pub mod spans;
pub mod workloads;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name, e.g. `cpu.ooo.smt4.mcycles_per_s`.
    pub name: String,
    /// Unit, e.g. `Mcycles/s`.
    pub unit: &'static str,
    /// `higher` or `lower`: the direction an improvement moves it.
    pub better: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        unit: &'static str,
        better: &'static str,
        value: f64,
    ) -> Self {
        Self {
            name: name.into(),
            unit,
            better,
            value,
        }
    }
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }
}
