//! OS-level virtual-context provisioning (§IV "Scheduling").
//!
//! The paper leaves context provisioning to software: "The OS must select
//! how many virtual (filler) contexts to activate in a dyad. One option is
//! to simply over-provision, but this may lead to long scheduling delays
//! for ready virtual contexts." [`recommend_contexts`] is the
//! *model-driven* sizing of Figure 2(b): from a measured per-thread stall
//! fraction, pick the smallest `n` with `P(ready ≥ physical) ≥ target`
//! under `Binomial(n, 1-p)`.

use duplexity_stats::binomial::required_virtual_contexts;
use serde::{Deserialize, Serialize};

/// Provisioning targets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProvisionerConfig {
    /// Physical contexts to keep fed (8 per core; 16 across a dyad whose
    /// master is mostly morphed).
    pub physical: u32,
    /// Required probability that `physical` contexts are ready.
    pub target_occupancy: f64,
    /// Hard cap on virtual contexts (register-backing-store budget).
    pub max_contexts: u32,
}

impl Default for ProvisionerConfig {
    fn default() -> Self {
        Self {
            physical: 8,
            target_occupancy: 0.9,
            max_contexts: 64,
        }
    }
}

/// Model-driven sizing: the smallest context count that keeps the physical
/// contexts fed, given the measured per-thread stall fraction.
///
/// Falls back to `cfg.max_contexts` when the target is unreachable (threads
/// stalled so often that no affordable pool suffices).
///
/// # Examples
///
/// ```
/// use duplexity::scheduler::{recommend_contexts, ProvisionerConfig};
///
/// let cfg = ProvisionerConfig::default();
/// // §IV: ~50%-stalled batch threads need 21 contexts for one core.
/// assert_eq!(recommend_contexts(0.5, &cfg), 21);
/// ```
#[must_use]
pub fn recommend_contexts(stall_fraction: f64, cfg: &ProvisionerConfig) -> u32 {
    let p = stall_fraction.clamp(0.0, 0.999);
    required_virtual_contexts(cfg.physical, p, cfg.target_occupancy, cfg.max_contexts)
        .unwrap_or(cfg.max_contexts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_driven_matches_paper_anchors() {
        let cfg = ProvisionerConfig::default();
        // §IV: "If only batch threads incur µs-scale stalls ... 21 threads
        // are sufficient to occupy the lender-core."
        assert_eq!(recommend_contexts(0.5, &cfg), 21);
        // Light stalls need barely more than the physical contexts.
        assert!(recommend_contexts(0.05, &cfg) <= 10);
        // Hopeless stall fractions clamp to the budget.
        assert_eq!(recommend_contexts(0.99, &cfg), cfg.max_contexts);
    }

    #[test]
    fn recommendation_monotone_in_stall_fraction() {
        let cfg = ProvisionerConfig::default();
        let mut prev = 0;
        for p in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7] {
            let n = recommend_contexts(p, &cfg);
            assert!(n >= prev, "p={p}: {n} < {prev}");
            prev = n;
        }
    }
}
