//! Shared helpers for the Duplexity `report` and `bench` binaries.
//!
//! The [`report` binary](../report/index.html) regenerates every table and
//! figure of the paper, and the `bench` binary guards the CI ratios. This
//! crate holds the fidelity presets they share and their command-line
//! [`Flags`] parser. The per-layer timings live in the separate `bench/`
//! package, and the design ablations in `examples/ablation.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use duplexity::experiments::cluster_sweep::ClusterSweepOptions;
use duplexity::experiments::fault_sweep::FaultSweepOptions;
use duplexity::experiments::fig5::Fig5Options;
use duplexity::experiments::hedge_sweep::HedgeSweepOptions;
use duplexity::experiments::rack_sweep::RackSweepOptions;
use duplexity::experiments::timeline::TimelineOptions;
use duplexity::{BalancerPolicy, RackPlan};
use duplexity_queueing::des::Mg1Options;

/// Fidelity presets for regenerating the figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Bench-sized: a representative sub-grid, small horizons.
    Bench,
    /// Quick report: full grid, reduced horizons.
    Quick,
    /// Full report: the paper's grid at full horizons.
    Full,
}

impl Fidelity {
    /// Cycle-simulation horizon per Figure 5 cell.
    #[must_use]
    pub fn horizon_cycles(self) -> u64 {
        match self {
            Fidelity::Bench => 800_000,
            Fidelity::Quick => 2_500_000,
            Fidelity::Full => 6_000_000,
        }
    }

    /// The Figure 5 grid at this fidelity.
    #[must_use]
    pub fn fig5_options(self, seed: u64) -> Fig5Options {
        let mut opts = Fig5Options {
            horizon_cycles: self.horizon_cycles(),
            seed,
            ..Fig5Options::default()
        };
        match self {
            Fidelity::Bench => {
                opts.workloads = vec![duplexity::Workload::McRouter];
                opts.loads = vec![0.5];
                opts.queue = Mg1Options {
                    max_samples: 120_000,
                    warmup: 1_000,
                    ..Mg1Options::default()
                };
            }
            Fidelity::Quick => {
                opts.queue = Mg1Options {
                    max_samples: 400_000,
                    ..Mg1Options::default()
                };
            }
            Fidelity::Full => {}
        }
        opts
    }

    /// Sets `queue` to the request-sweep queue at this fidelity: 60 000
    /// samples for Bench and 120 000 for Quick, both after 1 000 warm-up
    /// samples. Full keeps the driver's default.
    fn sweep_queue(self, queue: &mut Mg1Options) {
        let max_samples = match self {
            Fidelity::Bench => 60_000,
            Fidelity::Quick => 120_000,
            Fidelity::Full => return,
        };
        *queue = Mg1Options {
            max_samples,
            warmup: 1_000,
            ..Mg1Options::default()
        };
    }

    /// The fault-policy sweep grid at this fidelity (the `--faults`
    /// artifact).
    #[must_use]
    pub fn fault_sweep_options(self, seed: u64) -> FaultSweepOptions {
        let mut opts = FaultSweepOptions {
            seed,
            ..FaultSweepOptions::default()
        };
        self.sweep_queue(&mut opts.queue);
        if self == Fidelity::Bench {
            opts.loads = vec![0.5];
        }
        opts
    }

    /// The cluster balancing sweep grid at this fidelity (the `--cluster`
    /// artifact).
    #[must_use]
    pub fn cluster_sweep_options(self, seed: u64) -> ClusterSweepOptions {
        let mut opts = ClusterSweepOptions {
            seed,
            calibration_cycles: self.horizon_cycles(),
            ..ClusterSweepOptions::default()
        };
        self.sweep_queue(&mut opts.queue);
        if self == Fidelity::Bench {
            opts.designs = vec![duplexity::Design::Baseline];
            opts.policies = vec![BalancerPolicy::Random, BalancerPolicy::Jsq];
            opts.server_counts = vec![4];
            opts.loads = vec![0.5];
        }
        opts
    }

    /// The duplication/hedging sweep grid at this fidelity (the `--hedge`
    /// artifact). Bench trims to one policy and loads the eager no-purge
    /// plan still survives; Full keeps the default grid, whose no-purge
    /// cells saturate by design (the report renders them as `sat`).
    #[must_use]
    pub fn hedge_sweep_options(self, seed: u64) -> HedgeSweepOptions {
        let mut opts = HedgeSweepOptions {
            seed,
            ..HedgeSweepOptions::default()
        };
        self.sweep_queue(&mut opts.queue);
        match self {
            Fidelity::Bench => {
                opts.policies = vec![BalancerPolicy::Jsq];
                opts.server_counts = vec![4];
                opts.loads = vec![0.4];
            }
            Fidelity::Quick => opts.loads = vec![0.25, 0.4],
            Fidelity::Full => {}
        }
        opts
    }

    /// The two-level rack sweep grid at this fidelity (the `--rack`
    /// artifact). Bench trims to one design, one policy, and the plans
    /// that carry the story (fresh, stale, stale-with-stealing,
    /// distributed-stale); every preset keeps the fresh plan as the
    /// cluster-equivalent anchor.
    #[must_use]
    pub fn rack_sweep_options(self, seed: u64) -> RackSweepOptions {
        let mut opts = RackSweepOptions {
            seed,
            calibration_cycles: self.horizon_cycles(),
            ..RackSweepOptions::default()
        };
        self.sweep_queue(&mut opts.queue);
        if self == Fidelity::Bench {
            opts.designs = vec![duplexity::Design::Baseline];
            opts.policies = vec![BalancerPolicy::Jsq];
            opts.plans = vec![
                RackPlan::fresh(),
                RackPlan::fresh().with_delta(32.0),
                RackPlan::fresh().with_delta(8.0).with_steal(2),
                RackPlan::fresh()
                    .with_delta(8.0)
                    .distributed(4)
                    .with_tenants(64, 0.99),
            ];
            opts.server_counts = vec![4];
            opts.loads = vec![0.5];
        }
        opts
    }

    /// The request-domain timeline at this fidelity (the `--timeseries`
    /// artifact): event-clock gauge series plus the DES self-profile.
    #[must_use]
    pub fn timeline_options(self, seed: u64) -> TimelineOptions {
        let mut opts = TimelineOptions {
            seed,
            ..TimelineOptions::default()
        };
        self.sweep_queue(&mut opts.queue);
        if self == Fidelity::Bench {
            opts.servers = 4;
            opts.loads = vec![0.4];
        }
        opts
    }

    /// SMT-sweep horizon for Figures 1(c) and 2(a).
    #[must_use]
    pub fn sweep_horizon_cycles(self) -> u64 {
        match self {
            Fidelity::Bench => 300_000,
            Fidelity::Quick => 800_000,
            Fidelity::Full => 2_000_000,
        }
    }
}

/// The flags one binary was given, checked against the flags it accepts.
#[derive(Debug)]
pub struct Flags {
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parses `args`: each is one of `switches`, or one of `valued`
    /// followed by its value (an argument not starting with `--`). The
    /// error names the first unknown flag or the valued flag missing its
    /// value.
    fn parse(
        args: impl IntoIterator<Item = String>,
        switches: &[&str],
        valued: &[&str],
    ) -> Result<Flags, String> {
        let mut args = args.into_iter().peekable();
        let mut given = Vec::new();
        while let Some(flag) = args.next() {
            let value = if valued.contains(&flag.as_str()) {
                let value = args.next_if(|v| !v.starts_with("--"));
                Some(value.ok_or_else(|| format!("{flag} needs a value"))?)
            } else if switches.contains(&flag.as_str()) {
                None
            } else {
                return Err(format!("unknown flag {flag}"));
            };
            given.push((flag, value));
        }
        Ok(Flags { given })
    }

    /// Reads the process arguments: each is one of `switches`, or one of
    /// `valued` followed by its value. On an unknown flag, a missing value
    /// or an argument that is not UTF-8, prints the error and exits with
    /// status 2.
    #[must_use]
    pub fn from_env(switches: &[&str], valued: &[&str]) -> Flags {
        let args = std::env::args_os().skip(1).map(|arg| {
            arg.into_string().unwrap_or_else(|arg| {
                usage_error(&format!(
                    "argument {:?} is not UTF-8",
                    arg.to_string_lossy()
                ))
            })
        });
        Flags::parse(args, switches, valued).unwrap_or_else(|e| usage_error(&e))
    }

    /// Whether `flag` was given.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// The value given after `flag`, if `flag` was given.
    #[must_use]
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given.iter().find(|(f, _)| f == flag)?.1.as_deref()
    }

    /// The value after `flag` parsed as a `T`, or `default` when `flag` was
    /// not given. Exits with status 2, naming the flag, when the value
    /// does not parse.
    #[must_use]
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        self.value(flag).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| usage_error(&format!("{flag} {v:?} is not a valid value")))
        })
    }
}

/// Prints a command-line error and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        let args = args.iter().map(|a| a.to_string());
        Flags::parse(args, &["--quick", "--all"], &["--seed", "--json"])
    }

    #[test]
    fn flags_read_switches_and_values() {
        let f = parse(&["--quick", "--seed", "7", "--json", "out"]).expect("valid flags");
        assert!(f.has("--quick") && f.has("--seed") && !f.has("--all"));
        assert_eq!(f.value("--json"), Some("out"));
        assert_eq!(f.parsed("--seed", 42u64), 7);
        assert_eq!(f.parsed("--threads", 3usize), 3);
    }

    #[test]
    fn flags_reject_unknown_flags_and_missing_values() {
        let err = parse(&["--quick", "--qiuck"]).expect_err("typo");
        assert_eq!(err, "unknown flag --qiuck");
        let err = parse(&["--seed"]).expect_err("trailing flag");
        assert_eq!(err, "--seed needs a value");
        let err = parse(&["--json", "--all"]).expect_err("flag as a value");
        assert_eq!(err, "--json needs a value");
        assert!(parse(&["7"]).is_err(), "a bare value is not a flag");
    }

    #[test]
    fn presets_are_ordered() {
        assert!(Fidelity::Bench.horizon_cycles() < Fidelity::Quick.horizon_cycles());
        assert!(Fidelity::Quick.horizon_cycles() < Fidelity::Full.horizon_cycles());
        assert_eq!(Fidelity::Bench.fig5_options(1).workloads.len(), 1);
        assert_eq!(Fidelity::Full.fig5_options(1).workloads.len(), 5);
    }

    #[test]
    fn fault_sweep_presets_scale_with_fidelity() {
        assert_eq!(Fidelity::Bench.fault_sweep_options(1).loads, vec![0.5]);
        assert!(
            Fidelity::Bench.fault_sweep_options(1).queue.max_samples
                < Fidelity::Full.fault_sweep_options(1).queue.max_samples
        );
        assert_eq!(Fidelity::Full.fault_sweep_options(7).seed, 7);
    }

    #[test]
    fn cluster_sweep_presets_scale_with_fidelity() {
        let bench = Fidelity::Bench.cluster_sweep_options(1);
        assert_eq!(bench.server_counts, vec![4]);
        assert_eq!(bench.loads, vec![0.5]);
        assert!(
            bench.queue.max_samples < Fidelity::Full.cluster_sweep_options(1).queue.max_samples
        );
        assert_eq!(Fidelity::Full.cluster_sweep_options(9).seed, 9);
    }

    #[test]
    fn hedge_sweep_presets_scale_with_fidelity() {
        let bench = Fidelity::Bench.hedge_sweep_options(1);
        assert_eq!(bench.server_counts, vec![4]);
        assert_eq!(bench.loads, vec![0.4]);
        assert!(bench.queue.max_samples < Fidelity::Full.hedge_sweep_options(1).queue.max_samples);
        // Every preset keeps the zero-duplication origin of the frontier.
        for f in [Fidelity::Bench, Fidelity::Quick, Fidelity::Full] {
            assert!(f
                .hedge_sweep_options(1)
                .plans
                .iter()
                .any(|p| p.label() == "none"));
        }
        assert_eq!(Fidelity::Full.hedge_sweep_options(9).seed, 9);
    }

    #[test]
    fn rack_sweep_presets_scale_with_fidelity() {
        let bench = Fidelity::Bench.rack_sweep_options(1);
        assert_eq!(bench.server_counts, vec![4]);
        assert_eq!(bench.loads, vec![0.5]);
        assert!(bench.queue.max_samples < Fidelity::Full.rack_sweep_options(1).queue.max_samples);
        // Every preset keeps the fresh plan: the cluster-equivalent anchor
        // every staleness/steal variant is compared against.
        for f in [Fidelity::Bench, Fidelity::Quick, Fidelity::Full] {
            assert!(f
                .rack_sweep_options(1)
                .plans
                .iter()
                .any(|p| p.label() == "central"));
        }
        assert_eq!(Fidelity::Full.rack_sweep_options(9).seed, 9);
    }
}
