//! Plain-text rendering of experiment results, in the same rows/series the
//! paper's figures report.

use crate::experiments::cluster_sweep::ClusterSweepPoint;
use crate::experiments::fault_sweep::FaultSweepPoint;
use crate::experiments::fig1::{Fig1bSeries, Fig1cPoint, FlannVariant};
use crate::experiments::fig2::{Fig2aPoint, Fig2bPoint};
use crate::experiments::fig5::Fig5Cell;
use crate::experiments::fig6::Fig6Cell;
use crate::experiments::hedge_sweep::HedgeSweepPoint;
use crate::experiments::rack_sweep::RackSweepPoint;
use crate::experiments::timeline::Timeline;
use duplexity_cpu::designs::Design;
use duplexity_queueing::closed_loop::SurfaceCell;
use std::fmt::Write as _;

/// Formats a normalized value, marking saturated queues.
fn norm(v: f64) -> String {
    if v.is_finite() {
        format!("{v:>7.3}")
    } else {
        "    sat".to_string()
    }
}

/// The distinct values of `items`, in first-seen order.
fn distinct<T: PartialEq>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut seen = Vec::new();
    for item in items {
        if !seen.contains(&item) {
            seen.push(item);
        }
    }
    seen
}

/// `points` grouped by `key`: the groups in first-seen order, each with
/// its points in their original order.
fn group_by<'a, P, K: PartialEq>(
    points: impl Iterator<Item = &'a P> + Clone,
    key: impl Fn(&'a P) -> K,
) -> Vec<(K, Vec<&'a P>)> {
    distinct(points.clone().map(&key))
        .into_iter()
        .map(|k| {
            let group = points.clone().filter(|&p| key(p) == k).collect();
            (k, group)
        })
        .collect()
}

/// Renders the Figure 1(a) surface as a sparse grid (one row per stall
/// duration).
#[must_use]
pub fn render_fig1a(cells: &[SurfaceCell]) -> String {
    let mut out = String::from("Fig 1(a): utilization vs (stall µs, compute µs)\n");
    let mut row_key = f64::NAN;
    for c in cells {
        if c.stall_us != row_key {
            row_key = c.stall_us;
            let _ = write!(out, "\nstall {:>8.2}µs |", c.stall_us);
        }
        let _ = write!(out, " {:>4.2}", c.utilization);
    }
    out.push('\n');
    out
}

/// Renders the Figure 1(b) idle-period CDFs at a few probe durations.
#[must_use]
pub fn render_fig1b(series: &[Fig1bSeries]) -> String {
    let probes = [1.0, 2.0, 5.0, 10.0, 20.0, 40.0];
    let mut out = String::from("Fig 1(b): P(idle <= t)\n");
    let _ = writeln!(
        out,
        "{:<22} {}",
        "series",
        probes
            .iter()
            .map(|p| format!("{p:>7.0}µs"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for s in series {
        let name = format!("{}K QPS @ {:.0}%", (s.qps / 1000.0) as u64, s.load * 100.0);
        let vals: Vec<String> = probes
            .iter()
            .map(|&p| {
                let v = s
                    .cdf
                    .iter()
                    .min_by(|a, b| {
                        (a.0 - p)
                            .abs()
                            .partial_cmp(&(b.0 - p).abs())
                            .expect("finite")
                    })
                    .map_or(0.0, |x| x.1);
                format!("{v:>9.3}")
            })
            .collect();
        let _ = writeln!(out, "{name:<22} {}", vals.join(" "));
    }
    out
}

/// Renders Figure 1(c) as one series per FLANN variant.
#[must_use]
pub fn render_fig1c(points: &[Fig1cPoint]) -> String {
    let mut out = String::from("Fig 1(c): normalized throughput vs SMT threads\n");
    for variant in FlannVariant::ALL {
        let series: Vec<&Fig1cPoint> = points.iter().filter(|p| p.variant == variant).collect();
        if series.is_empty() {
            continue;
        }
        let _ = write!(out, "{:<12}", variant.name());
        for p in &series {
            let _ = write!(out, " {:>5.2}", p.normalized);
        }
        out.push('\n');
    }
    out
}

/// Renders Figure 2(a).
#[must_use]
pub fn render_fig2a(points: &[Fig2aPoint]) -> String {
    let mut out = String::from("Fig 2(a): threads | OoO IPC | InO IPC | InO/OoO\n");
    for p in points {
        let _ = writeln!(
            out,
            "{:>7} | {:>7.2} | {:>7.2} | {:>7.2}",
            p.threads,
            p.ooo_ipc,
            p.ino_ipc,
            p.ino_over_ooo()
        );
    }
    out
}

/// Renders Figure 2(b) as two series.
#[must_use]
pub fn render_fig2b(points: &[Fig2bPoint]) -> String {
    let mut out = String::from("Fig 2(b): P(>=8 ready) vs virtual contexts\n");
    for stall in [0.1, 0.5] {
        let _ = write!(out, "p_stall={stall:<4}");
        for p in points.iter().filter(|p| p.stall_p == stall) {
            let _ = write!(out, " {:>4.2}", p.p_ready);
        }
        out.push('\n');
    }
    out
}

/// Renders one Figure 5 sub-figure as a design × (workload, load) matrix.
///
/// `metric` selects the value; `label` names the sub-figure.
#[must_use]
pub fn render_fig5_matrix(
    cells: &[Fig5Cell],
    label: &str,
    metric: impl Fn(&Fig5Cell) -> f64,
) -> String {
    let mut out = format!("{label}\n");
    let columns = distinct(cells.iter().map(|c| (c.workload, c.load)));
    let _ = write!(out, "{:<15}", "design");
    for (workload, load) in &columns {
        let key = format!("{}@{:.0}%", workload.name(), load * 100.0);
        let _ = write!(out, " {key:>15}");
    }
    out.push('\n');
    for design in Design::ALL_WITH_EXTENSIONS {
        let rows: Vec<&Fig5Cell> = cells.iter().filter(|c| c.design == design).collect();
        if rows.is_empty() {
            continue;
        }
        let _ = write!(out, "{:<15}", design.name());
        for (workload, load) in &columns {
            let v = rows
                .iter()
                .find(|c| c.load == *load && c.workload == *workload)
                .map_or(f64::NAN, |c| metric(c));
            let _ = write!(out, " {:>15}", norm(v));
        }
        out.push('\n');
    }
    out
}

/// Renders a per-component power breakdown for each design at a nominal
/// operating point (the `report --power` artifact).
#[must_use]
pub fn render_power_breakdown(ipc: f64) -> String {
    use duplexity_power::{component_power, core_kind_for};
    let mut out = format!(
        "Per-component power at IPC {ipc:.1} (W, static+dynamic)
"
    );
    for design in Design::ALL {
        let kind = core_kind_for(design);
        let parts = component_power(kind, ipc, design.clock_ghz(), 0.0);
        let total: f64 = parts.iter().map(|p| p.total_w()).sum();
        let _ = writeln!(
            out,
            "
{} ({total:.2} W total):",
            design.name()
        );
        for p in parts {
            let _ = writeln!(
                out,
                "  {:<34} {:>5.2} W  ({:>4.2} static + {:>4.2} dynamic)",
                p.name,
                p.total_w(),
                p.static_w,
                p.dynamic_w
            );
        }
    }
    out
}

/// Writes one block of a per-load p99 table: a header of `head.0`, a
/// `p99@L%` column per load and `head.1`, then one line per `(name,
/// points, tail)` row: its name cells, its p99 per load from its `(load,
/// p99)` points (`sat` where it has none at that load), and its trailing
/// cells.
fn write_p99_block(
    out: &mut String,
    loads: &[f64],
    head: &(String, String),
    rows: impl IntoIterator<Item = (String, Vec<(f64, f64)>, String)>,
) {
    out.push_str(&head.0);
    for l in loads {
        let _ = write!(out, " {:>9}", format!("p99@{:.0}%", l * 100.0));
    }
    let _ = writeln!(out, "{}", head.1);
    for (name, p99s, tail) in rows {
        out.push_str(&name);
        for l in loads {
            let v = p99s.iter().find(|c| c.0 == *l).map_or(f64::NAN, |c| c.1);
            let _ = write!(out, " {:>9}", norm(v));
        }
        let _ = writeln!(out, "{tail}");
    }
}

/// Renders the fault-policy sweep: one row per policy with per-load p99
/// columns, then the policy's fault-activity counters.
#[must_use]
pub fn render_fault_sweep(points: &[FaultSweepPoint]) -> String {
    let mut out = String::from("Fault sweep: p99 sojourn (µs) per policy and load\n");
    let loads = distinct(points.iter().map(|p| p.load));
    let rows = group_by(points.iter(), |p| p.policy.as_str())
        .into_iter()
        .map(|(name, row)| {
            // Fault activity is load-independent up to sampling noise; report
            // the highest stable load's counters.
            let tail = match row.iter().rev().find(|p| !p.saturated) {
                Some(p) => format!(
                    " {:>9.3} {:>9.3} {:>9.4}",
                    p.mean_attempts, p.drop_rate, p.fail_rate
                ),
                None => format!(" {:>9} {:>9} {:>9}", "sat", "sat", "sat"),
            };
            (
                format!("{name:<14}"),
                row.iter().map(|p| (p.load, p.p99_us)).collect(),
                tail,
            )
        });
    let head = (
        format!("{:<14}", "policy"),
        format!(" {:>9} {:>9} {:>9}", "attempts", "drop", "fail"),
    );
    write_p99_block(&mut out, &loads, &head, rows);
    out
}

/// Renders the cluster balancing sweep: one design × cluster-size block,
/// one row per policy, per-load p99 columns plus the mean per-server
/// utilization at the highest stable load.
#[must_use]
pub fn render_cluster_sweep(points: &[ClusterSweepPoint]) -> String {
    let mut out =
        String::from("Cluster sweep: p99 sojourn (µs) per policy, design, and farm size\n");
    let loads = distinct(points.iter().map(|p| p.load));
    let head = (format!("{:<14}", "policy"), format!(" {:>9}", "util"));
    for ((design, servers), block) in group_by(points.iter(), |p| (p.design, p.servers)) {
        let _ = writeln!(out, "\n{} × {servers} servers", design.name());
        let rows = group_by(block.into_iter(), |p| p.policy.as_str())
            .into_iter()
            .map(|(name, row)| {
                let tail = match row.iter().rev().find(|p| !p.saturated) {
                    Some(p) => format!(" {:>9.3}", p.utilization),
                    None => format!(" {:>9}", "sat"),
                };
                (
                    format!("{name:<14}"),
                    row.iter().map(|p| (p.load, p.p99_us)).collect(),
                    tail,
                )
            });
        write_p99_block(&mut out, &loads, &head, rows);
    }
    out
}

/// Renders the two-level rack sweep: one design × cluster-size block, one
/// row per (policy, plan) — the centralized-vs-distributed comparison at
/// each staleness Δ — with per-load p99 columns plus the mean wait and
/// steal count at the highest stable load. Rows group by policy and walk
/// the plan axis in grid order, so each policy reads as a tail-vs-Δ
/// series with the distributed and stealing variants alongside.
#[must_use]
pub fn render_rack_sweep(points: &[RackSweepPoint]) -> String {
    let mut out = String::from(
        "Rack sweep: p99 sojourn (µs) per plan (coordination × staleness × steal), policy, and farm size\n",
    );
    let loads = distinct(points.iter().map(|p| p.load));
    let head = (
        format!("{:<14} {:<16}", "policy", "plan"),
        format!(" {:>9} {:>7}", "wait", "steals"),
    );
    for ((design, servers), block) in group_by(points.iter(), |p| (p.design, p.servers)) {
        let _ = writeln!(out, "\n{} × {servers} servers", design.name());
        let rows = group_by(block.into_iter(), |p| (p.policy.as_str(), p.plan.as_str()))
            .into_iter()
            .map(|((policy, plan), row)| {
                let tail = match row.iter().rev().find(|p| !p.saturated) {
                    Some(p) => format!(" {:>9.3} {:>7}", p.mean_wait_us, p.steals),
                    None => format!(" {:>9} {:>7}", "sat", "-"),
                };
                (
                    format!("{policy:<14} {plan:<16}"),
                    row.iter().map(|p| (p.load, p.p99_us)).collect(),
                    tail,
                )
            });
        write_p99_block(&mut out, &loads, &head, rows);
    }
    out
}

/// Renders the duplication/hedging sweep: one policy × cluster-size block,
/// one row per duplication plan, per-load p99 columns, plus the frontier
/// columns at the highest load every plan in the block survives: the added
/// per-server utilization the plan buys its tail cut with, and the tail
/// microseconds saved per percentage point of added load (`Δp99/+1%u`,
/// `-` for the zero-duplication origin of the frontier).
#[must_use]
pub fn render_hedge_sweep(points: &[HedgeSweepPoint]) -> String {
    let mut out =
        String::from("Hedge sweep: p99 sojourn (µs) per duplication plan, policy, and farm size\n");
    let loads = distinct(points.iter().map(|p| p.load));
    let head = (
        format!("{:<14}", "plan"),
        format!(" {:>9} {:>9}", "+util", "Δp99/+1%u"),
    );
    for ((policy, servers), block) in group_by(points.iter(), |p| (p.policy.as_str(), p.servers)) {
        let _ = writeln!(out, "\n{policy} × {servers} servers");
        // The frontier is evaluated at the highest load where *every* plan
        // in the block is stable, so the added-load comparison is paired.
        let frontier_load = loads
            .iter()
            .rev()
            .find(|&&l| block.iter().filter(|p| p.load == l).all(|p| !p.saturated))
            .copied();
        let baseline = frontier_load.and_then(|l| {
            block
                .iter()
                .find(|p| p.load == l && p.plan == "none")
                .map(|p| p.p99_us)
        });
        let rows = group_by(block.into_iter(), |p| p.plan.as_str())
            .into_iter()
            .map(|(plan, row)| {
                let tail = match frontier_load.and_then(|l| row.iter().find(|p| p.load == l)) {
                    Some(p) => match baseline {
                        Some(base) if p.added_utilization > 0.0 => format!(
                            " {:>9.4} {:>9.3}",
                            p.added_utilization,
                            (base - p.p99_us) / (p.added_utilization * 100.0)
                        ),
                        _ => format!(" {:>9.4} {:>9}", p.added_utilization, "-"),
                    },
                    None => format!(" {:>9} {:>9}", "sat", "sat"),
                };
                (
                    format!("{plan:<14}"),
                    row.iter().map(|p| (p.load, p.p99_us)).collect(),
                    tail,
                )
            });
        write_p99_block(&mut out, &loads, &head, rows);
    }
    out
}

/// Renders Figure 6.
#[must_use]
pub fn render_fig6(cells: &[Fig6Cell]) -> String {
    let mut out = String::from("Fig 6: NIC IOPS utilization per dyad\n");
    for c in cells {
        let _ = writeln!(
            out,
            "{:<15} {:<10} @{:>3.0}% : {:>6.2}% of FDR ({:>6.2}M ops/s)",
            c.design.name(),
            c.workload.name(),
            c.load * 100.0,
            c.nic_utilization * 100.0,
            c.ops_per_second / 1e6
        );
    }
    out
}

/// Renders the request-domain timeline: per-load endpoint summaries, the
/// DES self-profile counters, and one ASCII sparkline per gauge series
/// (bin means normalized to the series maximum mean, downsampled to at
/// most 64 columns by averaging runs of bins). Purely a view over the
/// deterministic artifact — no wall-clock data, no RNG.
#[must_use]
pub fn render_timeline(t: &Timeline) -> String {
    const LEVELS: &[u8] = b" .:-=+*#%@";
    const WIDTH: usize = 64;
    let mut out = String::from("Timeline: event-clock gauges and DES self-profile\n");
    let _ = writeln!(out, "bin width: {} us", t.bin_us);
    for c in &t.cells {
        let _ = writeln!(
            out,
            "load {:>5.2}: {:>8} samples, p99 {} us (sketch {} us)",
            c.load,
            c.samples,
            norm(c.p99_us).trim(),
            norm(c.sketch_p99_us).trim(),
        );
    }
    let mut profiled = false;
    for (name, v) in t.registry.counters() {
        if name.contains("/cluster/eventq/") || name.contains("/cluster/events/") {
            if !profiled {
                out.push_str("\nevent-core profile:\n");
                profiled = true;
            }
            let _ = writeln!(out, "  {name:<52} {v:>12}");
        }
    }
    out.push_str("\ngauges (bin means, normalized per series):\n");
    for (name, series) in t.series.series() {
        let bins = series.bins();
        // Downsample to at most WIDTH columns: each column averages the
        // means of its (non-empty) bins.
        let cols = bins.len().clamp(1, WIDTH);
        let mut col_mean = vec![0.0f64; cols];
        let mut col_n = vec![0u64; cols];
        for (i, b) in bins.iter().enumerate() {
            if b.count > 0 {
                let c = i * cols / bins.len();
                col_mean[c] += b.mean();
                col_n[c] += 1;
            }
        }
        let mut peak = 0.0f64;
        for (m, &k) in col_mean.iter_mut().zip(&col_n) {
            if k > 0 {
                *m /= k as f64;
                peak = peak.max(*m);
            }
        }
        let spark: String = col_mean
            .iter()
            .zip(&col_n)
            .map(|(&m, &k)| {
                if k == 0 || peak <= 0.0 {
                    ' '
                } else {
                    let lvl = (m / peak * (LEVELS.len() - 1) as f64).round() as usize;
                    LEVELS[lvl.min(LEVELS.len() - 1)] as char
                }
            })
            .collect();
        let _ = writeln!(
            out,
            "  {name:<44} |{spark}| peak {:.3} ({} samples)",
            peak,
            series.samples(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{fig1, fig2};

    #[test]
    fn fig1a_rendering_contains_rows() {
        let s = render_fig1a(&fig1::fig1a(1));
        assert!(s.contains("stall"));
        assert!(s.lines().count() > 4);
    }

    #[test]
    fn fig1b_rendering_lists_six_series() {
        let s = render_fig1b(&fig1::fig1b(40));
        assert_eq!(s.lines().filter(|l| l.contains("QPS")).count(), 6);
    }

    #[test]
    fn fig2b_rendering_has_two_series() {
        let s = render_fig2b(&fig2::fig2b(16));
        assert!(s.contains("p_stall=0.1"));
        assert!(s.contains("p_stall=0.5"));
    }

    #[test]
    fn fault_sweep_rendering_has_one_row_per_policy() {
        let points = vec![
            FaultSweepPoint {
                policy: "none".to_string(),
                load: 0.3,
                p50_us: 5.0,
                p99_us: 20.0,
                mean_us: 7.0,
                mean_attempts: 1.0,
                drop_rate: 0.0,
                fail_rate: 0.0,
                saturated: false,
            },
            FaultSweepPoint {
                policy: "drop-retry".to_string(),
                load: 0.3,
                p50_us: 6.0,
                p99_us: 40.0,
                mean_us: 9.0,
                mean_attempts: 1.05,
                drop_rate: 0.05,
                fail_rate: 0.0001,
                saturated: false,
            },
        ];
        let s = render_fault_sweep(&points);
        assert!(s.contains("p99@30%"), "{s}");
        assert!(s.lines().any(|l| l.starts_with("none")), "{s}");
        assert!(s.lines().any(|l| l.starts_with("drop-retry")), "{s}");
        assert!(s.contains("1.050"), "{s}");
    }

    #[test]
    fn cluster_sweep_rendering_groups_by_design_and_size() {
        let mk = |policy: &str, load: f64, p99: f64, saturated: bool| ClusterSweepPoint {
            design: Design::Baseline,
            policy: policy.to_string(),
            servers: 4,
            load,
            p99_us: p99,
            p50_us: p99 / 4.0,
            mean_us: p99 / 3.0,
            mean_wait_us: p99 / 8.0,
            utilization: if saturated { 1.0 } else { load },
            samples: if saturated { 0 } else { 1000 },
            converged: !saturated,
            saturated,
        };
        let points = vec![
            mk("random", 0.3, 40.0, false),
            mk("random", 0.9, f64::INFINITY, true),
            mk("jsq", 0.3, 25.0, false),
            mk("jsq", 0.9, 60.0, false),
        ];
        let s = render_cluster_sweep(&points);
        assert!(s.contains("Baseline × 4 servers"), "{s}");
        assert!(s.contains("p99@30%") && s.contains("p99@90%"), "{s}");
        assert!(
            s.lines()
                .any(|l| l.starts_with("random") && l.contains("sat")),
            "{s}"
        );
        assert!(
            s.lines()
                .any(|l| l.starts_with("jsq") && l.contains("60.000")),
            "{s}"
        );
    }

    #[test]
    fn rack_sweep_rendering_compares_plans_within_a_policy() {
        let mk = |plan: &str, coord: &str, delta: f64, load: f64, p99: f64, steals: u64| {
            RackSweepPoint {
                design: Design::Baseline,
                policy: "jsq".to_string(),
                plan: plan.to_string(),
                coordination: coord.to_string(),
                delta_us: delta,
                servers: 8,
                load,
                p99_us: p99,
                p50_us: p99 / 4.0,
                mean_us: p99 / 3.0,
                mean_wait_us: p99 / 8.0,
                hot_p99_us: p99 * 1.1,
                utilization: load,
                steals,
                steals_empty: 0,
                samples: 1000,
                converged: true,
                saturated: false,
            }
        };
        let points = vec![
            mk("central", "central", 0.0, 0.5, 14.0, 0),
            mk("central", "central", 0.0, 0.7, 18.0, 0),
            mk("central_d8", "central", 8.0, 0.5, 15.0, 0),
            mk("central_d8", "central", 8.0, 0.7, 20.0, 0),
            mk("dist4_d8_z0.99", "dist4", 8.0, 0.5, 24.0, 0),
            mk("dist4_d8_z0.99", "dist4", 8.0, 0.7, 33.0, 0),
            mk("central_d8_st2", "central", 8.0, 0.5, 14.5, 321),
            mk("central_d8_st2", "central", 8.0, 0.7, 19.0, 640),
        ];
        let s = render_rack_sweep(&points);
        assert!(s.contains("Baseline × 8 servers"), "{s}");
        assert!(s.contains("p99@50%") && s.contains("p99@70%"), "{s}");
        // Centralized and distributed variants sit in the same block for
        // direct comparison, and steal counts surface per row.
        assert!(s.contains("central_d8"), "{s}");
        assert!(s.contains("dist4_d8_z0.99"), "{s}");
        assert!(
            s.lines()
                .any(|l| l.contains("central_d8_st2") && l.trim_end().ends_with("640")),
            "{s}"
        );
    }

    #[test]
    fn hedge_sweep_rendering_reports_the_paired_frontier() {
        let mk = |plan: &str, load: f64, p99: f64, added: f64, saturated: bool| HedgeSweepPoint {
            policy: "jsq".to_string(),
            plan: plan.to_string(),
            servers: 4,
            load,
            p99_us: p99,
            p50_us: p99 / 4.0,
            mean_us: p99 / 3.0,
            mean_wait_us: p99 / 8.0,
            dup_mean_wait_us: 0.0,
            utilization: if saturated { 1.0 } else { load + added },
            added_utilization: added,
            dup_copies: if plan == "none" { 0 } else { 500 },
            hedges_fired: 0,
            purged: 0,
            wasted_completions: 0,
            samples: if saturated { 0 } else { 1000 },
            converged: !saturated,
            saturated,
        };
        let points = vec![
            mk("none", 0.3, 40.0, 0.0, false),
            mk("none", 0.5, 60.0, 0.0, false),
            mk("dup2", 0.3, 25.0, 0.2, false),
            mk("dup2", 0.5, 30.0, 0.25, false),
            mk("dup2_np", 0.3, 26.0, 0.3, false),
            // dup2_np saturates at 0.5, so the paired frontier must fall
            // back to the 0.3 column for the whole block.
            mk("dup2_np", 0.5, f64::INFINITY, 0.0, true),
        ];
        let s = render_hedge_sweep(&points);
        assert!(s.contains("jsq × 4 servers"), "{s}");
        assert!(s.contains("p99@30%") && s.contains("p99@50%"), "{s}");
        // The origin plan shows no frontier slope.
        assert!(
            s.lines()
                .any(|l| l.starts_with("none") && l.trim_end().ends_with('-')),
            "{s}"
        );
        // Frontier @30%: dup2 saves (40-25)µs for 20% added load → 0.75.
        assert!(
            s.lines()
                .any(|l| l.starts_with("dup2 ") && l.contains("0.750")),
            "{s}"
        );
        assert!(
            s.lines()
                .any(|l| l.starts_with("dup2_np") && l.contains("sat")),
            "{s}"
        );
    }

    #[test]
    fn norm_marks_saturation() {
        assert_eq!(norm(f64::INFINITY), "    sat");
        assert!(norm(1.234).contains("1.234"));
    }

    #[test]
    fn timeline_rendering_shows_profile_and_sparklines() {
        use crate::experiments::timeline::{timeline, TimelineOptions};
        use duplexity_queueing::des::Mg1Options;
        let t = timeline(&TimelineOptions {
            servers: 4,
            loads: vec![0.4],
            queue: Mg1Options {
                max_samples: 5_000,
                warmup: 500,
                ..Mg1Options::default()
            },
            ..TimelineOptions::default()
        });
        let s = render_timeline(&t);
        assert_eq!(s, render_timeline(&t), "rendering must be deterministic");
        assert!(s.contains("event-core profile:"), "{s}");
        assert!(s.contains("cluster/eventq/pushes"), "{s}");
        assert!(s.contains("load0.4/cluster/busy_servers"), "{s}");
        // Sparkline bars exist and are bounded by the declared width.
        let bar = s
            .lines()
            .find(|l| l.contains("busy_servers"))
            .and_then(|l| {
                let a = l.find('|')?;
                let b = l.rfind('|')?;
                Some(&l[a + 1..b])
            })
            .expect("sparkline line");
        assert!(!bar.is_empty() && bar.len() <= 64, "{bar:?}");
    }
}
