//! Pins every `Fidelity` preset by the digest-of-digests over its cell
//! keys, so a refactor of the presets that moves any digested option (a
//! grid axis, a horizon, the request queue) fails here by driver and
//! fidelity. The keys digest every option that changes a cell's result,
//! and the digest-of-digests also covers grid membership and order. The
//! Bench hedge and rack grids must also exercise duplication and work
//! stealing, not just plain dispatch.

use duplexity::digest_of_digests;
use duplexity::experiments::{cluster_sweep, fault_sweep, fig5, hedge_sweep, rack_sweep, timeline};
use duplexity_bench::Fidelity;

const SEED: u64 = 42;

/// The drivers with a preset, in the order of each row of [`EXPECTED`].
const DRIVERS: [&str; 6] = [
    "fig5",
    "fault_sweep",
    "cluster_sweep",
    "hedge_sweep",
    "rack_sweep",
    "timeline",
];

/// Each fidelity's digest per driver, in [`DRIVERS`] order.
const EXPECTED: [(Fidelity, [&str; 6]); 3] = [
    (
        Fidelity::Bench,
        [
            "14199205280054faddcf488c42b67f79",
            "2fa1681e7c4a995af080001fa92c7c87",
            "b4cfe5fb73053274053854dfaa90b614",
            "867f908b3e03ece3506c1988a72a9c4d",
            "e38f2dbb1e7abb3a056899f4991aab54",
            "ec1e533b9042aedcae1ca8e4928e2cb5",
        ],
    ),
    (
        Fidelity::Quick,
        [
            "ddbdc9bc01d7261725b3d489f5955717",
            "35e3b7d09bd19ce143e723a6163b285b",
            "1873cb171252591d398c19e55e550005",
            "c68e33f8bbe75effcb37d7885b15a4a8",
            "4a20893c3add46635bfe744d3cfc841e",
            "7cfe2aed176e4cc92f8808aeabe97a99",
        ],
    ),
    (
        Fidelity::Full,
        [
            "2e333975d822be1f80aeeea2d02f6643",
            "2103455c712f63a21dbc11d2ebe441ea",
            "a774c6d1ef056892daecb2c0620fb101",
            "9ae419548014d77d2f165d2ce5a5488d",
            "d3fcce16ea5cf09b9d98fdb4092d7f93",
            "68815371dc3f3993a045f98f5da0a1d6",
        ],
    ),
];

fn preset_digest(f: Fidelity, driver: &str) -> String {
    let keys = match driver {
        "fig5" => fig5::cell_keys(&f.fig5_options(SEED)),
        "fault_sweep" => fault_sweep::cell_keys(&f.fault_sweep_options(SEED)),
        "cluster_sweep" => cluster_sweep::cell_keys(&f.cluster_sweep_options(SEED)),
        "hedge_sweep" => hedge_sweep::cell_keys(&f.hedge_sweep_options(SEED)),
        "rack_sweep" => rack_sweep::cell_keys(&f.rack_sweep_options(SEED)),
        "timeline" => timeline::cell_keys(&f.timeline_options(SEED)),
        other => panic!("no preset for {other}"),
    };
    digest_of_digests(&keys)
}

#[test]
fn preset_cell_keys_match_their_pinned_digests() {
    let mut drifted = Vec::new();
    for (f, digests) in EXPECTED {
        for (driver, want) in DRIVERS.into_iter().zip(digests) {
            let got = preset_digest(f, driver);
            if got != want {
                drifted.push(format!("{f:?}.{driver}: {got} (pinned {want})"));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "presets drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn preset_horizons_are_pinned() {
    let horizons: Vec<(u64, u64)> = [Fidelity::Bench, Fidelity::Quick, Fidelity::Full]
        .iter()
        .map(|f| (f.horizon_cycles(), f.sweep_horizon_cycles()))
        .collect();
    assert_eq!(
        horizons,
        [
            (800_000, 300_000),
            (2_500_000, 800_000),
            (6_000_000, 2_000_000)
        ]
    );
}

#[test]
fn bench_hedge_and_rack_grids_issue_copies_and_steals() {
    let hedge = hedge_sweep::hedge_sweep(&Fidelity::Bench.hedge_sweep_options(SEED));
    let rack = rack_sweep::rack_sweep(&Fidelity::Bench.rack_sweep_options(SEED));
    assert!(
        hedge.iter().map(|p| p.dup_copies).sum::<u64>() > 0,
        "the Bench hedge grid issued no duplicate copies"
    );
    assert!(
        rack.iter().map(|p| p.steals).sum::<u64>() > 0,
        "the Bench rack grid made no steals"
    );
}
