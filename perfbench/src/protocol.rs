//! The two protocol workloads, run on the shipped `SecuritySim`:
//!
//! * `attack-churn` — Table 2's lookup-bias row at the paper's N = 1000,
//!   20 % malicious, attack rate 100 %, collusion 50 %, with its two
//!   churn cells (mean lifetime 60 min and 10 min) run back to back and
//!   their reports merged.
//! * `planetlab-lookup` — Table 3's population (N = 207, passive, no
//!   attackers) with lookups every 10 s instead of every 5 min.

use std::time::Instant;

use octopus_core::{AttackKind, OctopusConfig, SecuritySim, SimConfig, SimReport};
use octopus_metrics::Merge;
use octopus_sim::{split_seed, Duration, SchedulerKind, SimTime};

/// Population of `attack-churn`.
pub const ATTACK_N: usize = 1000;
/// Simulated seconds of each `attack-churn` cell.
pub const ATTACK_SECS: u64 = 120;
/// Population of `planetlab-lookup`.
pub const PLANETLAB_N: usize = 207;
/// Simulated seconds of `planetlab-lookup`.
pub const PLANETLAB_SECS: u64 = 240;
/// Simulated length of one traced slice.
const SLICE: Duration = Duration(100_000);

/// Every engine knob set explicitly: one shard, sequential windows, the
/// timing-wheel scheduler, no tracing. Nothing is read from the
/// environment.
fn pinned(n: usize, secs: u64, seed: u64) -> SimConfig {
    SimConfig {
        n,
        malicious_fraction: 0.0,
        attack: AttackKind::Passive,
        attack_rate: 0.0,
        consistent_collusion: 0.0,
        mean_lifetime: None,
        duration: Duration::from_secs(secs),
        seed,
        octopus: OctopusConfig::for_network(n),
        lookups_enabled: true,
        scheduler: SchedulerKind::TimingWheel,
        shards: 1,
        parallel: false,
        pool_threads: 1,
    }
}

/// The `attack-churn` cells: λ = 60 min, then λ = 10 min.
#[must_use]
pub fn attack_churn(seed: u64) -> Vec<SimConfig> {
    [60, 10]
        .into_iter()
        .map(|lifetime_min| SimConfig {
            malicious_fraction: 0.2,
            attack: AttackKind::LookupBias,
            attack_rate: 1.0,
            consistent_collusion: 0.5,
            mean_lifetime: Some(Duration::from_secs(lifetime_min * 60)),
            ..pinned(ATTACK_N, ATTACK_SECS, split_seed(seed, lifetime_min))
        })
        .collect()
}

/// The single `planetlab-lookup` cell.
#[must_use]
pub fn planetlab_lookup(seed: u64) -> Vec<SimConfig> {
    let mut cfg = pinned(PLANETLAB_N, PLANETLAB_SECS, seed);
    cfg.octopus.lookup_every = Duration::from_secs(10);
    vec![cfg]
}

/// A built cell and the simulated instant its run ends.
pub type Cell = (SecuritySim, SimTime);

/// Build every cell: the workload's set-up.
#[must_use]
pub fn build(cells: &[SimConfig]) -> Vec<Cell> {
    cells
        .iter()
        .map(|c| (SecuritySim::new(c.clone()), SimTime::ZERO + c.duration))
        .collect()
}

/// Run the built cells back to back and merge their reports. When
/// `slices` is given, each cell advances in 100 ms simulated slices and
/// the host ms of every slice is appended; chunking never changes the
/// report.
pub fn run(cells: &mut [Cell], mut slices: Option<&mut Vec<f64>>) -> SimReport {
    let mut merged: Option<SimReport> = None;
    for (sim, end) in cells {
        let mut acc = sim.begin();
        if let Some(out) = slices.as_deref_mut() {
            let mut t = SimTime::ZERO;
            while t < *end {
                t += SLICE;
                let t0 = Instant::now();
                sim.advance_until(&mut acc, t);
                out.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        let report = sim.finish(acc);
        match &mut merged {
            Some(m) => m.merge(report),
            None => merged = Some(report),
        }
    }
    merged.expect("every workload has at least one cell")
}
