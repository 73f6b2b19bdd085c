//! Paper-workload benchmark for the Octopus reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <attack-churn|planetlab-lookup|engine-gossip> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats the workload — set-up, then the simulated run to its
//! fixed horizon — until `--seconds` have passed (at least
//! [`MIN_INSTANCES`] times), checks every instance's output, and prints
//! one line per instance, the simulated outcomes and the checks, and as
//! its last line a JSON object with the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics (`--trace 1`). The workload name and the
//! seed are the only inputs; see `README.md` beside this file.

// This package is a timing site: its wall-clock reads time the engine
// from outside and never feed a simulated result.
#![allow(clippy::disallowed_methods)]

mod gossip;
mod layers;
mod protocol;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use octopus_core::SimReport;

use crate::gossip::GossipOutcome;
use crate::stats::{digest, median, peak_rss_mib, percentile, runqueue_wait_ns, steal_ticks};

/// Fewest instances a run measures, whatever `--seconds` says.
const MIN_INSTANCES: usize = 3;

/// Set-ups per instance. Set-up is short next to the run, so it is
/// repeated to give `setup_s` a median over many samples.
const SETUPS_PER_INSTANCE: usize = 5;

/// Output digests pinned per `(workload, seed)`: a speed-only change
/// must reproduce them exactly.
const PINNED: &str = include_str!("../pinned.txt");

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    AttackChurn,
    PlanetlabLookup,
    EngineGossip,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "attack-churn" => Some(Workload::AttackChurn),
            "planetlab-lookup" => Some(Workload::PlanetlabLookup),
            "engine-gossip" => Some(Workload::EngineGossip),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::AttackChurn => "attack-churn",
            Workload::PlanetlabLookup => "planetlab-lookup",
            Workload::EngineGossip => "engine-gossip",
        }
    }

    /// Population, which also shapes the per-layer probes.
    fn n(self) -> usize {
        match self {
            Workload::AttackChurn => protocol::ATTACK_N,
            Workload::PlanetlabLookup => protocol::PLANETLAB_N,
            Workload::EngineGossip => gossip::N,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What an instance produced.
#[derive(PartialEq)]
#[allow(clippy::large_enum_variant)] // one per instance
enum Output {
    Protocol(SimReport),
    Gossip(GossipOutcome),
}

/// One measured instance of a workload.
struct Instance {
    /// One sample per set-up; the instance runs the last one.
    setup_s: Vec<f64>,
    wall_s: f64,
    /// Host-wide steal ticks during the instance.
    steal: u64,
    rq_wait_ms: f64,
    output: Output,
    digest: String,
}

/// Host timings only a traced instance records.
#[derive(Default)]
struct Spans {
    /// Host ms per 100 ms simulated slice.
    slice_ms: Vec<f64>,
    /// Host µs per window (engine-gossip only).
    window_us: Vec<f64>,
    /// Host ns spent inside the gossip nodes' timer handlers.
    handler_ns: u64,
}

/// A workload built and ready to run.
#[allow(clippy::large_enum_variant)] // one per set-up
enum Built {
    Protocol(Vec<protocol::Cell>),
    Gossip(gossip::GossipWorld),
}

/// The workload's set-up: `SecuritySim::new` for every cell, or the
/// gossip `World`'s population.
fn build(w: Workload, seed: u64, traced: bool) -> Built {
    match w {
        Workload::AttackChurn => Built::Protocol(protocol::build(&protocol::attack_churn(seed))),
        Workload::PlanetlabLookup => {
            Built::Protocol(protocol::build(&protocol::planetlab_lookup(seed)))
        }
        Workload::EngineGossip => Built::Gossip(gossip::build(gossip::N, seed, traced)),
    }
}

fn run_instance(w: Workload, seed: u64, traced: bool) -> (Instance, Spans) {
    let mut spans = Spans::default();
    let rq0 = runqueue_wait_ns();
    let st0 = steal_ticks();
    let mut setup_s = Vec::with_capacity(SETUPS_PER_INSTANCE);
    let mut built = None;
    for _ in 0..SETUPS_PER_INSTANCE {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build(w, seed, traced));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let t0 = Instant::now();
    let output = match built.expect("at least one set-up ran") {
        Built::Protocol(mut cells) => Output::Protocol(protocol::run(
            &mut cells,
            traced.then_some(&mut spans.slice_ms),
        )),
        Built::Gossip(mut world) if traced => {
            Output::Gossip(gossip::run_traced(&mut world, &mut spans))
        }
        Built::Gossip(mut world) => Output::Gossip(gossip::run(&mut world)),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let rq_wait_ms = (runqueue_wait_ns() - rq0) as f64 / 1e6;
    let steal = steal_ticks() - st0;
    let digest = digest(&match &output {
        Output::Protocol(r) => format!("{r:?}"),
        Output::Gossip(g) => format!("{g:?}"),
    });
    let inst = Instance {
        setup_s,
        wall_s,
        steal,
        rq_wait_ms,
        output,
        digest,
    };
    (inst, spans)
}

/// The output checks of one instance; empty when it is correct.
fn check(w: Workload, seed: u64, inst: &Instance, first: &Instance) -> Vec<String> {
    let mut errors = Vec::new();
    if inst.output != first.output {
        errors.push(format!(
            "output {} differs from the first instance's {} at the same seed",
            inst.digest, first.digest
        ));
    }
    let pinned = PINNED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next() == Some(w.name()) && f.next() == Some(&seed.to_string()))
            .then(|| f.next())
            .flatten()
    });
    if let Some(want) = pinned {
        if inst.digest != want {
            errors.push(format!("digest {} differs from pinned {want}", inst.digest));
        }
    }
    match &inst.output {
        Output::Protocol(r) => {
            let lookups = r.completed_lookups + r.failed_lookups;
            if lookups < 1000 {
                errors.push(format!(
                    "{lookups} lookups, fewer than the 1000 a p99 needs"
                ));
            }
            if r.lookup_latencies_ms.len() as u64 != r.completed_lookups
                || !r
                    .lookup_latencies_ms
                    .iter()
                    .all(|&ms| ms.is_finite() && ms >= 0.0)
            {
                errors.push("lookup latencies are not one value ≥ 0 per completed lookup".into());
            }
            if r.false_positives > r.revocations {
                errors.push("more honest revocations than revocations".into());
            }
            let frac = r.final_malicious_fraction();
            if !(0.0..=1.0).contains(&frac) {
                errors.push(format!("malicious fraction {frac} outside [0, 1]"));
            }
            if !(r.bandwidth_kbps.is_finite() && r.bandwidth_kbps > 0.0) {
                errors.push(format!(
                    "bandwidth {} kbps is not positive",
                    r.bandwidth_kbps
                ));
            }
        }
        Output::Gossip(g) => {
            let (events, bytes) = gossip::expected(gossip::N, seed);
            if g.events != events {
                errors.push(format!(
                    "{} handler calls, closed form says {events}",
                    g.events
                ));
            }
            if g.ledger_bytes != bytes {
                errors.push(format!(
                    "{} ledger bytes, closed form says {bytes}",
                    g.ledger_bytes
                ));
            }
            if g.windows == 0 {
                errors.push("no windows ran".into());
            }
        }
    }
    errors
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The simulated outcomes of a protocol report: deterministic at a
/// fixed seed.
fn outcomes(r: &SimReport) -> Vec<Metric> {
    let lookups = (r.completed_lookups + r.failed_lookups).max(1) as f64;
    vec![
        (
            "lookup_latency_p50_ms",
            percentile(&r.lookup_latencies_ms, 50.0),
            "ms",
        ),
        (
            "lookup_latency_p99_ms",
            percentile(&r.lookup_latencies_ms, 99.0),
            "ms",
        ),
        (
            "lookup_failure_ratio",
            r.failed_lookups as f64 / lookups,
            "ratio",
        ),
        ("bandwidth_kbps", r.bandwidth_kbps, "kbps"),
        ("false_positive_ratio", r.false_positive_rate(), "ratio"),
        (
            "malicious_remaining_fraction",
            r.final_malicious_fraction(),
            "ratio",
        ),
    ]
}

/// Exact counts of the protocol layer, in per-layer order.
fn core_counts(r: &SimReport) -> Vec<Metric> {
    let walks = r.walks_ok + r.walks_failed;
    vec![
        (
            "core.lookups",
            (r.completed_lookups + r.failed_lookups) as f64,
            "count",
        ),
        ("core.walks", walks as f64, "count"),
        ("core.revocations", r.revocations as f64, "count"),
        (
            "core.ca_messages",
            r.ca_messages.iter().map(|&(_, v)| v as u64).sum::<u64>() as f64,
            "count",
        ),
        (
            "core.walk_success_ratio",
            if walks == 0 {
                0.0
            } else {
                r.walks_ok as f64 / walks as f64
            },
            "ratio",
        ),
    ]
}

/// The engine-layer numbers of a traced gossip run.
fn net_metrics(g: &GossipOutcome, spans: &Spans) -> Vec<Metric> {
    let window_ns: f64 = spans.window_us.iter().sum::<f64>() * 1e3;
    vec![
        ("net.windows", g.windows as f64, "count"),
        ("net.events", g.events as f64, "count"),
        (
            "net.events_per_window",
            g.events as f64 / g.windows.max(1) as f64,
            "events",
        ),
        (
            "net.window_us_p50",
            percentile(&spans.window_us, 50.0),
            "us",
        ),
        (
            "net.window_us_p99",
            percentile(&spans.window_us, 99.0),
            "us",
        ),
        (
            "net.dispatch_ns_per_event",
            (window_ns - spans.handler_ns as f64) / g.events.max(1) as f64,
            "ns",
        ),
    ]
}

/// The per-layer metrics of a traced run.
fn per_layer(args: &Args, untraced: &[Instance], traced: &[(Instance, Spans)]) -> Vec<Metric> {
    let w = args.workload;
    let (last, spans) = traced.last().expect("a traced run has traced instances");
    let mut out = layers::measure(w.n(), args.seed);
    // The protocol workloads' World is private to SecuritySim, so their
    // engine numbers come from the gossip drive at the workload's N.
    match &last.output {
        Output::Gossip(g) => out.extend(net_metrics(g, spans)),
        Output::Protocol(_) => {
            let mut world = gossip::build(w.n(), args.seed, true);
            let mut probe = Spans::default();
            let g = gossip::run_traced(&mut world, &mut probe);
            out.extend(net_metrics(&g, &probe));
        }
    }
    let slices: Vec<f64> = traced
        .iter()
        .flat_map(|(_, s)| s.slice_ms.iter().copied())
        .collect();
    out.push(("core.slice_ms_p50", percentile(&slices, 50.0), "ms"));
    out.push(("core.slice_ms_p99", percentile(&slices, 99.0), "ms"));
    match &last.output {
        Output::Protocol(r) => out.extend(core_counts(r)),
        Output::Gossip(_) => out.extend(core_counts(&SimReport::default())),
    }
    let traced_wall = median(&traced.iter().map(|(i, _)| i.wall_s).collect::<Vec<_>>());
    let untraced_wall = median(&untraced.iter().map(|i| i.wall_s).collect::<Vec<_>>());
    out.push((
        "trace.overhead_ratio",
        traced_wall / untraced_wall - 1.0,
        "ratio",
    ));
    out
}

fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; such a metric already failed its check
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <attack-churn|planetlab-lookup|engine-gossip> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // The engine reads `OCTO_DEBUG` (prints from protocol handlers) and
    // `OCTOPUS_*` sizing knobs. The workload name and the seed are the
    // only inputs, so none of them may reach the run.
    let ambient: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("OCTO"))
        .collect();
    for key in ambient {
        println!("ignoring environment variable {}", key.to_string_lossy());
        std::env::remove_var(key);
    }
    let w = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Untraced and traced instances alternate, so host drift hits both.
    let start = Instant::now();
    let mut untraced: Vec<Instance> = Vec::new();
    let mut traced: Vec<(Instance, Spans)> = Vec::new();
    while untraced.len() < MIN_INSTANCES || start.elapsed().as_secs_f64() < args.seconds {
        untraced.push(run_instance(w, args.seed, false).0);
        if args.trace {
            traced.push(run_instance(w, args.seed, true));
        }
    }

    let first = &untraced[0];
    let mut failed = 0;
    let all = untraced.iter().chain(traced.iter().map(|(i, _)| i));
    for (k, inst) in all.enumerate() {
        let errors = check(w, args.seed, inst, first);
        println!(
            "instance {k}: setup_s={} wall_s={} rq_wait_ms={} steal_ticks={} digest={} check={}",
            median(&inst.setup_s),
            inst.wall_s,
            inst.rq_wait_ms,
            inst.steal,
            inst.digest,
            if errors.is_empty() { "ok" } else { "FAILED" }
        );
        for e in &errors {
            println!("  check failed: {e}");
        }
        failed += usize::from(!errors.is_empty());
    }
    let attempted = untraced.len() + traced.len();

    // Instances the host slowed stay in the median; these lines show
    // how much it took from them.
    let rq: Vec<f64> = untraced.iter().map(|i| i.rq_wait_ms).collect();
    let wall: Vec<f64> = untraced.iter().map(|i| i.wall_s).collect();
    println!(
        "noise: run-queue wait median {} ms (max {} ms), steal {} ticks in all, against wall_s median {} s",
        median(&rq),
        rq.iter().copied().fold(0.0, f64::max),
        untraced.iter().map(|i| i.steal).sum::<u64>(),
        median(&wall)
    );
    match &first.output {
        Output::Protocol(r) => {
            for (name, value, unit) in outcomes(r) {
                println!("outcome {name} = {value} {unit}");
            }
        }
        Output::Gossip(g) => println!(
            "outcome windows = {} events = {} ledger_bytes = {}",
            g.windows, g.events, g.ledger_bytes
        ),
    }

    let metrics: Vec<Metric> = if args.trace {
        per_layer(&args, &untraced, &traced)
    } else {
        vec![
            ("wall_s", median(&wall), "s"),
            (
                "setup_s",
                median(
                    &untraced
                        .iter()
                        .flat_map(|i| i.setup_s.clone())
                        .collect::<Vec<_>>(),
                ),
                "s",
            ),
            ("peak_rss_mib", peak_rss_mib().unwrap_or(0.0), "MiB"),
        ]
    };
    let mut correct = failed == 0;
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
        if !value.is_finite() {
            println!("  check failed: {name} is not a finite number");
            correct = false;
        }
    }
    println!("{}", json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
