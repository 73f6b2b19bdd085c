//! The `engine-gossip` workload: a `World` of trivial gossip nodes on
//! the King-like latency model (0.1 ms lookahead floor), so the engine
//! — scheduler, dispatch and window barrier — does nearly all the work
//! and the protocol and crypto layers do none.
//!
//! Every node fires a timer every [`PERIOD_US`] from a seeded phase,
//! sending one message alternately to its ring successor and to the
//! node half a ring away, until [`HORIZON_US`]. That schedule has a
//! closed form, so the run's byte ledger and handler-call count can be
//! checked exactly.

use std::time::Instant;

use octopus_id::IdSpace;
use octopus_net::{sizes, Addr, KingLikeLatency, NodeBehavior, Runtime, WireMsg, World};
use octopus_sim::{derive_rng, split_seed, Duration, SchedulerKind, SimTime};

use crate::Spans;

/// Population: one simulated second costs ≈ 0.8 s of host time on a
/// 2-core VM.
pub const N: usize = 100_000;
/// Timer period of every node.
const PERIOD_US: u64 = 300_000;
/// Simulated horizon: the last timer fires at or before this instant.
pub const HORIZON_US: u64 = 1_000_000;
/// Payload bytes of one gossip message (the engine's real message shape).
const MSG_BYTES: u32 = 72;

/// One gossip message.
#[derive(Clone, Copy)]
pub struct Gossip(#[allow(dead_code)] [u64; 9]);

impl WireMsg for Gossip {
    fn wire_bytes(&self) -> u32 {
        MSG_BYTES
    }
}

/// A gossip node that counts its own handler calls and, when traced,
/// the host time spent inside them.
pub struct GossipNode {
    phase: Duration,
    near: Addr,
    far: Addr,
    ticks: u64,
    handled: u64,
    busy_ns: u64,
    traced: bool,
}

impl GossipNode {
    fn on_tick(&mut self, ctx: &mut dyn Runtime<Gossip, (), ()>) {
        let dest = if self.ticks.is_multiple_of(2) {
            self.near
        } else {
            self.far
        };
        self.ticks += 1;
        ctx.send(dest, Gossip([self.ticks; 9]));
        if ctx.now() + Duration(PERIOD_US) <= SimTime(HORIZON_US) {
            ctx.set_timer(Duration(PERIOD_US), ());
        }
    }
}

impl NodeBehavior for GossipNode {
    type Msg = Gossip;
    type Timer = ();
    type Control = ();

    fn on_start(&mut self, ctx: &mut dyn Runtime<Gossip, (), ()>) {
        ctx.set_timer(self.phase, ());
    }

    fn on_message(&mut self, _ctx: &mut dyn Runtime<Gossip, (), ()>, _from: Addr, _msg: Gossip) {
        self.handled += 1;
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<Gossip, (), ()>, (): ()) {
        self.handled += 1;
        if self.traced {
            let t0 = Instant::now();
            self.on_tick(ctx);
            self.busy_ns += t0.elapsed().as_nanos() as u64;
        } else {
            self.on_tick(ctx);
        }
    }
}

/// The engine under test, pinned: one shard, sequential windows, the
/// timing-wheel scheduler, King-like latency.
pub type GossipWorld = World<GossipNode, KingLikeLatency>;

/// What one gossip run produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GossipOutcome {
    /// Windows executed (counted at `run_window`).
    pub windows: u64,
    /// Handler calls (counted in the nodes).
    pub events: u64,
    /// Total bytes in the world's ledger.
    pub ledger_bytes: u64,
}

/// Seeded overlay addresses and timer phases for `n` nodes.
fn population(n: usize, seed: u64) -> Vec<(Addr, Duration)> {
    let mut rng = derive_rng(seed, b"perfbench-gossip", 0);
    IdSpace::random(n, &mut rng)
        .ids()
        .iter()
        .map(|&id| (id, Duration(split_seed(seed, id.0) % PERIOD_US)))
        .collect()
}

/// Build the world: the workload's set-up.
#[must_use]
pub fn build(n: usize, seed: u64, traced: bool) -> GossipWorld {
    let pop = population(n, seed);
    let latency = KingLikeLatency::new(split_seed(seed, 7));
    let mut world = World::with_shards(latency, seed, SchedulerKind::TimingWheel, 1);
    world.set_parallel(false);
    world.set_worker_threads(1);
    for (i, &(id, phase)) in pop.iter().enumerate() {
        let node = GossipNode {
            phase,
            near: pop[(i + 1) % n].0,
            far: pop[(i + n / 2) % n].0,
            ticks: 0,
            handled: 0,
            busy_ns: 0,
            traced,
        };
        world.insert_node(id, node);
    }
    world
}

/// Run the built world until idle (untraced).
pub fn run(world: &mut GossipWorld) -> GossipOutcome {
    let mut windows = 0;
    while world.run_window(SimTime(u64::MAX)).is_some() {
        windows += 1;
    }
    outcome(world, windows)
}

/// Run the built world until idle, timing every window, and group the
/// windows into 100 ms simulated slices by the clock they leave behind.
/// The windows are exactly those of [`run`]; only the timing is added.
pub fn run_traced(world: &mut GossipWorld, spans: &mut Spans) -> GossipOutcome {
    const SLICE_US: u64 = 100_000;
    let mut windows = 0;
    let mut slice_end = SLICE_US;
    let mut slice_us = 0.0;
    loop {
        let t0 = Instant::now();
        if world.run_window(SimTime(u64::MAX)).is_none() {
            break;
        }
        let us = t0.elapsed().as_secs_f64() * 1e6;
        spans.window_us.push(us);
        windows += 1;
        slice_us += us;
        if world.now().0 >= slice_end {
            spans.slice_ms.push(slice_us / 1e3);
            slice_us = 0.0;
            slice_end = (world.now().0 / SLICE_US + 1) * SLICE_US;
        }
    }
    if slice_us > 0.0 {
        spans.slice_ms.push(slice_us / 1e3);
    }
    spans.handler_ns = node_sum(world, |n| n.busy_ns);
    outcome(world, windows)
}

fn node_sum(world: &GossipWorld, f: impl Fn(&GossipNode) -> u64) -> u64 {
    world
        .addrs()
        .map(|a| f(world.node(a).expect("listed node is alive")))
        .sum()
}

fn outcome(world: &GossipWorld, windows: u64) -> GossipOutcome {
    GossipOutcome {
        windows,
        events: node_sum(world, |n| n.handled),
        ledger_bytes: world.ledger().total_bytes(),
    }
}

/// The closed-form totals of a run of `n` nodes at `seed`:
/// `(handler calls, ledger bytes)`. Each node fires at
/// `phase + k·PERIOD ≤ HORIZON`, sends one message per firing, and
/// every message is delivered.
#[must_use]
pub fn expected(n: usize, seed: u64) -> (u64, u64) {
    let sends: u64 = population(n, seed)
        .iter()
        .map(|&(_, phase)| (HORIZON_US - phase.0) / PERIOD_US + 1)
        .sum();
    let bytes = sends * u64::from(MSG_BYTES + sizes::UDP_HEADER);
    (2 * sends, bytes)
}
