//! Per-layer probes for the traced run. Each one times a layer's public
//! primitive at the shape the workload gives it (its population `n`),
//! from this package's own code: the engine carries no counters yet.
//!
//! A probe repeats its operation in batches and reports the median
//! batch's ns per operation, so one descheduled batch cannot move it.

use std::hint::black_box;
use std::time::Instant;

use octopus_chord::{ChordConfig, GroundTruthView, RoutingTable, RoutingView, SignedRoutingTable};
use octopus_crypto::{sha256, CertificateAuthority, KeyPair};
use octopus_id::{IdSpace, Key, ShardedIdSpace};
use octopus_sim::{derive_rng, split_seed, Duration, EventQueue, SchedulerKind, SimTime};
use rand::Rng;

use crate::stats::median;
use crate::Metric;

/// Batches per probe.
const BATCHES: usize = 9;

/// Median over [`BATCHES`] batches of the ns per call of `op`, which
/// is called `per_batch` times per batch with the call index.
fn probe(per_batch: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut ns = Vec::with_capacity(BATCHES);
    let mut i = 0;
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            op(i);
            i += 1;
        }
        ns.push(t0.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&ns)
}

/// The per-layer probe results, in output order.
pub fn measure(n: usize, seed: u64) -> Vec<Metric> {
    let mut rng = derive_rng(seed, b"perfbench-layers", 0);
    let space = IdSpace::random(n, &mut rng);
    let chord = ChordConfig::for_network(n);
    let view = GroundTruthView::new(&space, chord);
    let owners: Vec<_> = (0..64).map(|_| space.random_member(&mut rng)).collect();
    let tables: Vec<RoutingTable> = owners.iter().map(|&o| view.table_of(o)).collect();
    let keys: Vec<Key> = (0..1024).map(|_| Key(rng.gen())).collect();

    let mut ca = CertificateAuthority::new(&mut rng);
    let kp = KeyPair::generate(&mut rng);
    let cert = ca.issue(tables[0].owner, 0, kp.public(), u64::MAX);
    let signed = SignedRoutingTable::sign(tables[0].clone(), 1, &kp, cert);
    let encoded = tables[0].encode();

    let mut sharded = ShardedIdSpace::from(space);
    let fresh: Vec<_> = (0..1024).map(|_| octopus_id::NodeId(rng.gen())).collect();

    vec![
        ("sim.queue_ns_per_event", queue_ns_per_event(n), "ns"),
        (
            "crypto.table_sign_ns",
            probe(200, |i| {
                black_box(SignedRoutingTable::sign(
                    tables[i % tables.len()].clone(),
                    i as u64,
                    &kp,
                    cert,
                ));
            }),
            "ns",
        ),
        (
            "crypto.table_verify_ns",
            probe(200, |i| {
                black_box(signed.verify(ca.public_key(), i as u64 % 2)).expect("table verifies");
            }),
            "ns",
        ),
        (
            "crypto.sha256_table_ns",
            probe(500, |_| {
                black_box(sha256(black_box(&encoded)));
            }),
            "ns",
        ),
        (
            "crypto.keygen_ns",
            probe(20, |_| {
                black_box(KeyPair::generate(&mut rng));
            }),
            "ns",
        ),
        (
            "chord.next_hop_ns",
            probe(2000, |i| {
                black_box(tables[i % tables.len()].next_hop(keys[i % keys.len()]));
            }),
            "ns",
        ),
        (
            "id.owner_of_ns",
            probe(5000, |i| {
                black_box(sharded.owner_of(keys[i % keys.len()]));
            }),
            "ns",
        ),
        (
            "id.churn_update_ns",
            probe(1000, |i| {
                let id = fresh[i % fresh.len()];
                assert!(sharded.insert(id), "fresh id is new");
                assert!(sharded.remove(id), "inserted id is present");
            }),
            "ns",
        ),
    ]
}

/// `EventQueue` push+pop cost on the §5.1 timer mix for `n` nodes:
/// stabilize 2 s, walk 15 s, finger update 30 s, surveillance 60 s and
/// lookup 60 s, each firing a three-hop message chain with 20–420 ms
/// latencies. The drive stops refilling after a fixed event budget, so
/// the cost per event is comparable across populations.
fn queue_ns_per_event(n: usize) -> f64 {
    const TIMERS: [u64; 5] = [2, 15, 30, 60, 60];
    const BUDGET: u64 = 400_000;
    let mut q: EventQueue<(u64, u8, [u64; 9])> =
        EventQueue::with_scheduler(SchedulerKind::TimingWheel);
    let mut lat = 0x9E37_79B9u64;
    let t0 = Instant::now();
    for node in 0..n as u64 {
        for (kind, period) in TIMERS.iter().enumerate() {
            let phase = split_seed(node, kind as u64) % (period * 1_000_000);
            q.push(SimTime(phase), (node, kind as u8, [0; 9]));
        }
    }
    let (mut pushed, mut popped) = (0u64, 0u64);
    while let Some((t, (node, kind, msg))) = q.pop() {
        popped += 1;
        if pushed >= BUDGET {
            continue;
        }
        let mut next = |q: &mut EventQueue<_>, at: SimTime, ev| {
            q.push(at, ev);
            pushed += 1;
        };
        lat = split_seed(lat, 0xA5A5);
        let hop = Duration(20_000 + lat % 400_000);
        if kind < 5 {
            let period = Duration::from_secs(TIMERS[kind as usize]);
            next(&mut q, t + period, (node, kind, msg));
            next(&mut q, t + hop, (node, 5, [node; 9]));
        } else if kind < 7 {
            next(&mut q, t + hop, (node, kind + 1, msg));
        }
    }
    black_box(popped);
    t0.elapsed().as_nanos() as f64 / popped as f64
}
