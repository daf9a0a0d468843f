//! Shard-count determinism (property-based): same seed + same graph must
//! yield identical colorings AND identical per-round message counts whether
//! the engine runs on 1, 2, 8, or 16 shards. This is the engine's core
//! replay contract — randomness lives in per-node streams, never in the
//! schedule. Each sweep point forces a different worker-pool size
//! (including oversubscribed pools of real threads), so thread interleaving
//! is part of what the property quantifies over.
//!
//! The delivery-order contract itself is checked from the inside too: a
//! recorder program asserts that every inbox it receives ascends by sender
//! and keeps each sender's send order, across shard counts, frontier
//! gating, and delay / duplicate / loss faults.

use engine::{
    engine_cole_vishkin_3color, engine_h_partition, engine_randomized_list_coloring, Activation,
    EngineConfig, EngineSession, FaultPlan, NodeCtx, NodeProgram, Outbox, Stop,
};
use graphs::{gen, VertexSet};
use local_model::{RootedForest, RoundLedger};
use proptest::prelude::*;
use rand::{mix64, Rng};

/// `(shards, workers)` pairs: inline, pooled, and oversubscribed pooled.
const SHARD_SWEEP: [(usize, usize); 4] = [(1, 1), (2, 2), (8, 3), (16, 16)];

fn config(shards: usize, workers: usize) -> EngineConfig {
    EngineConfig::default()
        .with_shards(shards)
        .with_workers(workers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized list coloring: colorings, cycle counts, message counts,
    /// and ledgers are identical across the shard sweep.
    #[test]
    fn randomized_coloring_shard_invariant(n in 30usize..200, d in 3usize..6, seed in 0u64..500) {
        let g = gen::random_regular(n & !1, d, seed);
        let lists: Vec<Vec<usize>> = g.vertices().map(|v| (0..g.degree(v) + 1).collect()).collect();
        let mut runs = Vec::new();
        for (shards, workers) in SHARD_SWEEP {
            let mut ledger = RoundLedger::new();
            let (out, metrics) = engine_randomized_list_coloring(
                &g, None, &lists, seed, 1000,
                config(shards, workers),
                &mut ledger,
            );
            runs.push((out.colors, out.rounds, metrics.message_counts(), ledger.total()));
        }
        for (i, run) in runs.iter().enumerate().skip(1) {
            prop_assert_eq!(&runs[0], run, "sweep point {} diverged from shards=1", i);
        }
        prop_assert!(graphs::is_proper(&g, &runs[0].0));
    }

    /// Cole–Vishkin: deterministic program, so every observable — colors,
    /// rounds, per-round traffic — must survive resharding.
    #[test]
    fn cole_vishkin_shard_invariant(n in 20usize..400, seed in 0u64..500) {
        let g = gen::random_tree(n, seed);
        let f = RootedForest::new(graphs::bfs_parents(&g, 0, None));
        let mut runs = Vec::new();
        for (shards, workers) in SHARD_SWEEP {
            let mut ledger = RoundLedger::new();
            let (colors, metrics) = engine_cole_vishkin_3color(
                &f,
                config(shards, workers),
                &mut ledger,
            );
            runs.push((colors, metrics.message_counts(), ledger.total()));
        }
        for (i, run) in runs.iter().enumerate().skip(1) {
            prop_assert_eq!(&runs[0], run, "sweep point {} diverged", i);
        }
    }

    /// Masked determinism (the active-set contract): a masked engine run
    /// at shards ∈ {1, 2, 8} reproduces the sequential masked primitive on
    /// colors AND ledger totals, for arbitrary seeded masks.
    #[test]
    fn masked_randomized_matches_sequential_masked_primitive(
        n in 30usize..160,
        d in 3usize..6,
        seed in 0u64..500,
        mask_seed in 0u64..64,
    ) {
        let g = gen::random_regular(n & !1, d, seed);
        let mask = VertexSet::from_iter_with_universe(
            g.n(),
            (0..g.n()).filter(|&v| !rand::mix64(mask_seed, v as u64).is_multiple_of(4)),
        );
        let lists: Vec<Vec<usize>> = g.vertices().map(|v| (0..g.degree(v) + 1).collect()).collect();
        let mut seq_ledger = local_model::RoundLedger::new();
        let seq = local_model::randomized_list_coloring(
            &g, Some(&mask), &lists, seed, 1000, &mut seq_ledger,
        );
        for (shards, workers) in [(1usize, 1usize), (2, 2), (8, 3)] {
            let mut ledger = RoundLedger::new();
            let (out, _) = engine_randomized_list_coloring(
                &g, Some(&mask), &lists, seed, 1000,
                config(shards, workers),
                &mut ledger,
            );
            prop_assert_eq!(&out.colors, &seq.colors, "shards = {}", shards);
            prop_assert_eq!(out.rounds, seq.rounds);
            prop_assert_eq!(out.complete, seq.complete);
            prop_assert_eq!(ledger.total(), seq_ledger.total(), "shards = {}", shards);
        }
        // Dead vertices never get a color; live edges stay proper.
        for v in 0..g.n() {
            if !mask.contains(v) {
                prop_assert_eq!(seq.colors[v], usize::MAX);
            }
        }
    }

    /// H-partition peeling: layers and traffic are shard-invariant.
    #[test]
    fn h_partition_shard_invariant(n in 30usize..300, a in 2usize..4, seed in 0u64..500) {
        let g = gen::forest_union(n, a, seed);
        let mut runs = Vec::new();
        for (shards, workers) in SHARD_SWEEP {
            let mut ledger = RoundLedger::new();
            let (hp, metrics) = engine_h_partition(
                &g, None, a, 1.0,
                config(shards, workers),
                &mut ledger,
            );
            runs.push((hp.layer, hp.layers, metrics.message_counts(), ledger.total()));
        }
        for (i, run) in runs.iter().enumerate().skip(1) {
            prop_assert_eq!(&runs[0], run, "sweep point {} diverged", i);
        }
    }
}

/// Sends seeded `Multi` outboxes — random neighbors, some repeated, in a
/// random order — tagged `round * 1024 + seq`, so a sender's send order is
/// ascending tag order. Checks every inbox it receives: senders must not
/// decrease, and within one sender's run a tag either rises or repeats an
/// earlier tag of the run (a seeded duplicate). A fault-delayed message
/// carries an older round, so late-before-fresh is checked by the same rule.
///
/// Nodes with `period > 0` wake every `period` rounds (`WakeAt`); the rest
/// are `OnMessage`. Either kind also steps on traffic, so the compute
/// epoch's due and active lists overlap and interleave.
struct Recorder {
    period: u64,
    next_wake: u64,
    /// Last round in which the node may send.
    last_send: u64,
    violations: Vec<String>,
    /// Fingerprint of every inbox received, in order.
    hash: u64,
}

impl Recorder {
    fn new(ctx: &NodeCtx<'_>) -> Self {
        let period = (ctx.id % 4) as u64;
        Recorder {
            period,
            next_wake: period,
            last_send: 6,
            violations: Vec::new(),
            hash: 0,
        }
    }

    fn send(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<u64> {
        if ctx.round > self.last_send {
            return Outbox::Silent;
        }
        let mut msgs = Vec::new();
        for &w in ctx.neighbors {
            if ctx.rng.gen_bool(0.35) {
                for _ in 0..ctx.rng.gen_range(1usize..3) {
                    msgs.push(w);
                }
            }
        }
        if ctx.rng.gen_bool(0.5) {
            msgs.reverse();
        }
        if msgs.is_empty() {
            return Outbox::Silent;
        }
        let round = ctx.round;
        Outbox::Multi(
            msgs.into_iter()
                .enumerate()
                .map(|(seq, w)| (w, round * 1024 + seq as u64))
                .collect(),
        )
    }

    fn check(&mut self, round: u64, inbox: &[(usize, u64)]) {
        for w in inbox.windows(2) {
            if w[0].0 > w[1].0 {
                self.violations.push(format!(
                    "round {round}: sender {} before {}",
                    w[0].0, w[1].0
                ));
            }
        }
        for run in inbox.chunk_by(|a, b| a.0 == b.0) {
            for (i, &(src, tag)) in run.iter().enumerate() {
                let fresh = run[..i].iter().all(|&(_, t)| t < tag);
                let repeat = run[..i].iter().any(|&(_, t)| t == tag);
                if !fresh && !repeat {
                    self.violations
                        .push(format!("round {round}: sender {src} out of send order"));
                }
            }
        }
        for &(src, tag) in inbox {
            self.hash = mix64(self.hash, mix64(src as u64, tag));
        }
    }
}

impl NodeProgram for Recorder {
    type Message = u64;

    fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<u64> {
        self.send(ctx)
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[(usize, u64)]) -> Outbox<u64> {
        self.check(ctx.round, inbox);
        let woke = self.period > 0 && ctx.round >= self.next_wake;
        if woke {
            self.next_wake = ctx.round + self.period;
        } else if inbox.is_empty() {
            // Not due and no traffic: the activation contract's no-op step.
            return Outbox::Silent;
        }
        self.send(ctx)
    }

    fn halted(&self) -> bool {
        false
    }

    fn activation(&self) -> Activation {
        if self.period > 0 {
            Activation::WakeAt(self.next_wake)
        } else {
            Activation::OnMessage
        }
    }
}

/// What one recorder run observed, besides its violations: every node's
/// inbox fingerprint, the per-round message counts, and the delayed /
/// duplicated / lost totals.
type Trace = (Vec<u64>, Vec<usize>, [usize; 3]);

/// Runs the recorder for ten rounds; returns every node's violations and
/// the run's [`Trace`].
fn record(g: &graphs::Graph, config: EngineConfig) -> (Vec<String>, Trace) {
    let mut sess = EngineSession::new(g, config, Recorder::new);
    sess.run_phase("record", Stop::Rounds(10));
    let m = sess.metrics();
    let counts = m.message_counts();
    let faults = [m.total_delayed(), m.total_duplicated(), m.total_lost()];
    let (programs, _, _) = sess.into_parts();
    let violations = programs
        .iter()
        .enumerate()
        .flat_map(|(v, p)| p.violations.iter().map(move |e| format!("node {v}: {e}")))
        .collect();
    let hashes = programs.iter().map(|p| p.hash).collect();
    (violations, (hashes, counts, faults))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every inbox arrives sorted by sender, with each sender's messages in
    /// send order and its delayed traffic first — at shards {1, 2, 8},
    /// frontier gating on and off, with and without delay, duplicate and
    /// loss faults — and the delivered sequences are identical across all
    /// those layouts.
    #[test]
    fn inboxes_arrive_sorted_by_sender(n in 20usize..90, extra in 0usize..120, seed in 0u64..500) {
        let g = gen::gnm(n, n + extra, seed);
        let faulted = || {
            let mut plan = FaultPlan::new()
                .duplicate_edges(seed ^ 0xD0D0, 0.3)
                .lose_edges(seed ^ 0x1055, 0.15);
            for v in (0..n).step_by(3) {
                plan = plan.delay_outbox(v, (v % 5) as u64, 1 + (v % 3) as u64);
            }
            plan
        };
        for (faults, fault_free) in [(FaultPlan::new(), true), (faulted(), false)] {
            let mut runs = Vec::new();
            for shards in [1usize, 2, 8] {
                for frontier in [true, false] {
                    let config = EngineConfig::default()
                        .with_seed(seed)
                        .with_shards(shards)
                        .with_workers(shards)
                        .with_frontier(frontier)
                        .with_faults(faults.clone());
                    let (violations, trace) = record(&g, config);
                    prop_assert!(
                        violations.is_empty(),
                        "shards {} frontier {}: {:?}", shards, frontier, violations
                    );
                    runs.push(trace);
                }
            }
            // Delayed, duplicated, lost: none without faults, every kind
            // with them.
            let fired = runs[0].2;
            prop_assert!(
                fired.iter().all(|&c| (c == 0) == fault_free),
                "fault counters {:?} (fault-free: {})", fired, fault_free
            );
            for (i, run) in runs.iter().enumerate().skip(1) {
                prop_assert_eq!(&runs[0], run, "layout {} diverged", i);
            }
        }
    }
}
