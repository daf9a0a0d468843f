//! The three workloads: how each builds its inputs from the seed, which
//! public library call it times, its sequential twin, and how its output is
//! checked.

use distributed_coloring::{
    list_color_sparse, ColoringError, ListAssignment, Outcome, SparseColoringConfig,
};
use engine::{engine_h_partition, engine_ruling_forest, EngineConfig, EngineMetrics, EnginePool};
use graphs::{gen, Graph, VertexId};
use local_model::{h_partition, ruling_forest, HPartition, RoundLedger, RulingForest};

/// Theorem 1.3's degree bound: planar graphs have `mad < 6`.
pub const PLANAR_D: usize = 6;
const PLANAR_N: usize = 20_000;
const PLANAR_PALETTE: usize = 12;
const GRID_SIDE: usize = 200;
const RULING_ALPHA: usize = 6;
const HPART_N: usize = 1_000_000;
const HPART_A: usize = 2;
const HPART_EPS: f64 = 1.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 1.3 end to end: `list_color_sparse` with `d = 6` on an
    /// Apollonian triangulation with random 6-lists from 12 colors.
    Planar6Pipeline,
    /// `engine_ruling_forest` with α = 6 over every vertex of a grid.
    RulingGrid,
    /// `engine_h_partition` with a = 2, ε = 1 on a union of two random
    /// spanning trees of 10⁶ vertices.
    HPartition1m,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Planar6Pipeline,
        Workload::RulingGrid,
        Workload::HPartition1m,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Planar6Pipeline => "planar6-pipeline",
            Workload::RulingGrid => "ruling-grid",
            Workload::HPartition1m => "hpartition-1m",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Span name of the timed library call.
    pub fn solve_span(self) -> &'static str {
        match self {
            Workload::Planar6Pipeline => "core.list_color_sparse",
            Workload::RulingGrid => "engine.engine_ruling_forest",
            Workload::HPartition1m => "engine.engine_h_partition",
        }
    }

    /// Whether the run runs the `core` peel/extend loop.
    pub fn uses_core(self) -> bool {
        self == Workload::Planar6Pipeline
    }

    /// Inputs per sample. Apollonian triangulations of one size peel in 6
    /// or 7 levels depending on the seed (about 2110 or 2350 rounds), so a
    /// planar sample solves four of them and its round total varies less
    /// from seed to seed.
    pub fn inputs_per_sample(self) -> usize {
        match self {
            Workload::Planar6Pipeline => 4,
            Workload::RulingGrid | Workload::HPartition1m => 1,
        }
    }

    /// The fixed input list of one sample, built from the workload seed.
    /// The grid is the same for every seed: a ruling forest over all
    /// vertices of a fixed graph is deterministic.
    pub fn generate(self, seed: u64) -> Vec<Input> {
        (0..self.inputs_per_sample())
            .map(|i| self.input(seed, i))
            .collect()
    }

    /// Input `i` of the sample list for `seed`.
    pub fn input(self, seed: u64, i: usize) -> Input {
        let seed = mix64(seed, i as u64);
        match self {
            Workload::Planar6Pipeline => {
                let graph = gen::apollonian(PLANAR_N, mix64(seed, 1));
                let lists =
                    ListAssignment::random(graph.n(), PLANAR_D, PLANAR_PALETTE, mix64(seed, 2));
                Input {
                    graph,
                    lists: Some(lists),
                    subset: Vec::new(),
                }
            }
            Workload::RulingGrid => {
                let graph = gen::grid(GRID_SIDE, GRID_SIDE);
                let subset = graph.vertices().collect();
                Input {
                    graph,
                    lists: None,
                    subset,
                }
            }
            Workload::HPartition1m => Input {
                graph: gen::forest_union(HPART_N, HPART_A, mix64(seed, 3)),
                lists: None,
                subset: Vec::new(),
            },
        }
    }

    /// The timed call: the workload's engine entry point with `shards`
    /// shards. The ruling and h-partition sessions borrow `pool`;
    /// `list_color_sparse` has no pool parameter and spawns its own.
    pub fn call(self, input: &Input, pool: &EnginePool, shards: usize) -> Raw {
        let g = &input.graph;
        let config = EngineConfig::default().with_shards(shards).with_pool(pool);
        match self {
            Workload::Planar6Pipeline => Raw::Coloring(list_color_sparse(
                g,
                input.lists.as_ref().expect("planar inputs carry lists"),
                PLANAR_D,
                SparseColoringConfig {
                    engine_shards: Some(shards),
                    ..SparseColoringConfig::default()
                },
            )),
            Workload::RulingGrid => {
                let mut ledger = RoundLedger::new();
                let (forest, metrics) =
                    engine_ruling_forest(g, None, &input.subset, RULING_ALPHA, config, &mut ledger);
                Raw::Ruling(forest, ledger, metrics)
            }
            Workload::HPartition1m => {
                let mut ledger = RoundLedger::new();
                let (hp, metrics) =
                    engine_h_partition(g, None, HPART_A, HPART_EPS, config, &mut ledger);
                Raw::HPartition(hp, ledger, metrics)
            }
        }
    }

    /// The sequential twin of [`Workload::call`] on the same input.
    pub fn twin(self, input: &Input) -> Raw {
        let g = &input.graph;
        let mut ledger = RoundLedger::new();
        match self {
            Workload::Planar6Pipeline => Raw::Coloring(list_color_sparse(
                g,
                input.lists.as_ref().expect("planar inputs carry lists"),
                PLANAR_D,
                SparseColoringConfig::default(),
            )),
            Workload::RulingGrid => {
                let forest = ruling_forest(g, None, &input.subset, RULING_ALPHA, &mut ledger);
                Raw::Ruling(forest, ledger, EngineMetrics::default())
            }
            Workload::HPartition1m => {
                let hp = h_partition(g, None, HPART_A, HPART_EPS, &mut ledger);
                Raw::HPartition(hp, ledger, EngineMetrics::default())
            }
        }
    }
}

pub struct Input {
    pub graph: Graph,
    pub lists: Option<ListAssignment>,
    /// Ruling-forest subset (every vertex); empty elsewhere.
    pub subset: Vec<VertexId>,
}

/// A library call's return value, untouched.
pub enum Raw {
    Coloring(Result<Outcome, ColoringError>),
    Ruling(RulingForest, RoundLedger, EngineMetrics),
    HPartition(HPartition, RoundLedger, EngineMetrics),
}

pub enum Output {
    Colors(Vec<usize>),
    Ruling(RulingForest),
    HPartition(HPartition),
}

/// A call's output with the counters the library returned alongside it.
pub struct Solved {
    pub output: Output,
    /// `RoundLedger::total()`: the paper's round count.
    pub rounds: u64,
    pub metrics: EngineMetrics,
    /// Peeling levels (`PeelStats::levels`); 0 outside the core pipeline.
    pub levels: usize,
    /// Smallest per-level happy fraction; 0 outside the core pipeline.
    pub happy_frac_min: f64,
}

impl Raw {
    /// `None` when Theorem 1.3 returned an error or a clique: neither can
    /// happen on a planar triangulation with 6-lists.
    pub fn into_solved(self) -> Option<Solved> {
        match self {
            Raw::Coloring(Ok(Outcome::Colored(c))) => {
                let c = *c;
                Some(Solved {
                    rounds: c.ledger.total(),
                    levels: c.stats.levels(),
                    happy_frac_min: c
                        .stats
                        .happy_fractions()
                        .into_iter()
                        .fold(f64::INFINITY, f64::min)
                        .min(1.0),
                    metrics: c.engine_metrics,
                    output: Output::Colors(c.colors),
                })
            }
            Raw::Coloring(_) => None,
            Raw::Ruling(forest, ledger, metrics) => Some(Solved {
                output: Output::Ruling(forest),
                rounds: ledger.total(),
                metrics,
                levels: 0,
                happy_frac_min: 0.0,
            }),
            Raw::HPartition(hp, ledger, metrics) => Some(Solved {
                output: Output::HPartition(hp),
                rounds: ledger.total(),
                metrics,
                levels: 0,
                happy_frac_min: 0.0,
            }),
        }
    }
}

/// Checks a solve. Colorings must be proper list colorings; with a twin,
/// the output and the ledger total must also equal the twin's bit for bit
/// (ruling forests and h-partitions are always checked against one).
pub fn verify(input: &Input, solved: &Solved, twin: Option<&Solved>) -> bool {
    let same_as_twin = || {
        twin.is_some_and(|t| {
            t.rounds == solved.rounds
                && match (&solved.output, &t.output) {
                    (Output::Colors(a), Output::Colors(b)) => a == b,
                    (Output::Ruling(a), Output::Ruling(b)) => {
                        a.roots == b.roots
                            && a.parent == b.parent
                            && a.root_of == b.root_of
                            && a.depth == b.depth
                            && a.alpha == b.alpha
                    }
                    (Output::HPartition(a), Output::HPartition(b)) => {
                        a.layer == b.layer && a.layers == b.layers && a.threshold == b.threshold
                    }
                    _ => false,
                }
        })
    };
    match &solved.output {
        Output::Colors(colors) => {
            let lists = input.lists.as_ref().expect("planar inputs carry lists");
            graphs::is_proper_list_coloring(&input.graph, colors, lists.as_slice())
                && (twin.is_none() || same_as_twin())
        }
        Output::Ruling(_) | Output::HPartition(_) => same_as_twin(),
    }
}

/// SplitMix64 finalizer over `seed ^ stream`: independent per-input seeds
/// from the one workload seed.
pub fn mix64(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix64(7, 1), mix64(7, 2));
        assert_eq!(mix64(7, 1), mix64(7, 1));
    }
}
