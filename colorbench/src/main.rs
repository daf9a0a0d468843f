//! colorbench — end-to-end and per-layer benchmark of the coloring stack.
//!
//! ```text
//! colorbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!            [--commit <id>] [--rustc <version>] [--source-digest <hex>]
//! ```
//!
//! One run builds the workload's input list from the seed (set-up, timed
//! and repeated [`SETUP_MIN_REPS`] or more times), solves it once as an
//! untimed warm-up, then solves the same list again and again for
//! `--seconds`, checking every output. Every sample must return identical
//! counts, and so must every run of the same sources with the same seed on
//! the same host; a difference fails the run. The last stdout line is the result object; the line
//! before it is the full run record, stamped with host facts.
//!
//! With `--trace 0` the result carries the end-to-end metrics. With
//! `--trace 1` untraced and traced samples alternate: a traced sample
//! regenerates the inputs and records spans around every call into a layer
//! (`graphs.gen`, `engine.pool_spawn`, the solve with its rounds as
//! children, `local_model.seq`, `graphs.verify`, `engine.view`,
//! `engine.shard_plan`), and the result carries the per-layer metrics.
//! Records, spans and the cross-run count check live under `.bench_out/`.

mod json;
mod procfs;
mod trace;
mod workload;

use std::fs;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use engine::{EngineMetrics, EnginePool, GraphView, ShardPlan};

use json::Json;
use procfs::Snapshot;
use trace::{phase_totals, SpanId, Trace};
use workload::{verify, Input, Solved, Workload, PLANAR_D};

/// Set-up repetitions per run: at least the minimum, then more while the
/// budget lasts; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 41;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const OUT_DIR: &str = ".bench_out";

/// Phases of the core peeling loop (classification and clique detection);
/// every other phase of `list_color_sparse` belongs to the extension.
const PEEL_PHASES: [&str; 3] = ["rich-poor", "ball-gather", "clique-detection"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    commit: String,
    rustc: String,
    source_digest: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut commit, mut rustc, mut digest) = (None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            "--commit" => commit = Some(value),
            "--rustc" => rustc = Some(value),
            "--source-digest" => digest = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let unknown = || "unknown".to_string();
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
        commit: commit.unwrap_or_else(unknown),
        rustc: rustc.unwrap_or_else(unknown),
        source_digest: digest.unwrap_or_else(unknown),
    })
}

/// Counts of one sample, summed over its inputs. They must repeat exactly.
#[derive(Clone, Debug, Default, PartialEq)]
struct Counts {
    rounds: u64,
    messages: usize,
    stepped: usize,
    levels: usize,
    threads_spawned: usize,
    /// Ledger rounds the engine never observed: `rounds − total_rounds()`.
    unobserved_rounds: i64,
}

impl Counts {
    fn add(&mut self, solved: &Solved, threads_spawned: usize) {
        let m = &solved.metrics;
        self.rounds += solved.rounds;
        self.messages += m.total_messages();
        self.stepped += m.per_round().iter().map(|r| r.stepped).sum::<usize>();
        self.levels += solved.levels;
        self.threads_spawned += threads_spawned;
        self.unobserved_rounds += solved.rounds as i64 - m.total_rounds() as i64;
    }

    fn json(&self) -> Json {
        Json::obj([
            ("rounds", Json::int(self.rounds)),
            ("engine.messages", Json::int(self.messages)),
            ("engine.stepped", Json::int(self.stepped)),
            ("core.levels", Json::int(self.levels)),
            ("engine.threads_spawned", Json::int(self.threads_spawned)),
            (
                "engine.unobserved_rounds",
                Json::int(self.unobserved_rounds),
            ),
        ])
    }
}

/// One timed library call and what it returned.
struct Timed {
    wall: Duration,
    proc: Snapshot,
    threads_spawned: usize,
    /// `None` when the call panicked or returned no coloring.
    solved: Option<Solved>,
}

/// Times one call of the workload's entry point. With a trace, the call
/// gets a span under `parent` and its rounds become the span's children.
fn solve_once(
    wl: Workload,
    input: &Input,
    pool: &EnginePool,
    nproc: usize,
    trace: Option<(&mut Trace, u64, SpanId)>,
) -> (Timed, Option<SpanId>) {
    let spawned0 = engine::worker_threads_spawned();
    let proc0 = Snapshot::take();
    let mut span = trace.map(|(t, sample, parent)| {
        let id = t.open(sample, Some(parent), wl.solve_span());
        (t, id)
    });
    let start = Instant::now();
    let raw = catch_unwind(AssertUnwindSafe(|| wl.call(black_box(input), pool, nproc)));
    let wall = start.elapsed();
    if let Some((t, id)) = span.as_mut() {
        t.close(*id);
    }
    let proc = proc0.delta(&Snapshot::take());
    let threads_spawned = engine::worker_threads_spawned() - spawned0;
    let solved = black_box(raw).ok().and_then(|r| r.into_solved());
    let span = span.map(|(t, id)| {
        if let Some(s) = &solved {
            t.attach_rounds(id, s.metrics.per_round());
        }
        id
    });
    let timed = Timed {
        wall,
        proc,
        threads_spawned,
        solved,
    };
    (timed, span)
}

/// The sequential twin of one input, as a checked-against reference.
fn twin_of(wl: Workload, input: &Input) -> Option<Solved> {
    wl.twin(input).into_solved()
}

/// Nearest-rank quantile; `quantile(xs, 0.5)` is the lower median.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A traced solve and its spans.
struct TracedSolve {
    wall: Duration,
    proc: Snapshot,
    metrics: EngineMetrics,
    happy_frac_min: f64,
    solve: SpanId,
    gen: SpanId,
    seq: SpanId,
    verify: SpanId,
    view: SpanId,
    shard_plan: SpanId,
}

/// A traced sample: every input of the list, solved once.
struct TracedSample {
    wall: Duration,
    counts: Counts,
    pool_spawn: SpanId,
    solves: Vec<TracedSolve>,
}

struct Run {
    wl: Workload,
    nproc: usize,
    reference: Option<Counts>,
    unsteady: Vec<String>,
    attempted: usize,
    failed: usize,
}

impl Run {
    /// Tallies one sample's solves and holds its counts to the first
    /// sample's.
    fn account(&mut self, solves: usize, failed: usize, counts: Counts) {
        self.attempted += solves;
        self.failed += failed;
        if failed > 0 {
            return;
        }
        match &self.reference {
            None => self.reference = Some(counts),
            Some(r) if *r != counts => self.unsteady.push(format!(
                "counts differ between samples of one input list: {} vs {}",
                r.json(),
                counts.json()
            )),
            Some(_) => {}
        }
    }

    fn healthy(&self) -> bool {
        self.failed == 0 && self.unsteady.is_empty()
    }

    /// One untraced sample: solve every input, check each output against
    /// its twin where the workload has one (outside the timed region).
    /// Returns the mean wall time of one solve.
    fn untraced(&mut self, inputs: &[Input], pool: &EnginePool, twins: &[Option<Solved>]) -> f64 {
        let (mut wall, mut failed, mut counts) = (Duration::ZERO, 0, Counts::default());
        for (input, twin) in inputs.iter().zip(twins) {
            let (timed, _) = solve_once(self.wl, input, pool, self.nproc, None);
            wall += timed.wall;
            match &timed.solved {
                Some(s) if verify(input, s, twin.as_ref()) => counts.add(s, timed.threads_spawned),
                _ => failed += 1,
            }
        }
        self.account(inputs.len(), failed, counts);
        secs(wall) / inputs.len() as f64
    }

    /// One traced sample: regenerate the inputs, spawn a pool, and for each
    /// input solve, run the sequential twin, verify, and time the
    /// standalone view and shard-plan constructions on its graph.
    fn traced(&mut self, seed: u64, t: &mut Trace, sample: u64) -> TracedSample {
        let wl = self.wl;
        let root = t.open(sample, None, "sample");
        t.set_attr(root, "workload", Json::str(wl.name()));
        let generated: Vec<(Input, SpanId)> = (0..wl.inputs_per_sample())
            .map(|i| t.record(sample, Some(root), "graphs.gen", || wl.input(seed, i)))
            .collect();
        let (pool, pool_spawn) = t.record(sample, Some(root), "engine.pool_spawn", || {
            EnginePool::new(self.nproc)
        });
        let (mut wall, mut failed, mut counts) = (Duration::ZERO, 0, Counts::default());
        let mut solves = Vec::new();
        for (input, gen) in &generated {
            let (timed, solve) =
                solve_once(wl, input, &pool, self.nproc, Some((&mut *t, sample, root)));
            let solve = solve.expect("a traced call has a span");
            wall += timed.wall;
            let (twin, seq) =
                t.record(sample, Some(root), "local_model.seq", || twin_of(wl, input));
            let (ok, verify_span) = t.record(sample, Some(root), "graphs.verify", || {
                timed
                    .solved
                    .as_ref()
                    .is_some_and(|s| verify(input, s, twin.as_ref()))
            });
            let (view, view_span) = t.record(sample, Some(root), "engine.view", || {
                GraphView::new(&input.graph, None)
            });
            let (plan, shard_plan) = t.record(sample, Some(root), "engine.shard_plan", || {
                ShardPlan::for_view(&view, self.nproc)
            });
            black_box((plan, view));
            let Some(solved) = timed.solved.filter(|_| ok) else {
                failed += 1;
                continue;
            };
            counts.add(&solved, timed.threads_spawned);
            solves.push(TracedSolve {
                wall: timed.wall,
                proc: timed.proc,
                happy_frac_min: solved.happy_frac_min,
                metrics: solved.metrics,
                solve,
                gen: *gen,
                seq,
                verify: verify_span,
                view: view_span,
                shard_plan,
            });
        }
        t.close(root);
        self.account(generated.len(), failed, counts.clone());
        TracedSample {
            wall,
            counts,
            pool_spawn,
            solves,
        }
    }
}

/// `(name, value, unit)` of one reported metric.
type Metric = (&'static str, f64, &'static str);

fn end_to_end(walls: &[f64], setup: &[f64], counts: &Counts, run: &Run) -> Vec<Metric> {
    vec![
        ("solve_s", median(walls), "s"),
        ("setup_s", median(setup), "s"),
        ("peak_rss_mb", procfs::peak_rss_mib(), "MiB"),
        ("rounds", counts.rounds as f64, "rounds"),
        (
            "verify_pass_frac",
            ratio((run.attempted - run.failed) as f64, run.attempted as f64),
            "ratio",
        ),
    ]
}

/// The traced sample with the median total solve wall.
fn median_sample(traced: &[TracedSample]) -> &TracedSample {
    let mut by_wall: Vec<&TracedSample> = traced.iter().collect();
    by_wall.sort_by_key(|s| s.wall);
    by_wall[(by_wall.len() - 1) / 2]
}

/// The per-layer metrics of a traced run. Times are per solve: the
/// breakdown of the solve is the mean over the inputs of the median traced
/// sample, so it adds up to that sample's wall —
/// `engine.round_s + engine.outside_rounds_s = trace.solve_s` and
/// `engine.compute_s + engine.route_s = engine.round_s`. Standalone calls
/// report the median over every traced input. Counts are totals over the
/// sample's input list, like `rounds`.
fn per_layer(
    wl: Workload,
    n: usize,
    t: &Trace,
    traced: &[TracedSample],
    untraced_walls: &[f64],
) -> Vec<Metric> {
    let med = median_sample(traced);
    let k = med.solves.len() as f64;
    let all_solves = || traced.iter().flat_map(|s| &s.solves);
    let span_median = |pick: fn(&TracedSolve) -> SpanId| {
        median(
            &all_solves()
                .map(|s| secs(t.duration(pick(s))))
                .collect::<Vec<_>>(),
        )
    };
    let sum = |f: &dyn Fn(&TracedSolve) -> Duration| med.solves.iter().map(f).sum::<Duration>();

    // Whole nanoseconds until the final division, so the parts add up.
    let solve = sum(&|s| t.duration(s.solve));
    let outside = sum(&|s| t.self_time(s.solve));
    let route = sum(&|s| s.metrics.total_route_wall());
    let round = solve - outside;
    let compute = round.saturating_sub(route);
    let per_solve = |d: Duration| secs(d) / k;
    let solve_s = per_solve(solve);
    let phase_wall = |peel: bool| {
        let core = wl.uses_core();
        sum(&|s| {
            s.metrics
                .per_round()
                .iter()
                .filter(|r| core && PEEL_PHASES.contains(&&*r.phase) == peel)
                .map(|r| r.wall)
                .sum()
        })
    };
    let rounds = || med.solves.iter().flat_map(|s| s.metrics.per_round());
    let (live, stepped) = rounds().fold((0, 0), |(l, s), r| (l + r.live, s + r.stepped));
    let all_round_ms: Vec<f64> = all_solves()
        .flat_map(|s| s.metrics.per_round().iter().map(|r| r.wall_ms()))
        .collect();
    let counts = &med.counts;
    let bound = if wl.uses_core() {
        let per_input = (PLANAR_D as f64).powi(4) * (n as f64).log2().powi(3);
        counts.rounds as f64 / (k * per_input)
    } else {
        0.0
    };
    let seq_s = span_median(|s| s.seq);
    let solves = all_solves().count() as f64;
    let cpu: f64 = all_solves().map(|s| s.proc.cpu_s).sum();
    let traced_wall: f64 = all_solves().map(|s| secs(s.wall)).sum();
    let traced_walls: Vec<f64> = traced
        .iter()
        .map(|s| secs(s.wall) / s.solves.len() as f64)
        .collect();
    vec![
        ("graphs.gen_s", span_median(|s| s.gen), "s"),
        ("graphs.verify_s", span_median(|s| s.verify), "s"),
        (
            "engine.pool_spawn_s",
            median(
                &traced
                    .iter()
                    .map(|s| secs(t.duration(s.pool_spawn)))
                    .collect::<Vec<_>>(),
            ),
            "s",
        ),
        ("engine.view_s", span_median(|s| s.view), "s"),
        ("engine.shard_plan_s", span_median(|s| s.shard_plan), "s"),
        ("engine.round_s", per_solve(round), "s"),
        ("engine.compute_s", per_solve(compute), "s"),
        ("engine.route_s", per_solve(route), "s"),
        (
            "engine.route_frac",
            ratio(secs(route), secs(round)),
            "ratio",
        ),
        ("engine.round_p50_ms", quantile(&all_round_ms, 0.5), "ms"),
        ("engine.round_p99_ms", quantile(&all_round_ms, 0.99), "ms"),
        ("engine.outside_rounds_s", per_solve(outside), "s"),
        (
            "engine.outside_rounds_frac",
            ratio(secs(outside), secs(solve)),
            "ratio",
        ),
        ("engine.messages", counts.messages as f64, "count"),
        (
            "engine.messages_per_s",
            ratio(counts.messages as f64, secs(solve)),
            "1/s",
        ),
        ("engine.stepped", counts.stepped as f64, "count"),
        (
            "engine.active_frac",
            ratio(stepped as f64, live as f64),
            "ratio",
        ),
        (
            "engine.sessions",
            rounds().filter(|r| r.round == 1).count() as f64,
            "count",
        ),
        (
            "engine.threads_spawned",
            counts.threads_spawned as f64,
            "count",
        ),
        (
            "engine.unobserved_rounds",
            counts.unobserved_rounds as f64,
            "rounds",
        ),
        ("engine.overhead_x", ratio(solve_s, seq_s), "x"),
        ("core.levels", counts.levels as f64, "count"),
        (
            "core.happy_frac_min",
            med.solves
                .iter()
                .map(|s| s.happy_frac_min)
                .fold(1.0, f64::min),
            "ratio",
        ),
        ("core.peel_round_s", per_solve(phase_wall(true)), "s"),
        ("core.extend_round_s", per_solve(phase_wall(false)), "s"),
        ("core.round_bound_ratio", bound, "ratio"),
        ("local_model.seq_solve_s", seq_s, "s"),
        ("proc.cpu_s", cpu / solves, "s"),
        ("proc.cpu_util", ratio(cpu, traced_wall), "ratio"),
        (
            "proc.minflt",
            all_solves().map(|s| s.proc.minflt).sum::<u64>() as f64 / solves,
            "count",
        ),
        (
            "proc.nvcsw",
            all_solves().map(|s| s.proc.nvcsw).sum::<u64>() as f64 / solves,
            "count",
        ),
        ("trace.solve_s", solve_s, "s"),
        ("trace.samples", traced.len() as f64, "count"),
        (
            "trace.overhead_frac",
            ratio(median(&traced_walls), median(untraced_walls)) - 1.0,
            "ratio",
        ),
    ]
}

/// Per-phase rounds, wall and routing summed over `metrics`, for the run
/// record.
fn phases_json<'a>(metrics: impl Iterator<Item = &'a EngineMetrics>) -> Json {
    let totals = phase_totals(metrics.flat_map(|m| m.per_round()));
    Json::obj(totals.into_iter().map(|p| {
        let fields = [
            ("rounds", Json::int(p.rounds)),
            ("wall_s", Json::Num(secs(p.wall))),
            ("route_s", Json::Num(secs(p.route))),
            ("messages", Json::int(p.messages)),
        ];
        (p.phase, Json::obj(fields))
    }))
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|&(name, value, unit)| {
        let fields = [("value", Json::Num(value)), ("unit", Json::str(unit))];
        (name, Json::obj(fields))
    }))
}

/// Holds the counts to those of earlier runs with the same seed, sources and
/// rustc on a host with the same core count, recorded under
/// `.bench_out/counts/`. Runs of other sources are never compared, so a change
/// that moves a count is measured, not failed. Without a source digest there
/// is no build to key on and the check is skipped.
fn check_across_runs(args: &Args, nproc: usize, counts: &Counts) -> Result<(), String> {
    if args.source_digest == "unknown" {
        eprintln!("colorbench: no --source-digest, counts not compared across runs");
        return Ok(());
    }
    let build = format!("{} {}", args.source_digest, args.rustc);
    let build: String = build
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let dir = Path::new(OUT_DIR).join("counts");
    let path = dir.join(format!(
        "{}-seed{}-nproc{nproc}-{build}.json",
        args.workload.name(),
        args.seed
    ));
    let now = counts.json().to_string();
    match fs::read_to_string(&path) {
        Ok(before) if before.trim() == now => Ok(()),
        Ok(before) => Err(format!(
            "counts differ from an earlier run of the same sources with this seed: {} vs {now}",
            before.trim()
        )),
        Err(_) => {
            if let Err(e) = fs::create_dir_all(&dir).and_then(|_| fs::write(&path, &now)) {
                eprintln!(
                    "colorbench: cannot record counts in {}: {e}",
                    path.display()
                );
            }
            Ok(())
        }
    }
}

fn write_out(name: &str, write: impl FnOnce(&Path) -> std::io::Result<()>) {
    let path = Path::new(OUT_DIR).join(name);
    if let Err(e) = fs::create_dir_all(OUT_DIR).and_then(|_| write(&path)) {
        eprintln!("colorbench: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("colorbench: {e}");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut run = Run {
        wl,
        nproc,
        reference: None,
        unsteady: Vec::new(),
        attempted: 0,
        failed: 0,
    };

    // Set-up: generate the inputs and spawn the pool, at least
    // SETUP_MIN_REPS times and until SETUP_BUDGET has passed; the last copy
    // is kept. The previous copy is dropped first so peak RSS holds one
    // input list, as a user's process would.
    let mut setup_walls = Vec::new();
    let mut state: Option<(Vec<Input>, EnginePool)> = None;
    let setup_start = Instant::now();
    while setup_walls.len() < SETUP_MIN_REPS
        || (setup_start.elapsed() < SETUP_BUDGET && setup_walls.len() < SETUP_MAX_REPS)
    {
        drop(state.take());
        let start = Instant::now();
        let inputs = wl.generate(args.seed);
        let pool = EnginePool::new(nproc);
        setup_walls.push(secs(start.elapsed()));
        state = Some((inputs, pool));
    }
    let (inputs, pool) = state.expect("at least one set-up");
    let twins: Vec<Option<Solved>> = inputs
        .iter()
        .map(|i| if wl.uses_core() { None } else { twin_of(wl, i) })
        .collect();

    // Warm-up: checked and counted, not timed.
    run.untraced(&inputs, &pool, &twins);

    let mut walls = Vec::new();
    let mut tr = Trace::new();
    let mut traced = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while run.healthy() {
        walls.push(run.untraced(&inputs, &pool, &twins));
        if args.trace {
            let sample = traced.len() as u64;
            traced.push(run.traced(args.seed, &mut tr, sample));
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let mut unsteady = run.unsteady.clone();
    if let Some(c) = &run.reference {
        if let Err(e) = check_across_runs(&args, nproc, c) {
            unsteady.push(e);
        }
    }
    let correct = run.failed == 0 && run.reference.is_some() && unsteady.is_empty();
    let metrics = match &run.reference {
        Some(_) if args.trace && run.healthy() => {
            per_layer(wl, inputs[0].graph.n(), &tr, &traced, &walls)
        }
        Some(c) if !args.trace => end_to_end(&walls, &setup_walls, c, &run),
        _ => Vec::new(),
    };

    let mut record = vec![
        ("record", Json::str("colorbench")),
        ("workload", Json::str(wl.name())),
        ("seed", Json::int(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::int(args.seconds)),
        (
            "host",
            Json::obj([
                ("nproc", Json::int(nproc)),
                ("cpu_model", Json::str(procfs::cpu_model())),
                ("rustc", Json::str(&args.rustc)),
                ("commit", Json::str(&args.commit)),
                ("source_digest", Json::str(&args.source_digest)),
            ]),
        ),
        (
            "engine",
            Json::obj([("shards", Json::int(nproc)), ("workers", Json::int(nproc))]),
        ),
        (
            "inputs",
            Json::Arr(
                inputs
                    .iter()
                    .map(|i| {
                        Json::obj([("n", Json::int(i.graph.n())), ("m", Json::int(i.graph.m()))])
                    })
                    .collect(),
            ),
        ),
        ("samples_timed", Json::int(walls.len())),
        (
            "solve_s_quartiles",
            Json::Arr(
                [0.25, 0.5, 0.75]
                    .map(|q| Json::Num(quantile(&walls, q)))
                    .to_vec(),
            ),
        ),
        (
            "setup_s_all",
            Json::Arr(setup_walls.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "counts",
            run.reference.as_ref().map_or(Json::Null, Counts::json),
        ),
        ("steady", Json::Bool(unsteady.is_empty())),
        (
            "unsteady",
            Json::Arr(unsteady.iter().map(Json::str).collect()),
        ),
        ("attempted", Json::int(run.attempted)),
        ("failed", Json::int(run.failed)),
        ("peak_rss_mib", Json::Num(procfs::peak_rss_mib())),
        ("metrics", metrics_json(&metrics)),
    ];
    if !traced.is_empty() {
        let med = median_sample(&traced);
        record.push(("phases", phases_json(med.solves.iter().map(|s| &s.metrics))));
    }
    let record = Json::obj(record);
    let stem = format!(
        "{}-seed{}-trace{}",
        wl.name(),
        args.seed,
        u8::from(args.trace)
    );
    write_out(&format!("{stem}.json"), |p| {
        fs::write(p, format!("{record}\n"))
    });
    if args.trace {
        write_out(&format!("{stem}.spans.jsonl"), |p| tr.write_jsonl(p));
    }
    for e in &unsteady {
        eprintln!("colorbench: UNSTEADY: {e}");
    }
    if run.failed > 0 {
        eprintln!(
            "colorbench: {} of {} solves failed verification",
            run.failed, run.attempted
        );
    }
    println!("{record}");
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::int(run.attempted)),
        ("failed", Json::int(run.failed)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
