//! Wall-time trend table: a fresh scenario-lab run vs the committed
//! `BENCH_engine.json` artifact.
//!
//! ```sh
//! cargo run --release -p bench --bin bench_trend -- \
//!     lab-runs/bench/summary.json BENCH_engine.json >> "$GITHUB_STEP_SUMMARY"
//! ```
//!
//! CI's `scenario-lab` job runs the declared bench suite, then calls this
//! binary to diff the run's percentile summary against the artifact the
//! last `engine_table` invocation committed — so every PR's job summary
//! shows where the wall-clock trajectory is heading, not just whether a
//! budget tripped. The two sources measure different `n` (the suite is
//! CI-quick, the artifact is the full crossover sweep), so each lab group
//! is matched to the artifact record with the same algorithm and shard
//! count at the *nearest* `n`, and the comparison is normalized to
//! microseconds per vertex — the per-vertex constant factor is exactly what
//! the CSR/SoA layout work moves.
//!
//! Output is GitHub-flavored markdown (pipes render as a table in
//! `$GITHUB_STEP_SUMMARY`); the binary is informational and always exits 0
//! once both inputs parse. Only unlimited-width, fault-free lab groups are
//! compared — split and chaos rows have no committed twin.

use bench::{parse_engine_bench_json, EngineBenchRecord};
use lab::json::Value;

/// One lab summary group's fields we trend on.
struct LabGroup {
    algorithm: String,
    family: String,
    n: usize,
    shards: usize,
    /// Whether the group ran with frontier-indexed rounds. Full-scan twin
    /// scenarios (`"frontier": false`) only trend against full-scan
    /// artifact rows — matching them to frontier rows would misread the
    /// very overhead the twins exist to measure.
    frontier: bool,
    best_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (summary_path, artifact_path) = match args.as_slice() {
        [s] => (s.as_str(), "BENCH_engine.json"),
        [s, a] => (s.as_str(), a.as_str()),
        _ => {
            eprintln!("usage: bench_trend <summary.json> [BENCH_engine.json]");
            std::process::exit(2);
        }
    };
    let summary = std::fs::read_to_string(summary_path)
        .map_err(|e| format!("read {summary_path}: {e}"))
        .and_then(|s| lab::json::parse(&s))
        .unwrap_or_else(|e| {
            eprintln!("bench_trend: {e}");
            std::process::exit(2);
        });
    let artifact = std::fs::read_to_string(artifact_path)
        .map_err(|e| format!("read {artifact_path}: {e}"))
        .and_then(|s| parse_engine_bench_json(&s))
        .unwrap_or_else(|e| {
            eprintln!("bench_trend: {e}");
            std::process::exit(2);
        });
    let groups = lab_groups(&summary);
    println!("## Wall-time trend vs committed `{artifact_path}`");
    println!();
    print!("{}", render_trend(&groups, &artifact));
}

/// Extracts the unlimited-width, fault-free groups from a lab summary.
fn lab_groups(summary: &Value) -> Vec<LabGroup> {
    let Some(groups) = summary.get("groups").and_then(Value::as_arr) else {
        return Vec::new();
    };
    groups
        .iter()
        .filter(|g| {
            g.get("congest").and_then(Value::as_str) == Some("unlimited")
                && g.get("faults").and_then(Value::as_str) == Some("none")
        })
        .filter_map(|g| {
            Some(LabGroup {
                algorithm: g.get("algorithm")?.as_str()?.to_string(),
                family: g.get("family")?.as_str()?.to_string(),
                n: g.get("n")?.as_usize()?,
                shards: g.get("shards")?.as_usize()?,
                // Summaries written before the flag existed could only
                // have meant the default.
                frontier: match g.get("frontier") {
                    None => true,
                    Some(v) => v.as_bool()?,
                },
                best_ms: g.get("wall_ms_best")?.as_f64()?,
                p50_ms: g.get("wall_ms_p50")?.as_f64()?,
                p95_ms: g.get("wall_ms_p95")?.as_f64()?,
            })
        })
        .collect()
}

/// The committed record with the same algorithm, shard count, and frontier
/// setting whose `n` is nearest the lab group's (ties break toward the
/// larger run).
fn closest<'a>(
    records: &'a [EngineBenchRecord],
    group: &LabGroup,
) -> Option<&'a EngineBenchRecord> {
    records
        .iter()
        .filter(|r| {
            r.algorithm == group.algorithm
                && r.shards == group.shards
                && r.split == 0
                && r.frontier == group.frontier
        })
        .min_by_key(|r| (r.n.abs_diff(group.n), usize::MAX - r.n))
}

/// Compacts a skip count for the table: exact below 10k, `k`/`M` above —
/// `frontier_skipped` at the xl tier is billions of node-steps and the
/// column only needs its magnitude.
fn compact(count: usize) -> String {
    match count {
        0..=9_999 => count.to_string(),
        10_000..=999_999 => format!("{:.0}k", count as f64 / 1e3),
        _ => format!("{:.1}M", count as f64 / 1e6),
    }
}

/// Renders the markdown trend table (one row per matched lab group).
fn render_trend(groups: &[LabGroup], artifact: &[EngineBenchRecord]) -> String {
    let mut out = String::new();
    out.push_str(
        "| algorithm | shards | fresh n | best ms | p50 ms | p95 ms | fresh µs/v \
         | committed n | committed ms | µs/v | Δ µs/v | frontier | route |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|---|\n");
    let mut matched = 0;
    for g in groups {
        let Some(rec) = closest(artifact, g) else {
            continue;
        };
        matched += 1;
        let fresh_norm = g.best_ms * 1e3 / g.n.max(1) as f64;
        let committed_norm = rec.wall_ms * 1e3 / rec.n.max(1) as f64;
        let delta = (fresh_norm - committed_norm) / committed_norm.max(f64::EPSILON) * 100.0;
        // Committed frontier evidence: mean stepped/live density next to
        // the absolute node-steps the index skipped — the density shows
        // the decay, the count shows the volume it amounts to. Deliberate
        // full-scan rows print `scan` (density 1.0 by construction).
        let frontier_cell = if rec.frontier {
            format!("{:.2} / {}", rec.active_frac, compact(rec.frontier_skipped))
        } else {
            "scan".to_string()
        };
        // Committed routing evidence: the route fraction of the wall, with
        // the protocol marker — `rank` rows were routed without a per-inbox
        // comparison sort, `sorted` rows predate that, so a route-time
        // delta across the marker is a protocol change, not a regression.
        let route_cell = format!(
            "{:.2} {}",
            rec.route_ms / rec.wall_ms.max(f64::EPSILON),
            if rec.rank_routing { "rank" } else { "sorted" }
        );
        out.push_str(&format!(
            "| {} ({}) | {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {} | {:.2} | {:.2} | {:+.1}% | {} | {} |\n",
            g.algorithm,
            g.family,
            g.shards,
            g.n,
            g.best_ms,
            g.p50_ms,
            g.p95_ms,
            fresh_norm,
            rec.n,
            rec.wall_ms,
            committed_norm,
            delta,
            frontier_cell,
            route_cell,
        ));
    }
    if matched == 0 {
        return "_no lab group has a committed twin (algorithm + shard count) to trend \
                against_\n"
            .to_string();
    }
    out.push_str(&format!(
        "\n{matched} of {} lab group(s) matched; µs/v is best-of wall normalized per \
         vertex, Δ is fresh vs committed (negative = faster).\n",
        groups.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(algorithm: &str, n: usize, shards: usize, wall_ms: f64) -> EngineBenchRecord {
        EngineBenchRecord {
            active_frac: 0.5,
            family: "f".into(),
            algorithm: algorithm.into(),
            n,
            shards,
            rounds: 1,
            messages: 0,
            wall_ms,
            p50_ms: wall_ms,
            route_ms: 0.0,
            split: 0,
            physical_rounds: 1,
            fragments: 0,
            frontier: true,
            frontier_skipped: 0,
            rank_routing: false,
        }
    }

    fn group(algorithm: &str, n: usize, shards: usize, best_ms: f64) -> LabGroup {
        LabGroup {
            algorithm: algorithm.into(),
            family: "f".into(),
            n,
            shards,
            frontier: true,
            best_ms,
            p50_ms: best_ms,
            p95_ms: best_ms,
        }
    }

    #[test]
    fn closest_prefers_nearest_then_larger_n() {
        let records = vec![rec("a", 1000, 1, 1.0), rec("a", 10_000, 1, 9.0)];
        let g = group("a", 4000, 1, 2.0);
        assert_eq!(closest(&records, &g).unwrap().n, 1000);
        let g = group("a", 5500, 1, 2.0);
        assert_eq!(closest(&records, &g).unwrap().n, 10_000, "tie → larger n");
        assert!(closest(&records, &group("a", 4000, 8, 2.0)).is_none());
        assert!(closest(&records, &group("b", 1000, 1, 2.0)).is_none());
    }

    #[test]
    fn closest_pairs_full_scan_groups_with_full_scan_rows() {
        let mut scan_rec = rec("a", 1000, 1, 3.0);
        scan_rec.frontier = false;
        let records = vec![rec("a", 1000, 1, 1.0), scan_rec];
        let mut scan_group = group("a", 1000, 1, 2.0);
        scan_group.frontier = false;
        assert_eq!(closest(&records, &scan_group).unwrap().wall_ms, 3.0);
        assert_eq!(
            closest(&records, &group("a", 1000, 1, 2.0))
                .unwrap()
                .wall_ms,
            1.0
        );
        let on_only = vec![rec("a", 1000, 1, 1.0)];
        assert!(closest(&on_only, &scan_group).is_none());
    }

    #[test]
    fn trend_table_normalizes_per_vertex() {
        let mut committed = rec("a", 2000, 1, 4.0); // 2.0 µs/v committed
        committed.frontier_skipped = 123_000;
        let groups = vec![group("a", 1000, 1, 1.0)]; // 1.0 µs/v fresh
        let table = render_trend(&groups, &[committed]);
        assert!(table.contains("| a (f) | 1 | 1000 |"), "{table}");
        assert!(table.contains("| -50.0% | 0.50 / 123k |"), "{table}");
        assert!(table.contains("1 of 1 lab group(s) matched"), "{table}");
    }

    #[test]
    fn full_scan_rows_render_scan_not_density() {
        let mut scan_rec = rec("a", 1000, 1, 3.0);
        scan_rec.frontier = false;
        let mut scan_group = group("a", 1000, 1, 2.0);
        scan_group.frontier = false;
        let table = render_trend(&[scan_group], &[scan_rec]);
        assert!(table.contains("| scan |"), "{table}");
    }

    #[test]
    fn route_column_carries_frac_and_protocol_marker() {
        // 0.5 ms of a 4.0 ms wall, measured pre-rank → "0.12 sorted".
        let mut sorted_rec = rec("a", 2000, 1, 4.0);
        sorted_rec.route_ms = 0.5;
        let table = render_trend(&[group("a", 1000, 1, 1.0)], &[sorted_rec]);
        assert!(table.contains("| 0.12 sorted |"), "{table}");

        let mut rank_rec = rec("a", 2000, 1, 4.0);
        rank_rec.route_ms = 1.0;
        rank_rec.rank_routing = true;
        let table = render_trend(&[group("a", 1000, 1, 1.0)], &[rank_rec]);
        assert!(table.contains("| 0.25 rank |"), "{table}");
    }

    #[test]
    fn compact_keeps_magnitude_readable() {
        assert_eq!(compact(0), "0");
        assert_eq!(compact(9_999), "9999");
        assert_eq!(compact(123_456), "123k");
        assert_eq!(compact(2_560_000_000), "2560.0M");
    }

    #[test]
    fn unmatched_groups_degrade_gracefully() {
        let table = render_trend(&[group("a", 10, 1, 1.0)], &[]);
        assert!(
            table.contains("no lab group has a committed twin"),
            "{table}"
        );
    }

    #[test]
    fn lab_groups_filters_split_and_faulty_rows() {
        let summary = lab::json::parse(
            r#"{"groups": [
                {"algorithm": "a", "congest": "unlimited", "family": "f",
                 "faults": "none", "n": 10, "shards": 1,
                 "wall_ms_best": 1.0, "wall_ms_p50": 1.5, "wall_ms_p95": 2.0},
                {"algorithm": "a", "congest": "split:4", "family": "f",
                 "faults": "none", "n": 10, "shards": 1,
                 "wall_ms_best": 1.0, "wall_ms_p50": 1.5, "wall_ms_p95": 2.0},
                {"algorithm": "a", "congest": "unlimited", "family": "f",
                 "faults": "loss:0.1", "n": 10, "shards": 1,
                 "wall_ms_best": 1.0, "wall_ms_p50": 1.5, "wall_ms_p95": 2.0},
                {"algorithm": "a", "congest": "unlimited", "family": "f",
                 "faults": "none", "frontier": false, "n": 10, "shards": 1,
                 "wall_ms_best": 3.0, "wall_ms_p50": 3.5, "wall_ms_p95": 4.0}
            ]}"#,
        )
        .unwrap();
        let groups = lab_groups(&summary);
        assert_eq!(groups.len(), 2, "split and faulty rows are dropped");
        assert_eq!(groups[0].p95_ms, 2.0);
        assert!(
            groups[0].frontier,
            "groups without the flag default to frontier on"
        );
        assert!(!groups[1].frontier, "full-scan groups keep their flag");
    }
}
