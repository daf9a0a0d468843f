//! Machine-readable engine bench artifact: `BENCH_engine.json`.
//!
//! Each record is one measured run — graph family, size, shard count,
//! observed rounds/messages, wall time — so successive PRs can diff the
//! perf trajectory mechanically. Sequential baseline rows use `shards = 0`.
//! The JSON is hand-rolled (the build environment is offline; no serde) but
//! stable: one object per line, sorted keys.

use std::fmt::Write as _;

/// One measured run for the perf-trajectory artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineBenchRecord {
    /// Mean frontier density across the run's rounds: stepped / live nodes,
    /// averaged per round (see `engine::RoundMetrics::active_frac`). `1.0`
    /// for sequential baselines, full scans, and artifacts written before
    /// frontier-sparse rounds existed; `bench_trend` charts its decay.
    pub active_frac: f64,
    /// Workload family name (e.g. `forest-union-a2`).
    pub family: String,
    /// Algorithm identifier (e.g. `randomized`, `h-partition`).
    pub algorithm: String,
    /// Vertex count.
    pub n: usize,
    /// Engine shard count; 0 marks the sequential baseline.
    pub shards: usize,
    /// LOCAL rounds executed (engine) or charged (sequential).
    pub rounds: u64,
    /// Messages routed (0 for sequential baselines — nothing is sent).
    pub messages: usize,
    /// Best-of-reps wall-clock milliseconds (the noise-rejection figure;
    /// budgets are judged on it).
    pub wall_ms: f64,
    /// Median (nearest-rank p50) wall-clock milliseconds across all reps —
    /// the honest central tendency next to the optimistic best-of. Equals
    /// `wall_ms` for single-rep runs and for artifacts written before the
    /// field existed.
    pub p50_ms: f64,
    /// Milliseconds spent in the worker-parallel routing phase (0 for
    /// sequential baselines). A subset of `wall_ms`; `bench_gate` enforces
    /// a routing-overhead budget on it.
    pub route_ms: f64,
    /// CONGEST split budget in words; 0 marks an unlimited-width run.
    /// `bench_gate` enforces a fragmentation-overhead budget on split rows
    /// against their unlimited twins.
    pub split: usize,
    /// Physical rounds spent on the wire (equals `rounds` outside split
    /// mode; under `CongestMode::Split` each logical round costs
    /// `ceil(max_width / split)`).
    pub physical_rounds: u64,
    /// CONGEST frames produced by fragmentation (0 outside split mode).
    pub fragments: usize,
    /// Whether the run used frontier-indexed rounds (the engine default).
    /// `false` marks a deliberate full-scan twin (`--no-frontier` rows);
    /// `bench_gate --min-frontier-speedup` judges the on/off pairs.
    pub frontier: bool,
    /// Total node-steps the frontier index skipped across the run (summed
    /// `RoundMetrics::frontier_skipped`). 0 for sequential baselines, full
    /// scans, and legacy artifacts; `bench_trend` reports it next to
    /// `active_frac` so the skip volume behind the density is visible.
    pub frontier_skipped: usize,
    /// Whether the routing epoch delivered inboxes in sender order without
    /// a per-inbox comparison sort (first by a sender-rank counting pass,
    /// now by ascending stepping). `false` marks rows measured before
    /// (per-inbox comparison sort) and sequential baselines; `bench_trend`
    /// renders the marker (`rank` vs `sorted`) so route-time comparisons
    /// across the protocol change stay honest.
    pub rank_routing: bool,
}

impl EngineBenchRecord {
    fn to_json(&self) -> String {
        // A `p50_ms` equal to `wall_ms` carries no independent information —
        // single-rep runs never measured a median at all. Omit the key and
        // let [`parse_engine_bench_json`]'s default restore `wall_ms`, so
        // the artifact never claims a percentile that was not observed.
        let p50 = if self.p50_ms == self.wall_ms {
            String::new()
        } else {
            format!("\"p50_ms\":{:.4},", self.p50_ms)
        };
        // Like `p50_ms`: a density of exactly 1.0 is the no-information
        // value (sequential rows, gating off, legacy artifacts) — omit the
        // key and let the parser's default restore it.
        let active = if self.active_frac == 1.0 {
            String::new()
        } else {
            format!("\"active_frac\":{:.4},", self.active_frac)
        };
        // `true` is the engine default and the only value legacy artifacts
        // could have meant — omit it, like the other no-information values.
        let frontier = if self.frontier {
            String::new()
        } else {
            String::from("\"frontier\":false,")
        };
        // 0 is the no-information value (baselines, full scans, legacy
        // artifacts) — omit it, like the other defaults.
        let skipped = if self.frontier_skipped == 0 {
            String::new()
        } else {
            format!("\"frontier_skipped\":{},", self.frontier_skipped)
        };
        // Legacy rows (comparison-sorted routing) and sequential baselines
        // omit the key; sort-free rows carry it so cross-protocol route
        // comparisons are labeled.
        let rank = if self.rank_routing {
            String::from("\"rank_routing\":true,")
        } else {
            String::new()
        };
        format!(
            concat!(
                "{{{}\"algorithm\":{},\"family\":{},\"fragments\":{},{}{}\"messages\":{},",
                "\"n\":{},{}\"physical_rounds\":{},{}\"rounds\":{},",
                "\"route_ms\":{:.4},\"shards\":{},\"split\":{},\"wall_ms\":{:.4}}}"
            ),
            active,
            json_string(&self.algorithm),
            json_string(&self.family),
            self.fragments,
            frontier,
            skipped,
            self.messages,
            self.n,
            p50,
            self.physical_rounds,
            rank,
            self.rounds,
            self.route_ms,
            self.shards,
            self.split,
            self.wall_ms,
        )
    }
}

/// Serializes records as a JSON array, one record per line.
pub fn render_engine_bench_json(records: &[EngineBenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(out, "  {}{}", r.to_json(), sep);
    }
    out.push_str("]\n");
    out
}

/// Parses a `BENCH_engine.json` artifact back into records.
///
/// This is the inverse of [`render_engine_bench_json`] for the exact shape
/// that function emits (one object per line, sorted keys, escaped strings) —
/// enough for CI's `bench_gate` to diff artifacts offline; it is not a
/// general JSON parser.
///
/// # Errors
///
/// Returns a message naming the offending line when a record cannot be
/// parsed.
pub fn parse_engine_bench_json(json: &str) -> Result<Vec<EngineBenchRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in json.lines().enumerate() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "[" || line == "]" {
            continue;
        }
        let fail = |what: &str| format!("line {}: {what}: {line}", lineno + 1);
        let body = line
            .strip_prefix('{')
            .and_then(|l| l.strip_suffix('}'))
            .ok_or_else(|| fail("expected one {…} object"))?;
        let mut rec = EngineBenchRecord {
            active_frac: 1.0,
            family: String::new(),
            algorithm: String::new(),
            n: 0,
            shards: 0,
            rounds: 0,
            messages: 0,
            wall_ms: 0.0,
            p50_ms: 0.0,
            route_ms: 0.0,
            split: 0,
            physical_rounds: 0,
            fragments: 0,
            frontier: true,
            frontier_skipped: 0,
            rank_routing: false,
        };
        let mut saw_physical = false;
        let mut saw_p50 = false;
        for field in split_top_level(body) {
            let (key, value) = field
                .split_once(':')
                .ok_or_else(|| fail("expected key:value"))?;
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            match key {
                "active_frac" => {
                    rec.active_frac = value.parse().map_err(|_| fail("bad active_frac"))?
                }
                "algorithm" => rec.algorithm = unescape(value).ok_or_else(|| fail("bad string"))?,
                "family" => rec.family = unescape(value).ok_or_else(|| fail("bad string"))?,
                "n" => rec.n = value.parse().map_err(|_| fail("bad n"))?,
                "shards" => rec.shards = value.parse().map_err(|_| fail("bad shards"))?,
                "rounds" => rec.rounds = value.parse().map_err(|_| fail("bad rounds"))?,
                "messages" => rec.messages = value.parse().map_err(|_| fail("bad messages"))?,
                "wall_ms" => rec.wall_ms = value.parse().map_err(|_| fail("bad wall_ms"))?,
                "p50_ms" => {
                    rec.p50_ms = value.parse().map_err(|_| fail("bad p50_ms"))?;
                    saw_p50 = true;
                }
                "route_ms" => rec.route_ms = value.parse().map_err(|_| fail("bad route_ms"))?,
                "split" => rec.split = value.parse().map_err(|_| fail("bad split"))?,
                "physical_rounds" => {
                    rec.physical_rounds = value.parse().map_err(|_| fail("bad physical_rounds"))?;
                    saw_physical = true;
                }
                "fragments" => rec.fragments = value.parse().map_err(|_| fail("bad fragments"))?,
                "frontier" => rec.frontier = value.parse().map_err(|_| fail("bad frontier"))?,
                "frontier_skipped" => {
                    rec.frontier_skipped =
                        value.parse().map_err(|_| fail("bad frontier_skipped"))?
                }
                "rank_routing" => {
                    rec.rank_routing = value.parse().map_err(|_| fail("bad rank_routing"))?
                }
                other => return Err(fail(&format!("unknown key {other:?}"))),
            }
        }
        if !saw_physical {
            // Pre-split artifacts: a logical round was a physical round.
            rec.physical_rounds = rec.rounds;
        }
        if !saw_p50 {
            // Pre-p50 artifacts recorded only the best-of wall time.
            rec.p50_ms = rec.wall_ms;
        }
        if rec.algorithm.is_empty() || rec.family.is_empty() {
            return Err(fail("record missing algorithm/family"));
        }
        out.push(rec);
    }
    Ok(out)
}

/// Splits `"k":"v","k2":3` on commas that are not inside a quoted string.
fn split_top_level(body: &str) -> Vec<&str> {
    let mut fields = Vec::new();
    let (mut start, mut in_string, mut escaped) = (0, false, false);
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            ',' if !in_string => {
                fields.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < body.len() {
        fields.push(&body[start..]);
    }
    fields
}

/// Inverts [`json_string`]: strips quotes and resolves the escapes it emits.
fn unescape(s: &str) -> Option<String> {
    let inner = s.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'u' => {
                let hex: String = (0..4).map(|_| chars.next()).collect::<Option<_>>()?;
                out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> EngineBenchRecord {
        EngineBenchRecord {
            active_frac: 0.75,
            family: "forest-union-a2".into(),
            algorithm: "randomized".into(),
            n: 1000,
            shards: 4,
            rounds: 24,
            messages: 12345,
            wall_ms: 1.5,
            p50_ms: 1.75,
            route_ms: 0.25,
            split: 0,
            physical_rounds: 24,
            fragments: 0,
            frontier: true,
            frontier_skipped: 0,
            rank_routing: false,
        }
    }

    #[test]
    fn rank_default_omitted_and_set_round_trip() {
        let legacy = record();
        let json = render_engine_bench_json(std::slice::from_ref(&legacy));
        assert!(
            !json.contains("rank_routing"),
            "default false omitted: {json}"
        );
        assert_eq!(parse_engine_bench_json(&json).unwrap(), vec![legacy]);

        let mut sort_free = record();
        sort_free.rank_routing = true;
        let json = render_engine_bench_json(&[sort_free.clone()]);
        assert!(json.contains("\"rank_routing\":true"), "{json}");
        assert_eq!(parse_engine_bench_json(&json).unwrap(), vec![sort_free]);
    }

    #[test]
    fn frontier_default_omitted_and_off_round_trips() {
        let on = record();
        let json = render_engine_bench_json(std::slice::from_ref(&on));
        assert!(
            !json.contains("frontier"),
            "default true is omitted: {json}"
        );
        assert_eq!(parse_engine_bench_json(&json).unwrap(), vec![on]);

        let mut off = record();
        off.frontier = false;
        let json = render_engine_bench_json(&[off.clone()]);
        assert!(json.contains("\"frontier\":false"), "{json}");
        assert_eq!(parse_engine_bench_json(&json).unwrap(), vec![off]);
    }

    #[test]
    fn frontier_skipped_zero_omitted_and_nonzero_round_trips() {
        let quiet = record();
        let json = render_engine_bench_json(std::slice::from_ref(&quiet));
        assert!(
            !json.contains("frontier_skipped"),
            "zero is omitted: {json}"
        );
        assert_eq!(parse_engine_bench_json(&json).unwrap(), vec![quiet]);

        let mut busy = record();
        busy.frontier_skipped = 98_765;
        let json = render_engine_bench_json(&[busy.clone()]);
        assert!(json.contains("\"frontier_skipped\":98765"), "{json}");
        assert_eq!(parse_engine_bench_json(&json).unwrap(), vec![busy]);
    }

    #[test]
    fn renders_valid_shape() {
        let json = render_engine_bench_json(&[record(), record()]);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert_eq!(json.matches("\"algorithm\":\"randomized\"").count(), 2);
        assert_eq!(json.matches("},").count(), 1, "exactly one separator");
        assert!(json.contains("\"wall_ms\":1.5000"));
        assert!(json.contains("\"p50_ms\":1.7500"));
        assert!(json.contains("\"route_ms\":0.2500"));
    }

    #[test]
    fn single_rep_rows_omit_p50() {
        // `p50_ms == wall_ms` means no independent median was measured
        // (single-rep runs); the key is dropped and the parser's default
        // restores it, so the artifact never invents a percentile.
        let mut rec = record();
        rec.p50_ms = rec.wall_ms;
        let json = render_engine_bench_json(&[rec.clone()]);
        assert!(!json.contains("p50_ms"), "{json}");
        let parsed = parse_engine_bench_json(&json).unwrap();
        assert_eq!(parsed, vec![rec]);
    }

    #[test]
    fn empty_list_is_valid() {
        assert_eq!(render_engine_bench_json(&[]), "[\n]\n");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\u000ay\"");
    }

    #[test]
    fn parse_round_trips_render() {
        let mut odd = record();
        odd.family = "weird \"family\"\n, really".into();
        odd.wall_ms = 0.0123;
        odd.split = 4;
        odd.physical_rounds = 61;
        odd.fragments = 8123;
        let originals = vec![record(), odd, record()];
        let parsed = parse_engine_bench_json(&render_engine_bench_json(&originals)).unwrap();
        assert_eq!(parsed, originals);
        assert_eq!(parse_engine_bench_json("[\n]\n").unwrap(), vec![]);
    }

    #[test]
    fn parse_accepts_pre_split_artifacts() {
        // Artifacts written before the split fields existed must still
        // parse, with physical rounds defaulting to the logical rounds.
        let legacy = concat!(
            "[\n",
            "  {\"algorithm\":\"randomized\",\"family\":\"f\",\"messages\":9,",
            "\"n\":10,\"rounds\":4,\"route_ms\":0.5000,",
            "\"shards\":2,\"wall_ms\":1.0000}\n",
            "]\n"
        );
        let parsed = parse_engine_bench_json(legacy).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].split, 0);
        assert_eq!(parsed[0].physical_rounds, 4);
        assert_eq!(parsed[0].fragments, 0);
        assert_eq!(
            parsed[0].p50_ms, parsed[0].wall_ms,
            "missing p50 defaults to the best-of wall"
        );
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let err = parse_engine_bench_json("[\n  not json\n]\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = parse_engine_bench_json("[\n  {\"n\":true}\n]\n").unwrap_err();
        assert!(err.contains("bad n"), "{err}");
    }
}
