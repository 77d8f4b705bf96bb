//! The three gateway workloads: their queries, their seeded streams, and
//! the prepared batches with ground truth, reference verdicts and the
//! correctness gate that every run passes through before timing starts.

use crate::batch::{record_aligned_batches, record_ranges, BATCH_BYTES};
use crate::runner::column_equals;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfjson_core::query::query_to_exprs;
use rfjson_core::{
    CompiledFilter, Engine, Expr, FilterBackend, IngestLimits, MultiBackend, MultiEngine,
    StructScope,
};
use rfjson_jsonstream::{parse, Value};
use rfjson_riotbench::{smartcity, taxi, twitter, Dataset, Query};
use std::ops::Range;

/// Stream size each run generates: 32 ingest batches.
pub const STREAM_BYTES: usize = 32 * BATCH_BYTES;

/// Every `ENGINE_SAMPLE_EVERY`-th batch is also answered by one
/// single-query `Engine` per query, which must agree with the fused
/// reference.
pub const ENGINE_SAMPLE_EVERY: usize = 4;

/// Every `MODEL_SAMPLE_EVERY`-th batch is also checked against the
/// cycle-faithful `CompiledFilter` model (the model is too slow to check
/// every batch).
pub const MODEL_SAMPLE_EVERY: usize = 8;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Homogeneous SmartCity SenML stream, QS0 at B=1, single-query runner.
    IotQs0,
    /// Taxi stream with about one SmartCity record per six Taxi records,
    /// QT at B=2, single-query runner.
    TaxiQtB2Mixed,
    /// SmartCity, Taxi and Twitter interleaved 6:3:1, the five resident
    /// queries fused in one multi-query runner.
    Gateway5q,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::IotQs0,
        Workload::TaxiQtB2Mixed,
        Workload::Gateway5q,
    ];

    /// The workload's printed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IotQs0 => "iot-qs0",
            Workload::TaxiQtB2Mixed => "taxi-qt-b2-mixed",
            Workload::Gateway5q => "gateway-5q",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the queries run fused through `MultiShardedRunner`.
    pub fn fused(self) -> bool {
        self == Workload::Gateway5q
    }

    /// Record mix weights: SmartCity, Taxi, Twitter.
    fn mix(self) -> [u32; 3] {
        match self {
            Workload::IotQs0 => [1, 0, 0],
            Workload::TaxiQtB2Mixed => [1, 6, 0],
            Workload::Gateway5q => [6, 3, 1],
        }
    }

    /// The resident queries.
    pub fn queries(self) -> Vec<QuerySpec> {
        match self {
            Workload::IotQs0 => vec![QuerySpec::table("QS0", Query::qs0(), 1)],
            Workload::TaxiQtB2Mixed => vec![QuerySpec::table("QT-B2", Query::qt(), 2)],
            Workload::Gateway5q => vec![
                QuerySpec::table("QS0", Query::qs0(), 1),
                QuerySpec::table("QS1", Query::qs1(), 1),
                QuerySpec::table("QT", Query::qt(), 1),
                QuerySpec::table("QT-B2", Query::qt(), 2),
                QuerySpec::qtw(),
            ],
        }
    }
}

/// How a record's true answer is computed from its parsed form.
#[derive(Debug, Clone)]
pub enum Truth {
    /// A Table VIII query's conjunctive range semantics.
    Table(Query),
    /// `lo ≤ user.favourites_count ≤ hi` on a tweet.
    Favourites {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl Truth {
    /// Does the parsed record truly match?
    pub fn matches(&self, record: &Value) -> bool {
        match self {
            Truth::Table(q) => q.matches(record),
            Truth::Favourites { lo, hi } => record
                .get("user")
                .and_then(|u| u.get("favourites_count"))
                .and_then(Value::as_numeric)
                .is_some_and(|v| *lo <= v && v <= *hi),
        }
    }
}

/// One resident query: its raw-filter expression and its ground truth.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Short name.
    pub name: &'static str,
    /// The raw-filter expression.
    pub expr: Expr,
    /// Ground-truth semantics.
    pub truth: Truth,
}

impl QuerySpec {
    fn table(name: &'static str, q: Query, b: usize) -> QuerySpec {
        QuerySpec {
            name,
            expr: query_to_exprs(&q, b).expect("Table VIII queries convert"),
            truth: Truth::Table(q),
        }
    }

    /// The Twitter query: a favourites count in range, member-scoped.
    fn qtw() -> QuerySpec {
        QuerySpec {
            name: "QTW",
            expr: Expr::context_scoped(
                StructScope::Member,
                [
                    Expr::substring(b"favourites_count", 2).expect("valid needle"),
                    Expr::int_range(100, 50_000),
                ],
            ),
            truth: Truth::Favourites {
                lo: 100.0,
                hi: 50_000.0,
            },
        }
    }
}

/// Records a source generates at a time while a stream is built.
const GENERATE_CHUNK: usize = 512;

/// Derives an independent sub-seed (SplitMix64 finaliser).
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn generate_source(source: usize, seed: u64, n: usize) -> Dataset {
    match source {
        0 => smartcity::generate(seed, n),
        1 => taxi::generate(seed, n),
        _ => twitter::generate(seed, n),
    }
}

/// Rewrites about a quarter of the spaces in a tweet's `text` into JSON
/// escape sequences, so the string-masking path meets backslashes.
fn inject_escapes(record: &[u8], rng: &mut StdRng) -> Vec<u8> {
    const KEY: &[u8] = br#""text":""#;
    const ESCAPES: [&[u8]; 6] = [br#"\" "#, br"\\ ", br"\n", br"\t", br"\u00e9 ", br"\/"];
    let Some(start) = record.windows(KEY.len()).position(|w| w == KEY) else {
        return record.to_vec();
    };
    let text_start = start + KEY.len();
    let text_end = text_start
        + record[text_start..]
            .iter()
            .position(|&b| b == b'"')
            .expect("generated tweet text is closed");
    let mut out = Vec::with_capacity(record.len() + 32);
    out.extend_from_slice(&record[..text_start]);
    for &b in &record[text_start..text_end] {
        if b == b' ' && rng.gen_range(0u32..4) == 0 {
            out.extend_from_slice(ESCAPES[rng.gen_range(0..ESCAPES.len())]);
        } else {
            out.push(b);
        }
    }
    out.extend_from_slice(&record[text_end..]);
    out
}

/// Generates the workload's newline-delimited stream of about
/// `target_bytes` from `seed`: the same seed gives the same bytes.
pub fn generate_stream(w: Workload, seed: u64, target_bytes: usize) -> Vec<u8> {
    let weights = w.mix();
    let total_weight: u32 = weights.iter().sum();
    // Estimate the mean record size from a small probe of each source.
    let mut mean = 0.0;
    for (s, &wt) in weights.iter().enumerate().filter(|(_, &wt)| wt > 0) {
        let probe = generate_source(s, sub_seed(seed, 10 + s as u64), 64);
        let avg = (probe.payload_bytes() + probe.len()) as f64 / probe.len() as f64;
        mean += avg * f64::from(wt) / f64::from(total_weight);
    }
    let n = (target_bytes as f64 / mean).ceil() as usize;

    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0));
    let picks: Vec<usize> = (0..n)
        .map(|_| {
            let mut r = rng.gen_range(0..total_weight);
            weights
                .iter()
                .position(|&wt| {
                    let hit = r < wt;
                    r = r.saturating_sub(wt);
                    hit
                })
                .expect("draw is below the total weight")
        })
        .collect();
    // Each source generates its records a chunk at a time, so only one
    // chunk per source is alive beside the stream: the generator's
    // freed records leave no heap behind to hide the runner's memory.
    let mut left = [0usize; 3];
    for &s in &picks {
        left[s] += 1;
    }
    let mut chunks: [(Dataset, usize); 3] =
        std::array::from_fn(|_| (Dataset::new("", Vec::new()), 0));
    let mut escape_rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    let mut stream = Vec::with_capacity(target_bytes + target_bytes / 8);
    for (i, &s) in picks.iter().enumerate() {
        let (chunk, next) = &mut chunks[s];
        if *next == chunk.len() {
            let n = left[s].min(GENERATE_CHUNK);
            *chunk = generate_source(s, sub_seed(seed, (16 + 3 * i + s) as u64), n);
            left[s] -= n;
            *next = 0;
        }
        let rec = &chunk.records()[*next];
        *next += 1;
        if s == 2 {
            stream.extend_from_slice(&inject_escapes(rec, &mut escape_rng));
        } else {
            stream.extend_from_slice(rec);
        }
        stream.push(b'\n');
    }
    stream
}

/// One ingest batch with everything the client checks its answer
/// against. Per-record vectors are record-major: entry `r * queries + q`.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Byte range of the batch in the stream.
    pub range: Range<usize>,
    /// Record ranges, relative to the batch.
    pub records: Vec<Range<usize>>,
    /// Parsed ground truth per record and query.
    pub truth: Vec<bool>,
    /// Reference verdicts per record and query (one serial fused pass,
    /// gated against single-query engines and the model).
    pub expect: Vec<bool>,
    /// Bytes (record plus separator) of the records some query kept.
    pub kept_bytes: usize,
}

/// Outcome of the correctness gate.
#[derive(Debug, Default)]
pub struct Gate {
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
}

impl Gate {
    /// Records one check.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(note());
            }
        }
    }
}

/// A workload ready to run: its queries, stream and checked batches.
#[derive(Debug)]
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// Its resident queries.
    pub specs: Vec<QuerySpec>,
    /// Their expressions, in query order.
    pub exprs: Vec<Expr>,
    /// The generated stream.
    pub stream: Vec<u8>,
    /// Record-aligned batches covering the stream.
    pub batches: Vec<Batch>,
}

impl Prepared {
    /// Generates the stream from `seed`, batches it, computes ground
    /// truth and reference verdicts, and runs the correctness gate. The
    /// reference is one fused `MultiEngine` pass per batch; the gate
    /// requires zero false negatives against parsed ground truth on every
    /// batch, the per-query `Engine` verdicts to equal the reference on
    /// sampled batches, and `CompiledFilter` to equal it on fewer.
    pub fn new(workload: Workload, seed: u64, gate: &mut Gate) -> Prepared {
        let specs = workload.queries();
        let exprs: Vec<Expr> = specs.iter().map(|s| s.expr.clone()).collect();
        let stream = generate_stream(workload, seed, STREAM_BYTES);
        let q = specs.len();
        let mut fused = MultiEngine::compile_batch(&exprs);
        let mut engines: Vec<Engine> = exprs.iter().map(Engine::compile).collect();
        let mut models: Vec<CompiledFilter> = exprs.iter().map(CompiledFilter::compile).collect();
        let mut verdicts = Vec::new();
        let mut batches = Vec::new();
        for (b, range) in record_aligned_batches(&stream, BATCH_BYTES)
            .into_iter()
            .enumerate()
        {
            let bytes = &stream[range.clone()];
            let records = record_ranges(bytes);
            let n = records.len();
            let mut truth = vec![false; n * q];
            for (r, rec) in records.iter().enumerate() {
                match parse(&bytes[rec.clone()]) {
                    Ok(v) => {
                        for (qi, spec) in specs.iter().enumerate() {
                            truth[r * q + qi] = spec.truth.matches(&v);
                        }
                    }
                    Err(e) => gate.check(false, || format!("batch {b} record {r}: {e}")),
                }
            }
            let fused_v = fused.filter_stream_verdicts(bytes, IngestLimits::UNLIMITED);
            gate.check(fused_v.num_records() == n, || {
                format!(
                    "batch {b}: {} fused verdicts for {n} records",
                    fused_v.num_records()
                )
            });
            let mut expect = vec![false; n * q];
            for r in 0..n.min(fused_v.num_records()) {
                for (qi, e) in expect[r * q..(r + 1) * q].iter_mut().enumerate() {
                    *e = fused_v.matched(r, qi);
                }
            }
            let false_negatives = truth
                .iter()
                .zip(&expect)
                .filter(|&(&t, &v)| t && !v)
                .count();
            gate.check(false_negatives == 0, || {
                format!("batch {b}: {false_negatives} false negatives against parsed ground truth")
            });
            let mut cross_check = |kind: &str, backend: &mut dyn FilterBackend, qi: usize| {
                verdicts.clear();
                backend.filter_stream_into(bytes, &mut verdicts);
                gate.check(column_equals(&expect, q, qi, &verdicts), || {
                    format!("batch {b} query {qi}: {kind} differs from fused reference")
                });
            };
            if b % ENGINE_SAMPLE_EVERY == 0 {
                for (qi, e) in engines.iter_mut().enumerate() {
                    cross_check("engine", e, qi);
                }
            }
            if b % MODEL_SAMPLE_EVERY == 0 {
                for (qi, m) in models.iter_mut().enumerate() {
                    cross_check("model", m, qi);
                }
            }
            let kept_bytes = records
                .iter()
                .enumerate()
                .filter(|&(r, _)| expect[r * q..(r + 1) * q].contains(&true))
                .map(|(_, rec)| rec.len() + 1)
                .sum();
            batches.push(Batch {
                range,
                records,
                truth,
                expect,
                kept_bytes,
            });
        }
        Prepared {
            workload,
            specs,
            exprs,
            stream,
            batches,
        }
    }

    /// The bytes of batch `b`.
    pub fn bytes(&self, b: usize) -> &[u8] {
        &self.stream[self.batches[b].range.clone()]
    }

    /// Number of resident queries.
    pub fn queries(&self) -> usize {
        self.specs.len()
    }

    /// Records in the stream.
    pub fn records(&self) -> usize {
        self.batches.iter().map(|b| b.records.len()).sum()
    }

    /// Share of stream bytes that no query kept.
    pub fn bytes_dropped_frac(&self) -> f64 {
        let kept: usize = self.batches.iter().map(|b| b.kept_bytes).sum();
        1.0 - kept as f64 / self.stream.len() as f64
    }

    /// False positives over ground-truth negatives, pooled over every
    /// (record, query) pair — the definition of `core::design`.
    pub fn fpr(&self) -> f64 {
        let (mut fp, mut negatives) = (0usize, 0usize);
        for b in &self.batches {
            for (&t, &v) in b.truth.iter().zip(&b.expect) {
                if !t {
                    negatives += 1;
                    fp += usize::from(v);
                }
            }
        }
        if negatives == 0 {
            0.0
        } else {
            fp as f64 / negatives as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded() {
        let a = generate_stream(Workload::Gateway5q, 7, 64 * 1024);
        assert_eq!(a, generate_stream(Workload::Gateway5q, 7, 64 * 1024));
        assert_ne!(a, generate_stream(Workload::Gateway5q, 8, 64 * 1024));
        assert!(a.len() > 48 * 1024 && a.len() < 96 * 1024, "{}", a.len());
    }

    #[test]
    fn mixed_streams_follow_their_weights() {
        let s = generate_stream(Workload::TaxiQtB2Mixed, 3, 512 * 1024);
        let senml = s
            .split(|&b| b == b'\n')
            .filter(|r| r.starts_with(b"{\"e\""))
            .count();
        let all = s.split(|&b| b == b'\n').filter(|r| !r.is_empty()).count();
        let share = senml as f64 / all as f64;
        assert!((0.10..0.19).contains(&share), "SmartCity share {share}");
    }

    #[test]
    fn escaped_tweets_stay_valid_json() {
        let s = generate_stream(Workload::Gateway5q, 5, 128 * 1024);
        let tweets: Vec<&[u8]> = s
            .split(|&b| b == b'\n')
            .filter(|r| r.starts_with(b"{\"created_at\""))
            .collect();
        assert!(!tweets.is_empty());
        assert!(
            tweets.iter().any(|t| t.contains(&b'\\')),
            "escapes injected"
        );
        for t in tweets {
            parse(t).expect("escaped tweet parses");
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }
}
