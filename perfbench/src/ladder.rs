//! The traced run: an outside-in ladder of calls into each module's
//! public functions, one span per call and `rfjson_telemetry` snapshot
//! deltas around the calls whose counters it reads.
//!
//! Per request (one ingest batch) the ladder times, in this order:
//! `frame` (`split_records`), `swar.mask` (`classify_word` +
//! `string_mask_word` over every word), `engine.block` (`on_block` over
//! pre-split records), `engine.stream` (serial `filter_stream_into`),
//! `engine.strings` / `engine.numbers` (engines compiled from only the
//! string or only the number units), `multi.fused` (one fused pass),
//! `model` (`CompiledFilter`, sampled), `runtime.shards1` (a one-shard
//! runner), `runtime.call` (the default fan-out runner under test) and
//! `parse` (every kept record). Single-query layers sum over the
//! workload's queries.

use crate::e2e::{Client, Sample, Setup};
use crate::runner::{batch_equals, column_equals, Runner};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::workload::{Batch, Gate};
use rfjson_core::{
    BatchVerdicts, CompiledFilter, Engine, Expr, FilterBackend, IngestLimits, MultiBackend,
    MultiEngine,
};
use rfjson_jsonstream::frame::split_records;
use rfjson_jsonstream::swar::{classify_word, load_word, string_mask_word, StringState};
use rfjson_runtime::RunnerConfig;
use rfjson_telemetry::Snapshot;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Share of the run spent on the overhead phase (interleaved untraced
/// and traced requests); the rest runs the ladder.
pub const OVERHEAD_SHARE: f64 = 0.3;

/// Requests per block in the overhead phase's alternation.
const OVERHEAD_BLOCK: usize = 8;

/// Every `MODEL_EVERY`-th ladder request also times the model.
const MODEL_EVERY: u64 = 4;

/// Ladder requests made even when the time is up.
const MIN_LADDER: usize = 8;

/// Which primitive leaves an engine of the unit ladder keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leaves {
    /// `s(...)` string units only.
    Strings,
    /// `v(...)` number units only.
    Numbers,
}

/// `expr` with only the chosen leaves, combinators kept wherever a child
/// survives; `None` if no leaf of that kind exists. Dropping leaves of
/// an `And`/`Ctx` only relaxes it, so the projection accepts every record
/// the query truly matches.
pub fn project(expr: &Expr, keep: Leaves) -> Option<Expr> {
    match expr {
        Expr::Str(_) => (keep == Leaves::Strings).then(|| expr.clone()),
        Expr::Num(_) => (keep == Leaves::Numbers).then(|| expr.clone()),
        Expr::And(cs) | Expr::Or(cs) | Expr::Ctx(cs, _) => {
            let kept: Vec<Expr> = cs.iter().filter_map(|c| project(c, keep)).collect();
            if kept.is_empty() {
                return None;
            }
            Some(match expr {
                Expr::And(_) => Expr::and(kept),
                Expr::Or(_) => Expr::or(kept),
                Expr::Ctx(_, scope) => Expr::context_scoped(*scope, kept),
                _ => unreachable!("leaves handled above"),
            })
        }
    }
}

/// Runs the SWAR classify + string-mask kernels over every whole word of
/// `bytes`; returns a fold of the masks so the work cannot be elided.
fn swar_mask(bytes: &[u8]) -> u64 {
    let mut state = StringState::default();
    let mut acc = 0u64;
    for chunk in bytes.chunks_exact(8) {
        let w = load_word(chunk.try_into().expect("chunks_exact gives 8 bytes"));
        let m = classify_word(w);
        let (masked, next) = string_mask_word(m.quotes, m.backslashes, state);
        state = next;
        acc = acc.rotate_left(5) ^ u64::from(masked) ^ u64::from(m.specials());
    }
    acc
}

/// `on_block` over pre-split records (separator byte and reset after
/// each), framing excluded; appends one decision per record.
fn block_pass(engine: &mut Engine, bytes: &[u8], batch: &Batch, out: &mut Vec<bool>) {
    for rec in &batch.records {
        let last = engine.on_block(&bytes[rec.clone()]);
        out.push(engine.on_byte(b'\n') || last);
        engine.reset();
    }
}

/// Does `got` accept every record whose column-`q` truth holds?
fn no_false_negatives(truth: &[bool], queries: usize, q: usize, got: &[bool]) -> bool {
    truth.len() == got.len() * queries
        && got
            .iter()
            .enumerate()
            .all(|(r, &v)| v || !truth[r * queries + q])
}

fn snapshot() -> Snapshot {
    rfjson_telemetry::registry().snapshot()
}

/// Counter sums the ladder reads from telemetry deltas.
#[derive(Debug, Default)]
struct Counters {
    engine_block: u64,
    engine_serial: u64,
    engine_skipped: u64,
    multi_bytes: u64,
    gate_skips: u64,
    checked: u64,
    rejected: u64,
    prefilter_skipped: u64,
    runtime_bytes: u64,
    runtime_calls: u64,
    live_lanes: Vec<f64>,
    imbalance: Vec<f64>,
}

/// Per-request bookkeeping of the ladder phase.
#[derive(Debug, Clone, Copy)]
struct LadderRequest {
    id: u64,
    bytes: usize,
    kept_bytes: usize,
}

/// The per-layer metrics of one traced run, with set-ups spread over it
/// as in the untraced run.
pub fn run(
    client: &mut Client<'_>,
    seconds: f64,
    gate: &mut Gate,
) -> (Vec<(&'static str, f64)>, Tracer) {
    let prep = client.prep();
    let mut setup = Setup::spread_over(seconds);
    let q = prep.queries();
    let fused_workload = prep.workload.fused();
    let mut tracer = Tracer::default();
    let faults_before = snapshot();

    // Phase 1: tracing overhead. Alternate blocks of untraced and traced
    // requests so drift on the box hits both alike.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * OVERHEAD_SHARE);
    let (mut plain, mut traced): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
    while plain.len() < MIN_LADDER || Instant::now() < deadline {
        setup.when_due(prep, gate);
        for _ in 0..OVERHEAD_BLOCK {
            plain.push(client.request(gate, None));
        }
        for _ in 0..OVERHEAD_BLOCK {
            traced.push(client.request(gate, Some(&mut tracer)));
        }
    }
    let total_ns =
        |xs: &[Sample]| median(&xs.iter().map(|s| s.total_ns as f64).collect::<Vec<_>>());
    let overhead_frac = total_ns(&traced) / total_ns(&plain) - 1.0;
    let call_tail = tail(
        &plain
            .iter()
            .map(|s| s.call_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let client_self_frac = {
        let selfs = tracer.self_times();
        let fracs: Vec<f64> = tracer
            .spans()
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == "request")
            .map(|(s, &own)| own as f64 / s.duration_ns().max(1) as f64)
            .collect();
        median(&fracs)
    };

    // Phase 2: the ladder.
    let mut block: Vec<Engine> = prep.exprs.iter().map(Engine::compile).collect();
    let mut stream: Vec<Engine> = prep.exprs.iter().map(Engine::compile).collect();
    let mut strings: Vec<Option<Engine>> = prep
        .exprs
        .iter()
        .map(|e| project(e, Leaves::Strings).map(|p| Engine::compile(&p)))
        .collect();
    let mut numbers: Vec<Option<Engine>> = prep
        .exprs
        .iter()
        .map(|e| project(e, Leaves::Numbers).map(|p| Engine::compile(&p)))
        .collect();
    let mut fused = MultiEngine::compile_batch(&prep.exprs);
    let share = fused.share_stats().clone();
    let mut models: Vec<CompiledFilter> = prep.exprs.iter().map(CompiledFilter::compile).collect();
    let mut shards1 = Runner::new(
        &prep.exprs,
        fused_workload,
        RunnerConfig {
            shards: Some(1),
            ..RunnerConfig::default()
        },
    );
    let mut c = Counters::default();
    let mut reqs: Vec<LadderRequest> = Vec::new();
    let mut buf: Vec<bool> = Vec::new();
    let mut bv = BatchVerdicts::new(q);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * (1.0 - OVERHEAD_SHARE));
    while reqs.len() < MIN_LADDER || Instant::now() < deadline {
        setup.when_due(prep, gate);
        let b = client.take_batch();
        let id = client.take_request_id();
        let bytes = prep.bytes(b);
        let batch = &prep.batches[b];
        let n = batch.records.len();
        let t = &mut tracer;
        let root = t.begin(id, "request", None);

        let framed = t.span(id, "frame", root, || {
            split_records(black_box(bytes)).count()
        });
        gate.check(framed == n, || {
            format!("frame: {framed} records, expected {n}")
        });
        black_box(t.span(id, "swar.mask", root, || swar_mask(black_box(bytes))));

        for (qi, e) in block.iter_mut().enumerate() {
            buf.clear();
            t.span(id, "engine.block", root, || {
                block_pass(e, bytes, batch, &mut buf)
            });
            gate.check(column_equals(&batch.expect, q, qi, &buf), || {
                format!("engine.block query {qi} differs from reference")
            });
            e.flush_telemetry();
        }

        let before = snapshot();
        for (qi, e) in stream.iter_mut().enumerate() {
            buf.clear();
            t.span(id, "engine.stream", root, || {
                e.filter_stream_into(bytes, &mut buf)
            });
            gate.check(column_equals(&batch.expect, q, qi, &buf), || {
                format!("engine.stream query {qi} differs from reference")
            });
        }
        let d = snapshot().delta(&before);
        c.engine_block += d.counter("engine.bytes.block");
        c.engine_serial += d.counter("engine.bytes.byte_serial");
        c.engine_skipped += d.counter("engine.bytes.prefilter_skipped");

        for (name, engines) in [
            ("engine.strings", &mut strings),
            ("engine.numbers", &mut numbers),
        ] {
            for (qi, e) in engines.iter_mut().enumerate() {
                let Some(e) = e.as_mut() else { continue };
                buf.clear();
                t.span(id, name, root, || block_pass(e, bytes, batch, &mut buf));
                gate.check(no_false_negatives(&batch.truth, q, qi, &buf), || {
                    format!("{name} query {qi}: false negative")
                });
                e.flush_telemetry();
            }
        }

        let before = snapshot();
        t.span(id, "multi.fused", root, || {
            bv.clear();
            fused.filter_stream_verdicts_into(bytes, IngestLimits::UNLIMITED, &mut bv);
        });
        gate.check(batch_equals(&batch.expect, q, &bv), || {
            "multi.fused differs from reference".to_string()
        });
        let d = snapshot().delta(&before);
        c.multi_bytes += d.counter("multi.bytes.block") + d.counter("multi.bytes.byte_serial");
        c.gate_skips += d.counter("multi.gate_skips.sub1") + d.counter("multi.gate_skips.subp");

        if id.is_multiple_of(MODEL_EVERY) {
            for (qi, m) in models.iter_mut().enumerate() {
                buf.clear();
                t.span(id, "model", root, || m.filter_stream_into(bytes, &mut buf));
                gate.check(column_equals(&batch.expect, q, qi, &buf), || {
                    format!("model query {qi} differs from reference")
                });
            }
        }

        let ok = t
            .span(id, "runtime.shards1", root, || shards1.call(bytes))
            .is_ok();
        gate.check(ok && shards1.answer_equals(&batch.expect), || {
            "one-shard runner differs from reference".to_string()
        });

        let before = snapshot();
        let ok = t
            .span(id, "runtime.call", root, || client.runner.call(bytes))
            .is_ok();
        let d = snapshot().delta(&before);
        gate.check(ok && client.runner.answer_equals(&batch.expect), || {
            "runner differs from reference".to_string()
        });
        let checked = d.counter("engine.prefilter.checked");
        c.checked += checked;
        c.rejected += d.counter("engine.prefilter.rejected");
        c.prefilter_skipped += d.counter("engine.bytes.prefilter_skipped");
        c.runtime_bytes += d.counter("runtime.bytes");
        c.runtime_calls += 1;
        let records = d.counter("runtime.records").max(1);
        let lanes = client.runner.shards_for(bytes);
        c.live_lanes
            .push((checked as f64 / records as f64 * lanes as f64).round());
        c.imbalance
            .push(d.gauge("runtime.shard_imbalance").unwrap_or(0.0));

        let runner = &client.runner;
        let parsed = t.span(id, "parse", root, || {
            runner.parse_kept(bytes, &batch.records)
        });
        gate.check(parsed, || "a kept record failed to parse".to_string());
        t.end(root);
        reqs.push(LadderRequest {
            id,
            bytes: bytes.len(),
            kept_bytes: batch.kept_bytes,
        });
    }
    setup.finish(prep, gate);
    let faults = snapshot().delta(&faults_before);

    // Self time (ns) of each layer per request id, and medians over the
    // ladder requests of per-request figures.
    let layer = |name: &str| -> BTreeMap<u64, f64> {
        tracer
            .self_by_request(name)
            .into_iter()
            .map(|(id, ns)| (id, ns as f64))
            .collect()
    };
    let over_requests = |f: &dyn Fn(&LadderRequest) -> Option<f64>| {
        median(&reqs.iter().filter_map(f).collect::<Vec<_>>())
    };
    let per_byte = |name: &str| {
        let t = layer(name);
        over_requests(&|r| Some(t.get(&r.id)? / r.bytes as f64))
    };
    let ratio = |num: &str, den: &str| {
        let (a, b) = (layer(num), layer(den));
        over_requests(&|r| Some(a.get(&r.id)? / b.get(&r.id)?.max(1.0)))
    };
    let (parse, call) = (layer("parse"), layer("runtime.call"));
    let parse_ns_per_byte =
        over_requests(&|r| (r.kept_bytes > 0).then_some(parse.get(&r.id)? / r.kept_bytes as f64));
    let parse_share = over_requests(&|r| {
        let (p, c) = (parse.get(&r.id)?, call.get(&r.id)?);
        Some(p / (p + c).max(1.0))
    });
    // Each pooled substring kind present has one any-unit gate, checked
    // once per fused-scanned byte.
    let gates = u64::from(share.pool.sub1 > 0) + u64::from(share.pool.subp > 0);
    let frac = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let bare = if fused_workload {
        "multi.fused"
    } else {
        "engine.stream"
    };

    let metrics = vec![
        ("frame.ns_per_byte", per_byte("frame")),
        (
            "frame.records",
            prep.records() as f64 / prep.batches.len() as f64,
        ),
        ("swar.mask_ns_per_byte", per_byte("swar.mask")),
        ("engine.block_ns_per_byte", per_byte("engine.block")),
        ("engine.stream_ns_per_byte", per_byte("engine.stream")),
        (
            "engine.byte_serial_frac",
            frac(
                c.engine_serial,
                c.engine_block + c.engine_serial + c.engine_skipped,
            ),
        ),
        ("engine.strings_ns_per_byte", per_byte("engine.strings")),
        ("engine.numbers_ns_per_byte", per_byte("engine.numbers")),
        ("prefilter.checked", frac(c.checked, c.runtime_calls)),
        ("prefilter.reject_ratio", frac(c.rejected, c.checked)),
        ("prefilter.live_lanes", median(&c.live_lanes)),
        (
            "prefilter.skipped_bytes_frac",
            frac(c.prefilter_skipped, c.runtime_bytes),
        ),
        ("multi.fused_ns_per_byte", per_byte("multi.fused")),
        ("multi.serial_ns_per_byte", per_byte("engine.stream")),
        ("multi.scan_sharing", ratio("engine.stream", "multi.fused")),
        (
            "multi.gate_skip_frac",
            frac(c.gate_skips, c.multi_bytes * gates),
        ),
        ("multi.units_pool", share.pool.total() as f64),
        ("multi.units_total", share.total_units() as f64),
        ("model.ns_per_byte", per_byte("model")),
        ("design.fpr", prep.fpr()),
        ("runtime.tax", ratio("runtime.shards1", bare)),
        (
            "runtime.fanout_speedup",
            ratio("runtime.shards1", "runtime.call"),
        ),
        ("runtime.shard_imbalance", median(&c.imbalance)),
        ("runtime.call_ms_tail", call_tail.value),
        ("runtime.retries", faults.counter("runtime.retries") as f64),
        (
            "runtime.lane_heals",
            faults.counter("runtime.lane_heals") as f64,
        ),
        (
            "runtime.double_faults",
            faults.counter("runtime.double_faults") as f64,
        ),
        ("parse.ns_per_byte", parse_ns_per_byte),
        ("parse.share", parse_share),
        ("compile.engine_s", median(&setup.compile_s)),
        ("compile.first_call_s", median(&setup.first_call_s)),
        ("trace.overhead_frac", overhead_frac),
        ("trace.client_self_frac", client_self_frac),
    ];
    (metrics, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projections_split_units() {
        let qs0 = rfjson_core::query::query_to_exprs(&rfjson_riotbench::Query::qs0(), 1)
            .expect("QS0 converts");
        let s = project(&qs0, Leaves::Strings).expect("QS0 has string units");
        let n = project(&qs0, Leaves::Numbers).expect("QS0 has number units");
        assert_eq!(
            s.num_primitives() + n.num_primitives(),
            qs0.num_primitives()
        );
        assert!(s.to_string().contains("s1(\"temperature\")"));
        assert!(!s.to_string().contains("v("));
        assert!(!n.to_string().contains("s1("));
        assert!(project(&Expr::int_range(1, 2), Leaves::Strings).is_none());
    }

    #[test]
    fn swar_mask_sees_every_word() {
        let a = swar_mask(br#"{"a":"x\"y","b":[1,2]}....."#);
        let b = swar_mask(br#"{"a":"x\"y","b":[1,3]}....."#);
        assert_eq!(a, b, "digits are not structural");
        assert_ne!(a, swar_mask(br#"{"a":"x\"y","b":[1,2]},...."#));
    }
}
