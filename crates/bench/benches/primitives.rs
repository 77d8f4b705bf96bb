//! Criterion: byte throughput of each raw-filter expression through both
//! software execution paths — the cosim-faithful byte-serial model
//! (`model/…`) and the flat table-driven batch engine (`engine/…`). The
//! hardware processes exactly one byte per cycle by construction; the
//! engine is the performance floor of bulk software filtering.
//!
//! Expect the engine to win big on composed query filters (multiple
//! primitives amortise its per-byte frame) and roughly tie on bare
//! single primitives, where the model's class-compressed transition
//! tables are more cache-resident than 256-wide dense rows.
//!
//! The `number_bank` group isolates the number units: one number-dense
//! SenML record through the byte-serial `on_byte` loop (one table lookup
//! per number unit per number byte) and through `on_block` (one number
//! bank lookup per number byte), for QS0 alone and for the five gateway
//! queries fused.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rfjson_core::engine::Engine;
use rfjson_core::evaluator::CompiledFilter;
use rfjson_core::expr::{Expr, StructScope};
use rfjson_core::multi::MultiEngine;
use rfjson_core::query::query_to_exprs;
use rfjson_core::FilterBackend;
use rfjson_riotbench::{smartcity_corpus, Query};
use std::hint::black_box;

fn primitive_throughput(c: &mut Criterion) {
    let stream = smartcity_corpus(2000).stream();
    let mut group = c.benchmark_group("primitive_throughput");
    group.throughput(Throughput::Bytes(stream.len() as u64));
    group.sample_size(15);

    let cases: Vec<(&str, Expr)> = vec![
        (
            "s1_temperature",
            Expr::substring(b"temperature", 1).unwrap(),
        ),
        (
            "s2_temperature",
            Expr::substring(b"temperature", 2).unwrap(),
        ),
        ("window_temperature", Expr::window(b"temperature").unwrap()),
        ("dfa_temperature", Expr::dfa_string(b"temperature").unwrap()),
        ("v_12_49", Expr::int_range(12, 49)),
        (
            "ctx_temperature_pair",
            Expr::context([
                Expr::substring(b"temperature", 1).unwrap(),
                Expr::float_range("0.7", "35.1").unwrap(),
            ]),
        ),
        ("full_qs1", query_to_exprs(&Query::qs1(), 1).unwrap()),
    ];
    for (name, expr) in cases {
        let mut filter = CompiledFilter::compile(&expr);
        group.bench_function(format!("model/{name}"), |b| {
            b.iter(|| black_box(filter.filter_stream(black_box(&stream))));
        });
        let mut engine = Engine::compile(&expr);
        let mut out = Vec::new();
        group.bench_function(format!("engine/{name}"), |b| {
            b.iter(|| {
                out.clear();
                engine.filter_stream_into(black_box(&stream), &mut out);
                black_box(out.len())
            });
        });
    }
    group.finish();
}

/// A SenML record dense in number tokens: every measurement carries a
/// decimal value, an integer time offset and a signed exponent reading.
fn number_dense_senml() -> Vec<u8> {
    let mut record = br#"{"e":["#.to_vec();
    for i in 0..32 {
        if i > 0 {
            record.push(b',');
        }
        let v = format!(
            r#"{{"v":"{}.{}","t":{},"s":-{}e-{},"u":"per","n":"dust"}}"#,
            100 + i * 37 % 900,
            i * 7 % 100,
            1000 + i * 13,
            i % 9 + 1,
            i % 3 + 1
        );
        record.extend_from_slice(v.as_bytes());
    }
    record.extend_from_slice(br#"],"bt":1422748800000}"#);
    record
}

fn number_bank(c: &mut Criterion) {
    let record = number_dense_senml();
    let mut group = c.benchmark_group("number_bank");
    group.throughput(Throughput::Bytes(record.len() as u64));
    group.sample_size(15);

    let qs0 = query_to_exprs(&Query::qs0(), 1).unwrap();
    let mut engine = Engine::compile(&qs0);
    assert!(engine.block_scan_ready());
    group.bench_function("qs0/byte", |b| {
        b.iter(|| {
            engine.reset();
            let mut last = false;
            for &byte in black_box(&record[..]) {
                last = engine.on_byte(byte);
            }
            black_box(last)
        });
    });
    group.bench_function("qs0/block", |b| {
        b.iter(|| {
            engine.reset();
            black_box(engine.on_block(black_box(&record)))
        });
    });

    let gateway = vec![
        qs0,
        query_to_exprs(&Query::qs1(), 1).unwrap(),
        query_to_exprs(&Query::qt(), 1).unwrap(),
        query_to_exprs(&Query::qt(), 2).unwrap(),
        Expr::context_scoped(
            StructScope::Member,
            [
                Expr::substring(b"favourites_count", 2).unwrap(),
                Expr::int_range(100, 50_000),
            ],
        ),
    ];
    let mut fused = MultiEngine::compile_batch(&gateway);
    assert!(fused.block_scan_ready());
    group.bench_function("gateway5_fused/byte", |b| {
        b.iter(|| {
            fused.reset();
            for &byte in black_box(&record[..]) {
                fused.on_byte(byte);
            }
            let mut accepts = [0u64; 1];
            fused.write_accepts(&mut accepts);
            black_box(accepts[0])
        });
    });
    group.bench_function("gateway5_fused/block", |b| {
        b.iter(|| {
            fused.reset();
            fused.on_block(black_box(&record));
            let mut accepts = [0u64; 1];
            fused.write_accepts(&mut accepts);
            black_box(accepts[0])
        });
    });
    group.finish();
}

criterion_group!(benches, primitive_throughput, number_bank);
criterion_main!(benches);
