//! Differential tests for the fused multi-query engine: for any query
//! batch, [`MultiEngine`] must be **byte-identical** to running N
//! independent [`Engine`]s — on the per-byte latched accept signal, at
//! arbitrary byte/block split seams, at every shard count, and under
//! quarantine limits. Fusing is allowed to be faster, never different.

use proptest::prelude::*;
use rfjson_core::multi::{MultiBackend, MultiEngine, MultiLanes};
use rfjson_core::query::query_to_exprs;
use rfjson_core::{CompiledFilter, Engine, Expr, FilterBackend, IngestLimits, StructScope};
use rfjson_riotbench::{smartcity, taxi, twitter, Query};
use rfjson_runtime::fault::{
    silence_injected_panics, FaultKind, FaultPlan, FaultyBackend, Trigger,
};
use rfjson_runtime::MultiShardedRunner;
use std::sync::OnceLock;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Query batches covering every primitive technique, shared units across
/// lanes, both structural scopes, and the paper's Table VIII queries.
///
/// The first batch is SWAR-eligible (single-word lanes, no wide units);
/// the second carries a wide-block substring so the fused byte-serial
/// fallback is exercised too.
fn batch_zoo() -> Vec<Vec<Expr>> {
    vec![
        vec![
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::window(b"light").unwrap(),
            Expr::dfa_string(b"humidity").unwrap(),
            Expr::int_range(12, 49),
            Expr::context([
                Expr::substring(b"temperature", 1).unwrap(),
                Expr::float_range("0.7", "35.1").unwrap(),
            ]),
            Expr::context_scoped(
                StructScope::Member,
                [
                    Expr::substring(b"tolls_amount", 2).unwrap(),
                    Expr::float_range("2.50", "18.00").unwrap(),
                ],
            ),
            query_to_exprs(&Query::qs0(), 1).unwrap(),
            query_to_exprs(&Query::qt(), 2).unwrap(),
        ],
        vec![
            Expr::substring(b"airquality_raw", 9).unwrap(),
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("-12.5", "43.1").unwrap(),
        ],
        // Duplicate lanes: dedup must not entangle their verdicts.
        vec![
            query_to_exprs(&Query::qs0(), 1).unwrap(),
            query_to_exprs(&Query::qs0(), 1).unwrap(),
            query_to_exprs(&Query::qs1(), 1).unwrap(),
        ],
    ]
}

fn bit(out: &[u64], q: usize) -> bool {
    out[q / 64] >> (q % 64) & 1 == 1
}

/// Steps the fused engine and N independent engines over `record + '\n'`
/// and asserts every lane's latched accept matches on **every byte**.
fn assert_bytewise(exprs: &[Expr], record: &[u8]) {
    let mut fused = MultiEngine::compile_batch(exprs);
    let mut engines: Vec<Engine> = exprs.iter().map(Engine::compile).collect();
    let mut out = vec![0u64; exprs.len().div_ceil(64)];
    for (i, &b) in record.iter().chain(b"\n").enumerate() {
        fused.on_byte(b);
        out.fill(0);
        fused.write_accepts(&mut out);
        for (q, engine) in engines.iter_mut().enumerate() {
            let want = engine.on_byte(b);
            assert_eq!(
                bit(&out, q),
                want,
                "lane {q} (`{}`) diverges at byte {i} ({:?}) of record {:?}",
                exprs[q],
                b as char,
                String::from_utf8_lossy(record)
            );
        }
    }
}

/// Feeds the record through both sides split at several points into a
/// byte-serial prefix plus **one** block remainder (the packed-state
/// sync-in/sync-out seams of the fused SWAR loop), asserting the record
/// decision of every lane matches the lane's own engine under the same
/// split.
fn assert_blockwise(exprs: &[Expr], record: &[u8]) {
    let mut fused = MultiEngine::compile_batch(exprs);
    let mut engines: Vec<Engine> = exprs.iter().map(Engine::compile).collect();
    let words = exprs.len().div_ceil(64);
    let mut splits = vec![0, record.len()];
    for s in [1, 7, 8, 9, 15, 16, record.len() / 2] {
        if s <= record.len() {
            splits.push(s);
        }
    }
    for split in splits {
        fused.reset();
        for &b in &record[..split] {
            fused.on_byte(b);
        }
        if split < record.len() {
            fused.on_block(&record[split..]);
        }
        let mut out = vec![0u64; words];
        fused.write_accepts(&mut out);
        fused.on_byte(b'\n');
        let mut post = vec![0u64; words];
        fused.write_accepts(&mut post);
        for (q, engine) in engines.iter_mut().enumerate() {
            engine.reset();
            let mut last = false;
            for &b in &record[..split] {
                last = engine.on_byte(b);
            }
            if split < record.len() {
                last = engine.on_block(&record[split..]);
            }
            let want = engine.on_byte(b'\n') || last;
            assert_eq!(
                bit(&out, q) || bit(&post, q),
                want,
                "lane {q} (`{}`) diverges at split {split} of record {:?}",
                exprs[q],
                String::from_utf8_lossy(record)
            );
        }
    }
}

/// Stream-level agreement: the fused serial driver, the [`MultiLanes`]
/// reference, every independent engine's verdict vector, and the sharded
/// runner at every shard count must all agree — skips included.
fn assert_streamwise(exprs: &[Expr], stream: &[u8], limits: IngestLimits) {
    let fused = MultiEngine::compile_batch(exprs).filter_stream_verdicts(stream, limits);
    let lanes = MultiLanes::<Engine>::compile_batch(exprs).filter_stream_verdicts(stream, limits);
    for (q, expr) in exprs.iter().enumerate() {
        assert_eq!(
            fused.query_verdicts(q),
            lanes.query_verdicts(q),
            "fused vs multi-lanes diverge on lane {q} (`{expr}`)"
        );
        let single = Engine::compile(expr).filter_stream_verdicts(stream, limits);
        assert_eq!(
            fused.query_verdicts(q),
            single,
            "fused vs independent engine diverge on lane {q} (`{expr}`)"
        );
    }
    for shards in SHARD_COUNTS {
        let mut runner: MultiShardedRunner<MultiEngine> =
            MultiShardedRunner::with_shards(exprs, shards);
        let sharded = runner
            .filter_stream_verdicts(stream, limits)
            .expect("healthy lanes never double fault");
        assert_eq!(sharded.num_records(), fused.num_records());
        for (q, expr) in exprs.iter().enumerate() {
            assert_eq!(
                sharded.query_verdicts(q),
                fused.query_verdicts(q),
                "sharded fused diverges on lane {q} (`{expr}`), shards {shards}"
            );
        }
    }
}

#[test]
fn fused_bytewise_equals_independent_engines() {
    let datasets = [
        smartcity::generate(41, 6),
        taxi::generate(42, 6),
        twitter::generate(43, 4),
    ];
    for exprs in batch_zoo() {
        for ds in &datasets {
            for record in ds.records() {
                assert_bytewise(&exprs, record);
            }
        }
    }
}

#[test]
fn fused_blockwise_equals_independent_engines_at_split_seams() {
    let datasets = [smartcity::generate(44, 6), taxi::generate(45, 6)];
    for exprs in batch_zoo() {
        for ds in &datasets {
            for record in ds.records() {
                assert_blockwise(&exprs, record);
            }
        }
    }
}

#[test]
fn fused_stream_equals_independent_engines_at_every_shard_count() {
    let streams = [
        smartcity::generate(46, 40).stream(),
        taxi::generate(47, 40).stream(),
        b"\r\n{\"a\":3}\r\n\n{\"temperature\":21.5}".to_vec(),
    ];
    for exprs in batch_zoo() {
        for stream in &streams {
            assert_streamwise(&exprs, stream, IngestLimits::UNLIMITED);
        }
    }
}

#[test]
fn quarantine_agrees_across_all_paths() {
    let limits = IngestLimits {
        max_record_bytes: Some(90),
        max_records: Some(25),
    };
    let streams = [
        smartcity::generate(48, 40).stream(),
        taxi::generate(49, 40).stream(),
    ];
    for exprs in batch_zoo() {
        for stream in &streams {
            assert_streamwise(&exprs, stream, limits);
        }
    }
}

/// A healed multi-runner lane must stay byte-identical when **reused**:
/// the first call faults a lane mid-stream, the heal recompiles it, and
/// the second call over the same runner must run the healed lane clean
/// — the batch twin of `reset_regression.rs`'s reuse contract (this was
/// previously untested: every other multi test used a fresh runner per
/// call).
#[test]
fn healed_multi_lane_is_reused_cleanly_on_second_call() {
    silence_injected_panics();
    // Poison one mid-stream record with a byte no RiotBench corpus
    // emits, so the fault lands in the same record at every shard count.
    let ds = smartcity::generate(50, 30);
    let mut stream = Vec::new();
    for (i, record) in ds.records().iter().enumerate() {
        if i == 13 {
            stream.extend_from_slice(b"{\"poison\":\"\x07\"}\n");
        }
        stream.extend_from_slice(record);
        stream.push(b'\n');
    }

    for exprs in batch_zoo() {
        let fused = MultiEngine::compile_batch(&exprs)
            .filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
        for shards in SHARD_COUNTS {
            // Primary lanes are faulty batches; the retry lane is the
            // clean `MultiLanes<CompiledFilter>` default. Fuel 1: the
            // fault fires once on the first call, then the healed lane
            // must carry the second call without the retry path.
            let armed = FaultPlan::new(Trigger::OnByteValue(0x07), FaultKind::Panic)
                .with_fuel(1)
                .arm();
            let mut runner: MultiShardedRunner<MultiLanes<FaultyBackend<Engine>>> =
                MultiShardedRunner::try_with_shards(&exprs, shards).unwrap();
            let first = runner
                .filter_stream_verdicts(&stream, IngestLimits::UNLIMITED)
                .expect("single fault must be absorbed by the retry lane");
            let second = runner
                .filter_stream_verdicts(&stream, IngestLimits::UNLIMITED)
                .expect("healed lane must run clean");
            drop(armed);
            assert_eq!(first.num_records(), fused.num_records());
            for (q, expr) in exprs.iter().enumerate() {
                assert_eq!(
                    first.query_verdicts(q),
                    fused.query_verdicts(q),
                    "faulted+retried call diverges on lane {q} (`{expr}`), shards {shards}"
                );
                assert_eq!(
                    second.query_verdicts(q),
                    fused.query_verdicts(q),
                    "healed reused lane diverges on lane {q} (`{expr}`), shards {shards}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random corpora × random zoo batch × every shard count, with and
    /// without quarantine limits.
    #[test]
    fn fused_equals_independent_on_random_corpora(
        seed in 0u64..1_000_000,
        n in 1usize..24,
        which in 0usize..3,
        batch_idx in 0usize..3,
        limited in any::<bool>(),
    ) {
        let ds = match which {
            0 => smartcity::generate(seed, n),
            1 => taxi::generate(seed, n),
            _ => twitter::generate(seed, n),
        };
        let zoo = batch_zoo();
        let exprs = &zoo[batch_idx % zoo.len()];
        let limits = if limited {
            IngestLimits {
                max_record_bytes: Some(100),
                max_records: Some(n / 2 + 1),
            }
        } else {
            IngestLimits::UNLIMITED
        };
        let stream = ds.stream();
        let fused = MultiEngine::compile_batch(exprs).filter_stream_verdicts(&stream, limits);
        for (q, expr) in exprs.iter().enumerate() {
            let single = Engine::compile(expr).filter_stream_verdicts(&stream, limits);
            prop_assert_eq!(&fused.query_verdicts(q), &single);
        }
        for shards in SHARD_COUNTS {
            let mut runner: MultiShardedRunner<MultiEngine> =
                MultiShardedRunner::with_shards(exprs, shards);
            let sharded = runner
                .filter_stream_verdicts(&stream, limits)
                .expect("healthy lanes never double fault");
            for q in 0..exprs.len() {
                prop_assert_eq!(sharded.query_verdicts(q), fused.query_verdicts(q));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pooled pair and number banks, checked against one CompiledFilter model
// per lane.
// ---------------------------------------------------------------------

/// Every lane's model accept after every byte of `record`.
fn model_traces(models: &mut [CompiledFilter], record: &[u8]) -> Vec<Vec<bool>> {
    models
        .iter_mut()
        .map(|model| {
            model.reset();
            record.iter().map(|&b| model.on_byte(b)).collect()
        })
        .collect()
}

/// Asserts every lane's latched accept equals its model's after byte
/// `at` (the last byte fed).
fn assert_lanes_at(fused: &MultiEngine, traces: &[Vec<bool>], at: usize, what: &str) {
    let mut out = vec![0u64; traces.len().div_ceil(64)];
    fused.write_accepts(&mut out);
    for (q, trace) in traces.iter().enumerate() {
        assert_eq!(bit(&out, q), trace[at], "lane {q}: {what} at byte {at}");
    }
}

/// Splits `record` at every seam into two blocks, and separately cuts
/// it into pieces fed alternately through `on_block` and `on_byte`; every
/// lane must track its model at every block end and serial byte.
fn assert_pair_bank_lanes(exprs: &[Expr], record: &[u8], cuts: &[usize]) {
    let mut models: Vec<CompiledFilter> = exprs.iter().map(CompiledFilter::compile).collect();
    let mut fused = MultiEngine::compile_batch(exprs);
    assert_lanes_track_models(&mut fused, &mut models, record, cuts);
}

/// [`assert_pair_bank_lanes`] for an already compiled batch and models.
fn assert_lanes_track_models(
    fused: &mut MultiEngine,
    models: &mut [CompiledFilter],
    record: &[u8],
    cuts: &[usize],
) {
    let traces = model_traces(models, record);
    for split in 1..record.len() {
        fused.reset();
        fused.on_block(&record[..split]);
        assert_lanes_at(fused, &traces, split - 1, "first block");
        fused.on_block(&record[split..]);
        assert_lanes_at(fused, &traces, record.len() - 1, "second block");
    }
    fused.reset();
    let mut at = 0;
    for (i, &cut) in cuts.iter().cycle().enumerate() {
        if at >= record.len() {
            break;
        }
        let end = (at + cut.max(1)).min(record.len());
        if i % 2 == 0 {
            fused.on_block(&record[at..end]);
            assert_lanes_at(fused, &traces, end - 1, "interleaved block");
        } else {
            for (j, &b) in record.iter().enumerate().take(end).skip(at) {
                fused.on_byte(b);
                assert_lanes_at(fused, &traces, j, "interleaved byte");
            }
        }
        at = end;
    }
}

/// Eleven taxi field names as packed units of every B the bank serves,
/// one lane each: more than eight pooled units, so two banks.
fn packed_batch() -> Vec<Expr> {
    let fields: [&[u8]; 11] = [
        b"vendor_id",
        b"pickup_datetime",
        b"dropoff_datetime",
        b"passenger_count",
        b"trip_time_in_secs",
        b"trip_distance",
        b"fare_amount",
        b"surcharge",
        b"mta_tax",
        b"tip_amount",
        b"tolls_amount",
    ];
    let mut batch: Vec<Expr> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| Expr::substring(f, 2 + i % 7).unwrap())
        .collect();
    // Class-sharing needles and a context lane over one of them.
    batch.push(Expr::substring(b"total_amount", 2).unwrap());
    batch.push(Expr::context_scoped(
        StructScope::Member,
        [
            Expr::substring(b"tolls_amount", 2).unwrap(),
            Expr::float_range("2.50", "18.00").unwrap(),
        ],
    ));
    batch
}

const PACKED_RECORDS: &[&[u8]] = &[
    br#"{"fare_amount":11.50,"tolls_amount":5.33,"total_amount":17.33}"#,
    br#"{"total_amount":7.5,"tolls_amountx":3,"tip_amount":1}"#,
    br#"{"k":"tolls_amount\",\"x\":3","tolls_amount":2.75}"#,
    b"tolls_amounttotal_amount",
    // High-bit twins of needle letters ('t' | 0x80, 'a' | 0x80) right
    // before a needle: one window short of a fire.
    b"{\"\xf4olls_amount\":3.00,\"\xe1mount\":1}",
];

#[test]
fn pooled_pair_bank_equals_models_at_every_seam() {
    let batch = packed_batch();
    let fused = MultiEngine::compile_batch(&batch);
    assert!(fused.block_scan_ready());
    let bank = fused.pair_bank_view().expect("the pool fits a pair bank");
    assert_eq!(bank.targets.len(), 2, "12 pooled units need two banks");
    let taxi = taxi::generate(93, 8);
    let records = taxi.records().iter().map(Vec::as_slice);
    for record in records.chain(PACKED_RECORDS.iter().copied()) {
        assert_pair_bank_lanes(&batch, record, &[9, 3, 8, 1, 16, 5]);
    }
}

/// Run target 126 (a 127-byte needle at B = 2) pools into the bank; a
/// 128-byte needle (target 127) in the same batch refuses it, and a
/// needle with more pair-key bytes than classes does too. All three
/// batches must equal the models.
#[test]
fn pooled_pair_bank_target_cap_and_refusal() {
    let needle =
        |len: usize| -> Vec<u8> { b"abcdefghij".iter().copied().cycle().take(len).collect() };
    let soup: Vec<u8> = (b'!'..=b'~').filter(|&b| b != b'"' && b != b'\\').collect();
    let at_cap = vec![
        Expr::substring(&needle(127), 2).unwrap(),
        Expr::substring(b"tolls_amount", 2).unwrap(),
    ];
    let past_cap = vec![
        Expr::substring(&needle(128), 2).unwrap(),
        Expr::substring(b"tolls_amount", 2).unwrap(),
    ];
    let too_many_classes = vec![
        Expr::substring(&soup, 2).unwrap(),
        Expr::substring(b"tolls_amount", 3).unwrap(),
    ];
    for (batch, banked) in [(at_cap, true), (past_cap, false), (too_many_classes, false)] {
        let fused = MultiEngine::compile_batch(&batch);
        assert_eq!(fused.block_scan_ready(), banked, "{batch:?}");
        assert_eq!(fused.pair_bank_view().is_some(), banked);
        for run in [126, 127, 128, 200] {
            let mut record = b"{\"tolls_amount\":1,\"k\":\"".to_vec();
            record.extend(needle(run));
            record.extend_from_slice(&soup);
            record.extend_from_slice(b"\"}");
            assert_pair_bank_lanes(&batch, &record, &[40, 2, 64, 3]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random soup over the needles' letters, random piece cuts: every
    /// lane of the two-bank pool must track its model.
    #[test]
    fn pooled_pair_bank_equals_models_on_needle_soup(
        picks in proptest::collection::vec(0usize..28, 1..80),
        cuts in proptest::collection::vec(1usize..20, 1..6),
    ) {
        // 0xE1 and 0xF4 are 'a' and 't' with the high bit set.
        const ALPHABET: &[u8] = b"tolls_amountfare_tip\"{},:5\xe1\xf4";
        let record: Vec<u8> = picks.iter().map(|&p| ALPHABET[p]).collect();
        assert_pair_bank_lanes(&packed_batch(), &record, &cuts);
    }
}

// ---------------------------------------------------------------------
// Pooled number bank: one product-automaton lookup per number byte for
// every pooled number unit.
// ---------------------------------------------------------------------

/// The five gateway queries: sixteen pooled number units, one bank.
fn gateway_batch() -> Vec<Expr> {
    vec![
        query_to_exprs(&Query::qs0(), 1).unwrap(),
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
    ]
}

/// The gateway queries plus sixty int and float range lanes (negative
/// bounds included): more than 64 pooled number units, so the pool's
/// number bank splits.
fn wide_number_batch() -> Vec<Expr> {
    let mut batch = gateway_batch();
    batch.extend((0..60i64).map(|i| {
        if i % 2 == 0 {
            Expr::int_range(i * 37 - 400, i * i * 11 + 3)
        } else {
            let lo = format!("-{}.{}", i * 3, i % 10);
            let hi = format!("{}.{:02}", i * i, i * 7 % 100);
            Expr::float_range(&lo, &hi).unwrap()
        }
    }));
    batch
}

/// Both number batches, fused and with one model per lane, compiled once:
/// sixty-odd number automata take a while to build in a debug build.
fn number_batches() -> &'static [(MultiEngine, Vec<CompiledFilter>); 2] {
    static BATCHES: OnceLock<[(MultiEngine, Vec<CompiledFilter>); 2]> = OnceLock::new();
    BATCHES.get_or_init(|| {
        [gateway_batch(), wide_number_batch()].map(|batch| {
            let models = batch.iter().map(CompiledFilter::compile).collect();
            (MultiEngine::compile_batch(&batch), models)
        })
    })
}

/// Number tokens with negatives, exponents, leading zeros, stray signs
/// and dots, and bare `e`/`E` inside words.
const NUMBER_RECORDS: &[&[u8]] = &[
    br#"{"e":[{"v":"35.2","u":"far","n":"temperature"},{"v":"-12","n":"dust"}],"bt":1422748800000}"#,
    br#"{"v":007,"w":-0.5e+3,"x":1E-2,"y":-.5,"z":+3,"q":--1,"r":1..2,"s":2e}"#,
    br#"{"user":{"favourites_count":4711,"eEe":1e1E1},"fare_amount":11.50,"tolls_amount":5.33}"#,
    b"[15,99,-50,7,0,00,0.0,-0,43.1,43.10,43.11,100,2500.5,50000,50001]",
    b"1234567890.0987654321e+-",
];

#[test]
fn pooled_number_bank_equals_models_at_every_seam() {
    let [(gateway, _), (wide, _)] = number_batches();
    assert!(gateway.block_scan_ready() && wide.block_scan_ready());
    let one = gateway.number_bank_view().expect("block-ready");
    assert_eq!(one.banks.len(), 1, "sixteen units fit one bank");
    let split = wide.number_bank_view().expect("block-ready");
    assert!(split.banks.len() >= 2, "more than 64 units split the bank");
    assert!(split.banks.iter().all(|b| b.units <= 64));

    let datasets = [
        smartcity::generate(95, 3),
        taxi::generate(96, 2),
        twitter::generate(97, 1),
    ];
    for (fused, models) in number_batches() {
        let records = datasets.iter().flat_map(|ds| ds.records().iter());
        for record in records
            .map(Vec::as_slice)
            .chain(NUMBER_RECORDS.iter().copied())
        {
            let (mut fused, mut models) = (fused.clone(), models.clone());
            assert_lanes_track_models(&mut fused, &mut models, record, &[9, 3, 8, 1, 16, 5]);
            assert_lanes_track_models(&mut fused, &mut models, record, &[1, 1, 7]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random soup of number tokens and structure, cut at random piece
    /// lengths: every lane of both pools must track its model, including
    /// blocks that start mid-token.
    #[test]
    fn pooled_number_bank_equals_models_on_number_soup(
        picks in proptest::collection::vec(0usize..22, 1..48),
        cuts in proptest::collection::vec(1usize..12, 1..6),
        which in 0usize..2,
    ) {
        const TOKENS: [&[u8]; 22] = [
            b"-", b"+", b".", b"e", b"E", b"0", b"7", b"12", b"007", b"35.2",
            b"1e5", b"-3.5E-2", b"4711", b"temperature", b"Ee", b",", b"\"",
            b":", b"{", b"}", b" ", b"[",
        ];
        let record: Vec<u8> = picks.iter().flat_map(|&p| TOKENS[p].iter().copied()).collect();
        let (fused, models) = &number_batches()[which];
        let (mut fused, mut models) = (fused.clone(), models.clone());
        assert_lanes_track_models(&mut fused, &mut models, &record, &cuts);
    }
}
