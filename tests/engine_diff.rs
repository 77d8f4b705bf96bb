//! Differential property tests: the flat batch [`Engine`] must be
//! **bit-identical, byte-for-byte** to the cosim-faithful
//! [`CompiledFilter`] — not just on final record decisions but on the
//! per-byte latched accept signal. The engine is only allowed to be
//! faster, never different.

use proptest::prelude::*;
use rfjson_core::engine::Engine;
use rfjson_core::evaluator::CompiledFilter;
use rfjson_core::expr::{Expr, StructScope};
use rfjson_core::query::query_to_exprs;
use rfjson_core::FilterBackend;
use rfjson_riotbench::{smartcity, taxi, twitter, Query};
use std::sync::OnceLock;

/// Steps both execution paths over `record + '\n'` and asserts the accept
/// signal matches on **every byte**.
fn assert_bytewise(expr: &Expr, record: &[u8]) {
    let mut engine = Engine::compile(expr);
    let mut model = CompiledFilter::compile(expr);
    engine.reset();
    model.reset();
    for (i, &b) in record.iter().chain(b"\n").enumerate() {
        let e = engine.on_byte(b);
        let m = model.on_byte(b);
        assert_eq!(
            e,
            m,
            "expr `{expr}` diverges at byte {i} ({:?}) of record {:?}",
            b as char,
            String::from_utf8_lossy(record)
        );
    }
}

/// Feeds the record through [`Engine::on_block`] — whole, and split at
/// several points into a byte-serial prefix plus a block remainder (the
/// packed-state sync-in/sync-out seams) — and asserts the record decision
/// matches the byte-serial model.
fn assert_blockwise(expr: &Expr, record: &[u8]) {
    let mut model = CompiledFilter::compile(expr);
    let want = model.accepts_record(record);
    let mut engine = Engine::compile(expr);
    let mut splits = vec![0, record.len()];
    for s in [1, 7, 8, 9, 15, 16, record.len() / 2] {
        if s <= record.len() {
            splits.push(s);
        }
    }
    for split in splits {
        engine.reset();
        let mut last = false;
        for &b in &record[..split] {
            last = engine.on_byte(b);
        }
        if split < record.len() {
            last = engine.on_block(&record[split..]);
        }
        let got = engine.on_byte(b'\n') || last;
        assert_eq!(
            got,
            want,
            "expr `{expr}` block path (split {split}) diverges on {:?}",
            String::from_utf8_lossy(record)
        );
    }
}

/// Expressions covering every primitive technique, every combinator,
/// both structural scopes, and nesting of contexts.
fn expression_zoo() -> Vec<Expr> {
    vec![
        Expr::substring(b"temperature", 1).unwrap(),
        Expr::substring(b"tolls_amount", 2).unwrap(),
        Expr::substring(b"dust", 4).unwrap(),
        Expr::substring(b"favourites_count", 9).unwrap(), // wide blocks (B > 8)
        Expr::window(b"light").unwrap(),
        Expr::dfa_string(b"humidity").unwrap(),
        Expr::int_range(12, 49),
        Expr::float_range("-12.5", "43.1").unwrap(),
        Expr::and([
            Expr::substring(b"light", 1).unwrap(),
            Expr::int_range(1345, 26282),
        ]),
        Expr::or([
            Expr::substring(b"cat", 1).unwrap(),
            Expr::substring(b"dog", 1).unwrap(),
        ]),
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
        // Context nested under OR nested under context.
        Expr::context([
            Expr::or([
                Expr::context([Expr::substring(b"n", 1).unwrap(), Expr::int_range(0, 9)]),
                Expr::window(b"dust").unwrap(),
            ]),
            Expr::float_range("0.5", "1.5").unwrap(),
        ]),
    ]
}

#[test]
fn engine_equals_model_on_generated_corpora() {
    let datasets = [
        smartcity::generate(77, 40),
        taxi::generate(78, 40),
        twitter::generate(79, 25),
    ];
    for expr in expression_zoo() {
        for ds in &datasets {
            for record in ds.records() {
                assert_bytewise(&expr, record);
                assert_blockwise(&expr, record);
            }
        }
    }
}

#[test]
fn engine_equals_model_on_adversarial_inputs() {
    // The edge-case records of tests/edge_cases.rs: escapes, hostile
    // bracket soup, deep nesting, truncation, binary garbage.
    let records: Vec<&[u8]> = vec![
        b"",
        b"   ",
        b"{}",
        b"null",
        br#"{"e":[{"v":"21.0","n":"temperature""#,
        b"}}}}]]]]",
        b"{{{{",
        br#""temperature" 21.0"#,
        b"\xff\xfe\x00\x01",
        br#"{"e":[{"u":"}{][","v":"21.0","n":"temperature"}],"bt":1}"#,
        br#"{"e":[{"u":"a\"}b","v":"21.0","n":"temperature"}],"bt":1}"#,
        br#"{"data":{"batch":[[{"readings":[{"v":"20.0","n":"temperature"}]}]]}}"#,
        br#"{"e":[{"n":"temperature","v":"99"},{"n":"other","v":"20.0"}],"bt":5}"#,
        br#"{"x":1,"y":7}"#,
        br#"{"a":1,"x_late":7}"#,
        b"[15,99]",
        b"[1.5e1]",
        br#"{"k":"\\","j":"\\\""}"#,
    ];
    for expr in expression_zoo() {
        for record in &records {
            assert_bytewise(&expr, record);
            assert_blockwise(&expr, record);
        }
    }
}

#[test]
fn engine_equals_model_on_stream_framing() {
    // filter_stream must agree on CRLF framing, blank lines, and a
    // trailing record without separator.
    let streams: Vec<&[u8]> = vec![
        b"{\"a\":3}\r\n\r\n{\"a\":9}\n\n{\"a\":2}",
        b"\n\n\n",
        b"{\"a\":3}",
        b"{\"a\":3}\n",
        b"\r\n{\"a\":3}\r\n",
    ];
    for expr in expression_zoo() {
        let mut engine = Engine::compile(&expr);
        let mut model = CompiledFilter::compile(&expr);
        for stream in &streams {
            assert_eq!(
                engine.filter_stream(stream),
                model.filter_stream(stream),
                "expr `{expr}` stream {:?}",
                String::from_utf8_lossy(stream)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random records from all three generators, random zoo expression:
    /// per-byte equality must hold for every combination.
    #[test]
    fn engine_equals_model_on_random_records(
        seed in 0u64..1_000_000,
        n in 1usize..8,
        which in 0usize..3,
        expr_idx in 0usize..15,
    ) {
        let ds = match which {
            0 => smartcity::generate(seed, n),
            1 => taxi::generate(seed, n),
            _ => twitter::generate(seed, n),
        };
        let zoo = expression_zoo();
        let expr = &zoo[expr_idx % zoo.len()];
        for record in ds.records() {
            assert_bytewise(expr, record);
            assert_blockwise(expr, record);
        }
    }

    /// Random structural soup: brackets, quotes, escapes, digits, commas —
    /// the raw material of every latch/clear corner case.
    #[test]
    fn engine_equals_model_on_structural_soup(
        soup in proptest::collection::vec(
            prop_oneof![
                Just(b'{'), Just(b'}'), Just(b'['), Just(b']'),
                Just(b'"'), Just(b'\\'), Just(b','), Just(b':'),
                Just(b'1'), Just(b'9'), Just(b'.'), Just(b'e'),
                Just(b'n'), Just(b't'), Just(b'x'), Just(b' '),
            ],
            0..120,
        ),
    ) {
        let exprs = [
            Expr::context([
                Expr::substring(b"n", 1).unwrap(),
                Expr::int_range(0, 99),
            ]),
            Expr::context_scoped(
                StructScope::Member,
                [Expr::substring(b"t", 1).unwrap(), Expr::int_range(1, 19)],
            ),
            Expr::and([
                Expr::context([
                    Expr::substring(b"nt", 1).unwrap(),
                    Expr::float_range("0.9", "99.1").unwrap(),
                ]),
                Expr::int_range(1, 9),
            ]),
        ];
        for expr in &exprs {
            assert_bytewise(expr, &soup);
            assert_blockwise(expr, &soup);
        }
    }
}

// ---------------------------------------------------------------------
// Pair bank: the block-scan form of the packed substring units (B = 2
// looks up exactly, B = 3..8 confirms with the block compare).
// ---------------------------------------------------------------------

/// The model's latched accept after every byte of `record`.
fn model_trace(expr: &Expr, record: &[u8]) -> Vec<bool> {
    let mut model = CompiledFilter::compile(expr);
    model.reset();
    record.iter().map(|&b| model.on_byte(b)).collect()
}

/// Splits `record` at **every** seam, twice over: a byte-serial prefix
/// plus one block, and two back-to-back blocks. After each block the
/// engine's latched accept must equal the model's at that byte, and the
/// record decision must match after the separator.
fn assert_every_seam(expr: &Expr, record: &[u8]) {
    let trace = model_trace(expr, record);
    let want = CompiledFilter::compile(expr).accepts_record(record);
    let mut engine = Engine::compile(expr);
    for split in 0..=record.len() {
        for serial_prefix in [true, false] {
            engine.reset();
            let mut last = false;
            if serial_prefix {
                for &b in &record[..split] {
                    last = engine.on_byte(b);
                }
            } else if split > 0 {
                last = engine.on_block(&record[..split]);
                assert_eq!(last, trace[split - 1], "`{expr}` first block to {split}");
            }
            if split < record.len() {
                last = engine.on_block(&record[split..]);
                assert_eq!(last, *trace.last().unwrap(), "`{expr}` block from {split}");
            }
            assert_eq!(
                engine.on_byte(b'\n') || last,
                want,
                "`{expr}` split {split} (serial prefix {serial_prefix}) on {:?}",
                String::from_utf8_lossy(record)
            );
        }
    }
}

/// Cuts `record` into pieces of the (cycled) lengths `cuts`, feeding them
/// alternately through `on_block` and `on_byte`; the latched accept must
/// track the model's at every piece end and every serial byte.
fn assert_interleaved(expr: &Expr, record: &[u8], cuts: &[usize]) {
    let mut model = CompiledFilter::compile(expr);
    assert_interleaved_on(&mut Engine::compile(expr), &mut model, record, cuts);
}

/// [`assert_interleaved`] for an already compiled engine and model.
fn assert_interleaved_on(
    engine: &mut Engine,
    model: &mut CompiledFilter,
    record: &[u8],
    cuts: &[usize],
) {
    let expr = engine.expr().clone();
    model.reset();
    let trace: Vec<bool> = record.iter().map(|&b| model.on_byte(b)).collect();
    engine.reset();
    let mut at = 0;
    for (i, &cut) in cuts.iter().cycle().enumerate() {
        if at >= record.len() {
            break;
        }
        let end = (at + cut.max(1)).min(record.len());
        if i % 2 == 0 {
            let got = engine.on_block(&record[at..end]);
            assert_eq!(got, trace[end - 1], "`{expr}` block {at}..{end}");
        } else {
            for (j, &b) in record[at..end].iter().enumerate() {
                assert_eq!(engine.on_byte(b), trace[at + j], "`{expr}` byte {}", at + j);
            }
        }
        at = end;
    }
}

/// Packed units at every block length the bank serves, with needles
/// that share byte classes (`tolls_amount` / `total_amount`).
fn packed_zoo() -> Vec<Expr> {
    let mut zoo: Vec<Expr> = (2..=8)
        .map(|b| {
            Expr::context_scoped(
                StructScope::Member,
                [
                    Expr::substring(b"tolls_amount", b).unwrap(),
                    Expr::float_range("2.50", "18.00").unwrap(),
                ],
            )
        })
        .collect();
    zoo.push(Expr::and([
        Expr::substring(b"tolls_amount", 2).unwrap(),
        Expr::substring(b"total_amount", 2).unwrap(),
    ]));
    zoo.push(Expr::or([
        Expr::substring(b"tolls_amount", 3).unwrap(),
        Expr::substring(b"total_amount", 2).unwrap(),
        Expr::substring(b"amount", 6).unwrap(),
    ]));
    zoo
}

const PACKED_RECORDS: &[&[u8]] = &[
    br#"{"fare_amount":11.50,"tolls_amount":5.33,"total_amount":17.33}"#,
    br#"{"fare_amount":11.50,"tolls_amount":0.00,"total_amount":12.00}"#,
    br#"{"total_amount":7.5,"tolls_amountx":3}"#,
    br#"{"tollls_amount":3.00,"tolls_amoun":4.00,"ttoollss":1}"#,
    br#"{"k":"tolls_amount\",\"x\":3","tolls_amount":2.75}"#,
    b"tolls_amounttolls_amount",
    // High-bit twins of needle letters ('t' | 0x80, 'a' | 0x80) right
    // before a needle: one window short of a fire.
    b"{\"\xf4olls_amount\":3.00,\"\xe1mount\":1}",
    b"amount",
    b"",
];

#[test]
fn pair_bank_equals_model_at_every_seam() {
    for expr in packed_zoo() {
        assert!(Engine::compile(&expr).block_scan_ready(), "`{expr}`");
        for record in PACKED_RECORDS {
            assert_every_seam(&expr, record);
            assert_interleaved(&expr, record, &[9, 3, 8, 1, 16, 5]);
            assert_interleaved(&expr, record, &[1, 1, 7]);
        }
        for record in taxi::generate(91, 12).records() {
            assert_every_seam(&expr, record);
        }
    }
}

/// A 127-byte needle at B = 2 has run target 126, the largest a packed
/// lane holds; one byte more (target 127) is refused the bank and runs
/// byte-serial. Both must equal the model on runs one short of, exactly
/// at, and past the target.
#[test]
fn pair_bank_target_cap_and_one_past_it() {
    let needle =
        |len: usize| -> Vec<u8> { b"abcdefghij".iter().copied().cycle().take(len).collect() };
    for (len, banked) in [(127, true), (128, false)] {
        let expr = Expr::substring(&needle(len), 2).unwrap();
        let engine = Engine::compile(&expr);
        assert_eq!(engine.block_scan_ready(), banked, "needle of {len} bytes");
        assert_eq!(engine.pair_bank_view().is_some(), banked);
        for run in [len - 1, len, len + 1, 2 * len] {
            let mut record = b"{\"k\":\"".to_vec();
            record.extend(needle(run));
            record.extend_from_slice(b"\"}");
            let want = CompiledFilter::compile(&expr).accepts_record(&record);
            assert_eq!(want, run >= len, "run {run} of a {len}-byte needle");
            assert_every_seam(&expr, &record);
            assert_interleaved(&expr, &record, &[40, 2, 64, 3]);
        }
    }
}

/// More than eight packed units: the bank spills into a second and third
/// lane word.
#[test]
fn pair_bank_spans_several_banks() {
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
    let units: Vec<Expr> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| Expr::substring(f, 2 + i % 7).unwrap())
        .collect();
    for expr in [
        Expr::or(units.clone()),
        Expr::and(units.clone()),
        Expr::context_scoped(
            StructScope::Member,
            [Expr::or(units), Expr::int_range(1, 99)],
        ),
    ] {
        let engine = Engine::compile(&expr);
        let bank = engine.pair_bank_view().expect("eleven units fit");
        assert_eq!(bank.targets.len(), 2, "`{expr}`");
        let taxi = taxi::generate(92, 10);
        let records = taxi.records().iter().map(Vec::as_slice);
        for record in records.chain(PACKED_RECORDS.iter().copied()) {
            assert_every_seam(&expr, record);
            assert_bytewise(&expr, record);
        }
    }
}

/// A needle with more distinct pair-key bytes than the bank has classes
/// is refused the bank; the program falls back byte-serial and still
/// equals the model.
#[test]
fn pair_bank_refusal_falls_back_byte_serial() {
    let soup: Vec<u8> = (b'!'..=b'~').filter(|&b| b != b'"' && b != b'\\').collect();
    assert!(soup.len() > rfjson_core::pair::MAX_CLASSES);
    let expr = Expr::context([
        Expr::substring(&soup, 2).unwrap(),
        Expr::substring(b"tolls_amount", 2).unwrap(),
    ]);
    let engine = Engine::compile(&expr);
    assert!(!engine.block_scan_ready());
    assert!(engine.pair_bank_view().is_none());
    let mut with_soup = b"{\"k\":\"".to_vec();
    with_soup.extend_from_slice(&soup);
    with_soup.extend_from_slice(b"\",\"tolls_amount\":1}");
    for record in PACKED_RECORDS.iter().copied().chain([&with_soup[..]]) {
        assert_every_seam(&expr, record);
        assert_bytewise(&expr, record);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random byte strings over the needles' own letters plus structure,
    /// cut at random piece lengths: the bank must track the model.
    #[test]
    fn pair_bank_equals_model_on_needle_soup(
        picks in proptest::collection::vec(0usize..26, 0..96),
        cuts in proptest::collection::vec(1usize..20, 1..6),
        expr_idx in 0usize..9,
    ) {
        // 0xE1 and 0xF4 are 'a' and 't' with the high bit set.
        const ALPHABET: &[u8] = b"tolls_amountal_\"{},:5.3 \xe1\xf4";
        let record: Vec<u8> = picks.iter().map(|&p| ALPHABET[p]).collect();
        let zoo = packed_zoo();
        let expr = &zoo[expr_idx % zoo.len()];
        assert_interleaved(expr, &record, &cuts);
        assert_blockwise(expr, &record);
    }
}

// ---------------------------------------------------------------------
// Number bank: the block-scan form of the number-range units (one
// product-automaton lookup per number byte for all units at once).
// ---------------------------------------------------------------------

/// Twenty negative and twenty positive float ranges, an OR of each
/// ANDed: the product passes the state cap, so the number units split
/// into two banks along the OR boundary, and a record matches only when
/// both banks fire.
fn split_number_expr() -> Expr {
    let mut x = 0x5eed_u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 33
    };
    let mut range = |negative: bool| {
        let a = next() % 100_000;
        let b = a + next() % 100_000;
        let (near, far) = (
            format!("{}.{:03}", a / 1000, a % 1000),
            format!("{}.{:02}", b / 100, b % 100),
        );
        if negative {
            Expr::float_range(&format!("-{far}"), &format!("-{near}")).unwrap()
        } else {
            Expr::float_range(&near, &far).unwrap()
        }
    };
    let negative: Vec<Expr> = (0..20).map(|_| range(true)).collect();
    let positive: Vec<Expr> = (0..20).map(|_| range(false)).collect();
    Expr::and([Expr::or(negative), Expr::or(positive)])
}

/// The split engine and its model, compiled once: forty float automata
/// take a while to build in a debug build.
fn split_number_filters() -> &'static (Engine, CompiledFilter) {
    static FILTERS: OnceLock<(Engine, CompiledFilter)> = OnceLock::new();
    FILTERS.get_or_init(|| {
        let expr = split_number_expr();
        (Engine::compile(&expr), CompiledFilter::compile(&expr))
    })
}

/// Number units of every kind the bank serves: negative bounds, zero, a
/// number next to a key, and QS0's five ranges.
fn number_zoo() -> Vec<Expr> {
    vec![
        Expr::int_range(-50, 7),
        Expr::float_range("-12.5", "43.1").unwrap(),
        Expr::and([
            Expr::int_range(0, 0),
            Expr::float_range("100", "2500.5").unwrap(),
            Expr::int_range(100, 50_000),
        ]),
        Expr::context_scoped(
            StructScope::Member,
            [
                Expr::substring(b"temperature", 1).unwrap(),
                Expr::float_range("0.7", "35.1").unwrap(),
            ],
        ),
        query_to_exprs(&Query::qs0(), 1).unwrap(),
    ]
}

/// Number tokens with negatives, exponents, leading zeros, stray signs
/// and dots, and bare `e`/`E` inside words.
const NUMBER_RECORDS: &[&[u8]] = &[
    br#"{"e":[{"v":"35.2","u":"far","n":"temperature"},{"v":"-12","n":"dust"}],"bt":1422748800000}"#,
    br#"{"v":007,"w":-0.5e+3,"x":1E-2,"y":-.5,"z":+3,"q":--1,"r":1..2,"s":2e}"#,
    br#"{"temperature":21.0,"eEe":1e1E1,"Ee":"e-1","n":"Temperature"}"#,
    b"[15,99,-50,7,0,00,0.0,-0,43.1,43.10,43.11,1e2,2.5e3,2500,2501]",
    b"1234567890.0987654321e+-",
    b"-",
    b"",
];

#[test]
fn number_bank_equals_model_at_every_seam() {
    for expr in number_zoo() {
        let engine = Engine::compile(&expr);
        assert!(engine.block_scan_ready(), "`{expr}`");
        assert!(engine.number_bank_view().is_some(), "`{expr}`");
        for record in NUMBER_RECORDS {
            assert_every_seam(&expr, record);
            assert_interleaved(&expr, record, &[9, 3, 8, 1, 16, 5]);
            assert_interleaved(&expr, record, &[1, 1, 7]);
        }
        for record in smartcity::generate(94, 6).records() {
            assert_every_seam(&expr, record);
        }
    }
    let (split, model) = split_number_filters();
    let banks = split.number_bank_view().expect("block-ready").banks;
    assert_eq!(banks.len(), 2, "forty float ranges pass the state cap");
    assert!(banks
        .iter()
        .all(|b| b.units == 20 && b.fire.len() <= rfjson_core::numbers::MAX_STATES));
    let all = NUMBER_RECORDS.join(&b',');
    assert!(model.clone().accepts_record(&all), "both banks must fire");
    assert_every_seam(split.expr(), &all);
    for cuts in [&[9, 3, 8, 1, 16, 5][..], &[1, 1, 7]] {
        assert_interleaved_on(&mut split.clone(), &mut model.clone(), &all, cuts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random soup of number tokens and structure, cut at random piece
    /// lengths: the number bank must track the model, including blocks
    /// that start mid-token.
    #[test]
    fn number_bank_equals_model_on_number_soup(
        picks in proptest::collection::vec(0usize..22, 0..64),
        cuts in proptest::collection::vec(1usize..12, 1..6),
        expr_idx in 0usize..6,
    ) {
        const TOKENS: [&[u8]; 22] = [
            b"-", b"+", b".", b"e", b"E", b"0", b"7", b"12", b"007", b"35.2",
            b"1e5", b"-3.5E-2", b"43.1", b"temperature", b"Ee", b",", b"\"",
            b":", b"{", b"}", b" ", b"[",
        ];
        let record: Vec<u8> = picks.iter().flat_map(|&p| TOKENS[p].iter().copied()).collect();
        let zoo = number_zoo();
        if let Some(expr) = zoo.get(expr_idx) {
            assert_interleaved(expr, &record, &cuts);
            assert_blockwise(expr, &record);
        } else {
            let (split, model) = split_number_filters();
            assert_interleaved_on(&mut split.clone(), &mut model.clone(), &record, &cuts);
        }
    }
}
