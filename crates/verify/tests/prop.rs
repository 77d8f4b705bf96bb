//! Property and mutation tests for the static verifier.
//!
//! Two directions, both required: the verifier must **accept** every
//! artifact the compiler actually produces (no false alarms on the
//! entire expression zoo and on random compositions), and it must
//! **flag** each class of hand-built corruption — a redirected DFA
//! edge, a dropped latch-reset bit, a double-driven output net — with
//! its dedicated diagnostic code.

use proptest::prelude::*;
use rfjson_core::engine::OpKindView;
use rfjson_core::multi::MultiEngine;
use rfjson_core::numbers::NumberBankView;
use rfjson_core::query::query_to_exprs;
use rfjson_core::{Engine, Expr, StructScope};
use rfjson_redfa::DENSE_ACCEPT_BIT;
use rfjson_riotbench::Query;
use rfjson_rtl::Netlist;
use rfjson_verify::multi::verify_multi_engine;
use rfjson_verify::program::NumberUnit;
use rfjson_verify::{dfa, netlist, program, verify_expr, verify_query, Severity};

/// Expressions covering every primitive technique, every combinator,
/// both structural scopes, and context nesting (mirrors the zoo of the
/// engine differential tests).
fn expression_zoo() -> Vec<Expr> {
    vec![
        Expr::substring(b"temperature", 1).unwrap(),
        Expr::substring(b"tolls_amount", 2).unwrap(),
        Expr::substring(b"dust", 4).unwrap(),
        Expr::substring(b"favourites_count", 9).unwrap(),
        Expr::window(b"light").unwrap(),
        Expr::dfa_string(b"humidity").unwrap(),
        Expr::int_range(12, 49),
        Expr::float_range("-12.5", "43.1").unwrap(),
        Expr::and([
            Expr::substring(b"light", 1).unwrap(),
            Expr::int_range(1345, 26282),
        ]),
        Expr::or([
            Expr::dfa_string(b"cat").unwrap(),
            Expr::window(b"dog").unwrap(),
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
        Expr::context([
            Expr::or([
                Expr::context([Expr::substring(b"n", 1).unwrap(), Expr::int_range(0, 9)]),
                Expr::window(b"dust").unwrap(),
            ]),
            Expr::float_range("0.5", "1.5").unwrap(),
        ]),
    ]
}

/// Leaf pool for random compositions: one of each primitive flavour.
fn leaf(i: usize) -> Expr {
    match i % 6 {
        0 => Expr::substring(b"dust", 1).unwrap(),
        1 => Expr::substring(b"light", 2).unwrap(),
        2 => Expr::window(b"tip").unwrap(),
        3 => Expr::dfa_string(b"fare").unwrap(),
        4 => Expr::int_range(0, 99),
        _ => Expr::float_range("0.5", "9.5").unwrap(),
    }
}

/// Deterministic random composition over the leaf pool, driven by a
/// splitmix64 stream so every seed is reproducible.
fn random_expr(seed: u64, size: usize) -> Expr {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    build(&mut next, size)
}

/// Recursive worker for [`random_expr`].
fn build(next: &mut impl FnMut() -> u64, budget: usize) -> Expr {
    if budget <= 1 {
        return leaf(next() as usize);
    }
    let arity = 2 + (next() as usize % 2);
    let children: Vec<Expr> = (0..arity).map(|_| build(next, budget / arity)).collect();
    match next() % 4 {
        0 => Expr::and(children),
        1 => Expr::or(children),
        2 => Expr::context(children),
        _ => Expr::context_scoped(StructScope::Member, children),
    }
}

#[test]
fn verifier_accepts_every_zoo_expression() {
    for expr in expression_zoo() {
        let report = verify_expr(&expr, "zoo");
        assert!(!report.has_errors(), "expr `{expr}`:\n{report}");
    }
}

#[test]
fn verifier_accepts_all_riotbench_queries() {
    for query in Query::all() {
        for b in [1, 2] {
            let report = verify_query(&query, b).unwrap();
            assert!(!report.has_errors(), "{report}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any compiler-produced artifact set must verify clean: the three
    /// passes may inform and warn, but never error.
    #[test]
    fn verifier_accepts_random_compositions(
        seed in 0u64..1_000_000,
        size in 1usize..10,
    ) {
        let expr = random_expr(seed, size);
        let report = verify_expr(&expr, "random");
        prop_assert!(!report.has_errors(), "expr `{}`:\n{}", expr, report);
    }
}

// ---------------------------------------------------------------------
// Mutation detection: each corruption class has a dedicated test and a
// dedicated diagnostic code.
// ---------------------------------------------------------------------

/// Mutation class 1 — a DFA edge redirected to the wrong (but valid and
/// correctly accept-flagged) state must be caught by the dense/sparse
/// agreement check.
#[test]
fn mutation_redirected_dfa_edge_is_flagged() {
    let expr = Expr::dfa_string(b"humidity").unwrap();
    let Expr::Str(spec) = &expr else {
        unreachable!()
    };
    let m = rfjson_core::primitive::DfaStringMatcher::new(&spec.needle);
    let d = m.dfa();
    let mut table = d.dense_table();
    let idx = 256 + usize::from(b'q');
    let old = table[idx] & !DENSE_ACCEPT_BIT;
    let new = (old + 1) % d.num_states() as u16;
    let flag = if d.is_accept(new) {
        DENSE_ACCEPT_BIT
    } else {
        0
    };
    table[idx] = new | flag;

    let diags = dfa::verify_dense_table(d, &table, d.dense_start(), "mutated");
    assert!(
        diags
            .iter()
            .any(|di| di.code == "D011" && di.severity == Severity::Error),
        "{diags:?}"
    );
    // The untouched table is clean — the diagnostic is the mutation's.
    assert!(dfa::verify_dense_table(d, &d.dense_table(), d.dense_start(), "clean").is_empty());
}

/// Mutation class 2 — a context's latch-clear mask loses one descendant
/// bit: that latch would survive across structural instances, the exact
/// stale-state bug the paper's context machinery exists to prevent.
#[test]
fn mutation_dropped_latch_reset_is_flagged() {
    let expr = Expr::context([
        Expr::substring(b"temperature", 1).unwrap(),
        Expr::float_range("0.7", "35.1").unwrap(),
    ]);
    let engine = Engine::compile(&expr);
    let mut view = engine.program_view();
    assert!(program::verify_program(&view)
        .iter()
        .all(|d| d.severity < Severity::Error));

    let (node, clear_off) = view
        .ops
        .iter()
        .find_map(|op| match op.kind {
            OpKindView::Ctx { clear_off, .. } => Some((op.node, clear_off)),
            _ => None,
        })
        .expect("expression has a context");
    let descendant = (node - 1) as usize;
    view.masks[clear_off as usize + descendant / 64] &= !(1u64 << (descendant % 64));

    let diags = program::verify_program(&view);
    assert!(
        diags
            .iter()
            .any(|d| d.code == "P010" && d.severity == Severity::Error),
        "{diags:?}"
    );
}

/// Mutation class 3 — the same output net driven twice must be caught
/// by the netlist pass.
#[test]
fn mutation_double_driven_net_is_flagged() {
    let mut n = Netlist::new("mutated");
    let a = n.input("a");
    let b = n.input("b");
    let g = n.and_gate(a, b);
    n.output("match", g);
    n.output("match", a);

    let diags = netlist::verify_netlist(&n);
    assert!(
        diags
            .iter()
            .any(|d| d.code == "N003" && d.severity == Severity::Error),
        "{diags:?}"
    );
}

/// Mutation class 4 — one bit of one lane of a stored pair-bank entry
/// flipped: that unit would count (or miss) a byte pair its blocks do
/// not (or do) contain. Every cell of every bank, and every bit of the
/// lane, must be caught by the re-derivation from the units' blocks.
#[test]
fn mutation_flipped_pair_bank_lane_bit_is_flagged() {
    // Nine packed units (two banks), B = 2 and B = 3..8, with needles
    // that share byte classes.
    let needles: [(&[u8], usize); 9] = [
        (b"tolls_amount", 2),
        (b"total_amount", 2),
        (b"trip_distance", 3),
        (b"fare_amount", 4),
        (b"tip_amount", 5),
        (b"trip_time_in_secs", 6),
        (b"passenger_count", 7),
        (b"pickup_longitude", 8),
        (b"dropoff", 2),
    ];
    let expr = Expr::or(
        needles
            .iter()
            .map(|&(n, b)| Expr::substring(n, b).unwrap())
            .collect::<Vec<_>>(),
    );
    let engine = Engine::compile(&expr);
    let view = engine.pair_bank_view().expect("the units fit a pair bank");
    assert_eq!(view.targets.len(), 2, "nine units need two banks");
    let units = program::packed_units(&expr);
    assert!(program::check_pair_bank(&view, &units).is_empty());
    assert!(program::verify_engine(&engine)
        .iter()
        .all(|d| d.severity < Severity::Error));

    let mut state = 0x5eed_u64;
    for _ in 0..256 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let entry = (state >> 16) as usize % view.table.len();
        let bit = (state >> 48) as u32 % 64;
        let mut mutated = view.clone();
        mutated.table[entry] ^= 1u64 << bit;
        let faults = program::check_pair_bank(&mutated, &units);
        assert!(
            !faults.is_empty(),
            "flipping bit {bit} of entry {entry} went unnoticed"
        );
    }
}

/// Flips `flips` random single bits of `view`'s transitions and fire
/// words, each in a fresh copy, and asserts `check` flags every one.
fn assert_number_bank_flips_flagged(
    view: &NumberBankView,
    flips: usize,
    check: impl Fn(&NumberBankView) -> Vec<String>,
) {
    assert!(check(view).is_empty(), "{:?}", check(view));
    let mut state = 0x5eed_u64;
    for _ in 0..flips {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let k = (state >> 8) as usize % view.banks.len();
        let bank = &view.banks[k];
        let mut mutated = view.clone();
        let what = if state >> 63 == 0 {
            let entry = (state >> 16) as usize % bank.next.len();
            let bit = (state >> 48) as u32 % 16;
            mutated.banks[k].next[entry] ^= 1u16 << bit;
            format!("bit {bit} of transition {entry}")
        } else {
            let entry = (state >> 16) as usize % bank.fire.len();
            let bit = (state >> 48) as u32 % 64;
            mutated.banks[k].fire[entry] ^= 1u64 << bit;
            format!("bit {bit} of fire word {entry}")
        };
        assert!(
            !check(&mutated).is_empty(),
            "flipping {what} of bank {k} went unnoticed"
        );
    }
}

/// Mutation class 5 — one bit of a stored number-bank transition or fire
/// word flipped: a number token would end in the wrong product state, or
/// fire (or miss) a unit its automaton does not (or does) accept. Every
/// flip, in a single engine's bank and in a fused pool split over two
/// banks, must be caught by the re-derivation from the units' tables.
#[test]
fn mutation_flipped_number_bank_bit_is_flagged() {
    let expr = query_to_exprs(&Query::qs0(), 1).unwrap();
    let engine = Engine::compile(&expr);
    assert!(program::verify_engine(&engine)
        .iter()
        .all(|d| d.severity < Severity::Error));
    let units = program::number_units(&expr);
    let nodes: Vec<u32> = engine
        .program_view()
        .number_dfas
        .iter()
        .map(|u| u.node)
        .collect();
    let view = engine.number_bank_view().expect("QS0 is block-ready");
    assert_number_bank_flips_flagged(&view, 512, |v| {
        program::check_number_bank(v, &units, |unit, _| 1u64 << nodes[unit])
    });

    // 70 distinct ranges: more than one bank's worth of units.
    let batch: Vec<Expr> = (0..70i64)
        .map(|i| Expr::int_range(i * 37 - 400, i * i * 11 + 3))
        .collect();
    let fused = MultiEngine::compile_batch(&batch);
    assert!(verify_multi_engine(&fused)
        .iter()
        .all(|d| d.severity < Severity::Error));
    // Pool order: distinct units, first seen first.
    let mut units: Vec<NumberUnit> = Vec::new();
    for unit in batch.iter().flat_map(program::number_units) {
        if !units.contains(&unit) {
            units.push(unit);
        }
    }
    let view = fused.number_bank_view().expect("the batch is block-ready");
    assert!(view.banks.len() >= 2, "70 units need two banks");
    assert_number_bank_flips_flagged(&view, 128, |v| {
        program::check_number_bank(v, &units, |_, lane| 1u64 << lane)
    });
}
