//! Flat-program verification pass (codes `P0xx`).
//!
//! The batch [`Engine`] executes a post-order node program: primitive
//! units latch leaf bits, combinator ops fold them bottom-up, and
//! structural contexts clear exactly their strict-descendant latches at
//! instance boundaries. [`ProgramView::check`] (in `rfjson-core`, so the
//! compiler itself can `debug_assert!` it) re-proves the structural
//! invariants; this module maps those faults into the shared diagnostic
//! model and adds the cross-layer checks only an outside observer can
//! make — that the dense tables *stored inside the engine* are the same
//! tables a fresh derivation from the source expression produces.
//!
//! ## Diagnostic catalogue
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | P001 | error    | latch bitset width inconsistent with node count |
//! | P002 | error    | root is not the final node |
//! | P003 | error    | mask offset out of range |
//! | P004 | error    | mask bit exceeds node count |
//! | P005 | error    | ops not in post-order |
//! | P006 | error    | node defined twice |
//! | P007 | error    | operand used before defined |
//! | P008 | warning  | node feeds no parent (dead logic) |
//! | P009 | error    | node feeds two parents (program must be a tree) |
//! | P010 | error    | context clear mask misses/overshoots its descendants |
//! | P011 | error    | context flag-level slots out of range or unordered |
//! | P020 | error    | unit censuses disagree with the source expression |
//! | P021 | error    | stored dense table offset out of range |
//! | P022 | error    | stored dense table or start disagrees with fresh derivation |
//! | P023 | error    | stored pair bank disagrees with fresh derivation from the packed units' blocks |
//! | P024 | error    | stored number bank disagrees with fresh derivation from the number units' dense tables |

use crate::{Diagnostic, Layer};
use rfjson_core::engine::{DfaUnitView, ProgramFault, ProgramView};
use rfjson_core::expr::{Expr, StringTechnique};
use rfjson_core::numbers::{NumberBankView, MAX_STATES, MAX_UNITS, NONE, STRIDE};
use rfjson_core::pair::{PairBankView, LANES};
use rfjson_core::primitive::{DfaStringMatcher, SubstringMatcher};
use rfjson_core::Engine;
use rfjson_redfa::range::is_number_byte;
use rfjson_redfa::{Dfa, DENSE_ACCEPT_BIT};
use std::collections::HashSet;

/// Maps one [`ProgramFault`] to its diagnostic.
fn fault_diag(fault: &ProgramFault) -> Diagnostic {
    let (code, loc) = match fault {
        ProgramFault::WordWidth { .. } => ("P001", "program".to_string()),
        ProgramFault::BadRoot { root } => ("P002", format!("node {root}")),
        ProgramFault::MaskOutOfRange { node, .. } => ("P003", format!("node {node}")),
        ProgramFault::MaskBitOutOfRange { node, .. } => ("P004", format!("node {node}")),
        ProgramFault::NotPostOrder { node } => ("P005", format!("node {node}")),
        ProgramFault::DoubleDefinition { node } => ("P006", format!("node {node}")),
        ProgramFault::UseBeforeDef { node, .. } => ("P007", format!("node {node}")),
        ProgramFault::DanglingNode { node } => ("P008", format!("node {node}")),
        ProgramFault::SharedOperand { node } => ("P009", format!("node {node}")),
        ProgramFault::LatchClearMismatch { node, .. } => ("P010", format!("node {node}")),
        ProgramFault::BadCtxSlots { node } => ("P011", format!("node {node}")),
    };
    if code == "P008" {
        Diagnostic::warning(Layer::Program, code, &loc, fault.to_string())
    } else {
        Diagnostic::error(Layer::Program, code, &loc, fault.to_string())
    }
}

/// Verifies a program snapshot's structural invariants (the
/// [`ProgramView::check`] faults, as diagnostics).
pub fn verify_program(view: &ProgramView) -> Vec<Diagnostic> {
    view.check().iter().map(fault_diag).collect()
}

/// The automata a fresh derivation from the expression yields, in the
/// compiler's deterministic visit order.
#[derive(Default)]
pub(crate) struct ExpectedUnits {
    pub(crate) string_dfas: Vec<Dfa>,
    pub(crate) number_dfas: Vec<Dfa>,
    pub(crate) sub1: usize,
    pub(crate) packed: Vec<PackedUnit>,
    pub(crate) wide: usize,
}

/// A packed substring unit (2 ≤ B ≤ 8) freshly derived from its source
/// primitive: what a pair bank must encode for it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedUnit {
    /// Block length B.
    pub b: usize,
    /// The matcher's distinct blocks.
    pub blocks: Vec<Vec<u8>>,
    /// Run target.
    pub target: u32,
}

/// The packed substring units of `expr`, in the compiler's visit order.
pub fn packed_units(expr: &Expr) -> Vec<PackedUnit> {
    let mut exp = ExpectedUnits::default();
    collect_expected(expr, &mut exp);
    exp.packed
}

/// Re-derives the pair bank of `units` (in bank-lane order) and returns
/// every way `bank` disagrees with it. The derivation is independent of
/// the compiler's class numbering: every byte in a pair key (the last
/// two bytes of a block) must have a nonzero class and every other byte
/// class 0; for every pair of key bytes, the table entry of their class
/// pair must hold `0xFF` in exactly the lanes whose unit has a block
/// ending in that pair; every entry no key pair reaches must be zero;
/// targets and B > 2 confirm lanes must match the units.
pub fn check_pair_bank(bank: &PairBankView, units: &[PackedUnit]) -> Vec<String> {
    let banks = units.len().div_ceil(LANES);
    let size = bank.stride * bank.stride;
    if bank.class.len() != 256
        || bank.targets.len() != banks
        || bank.confirm.len() != banks
        || bank.table.len() != banks * size
    {
        return vec![format!(
            "bank shape (classes {}, {} banks, table {}) does not fit {} units at stride {}",
            bank.class.len(),
            bank.targets.len(),
            bank.table.len(),
            units.len(),
            bank.stride
        )];
    }
    let mut faults = Vec::new();
    let pairs: Vec<HashSet<(u8, u8)>> = units
        .iter()
        .map(|u| {
            u.blocks
                .iter()
                .map(|blk| (blk[blk.len() - 2], blk[blk.len() - 1]))
                .collect()
        })
        .collect();
    let mut key = [false; 256];
    for &(a, b) in pairs.iter().flatten() {
        key[usize::from(a)] = true;
        key[usize::from(b)] = true;
    }
    for (byte, &is_key) in key.iter().enumerate() {
        let class = usize::from(bank.class[byte]);
        if is_key != (class != 0) || class >= bank.stride {
            faults.push(format!("byte 0x{byte:02x} has class {class}"));
        }
    }
    let key_bytes: Vec<u8> = (0..=255u8).filter(|&b| key[usize::from(b)]).collect();
    let mut expected = vec![0u64; bank.table.len()];
    let mut reached = vec![false; size];
    for &a in &key_bytes {
        for &b in &key_bytes {
            let cell = usize::from(bank.class[usize::from(a)]) * bank.stride
                + usize::from(bank.class[usize::from(b)]);
            if cell >= size {
                continue; // already reported as a class fault
            }
            reached[cell] = true;
            for (u, set) in pairs.iter().enumerate() {
                if set.contains(&(a, b)) {
                    expected[(u / LANES) * size + cell] |= 0xffu64 << (8 * (u % LANES));
                }
            }
        }
    }
    for (i, (&got, &want)) in bank.table.iter().zip(&expected).enumerate() {
        let (k, cell) = (i / size, i % size);
        if got != want {
            faults.push(format!(
                "bank {k} entry ({}, {}): stored 0x{got:016x}, derived 0x{want:016x}{}",
                cell / bank.stride,
                cell % bank.stride,
                if reached[cell] { "" } else { " (no key pair)" }
            ));
        }
    }
    for k in 0..banks {
        let lanes = &units[k * LANES..units.len().min((k + 1) * LANES)];
        let mut targets = 0u64;
        let mut confirm = 0u64;
        for lane in 0..LANES {
            let unit = lanes.get(lane);
            targets |= unit.map_or(127, |u| u64::from(u.target)) << (8 * lane);
            if unit.is_some_and(|u| u.b > 2) {
                confirm |= 0xffu64 << (8 * lane);
            }
        }
        if bank.targets[k] != targets {
            faults.push(format!(
                "bank {k} targets 0x{:016x}, derived 0x{targets:016x}",
                bank.targets[k]
            ));
        }
        if bank.confirm[k] != confirm {
            faults.push(format!(
                "bank {k} confirm lanes 0x{:016x}, derived 0x{confirm:016x}",
                bank.confirm[k]
            ));
        }
    }
    faults
}

/// A number unit freshly derived from its source range: what a number
/// bank must step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NumberUnit {
    /// Dense transition table ([`Dfa::dense_table`]).
    pub table: Vec<u16>,
    /// Dense start word ([`Dfa::dense_start`]).
    pub start: u16,
}

impl NumberUnit {
    /// The unit of a freshly derived number automaton.
    pub fn of(dfa: &Dfa) -> NumberUnit {
        NumberUnit {
            table: dfa.dense_table(),
            start: dfa.dense_start(),
        }
    }

    /// The successor of dense state word `state` on `byte`; `None` when
    /// the word's state index is out of range.
    fn step(&self, state: u16, byte: u8) -> Option<u16> {
        let row = usize::from(state & !DENSE_ACCEPT_BIT) * 256;
        self.table.get(row + usize::from(byte)).copied()
    }
}

/// The number units of `expr`, in the compiler's visit order.
pub fn number_units(expr: &Expr) -> Vec<NumberUnit> {
    let mut exp = ExpectedUnits::default();
    collect_expected(expr, &mut exp);
    exp.number_dfas.iter().map(NumberUnit::of).collect()
}

/// Re-derives the number bank of `units` (in unit order) and returns
/// every way `bank` disagrees with it. `fire_bit(unit, lane)` is the bit
/// the unit contributes to a fire word. The derivation is independent of
/// the compiler's state numbering: the class map must give the 15 number
/// bytes distinct classes below [`NONE`] and every other byte [`NONE`];
/// the banks must cover the units in order, at most [`MAX_UNITS`] each
/// and [`MAX_STATES`] states unless a single unit; in each bank, state 0
/// must hold the start tuple, tuples must be distinct, every number
/// byte's transition must lead to the tuple the units' own tables step
/// to, the unused row entry must be 0, and every fire word must hold
/// exactly the bits of the units whose state word accepts.
pub fn check_number_bank(
    bank: &NumberBankView,
    units: &[NumberUnit],
    fire_bit: impl Fn(usize, usize) -> u64,
) -> Vec<String> {
    if bank.class.len() != 256 {
        return vec![format!("class map has {} entries", bank.class.len())];
    }
    let mut faults = Vec::new();
    let mut taken = [false; NONE as usize];
    for (byte, &class) in bank.class.iter().enumerate() {
        let number = is_number_byte(byte as u8);
        let fits = if number {
            class < NONE && !std::mem::replace(&mut taken[usize::from(class)], true)
        } else {
            class == NONE
        };
        if !fits {
            faults.push(format!("byte 0x{byte:02x} has class {class}"));
        }
    }
    let number_bytes: Vec<(u8, usize)> = (0..=255u8)
        .filter(|&b| is_number_byte(b) && bank.class[usize::from(b)] < NONE)
        .map(|b| (b, usize::from(bank.class[usize::from(b)])))
        .collect();
    let mut covered = 0;
    for (k, p) in bank.banks.iter().enumerate() {
        let states = p.fire.len();
        if p.first_unit != covered
            || p.units == 0
            || p.units > MAX_UNITS
            || p.first_unit + p.units > units.len()
        {
            faults.push(format!(
                "bank {k} holds units {}..{} after unit {covered} of {}",
                p.first_unit,
                p.first_unit + p.units,
                units.len()
            ));
            return faults;
        }
        covered += p.units;
        if states == 0 || p.next.len() != states * STRIDE || p.tuples.len() != states * p.units {
            faults.push(format!(
                "bank {k} shape ({states} fire words, {} next entries, {} tuple words) \
                 does not fit {} units",
                p.next.len(),
                p.tuples.len(),
                p.units
            ));
            continue;
        }
        if p.units > 1 && states > MAX_STATES {
            faults.push(format!("bank {k} has {states} states, above the cap"));
        }
        let lanes = &units[p.first_unit..p.first_unit + p.units];
        let tuple = |s: usize| &p.tuples[s * p.units..(s + 1) * p.units];
        let start: Vec<u16> = lanes.iter().map(|u| u.start).collect();
        if tuple(0) != start.as_slice() {
            faults.push(format!("bank {k} state 0 is not the start tuple"));
        }
        let mut distinct = HashSet::new();
        let mut succ = vec![0u16; p.units];
        for s in 0..states {
            if !distinct.insert(tuple(s)) {
                faults.push(format!("bank {k} state {s} repeats an earlier tuple"));
            }
            let mut fire = 0u64;
            for (lane, &w) in tuple(s).iter().enumerate() {
                if w & DENSE_ACCEPT_BIT != 0 {
                    fire |= fire_bit(p.first_unit + lane, lane);
                }
            }
            if p.fire[s] != fire {
                faults.push(format!(
                    "bank {k} state {s} fires 0x{:016x}, derived 0x{fire:016x}",
                    p.fire[s]
                ));
            }
            for &(byte, class) in &number_bytes {
                let t = usize::from(p.next[s * STRIDE + class]);
                let stepped = lanes
                    .iter()
                    .zip(tuple(s))
                    .zip(succ.iter_mut())
                    .all(|((u, &w), out)| u.step(w, byte).map(|n| *out = n).is_some());
                if !stepped || t >= states || tuple(t) != succ.as_slice() {
                    faults.push(format!(
                        "bank {k} state {s} on {:?} leads to state {t}, not the stepped tuple",
                        byte as char
                    ));
                }
            }
            if p.next[s * STRIDE + STRIDE - 1] != 0 {
                faults.push(format!("bank {k} state {s} has a nonzero unused entry"));
            }
        }
    }
    if covered != units.len() {
        faults.push(format!("banks cover {covered} of {} units", units.len()));
    }
    faults
}

pub(crate) fn collect_expected(expr: &Expr, exp: &mut ExpectedUnits) {
    match expr {
        Expr::Str(spec) => match spec.technique {
            StringTechnique::Dfa | StringTechnique::Window => {
                let m = DfaStringMatcher::new(&spec.needle);
                exp.string_dfas.push(m.dfa().clone());
            }
            StringTechnique::Substring(b) => {
                if b == 1 {
                    exp.sub1 += 1;
                } else if b <= 8 {
                    let m = SubstringMatcher::new(&spec.needle, b)
                        .expect("expression was validated at compile time");
                    exp.packed.push(PackedUnit {
                        b,
                        blocks: m.blocks().to_vec(),
                        target: m.target(),
                    });
                } else {
                    exp.wide += 1;
                }
            }
        },
        Expr::Num(bounds) => exp.number_dfas.push(bounds.to_dfa()),
        Expr::And(cs) | Expr::Or(cs) | Expr::Ctx(cs, _) => {
            for c in cs {
                collect_expected(c, exp);
            }
        }
    }
}

/// Cross-checks one stored unit against its freshly derived automaton.
pub(crate) fn check_unit(
    kind: &str,
    i: usize,
    unit: &DfaUnitView,
    fresh: &Dfa,
    tables: &[u16],
    out: &mut Vec<Diagnostic>,
) {
    let loc = format!("{kind} unit {i} (node {})", unit.node);
    let len = fresh.num_states() * 256;
    let off = unit.table_off as usize;
    if off + len > tables.len() {
        out.push(Diagnostic::error(
            Layer::Program,
            "P021",
            &loc,
            format!(
                "table offset {off}+{len} exceeds pool of {} entries",
                tables.len()
            ),
        ));
        return;
    }
    if tables[off..off + len] != fresh.dense_table()[..] {
        out.push(Diagnostic::error(
            Layer::Program,
            "P022",
            &loc,
            "stored dense table disagrees with fresh derivation from the expression".to_string(),
        ));
    }
    if unit.start != fresh.dense_start() {
        out.push(Diagnostic::error(
            Layer::Program,
            "P022",
            &loc,
            format!(
                "stored start word 0x{:04x} disagrees with derived 0x{:04x}",
                unit.start,
                fresh.dense_start()
            ),
        ));
    }
}

/// Verifies a compiled engine: structural program invariants plus the
/// cross-layer agreement of its stored dense tables with automata
/// freshly derived from [`Engine::expr`].
pub fn verify_engine(engine: &Engine) -> Vec<Diagnostic> {
    let view = engine.program_view();
    let mut out = verify_program(&view);

    let mut exp = ExpectedUnits::default();
    collect_expected(engine.expr(), &mut exp);

    let censuses = [
        ("string-dfa", view.string_dfas.len(), exp.string_dfas.len()),
        ("number-dfa", view.number_dfas.len(), exp.number_dfas.len()),
        ("substring-b1", view.sub1_nodes.len(), exp.sub1),
        ("substring-packed", view.subp_nodes.len(), exp.packed.len()),
        ("substring-wide", view.wide_nodes.len(), exp.wide),
    ];
    for (kind, got, want) in censuses {
        if got != want {
            out.push(Diagnostic::error(
                Layer::Program,
                "P020",
                "program",
                format!("{kind} unit count {got}, expression has {want}"),
            ));
        }
    }

    for (i, (unit, fresh)) in view.string_dfas.iter().zip(&exp.string_dfas).enumerate() {
        check_unit("string-dfa", i, unit, fresh, &view.tables, &mut out);
    }
    for (i, (unit, fresh)) in view.number_dfas.iter().zip(&exp.number_dfas).enumerate() {
        check_unit("number-dfa", i, unit, fresh, &view.tables, &mut out);
    }
    if let Some(bank) = engine.pair_bank_view() {
        for fault in check_pair_bank(&bank, &exp.packed) {
            out.push(Diagnostic::error(
                Layer::Program,
                "P023",
                "pair bank",
                fault,
            ));
        }
    }
    if let Some(bank) = engine.number_bank_view() {
        let units = number_units(engine.expr());
        let nodes: Vec<u32> = view.number_dfas.iter().map(|u| u.node).collect();
        let fire_bit = |unit: usize, _| nodes.get(unit).map_or(0, |&n| 1u64 << (n % 64));
        for fault in check_number_bank(&bank, &units, fire_bit) {
            out.push(Diagnostic::error(
                Layer::Program,
                "P024",
                "number bank",
                fault,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    fn sample_engine() -> Engine {
        let expr = Expr::and([
            Expr::context([
                Expr::substring(b"temperature", 1).unwrap(),
                Expr::float_range("0.7", "35.1").unwrap(),
            ]),
            Expr::dfa_string(b"dust").unwrap(),
            Expr::int_range(12, 49),
        ]);
        Engine::compile(&expr)
    }

    #[test]
    fn compiled_engine_is_clean() {
        let diags = verify_engine(&sample_engine());
        assert!(
            diags.iter().all(|d| d.severity < Severity::Warning),
            "{diags:?}"
        );
    }

    #[test]
    fn dropped_latch_reset_is_flagged() {
        let engine = sample_engine();
        let mut view = engine.program_view();
        // Find the context op and knock one descendant out of its clear
        // mask — the latch would never reset at instance end.
        let ctx = view
            .ops
            .iter()
            .find_map(|op| match op.kind {
                rfjson_core::engine::OpKindView::Ctx { clear_off, .. } => {
                    Some((op.node, clear_off))
                }
                _ => None,
            })
            .expect("sample has a context");
        let (node, clear_off) = ctx;
        let first_desc = (node - 2) as usize; // a strict descendant bit
        view.masks[clear_off as usize + first_desc / 64] &= !(1u64 << (first_desc % 64));
        let diags = verify_program(&view);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "P010" && d.severity == Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn pair_bank_is_clean_and_class_map_corruption_is_flagged() {
        let expr = Expr::and([
            Expr::substring(b"tolls_amount", 2).unwrap(),
            Expr::substring(b"total_amount", 3).unwrap(),
        ]);
        let engine = Engine::compile(&expr);
        assert!(verify_engine(&engine).is_empty());
        let units = packed_units(&expr);
        let mut view = engine.pair_bank_view().expect("fits a pair bank");
        // Point a non-key byte at a live class: it would count as a letter.
        view.class[usize::from(b'Z')] = view.class[usize::from(b'a')];
        assert!(!check_pair_bank(&view, &units).is_empty());
        let mut view = engine.pair_bank_view().expect("fits a pair bank");
        view.confirm[0] = 0;
        assert!(!check_pair_bank(&view, &units).is_empty());
    }

    #[test]
    fn corrupted_stored_table_is_flagged() {
        let engine = sample_engine();
        // verify_engine recomputes from the expression; corrupting the
        // snapshot's table must be caught by the cross-layer check. The
        // snapshot is a clone, so mutate and re-run the unit check
        // directly.
        let mut view = engine.program_view();
        let unit = view.string_dfas[0];
        view.tables[unit.table_off as usize + 7] ^= 1;
        let mut exp = ExpectedUnits::default();
        collect_expected(engine.expr(), &mut exp);
        let mut out = Vec::new();
        check_unit(
            "string-dfa",
            0,
            &unit,
            &exp.string_dfas[0],
            &view.tables,
            &mut out,
        );
        assert!(out.iter().any(|d| d.code == "P022"), "{out:?}");
    }
}
