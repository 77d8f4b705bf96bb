//! Number-range units stepped as one product automaton (the **number
//! bank**) in the block-scan loops of [`Engine`](crate::Engine) and
//! [`MultiEngine`](crate::multi::MultiEngine).
//!
//! The paper's number primitives are independent DFAs that the FPGA
//! steps in parallel, one per unit, every cycle (§III-B). Every unit sees
//! the same token trajectory, because a byte is a number byte or not
//! regardless of the unit. So in software "all units in one cycle" is one
//! lookup into their product automaton:
//!
//! * **Byte classes.** The 15 number bytes `0-9 + - . e E` get classes
//!   0..14 ([`NUMBER_BYTES`] order); every other byte is [`NONE`].
//! * **Product.** A breadth-first walk from the tuple of start states
//!   over the 15 classes enumerates every reachable tuple of unit states.
//!   Each product state has a [`STRIDE`]-entry next-state row (the last
//!   entry is unused and 0), a fire word (the bits of the units whose
//!   state accepts, in the caller's encoding) and its per-unit tuple.
//!   Product state 0 is the start tuple.
//! * **Banks.** Units go into banks of at most [`MAX_UNITS`] (one `u64`
//!   fire word). A bank whose walk passes [`MAX_STATES`] is split in two
//!   and both halves are walked again, down to single units, which are
//!   never capped: every program gets a bank.
//! * **Stepping.** On a number byte each bank takes one lookup; at a
//!   token end the loop ORs in the bank's fire word and returns to
//!   state 0.
//! * **Sync.** Outside a token every unit sits at its start, so a block
//!   entered outside a token starts at state 0; one entered mid-token
//!   finds its tuple in the bank's index ([`NumberBank::enter`]). On exit
//!   the tuples are written back ([`NumberBank::exit`]), so the
//!   byte-serial oracle continues from the same per-unit states.

use rfjson_redfa::DENSE_ACCEPT_BIT;

/// The number bytes in class order: byte `NUMBER_BYTES[c]` has class `c`.
pub const NUMBER_BYTES: [u8; 15] = *b"0123456789+-.eE";
/// Class of every byte that is not a number byte.
pub const NONE: u8 = 15;
/// Row length of a product transition table: the 15 classes plus one
/// unused entry.
pub const STRIDE: usize = 16;
/// Most units in one bank: one bit each in a `u64` fire word.
pub const MAX_UNITS: usize = 64;
/// Most product states a bank of two or more units may reach before it
/// is split: 512 rows of 16 `u16` next states keep a bank's transition
/// table at 16 KiB, within a level-1 data cache.
pub const MAX_STATES: usize = 512;

/// State-index part of a dense state word.
const STATE_MASK: u16 = !DENSE_ACCEPT_BIT;
/// Empty slot of a bank's tuple index.
const EMPTY: u32 = u32::MAX;

/// The number units of a program: dense tables (as built by
/// [`Dfa::dense_table`](rfjson_redfa::Dfa::dense_table)) at `off[i]`, with
/// start words `start[i]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NumberUnits<'a> {
    pub(crate) tables: &'a [u16],
    pub(crate) off: &'a [u32],
    pub(crate) start: &'a [u16],
}

impl NumberUnits<'_> {
    #[inline]
    fn step(&self, unit: usize, state: u16, byte: u8) -> u16 {
        self.tables[self.off[unit] as usize + (state & STATE_MASK) as usize * 256 + byte as usize]
    }
}

/// Snapshot of one bank for static verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductView {
    /// Index of the bank's first unit; its units are contiguous.
    pub first_unit: usize,
    /// Number of units in the bank.
    pub units: usize,
    /// [`STRIDE`] next states per product state; entry `s * STRIDE + c`
    /// is the successor of `s` on a byte of class `c`.
    pub next: Vec<u16>,
    /// Fire word per product state.
    pub fire: Vec<u64>,
    /// `units` dense state words per product state.
    pub tuples: Vec<u16>,
}

/// Snapshot of a compiled number bank for static verification
/// (`rfjson-verify` re-derives every bank from the units' dense tables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumberBankView {
    /// Class of every byte (256 entries).
    pub class: Vec<u8>,
    /// The banks, in unit order.
    pub banks: Vec<ProductView>,
}

/// One bank: the product automaton of a contiguous run of units.
#[derive(Debug, Clone)]
struct Product {
    first_unit: usize,
    units: usize,
    next: Vec<u16>,
    fire: Vec<u64>,
    tuples: Vec<u16>,
    /// Open-addressing hash index over `tuples` (product state per slot,
    /// [`EMPTY`] when free); its length is a power of two.
    index: Vec<u32>,
}

fn hash(tuple: &[u16]) -> usize {
    let h = tuple.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &w| {
        (h ^ u64::from(w)).wrapping_mul(0x0100_0000_01b3)
    });
    (h ^ (h >> 29)) as usize
}

impl Product {
    fn tuple(&self, state: usize) -> &[u16] {
        &self.tuples[state * self.units..(state + 1) * self.units]
    }

    /// The index slot holding `tuple`, or the free slot where it belongs.
    fn slot(&self, tuple: &[u16]) -> usize {
        let mask = self.index.len() - 1;
        let mut i = hash(tuple) & mask;
        loop {
            let s = self.index[i];
            if s == EMPTY || self.tuple(s as usize) == tuple {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The product state whose tuple is `tuple`.
    fn lookup(&self, tuple: &[u16]) -> Option<usize> {
        let s = self.index[self.slot(tuple)];
        (s != EMPTY).then_some(s as usize)
    }

    /// Appends `tuple` as a new state and indexes it, doubling the index
    /// at half load.
    fn insert(&mut self, tuple: &[u16], slot: usize) {
        let state = self.fire.len();
        self.tuples.extend_from_slice(tuple);
        self.fire.push(0);
        self.index[slot] = state as u32;
        if 2 * (state + 1) > self.index.len() {
            self.index = vec![EMPTY; 2 * self.index.len()];
            for s in 0..=state {
                let slot = self.slot(self.tuple(s));
                self.index[slot] = s as u32;
            }
        }
    }

    /// Walks the product of `first_unit..first_unit + units` breadth
    /// first; `None` once it passes `cap` states.
    fn build(
        units: &NumberUnits<'_>,
        first_unit: usize,
        count: usize,
        cap: usize,
        fire_bit: &impl Fn(usize, usize) -> u64,
    ) -> Option<Product> {
        let mut p = Product {
            first_unit,
            units: count,
            next: Vec::new(),
            fire: Vec::new(),
            tuples: Vec::new(),
            index: vec![EMPTY; 64],
        };
        let start = &units.start[first_unit..first_unit + count];
        let slot = p.slot(start);
        p.insert(start, slot);
        let mut succ = vec![0u16; count];
        let mut state = 0;
        while state < p.fire.len() {
            let mut fire = 0u64;
            for (lane, &w) in p.tuple(state).iter().enumerate() {
                if w & DENSE_ACCEPT_BIT != 0 {
                    fire |= fire_bit(first_unit + lane, lane);
                }
            }
            p.fire[state] = fire;
            for &byte in &NUMBER_BYTES {
                for (lane, s) in succ.iter_mut().enumerate() {
                    *s = units.step(first_unit + lane, p.tuples[state * count + lane], byte);
                }
                let slot = p.slot(&succ);
                let next = match p.index[slot] {
                    EMPTY => {
                        if p.fire.len() == cap {
                            return None;
                        }
                        p.insert(&succ, slot);
                        p.fire.len() - 1
                    }
                    s => s as usize,
                };
                p.next.push(next as u16);
            }
            p.next.push(0);
            state += 1;
        }
        Some(p)
    }
}

/// The compiled number bank of a program's number units; see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct NumberBank {
    class: [u8; 256],
    banks: Vec<Product>,
}

impl NumberBank {
    /// Derives the banks of `units`. `fire_bit(unit, lane)` is the bit
    /// unit `unit`, lane `lane` of its bank, contributes to a fire word.
    pub(crate) fn build(units: &NumberUnits<'_>, fire_bit: impl Fn(usize, usize) -> u64) -> Self {
        let mut class = [NONE; 256];
        for (c, &b) in NUMBER_BYTES.iter().enumerate() {
            class[b as usize] = c as u8;
        }
        let mut banks = Vec::new();
        let mut pending: Vec<(usize, usize)> = (0..units.start.len())
            .step_by(MAX_UNITS)
            .map(|lo| (lo, MAX_UNITS.min(units.start.len() - lo)))
            .rev()
            .collect();
        while let Some((lo, n)) = pending.pop() {
            // A single unit's walk is bounded by its automaton's state
            // count, below 2^15 (`DENSE_ACCEPT_BIT`), so it fits the u16
            // next states uncapped.
            let cap = if n == 1 { usize::MAX } else { MAX_STATES };
            match Product::build(units, lo, n, cap, &fire_bit) {
                Some(p) => banks.push(p),
                None => {
                    pending.push((lo + n / 2, n - n / 2));
                    pending.push((lo, n / 2));
                }
            }
        }
        NumberBank { class, banks }
    }

    /// The verification snapshot.
    pub(crate) fn view(&self) -> NumberBankView {
        NumberBankView {
            class: self.class.to_vec(),
            banks: self
                .banks
                .iter()
                .map(|p| ProductView {
                    first_unit: p.first_unit,
                    units: p.units,
                    next: p.next.clone(),
                    fire: p.fire.clone(),
                    tuples: p.tuples.clone(),
                })
                .collect(),
        }
    }

    /// Number of banks.
    pub(crate) fn len(&self) -> usize {
        self.banks.len()
    }

    /// The class of `byte`: 0..14 for number bytes, [`NONE`] otherwise.
    #[inline]
    pub(crate) fn class(&self, byte: u8) -> u8 {
        self.class[byte as usize]
    }

    /// Sets `states` to every bank's product state for the per-unit
    /// `unit_states`: state 0 outside a token, the indexed tuple inside.
    pub(crate) fn enter(&self, unit_states: &[u16], in_token: bool, states: &mut [usize]) {
        for (p, s) in self.banks.iter().zip(states.iter_mut()) {
            *s = if in_token {
                let tuple = &unit_states[p.first_unit..p.first_unit + p.units];
                p.lookup(tuple)
                    .expect("mid-token unit states are reachable from the start tuple")
            } else {
                0
            };
        }
    }

    /// Writes every bank's tuple back into the per-unit `unit_states`.
    pub(crate) fn exit(&self, states: &[usize], unit_states: &mut [u16]) {
        for (p, &s) in self.banks.iter().zip(states) {
            unit_states[p.first_unit..p.first_unit + p.units].copy_from_slice(p.tuple(s));
        }
    }

    /// Steps every bank on a number byte of class `class`.
    #[inline]
    pub(crate) fn step(&self, states: &mut [usize], class: u8) {
        for (p, s) in self.banks.iter().zip(states.iter_mut()) {
            *s = p.next[*s * STRIDE + class as usize] as usize;
        }
    }

    /// Ends a token: calls `fire(first_unit, word)` for every bank with a
    /// nonzero fire word and returns every bank to state 0.
    #[inline]
    pub(crate) fn end_token(&self, states: &mut [usize], mut fire: impl FnMut(usize, u64)) {
        for (p, s) in self.banks.iter().zip(states.iter_mut()) {
            let word = p.fire[*s];
            if word != 0 {
                fire(p.first_unit, word);
            }
            *s = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfjson_redfa::range::is_number_byte;
    use rfjson_redfa::NumberBounds;

    /// Dense tables, offsets and starts of `bounds`, concatenated.
    fn pool(bounds: &[NumberBounds]) -> (Vec<u16>, Vec<u32>, Vec<u16>) {
        let (mut tables, mut off, mut start) = (Vec::new(), Vec::new(), Vec::new());
        for b in bounds {
            let dfa = b.to_dfa();
            off.push(tables.len() as u32);
            start.push(dfa.dense_start());
            tables.extend(dfa.dense_table());
        }
        (tables, off, start)
    }

    fn ranges(n: usize) -> Vec<NumberBounds> {
        (0..n as i64)
            .map(|i| NumberBounds::int_range(i * 37 - 400, i * i * 11 + 3))
            .collect()
    }

    #[test]
    fn class_map_covers_exactly_the_number_bytes() {
        let (t, o, s) = pool(&ranges(1));
        let units = NumberUnits {
            tables: &t,
            off: &o,
            start: &s,
        };
        let bank = NumberBank::build(&units, |_, lane| 1 << lane);
        for b in 0..=255u8 {
            assert_eq!(bank.class(b) != NONE, is_number_byte(b), "byte {b}");
        }
    }

    #[test]
    fn banks_split_at_the_unit_limit_and_track_every_unit() {
        let bounds = ranges(70);
        let (t, o, s) = pool(&bounds);
        let units = NumberUnits {
            tables: &t,
            off: &o,
            start: &s,
        };
        let bank = NumberBank::build(&units, |_, lane| 1 << lane);
        assert!(bank.len() >= 2);
        let mut covered = 0;
        for p in &bank.banks {
            assert_eq!(p.first_unit, covered);
            assert!(p.units <= MAX_UNITS && (p.units == 1 || p.fire.len() <= MAX_STATES));
            covered += p.units;
        }
        assert_eq!(covered, bounds.len());

        let mut states = vec![0usize; bank.len()];
        let mut serial = s.clone();
        let mut fired = vec![false; bounds.len()];
        for &byte in b"-12 7e2 400.5 3-- 99999 0.0 -0 1E+1 e " {
            let c = bank.class(byte);
            let mut want = vec![false; bounds.len()];
            if c == NONE {
                for (i, w) in serial.iter_mut().enumerate() {
                    want[i] = *w & DENSE_ACCEPT_BIT != 0;
                    *w = s[i];
                }
                fired.fill(false);
                bank.end_token(&mut states, |lo, mut word| {
                    while word != 0 {
                        fired[lo + word.trailing_zeros() as usize] = true;
                        word &= word - 1;
                    }
                });
                assert_eq!(fired, want, "fires at {:?}", byte as char);
            } else {
                for (i, w) in serial.iter_mut().enumerate() {
                    *w = units.step(i, *w, byte);
                }
                bank.step(&mut states, c);
                // Mid-token round trip through the index.
                let mut back = vec![0u16; bounds.len()];
                bank.exit(&states, &mut back);
                assert_eq!(back, serial);
                let mut again = vec![0usize; bank.len()];
                bank.enter(&back, true, &mut again);
                assert_eq!(again, states);
            }
        }
    }
}
