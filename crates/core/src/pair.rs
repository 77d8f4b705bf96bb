//! Packed substring units (2 ≤ B ≤ 8) and the pair bank that steps them
//! in the block-scan loops of [`Engine`](crate::Engine) and
//! [`MultiEngine`](crate::multi::MultiEngine).
//!
//! The paper's approximate matcher sB compares the last B bytes against
//! every B-byte block of the needle in one cycle and feeds the OR-ed
//! result into a run counter (§III-A, Fig. 1). The byte-serial oracle
//! ([`PackedUnits::hit`]) searches the block list one entry at a time.
//! The **pair bank** makes the comparison one table lookup for eight
//! units at once:
//!
//! * **Byte classes.** Every byte that occurs in the last two positions
//!   of some block gets its own nonzero class; every other byte is class
//!   0. At most [`MAX_CLASSES`] classes fit, which bounds a bank's table
//!   at 64 × 64 entries.
//! * **Pair table.** One table per bank of eight units, keyed by
//!   (class of the previous byte, class of the current byte). Entry lane
//!   `i` holds `0xFF` iff the pair ends some block of unit `i`. Rows and
//!   columns of class 0 are all zero, so a byte outside every pair key
//!   resets every counter at once.
//! * **Exactness.** Classes are one byte each, so for a B = 2 lane the
//!   lookup is exactly "the window is a block". A B = 3..8 lane only
//!   learns that the last two bytes fit; it confirms the hit with the
//!   block compare of the oracle before counting it.
//! * **Counters.** The run counters are the saturating u8 lanes of the
//!   single-byte units: targets ≤ [`MAX_TARGET`] keep "counter ≥ target"
//!   exact and the fire compare borrow-free ([`run_step`]).
//!
//! A program whose packed units need more than [`MAX_CLASSES`] classes,
//! more than [`MAX_BANKS`] banks, or a target above [`MAX_TARGET`] gets
//! no bank ([`PairBank::build`] returns `None`) and runs byte-serial.

/// Lowest bit of every packed u8 lane.
const LANE_LO: u64 = 0x0101_0101_0101_0101;
/// Highest bit of every packed u8 lane.
const LANE_HI: u64 = 0x8080_8080_8080_8080;
/// Units per bank: one u8 run counter per lane of a `u64`.
pub const LANES: usize = 8;
/// Most banks a pair bank holds (64 packed units).
pub const MAX_BANKS: usize = 8;
/// Most nonzero byte classes a pair bank holds.
pub const MAX_CLASSES: usize = 63;
/// Largest run target a packed u8 lane holds exactly: counters saturate
/// at 127, and targets below that keep `counter ≥ target` exact.
pub const MAX_TARGET: u32 = 126;
/// Target of an unused lane: unreachable by a saturating counter.
const UNUSED_TARGET: u64 = 127;

/// One cycle of eight packed run counters: hit lanes count up
/// (saturating at 127), miss lanes reset. `hits` holds `0xFF` in every
/// hit lane. Returns the new counters and the fire mask (the high bit of
/// every lane whose counter reached its target); targets ≤ 127 keep the
/// per-lane subtraction borrow-free.
#[inline]
pub(crate) fn run_step(counters: u64, hits: u64, targets: u64) -> (u64, u64) {
    let mut c = (counters & hits) + (LANE_LO & hits);
    c -= (c & LANE_HI) >> 7;
    (c, ((c | LANE_HI) - targets) & LANE_HI)
}

/// Packs run targets eight to a word, one bank per word; unused lanes
/// hold 127, which no saturating counter reaches.
pub(crate) fn pack_targets(targets: &[u32]) -> Vec<u64> {
    let banks = targets.len().div_ceil(LANES);
    (0..banks)
        .map(|k| {
            (0..LANES).fold(0u64, |packed, lane| {
                let t = targets
                    .get(k * LANES + lane)
                    .map_or(UNUSED_TARGET, |&t| u64::from(t));
                packed | t << (8 * lane)
            })
        })
        .collect()
}

/// Packs scalar run counters into u8 lanes, clamped at 127. Counters
/// only grow within a run and targets are ≤ 126, so clamping preserves
/// every `counter ≥ target` comparison.
pub(crate) fn pack_counters(counters: &[u32]) -> [u64; MAX_BANKS] {
    let mut packed = [0u64; MAX_BANKS];
    for (i, &c) in counters.iter().enumerate() {
        packed[i / LANES] |= u64::from(c.min(127)) << (8 * (i % LANES));
    }
    packed
}

/// Inverse of [`pack_counters`].
pub(crate) fn unpack_counters(packed: &[u64; MAX_BANKS], counters: &mut [u32]) {
    for (i, c) in counters.iter_mut().enumerate() {
        *c = ((packed[i / LANES] >> (8 * (i % LANES))) & 0xff) as u32;
    }
}

/// Banked 256-entry hit tables for single-byte substring units, one
/// bank of eight units after another: entry `b` of bank `k` holds `0xFF`
/// in lane `i` iff byte `b` is in the membership bitmap of unit
/// `8k + i` (four `u64` words per unit in `bitmaps`).
pub(crate) fn sub1_hit_tables(bitmaps: &[u64]) -> Vec<u64> {
    let units = bitmaps.len() / 4;
    let mut hits = vec![0u64; units.div_ceil(LANES) * 256];
    for (i, bitmap) in bitmaps.chunks_exact(4).enumerate() {
        let (bank, lane) = (i / LANES, i % LANES);
        for byte in 0..256usize {
            if bitmap[byte >> 6] & (1u64 << (byte & 63)) != 0 {
                hits[bank * 256 + byte] |= 0xffu64 << (8 * lane);
            }
        }
    }
    hits
}

/// The window mask of a packed unit with block length `b` (2 ≤ b ≤ 8):
/// its low `b` bytes.
pub(crate) fn win_mask(b: usize) -> u64 {
    if b == 8 {
        u64::MAX
    } else {
        (1u64 << (8 * b)) - 1
    }
}

/// Packed substring units (2 ≤ B ≤ 8) in struct-of-arrays form: each
/// unit's window mask, its blocks packed big-endian into `u64`s (last
/// byte lowest), and its run target.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedUnits {
    pub(crate) win_mask: Vec<u64>,
    blocks_off: Vec<u32>,
    blocks_len: Vec<u32>,
    blocks: Vec<u64>,
    pub(crate) target: Vec<u32>,
}

impl PackedUnits {
    /// Number of units.
    pub(crate) fn len(&self) -> usize {
        self.target.len()
    }

    /// Appends one unit: its window mask ([`win_mask`]), packed blocks
    /// and run target.
    pub(crate) fn push(&mut self, win_mask: u64, blocks: &[u64], target: u32) {
        self.win_mask.push(win_mask);
        self.blocks_off.push(self.blocks.len() as u32);
        self.blocks_len.push(blocks.len() as u32);
        self.blocks.extend_from_slice(blocks);
        self.target.push(target);
    }

    /// Unit `i`'s packed blocks.
    pub(crate) fn blocks(&self, i: usize) -> &[u64] {
        let off = self.blocks_off[i] as usize;
        &self.blocks[off..off + self.blocks_len[i] as usize]
    }

    /// The oracle comparison: whether unit `i`'s window, cut from the
    /// full shift register `win`, equals one of its blocks.
    #[inline]
    pub(crate) fn hit(&self, i: usize, win: u64) -> bool {
        self.blocks(i).contains(&(win & self.win_mask[i]))
    }
}

/// Snapshot of a compiled pair bank for static verification
/// (`rfjson-verify` re-derives every field from the units' blocks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairBankView {
    /// Class of every byte (256 entries); 0 for bytes in no pair key.
    pub class: Vec<u8>,
    /// Row length of each bank's table: number of classes plus one.
    pub stride: usize,
    /// `stride × stride` packed hit entries per bank, bank after bank;
    /// entry `prev * stride + cur` holds `0xFF` in lane `i` iff the class
    /// pair ends some block of unit `8k + i`.
    pub table: Vec<u64>,
    /// Packed run targets per bank (unused lanes hold 127).
    pub targets: Vec<u64>,
    /// Per bank, `0xFF` in every lane whose unit has B > 2 and so
    /// confirms a lookup hit with the block compare.
    pub confirm: Vec<u64>,
}

/// The compiled pair bank of a set of [`PackedUnits`]; see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct PairBank {
    class: [u8; 256],
    stride: usize,
    table: Vec<u64>,
    targets: Vec<u64>,
    confirm: Vec<u64>,
}

impl PairBank {
    /// Derives the bank, or `None` when the units do not fit: more than
    /// [`MAX_CLASSES`] key bytes, more than [`MAX_BANKS`] banks, or a
    /// target above [`MAX_TARGET`].
    pub(crate) fn build(units: &PackedUnits) -> Option<PairBank> {
        let banks = units.len().div_ceil(LANES);
        if banks > MAX_BANKS || units.target.iter().any(|&t| t > MAX_TARGET) {
            return None;
        }
        let key = |blk: u64| [((blk >> 8) & 0xff) as usize, (blk & 0xff) as usize];
        let mut class = [0u8; 256];
        let mut classes = 0usize;
        for u in 0..units.len() {
            for &blk in units.blocks(u) {
                for byte in key(blk) {
                    if class[byte] == 0 {
                        classes += 1;
                        if classes > MAX_CLASSES {
                            return None;
                        }
                        class[byte] = classes as u8;
                    }
                }
            }
        }
        let stride = classes + 1;
        let mut table = vec![0u64; banks * stride * stride];
        let mut confirm = vec![0u64; banks];
        for u in 0..units.len() {
            let (k, lane) = (u / LANES, u % LANES);
            for &blk in units.blocks(u) {
                let [prev, cur] = key(blk);
                let idx = usize::from(class[prev]) * stride + usize::from(class[cur]);
                table[k * stride * stride + idx] |= 0xffu64 << (8 * lane);
            }
            if units.win_mask[u] > 0xffff {
                confirm[k] |= 0xffu64 << (8 * lane);
            }
        }
        Some(PairBank {
            class,
            stride,
            table,
            targets: pack_targets(&units.target),
            confirm,
        })
    }

    /// The verification snapshot.
    pub(crate) fn view(&self) -> PairBankView {
        PairBankView {
            class: self.class.to_vec(),
            stride: self.stride,
            table: self.table.clone(),
            targets: self.targets.clone(),
            confirm: self.confirm.clone(),
        }
    }

    /// Steps every unit one byte: `win` is the full shift register with
    /// the new byte in its low bits, `counters` the packed run counters
    /// (one word per bank). Calls `fire(unit)` for every unit whose
    /// counter reaches its target. Returns `false` when the byte is in
    /// no pair key, which resets every counter without a lookup.
    #[inline]
    pub(crate) fn step(
        &self,
        units: &PackedUnits,
        counters: &mut [u64; MAX_BANKS],
        win: u64,
        mut fire: impl FnMut(usize),
    ) -> bool {
        let banks = self.targets.len();
        let cur = self.class[(win & 0xff) as usize];
        if cur == 0 {
            counters[..banks].fill(0);
            return false;
        }
        let prev = self.class[((win >> 8) & 0xff) as usize];
        let idx = usize::from(prev) * self.stride + usize::from(cur);
        let size = self.stride * self.stride;
        for (k, c) in counters[..banks].iter_mut().enumerate() {
            let mut hits = self.table[k * size + idx];
            let mut unconfirmed = hits & self.confirm[k];
            while unconfirmed != 0 {
                let lane = unconfirmed.trailing_zeros() as usize / 8;
                let m = 0xffu64 << (8 * lane);
                unconfirmed &= !m;
                if !units.hit(k * LANES + lane, win) {
                    hits &= !m;
                }
            }
            let (next, mut f) = run_step(*c, hits, self.targets[k]);
            *c = next;
            while f != 0 {
                let lane = f.trailing_zeros() as usize / 8;
                f &= f - 1;
                fire(k * LANES + lane);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units(specs: &[(&[u8], usize)]) -> PackedUnits {
        let mut u = PackedUnits::default();
        for &(needle, b) in specs {
            let blocks: Vec<u64> = needle
                .windows(b)
                .map(|w| w.iter().fold(0u64, |p, &x| (p << 8) | u64::from(x)))
                .collect();
            u.push(win_mask(b), &blocks, (needle.len() - b + 1) as u32);
        }
        u
    }

    #[test]
    fn run_step_counts_saturates_and_fires() {
        let targets = pack_targets(&[2, 126]);
        let hit = 0xffffu64;
        let (c, f) = run_step(0, hit, targets[0]);
        assert_eq!((c, f), (0x0101, 0));
        let (c, f) = run_step(c, hit, targets[0]);
        assert_eq!((c, f), (0x0202, 0x80));
        let (c, f) = run_step(c, 0xff00, targets[0]);
        assert_eq!((c, f), (0x0300, 0), "a miss resets its lane only");
        let (c, f) = run_step(0x7f7f, hit, targets[0]);
        assert_eq!((c, f), (0x7f7f, 0x8080), "127 saturates and fires 126");
    }

    #[test]
    fn counters_round_trip_with_clamp() {
        let mut back = vec![0u32; 10];
        let packed = pack_counters(&[1, 2, 3, 4, 5, 6, 7, 8, 300, 9]);
        unpack_counters(&packed, &mut back);
        assert_eq!(back, vec![1, 2, 3, 4, 5, 6, 7, 8, 127, 9]);
    }

    #[test]
    fn build_refuses_what_does_not_fit() {
        assert!(PairBank::build(&units(&[(&[b'a'; 127], 2)])).is_some());
        assert!(PairBank::build(&units(&[(&[b'a'; 128], 2)])).is_none());
        let wide: Vec<u8> = (1..=70).collect();
        assert!(PairBank::build(&units(&[(&wide, 2)])).is_none());
        let many: Vec<(&[u8], usize)> = vec![(b"ab".as_slice(), 2); 65];
        assert!(PairBank::build(&units(&many)).is_none());
    }

    #[test]
    fn step_matches_the_block_compare() {
        let u = units(&[(b"tolls_amount", 2), (b"total_amount", 3)]);
        let bank = PairBank::build(&u).expect("fits");
        let mut counters = [0u64; MAX_BANKS];
        let mut serial = [0u32; 2];
        let mut win = 0u64;
        for &byte in br#"{"tolls_amount":1,"total_amount":2,"tol":3}"# {
            win = (win << 8) | u64::from(byte);
            let mut fired = [false; 2];
            bank.step(&u, &mut counters, win, |i| fired[i] = true);
            for i in 0..2 {
                serial[i] = if u.hit(i, win) { serial[i] + 1 } else { 0 };
                assert_eq!(fired[i], serial[i] >= u.target[i], "unit {i}");
            }
            let mut lanes = [0u32; 2];
            unpack_counters(&counters, &mut lanes);
            assert_eq!(lanes, serial);
        }
    }
}
