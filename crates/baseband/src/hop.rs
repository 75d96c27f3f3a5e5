//! Frequency-hop selection: inquiry trains and the 79-channel kernel.
//!
//! ## Inquiry hopping (load-bearing for every experiment)
//!
//! Inquiry uses 32 dedicated frequencies out of the 79. The master splits
//! them into two 16-hop **trains** (A and B), covers one train in 10 ms
//! (two frequencies per even slot), repeats it `N_inquiry = 256` times
//! (2.56 s) and then switches train. A scanning slave listens on a single
//! inquiry frequency that advances by one position every 1.28 s, driven by
//! its own clock bits `CLKN[16:12]` and its address.
//!
//! Whether the slave's current frequency belongs to the master's current
//! train is *the* variable behind Table 1 of the paper: same train →
//! ≈1.6 s mean discovery, different train → the master must first burn a
//! 2.56 s train repetition (≈4.1 s mean).
//!
//! **Simplification (documented in DESIGN.md):** the spec re-partitions
//! train membership gradually over time; we fix train A = positions 0–15
//! and train B = positions 16–31 of the inquiry sequence. On the ≤15 s
//! horizon of the paper's experiments the phenomenology is identical, and
//! the slave's 1.28 s frequency walk is preserved.
//!
//! ## Connection hopping
//!
//! Once connected, master and slave hop over all 79 channels following a
//! pseudo-random sequence derived from the master's address and clock. The
//! [`basic_hop`] kernel reproduces the spec's structure — XOR/add mixing
//! stages, a 14-control-bit butterfly permutation over 5 bits, and the
//! final mod-79 mapping onto the even-first channel list. Constants are
//! property-tested (bijectivity per control word, full channel coverage,
//! even spread) rather than checked against spec test vectors, which is
//! sufficient for simulation purposes and documented as such.

use crate::addr::BdAddr;

/// Number of dedicated inquiry/page frequencies.
pub const NUM_INQUIRY_FREQS: u8 = 32;

/// Frequencies per train (half of the inquiry set).
pub const TRAIN_LEN: u8 = 16;

/// Number of RF channels in the 79-hop system.
pub const NUM_CHANNELS: u8 = 79;

/// One of the two 16-frequency inquiry (or page) trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Train {
    /// The first train (positions 0–15 of the inquiry sequence).
    A,
    /// The second train (positions 16–31).
    B,
}

impl Train {
    /// The other train.
    pub fn other(self) -> Train {
        match self {
            Train::A => Train::B,
            Train::B => Train::A,
        }
    }

    /// The train containing inquiry-sequence position `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 32`.
    pub fn containing(idx: InquiryFreq) -> Train {
        if idx.0 < TRAIN_LEN {
            Train::A
        } else {
            Train::B
        }
    }

    /// The inquiry frequency at offset `k` within this train.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 16`.
    pub fn freq(self, k: u8) -> InquiryFreq {
        assert!(k < TRAIN_LEN, "train offset {k} out of range");
        match self {
            Train::A => InquiryFreq::new(k),
            Train::B => InquiryFreq::new(TRAIN_LEN + k),
        }
    }

    /// Whether this train contains the given frequency.
    pub fn contains(self, f: InquiryFreq) -> bool {
        Train::containing(f) == self
    }
}

/// A position in the 32-frequency inquiry (or page) hopping sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InquiryFreq(u8);

impl InquiryFreq {
    /// Creates a frequency position.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 32`.
    pub fn new(idx: u8) -> Self {
        assert!(idx < NUM_INQUIRY_FREQS, "inquiry freq {idx} out of range");
        InquiryFreq(idx)
    }

    /// The position index (0–31).
    pub fn index(self) -> u8 {
        self.0
    }

    /// The next position, wrapping at 32 — the slave's 1.28 s walk.
    pub fn next(self) -> InquiryFreq {
        InquiryFreq((self.0 + 1) % NUM_INQUIRY_FREQS)
    }

    /// The train this frequency belongs to.
    pub fn train(self) -> Train {
        Train::containing(self)
    }
}

/// The inquiry-scan frequency a device listens on, as a function of its
/// clock phase (`CLKN[16:12]`, advancing every 1.28 s) and its address.
///
/// Different devices map their phase to different frequencies (the spec
/// derives the sequence from the access-code LAP); the per-address rotation
/// models that decorrelation.
pub fn scan_frequency(addr: BdAddr, clkn_16_12: u8) -> InquiryFreq {
    let rot = (addr.hop_input() % NUM_INQUIRY_FREQS as u32) as u8;
    InquiryFreq((clkn_16_12 + rot) % NUM_INQUIRY_FREQS)
}

/// An RF channel of the 79-hop system (0–78).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Channel(u8);

impl Channel {
    /// Creates a channel.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 79`.
    pub fn new(idx: u8) -> Self {
        assert!(idx < NUM_CHANNELS, "channel {idx} out of range");
        Channel(idx)
    }

    /// The channel index (0–78); channel *k* sits at 2402 + *k* MHz.
    pub fn index(self) -> u8 {
        self.0
    }

    /// Carrier frequency in MHz.
    pub fn mhz(self) -> u32 {
        2402 + self.0 as u32
    }
}

/// The even-first channel list: 0, 2, …, 78, 1, 3, …, 77 (spec Part B
/// §2.6.1). The hop kernel's mod-79 output indexes this list, which
/// guarantees consecutive hops alternate between the lower and upper half
/// of the band.
fn channel_list(i: u8) -> Channel {
    debug_assert!(i < NUM_CHANNELS);
    if i < 40 {
        Channel(2 * i)
    } else {
        Channel(2 * (i - 40) + 1)
    }
}

/// One butterfly stage: conditionally swap two bit positions of a 5-bit
/// value.
fn butterfly(z: u8, ctl: bool, i: u8, j: u8) -> u8 {
    if !ctl {
        return z;
    }
    let bi = (z >> i) & 1;
    let bj = (z >> j) & 1;
    if bi == bj {
        z
    } else {
        z ^ (1 << i) ^ (1 << j)
    }
}

/// The 14-control-bit permutation network over 5 bits (PERM5). Seven
/// stages of two butterflies each; every control word yields a bijection
/// of 0..32 (butterfly networks are involutive per stage).
fn perm5(z: u8, control: u16) -> u8 {
    // (bit-pair swapped per stage) — structure per spec Figure 2.6.3.3.
    const STAGES: [[(u8, u8); 2]; 7] = [
        [(0, 3), (1, 2)],
        [(2, 4), (1, 3)],
        [(1, 4), (0, 3)],
        [(3, 4), (0, 2)],
        [(0, 4), (1, 3)],
        [(0, 1), (2, 3)],
        [(1, 2), (3, 4)],
    ];
    let mut z = z & 0x1F;
    for (s, pairs) in STAGES.iter().enumerate() {
        let c0 = (control >> (2 * s)) & 1 == 1;
        let c1 = (control >> (2 * s + 1)) & 1 == 1;
        z = butterfly(z, c0, pairs[0].0, pairs[0].1);
        z = butterfly(z, c1, pairs[1].0, pairs[1].1);
    }
    z
}

/// The basic (connection-state) hop: channel as a function of the master's
/// 28-bit hop input (`UAP[3:0]‖LAP`) and the 28-bit master clock `CLK`.
///
/// Mirrors the spec kernel's stages: an adder over `CLK[6:2]`, an XOR with
/// address bits, the `perm5` butterfly network controlled by address and
/// clock bits, and a final adder folded mod 79 into the even-first channel
/// list.
pub fn basic_hop(addr: BdAddr, clk: u64) -> Channel {
    let a28 = addr.hop_input();
    let clk = (clk & 0x0FFF_FFFF) as u32;

    // Input stage (X, Y1, Y2 in spec terms).
    let x = ((clk >> 2) & 0x1F) as u8;
    let y1 = ((clk >> 1) & 1) as u8;
    let y2 = 32 * y1 as u32;

    // Address-derived words (A–F in spec terms).
    let a = (((a28 >> 23) & 0x1F) as u8) ^ (((clk >> 21) & 0x1F) as u8);
    let b = ((a28 >> 19) & 0x0F) as u8;
    let c = ((((a28 >> 4) & 0x10)
        | ((a28 >> 3) & 0x08)
        | ((a28 >> 2) & 0x04)
        | ((a28 >> 1) & 0x02)
        | (a28 & 0x01)) as u8)
        ^ (((clk >> 16) & 0x1F) as u8);
    let d = (((a28 >> 10) & 0x1FF) ^ ((clk >> 7) & 0x1FF)) as u16;
    let e = ((a28 >> 13) & 0x40)
        | ((a28 >> 11) & 0x20)
        | ((a28 >> 9) & 0x10)
        | ((a28 >> 7) & 0x08)
        | ((a28 >> 5) & 0x04)
        | ((a28 >> 3) & 0x02)
        | ((a28 >> 1) & 0x01);
    let f = (16u64 * ((clk >> 7) as u64) % 79) as u32;

    // First adder, XOR stage, permutation, final adder.
    let z1 = (x.wrapping_add(a)) & 0x1F;
    let z2 = z1 ^ (b & 0x0F) ^ ((y1) << 4);
    let control = ((c as u16) << 9 | d) & 0x3FFF;
    let z3 = perm5(z2, control);
    let idx = ((z3 as u32 + e + f + y2) % NUM_CHANNELS as u32) as u8;
    channel_list(idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trains_partition_the_inquiry_set() {
        let mut a = 0;
        let mut b = 0;
        for i in 0..NUM_INQUIRY_FREQS {
            match InquiryFreq::new(i).train() {
                Train::A => a += 1,
                Train::B => b += 1,
            }
        }
        assert_eq!((a, b), (16, 16));
    }

    #[test]
    fn train_freq_enumeration_matches_membership() {
        for k in 0..TRAIN_LEN {
            assert!(Train::A.contains(Train::A.freq(k)));
            assert!(Train::B.contains(Train::B.freq(k)));
            assert!(!Train::B.contains(Train::A.freq(k)));
        }
    }

    #[test]
    fn other_train_is_involutive() {
        assert_eq!(Train::A.other(), Train::B);
        assert_eq!(Train::A.other().other(), Train::A);
    }

    #[test]
    fn scan_walk_covers_all_32() {
        let mut f = InquiryFreq::new(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..32 {
            seen.insert(f.index());
            f = f.next();
        }
        assert_eq!(seen.len(), 32);
        assert_eq!(f.index(), 0, "walk has period 32");
    }

    #[test]
    fn scan_frequency_varies_with_phase_and_address() {
        let a = BdAddr::new(0x1111);
        let b = BdAddr::new(0x2222);
        assert_ne!(scan_frequency(a, 0), scan_frequency(b, 0));
        assert_eq!(scan_frequency(a, 0).next(), scan_frequency(a, 1));
    }

    #[test]
    fn perm5_is_bijective_for_any_control() {
        for control in [0u16, 1, 0x2AAA, 0x3FFF, 0x1357, 0x2468] {
            let mut seen = [false; 32];
            for z in 0..32u8 {
                let out = perm5(z, control);
                assert!(out < 32);
                assert!(!seen[out as usize], "control {control:#x} collides");
                seen[out as usize] = true;
            }
        }
    }

    #[test]
    fn channel_list_is_even_first_permutation() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..NUM_CHANNELS {
            seen.insert(channel_list(i).index());
        }
        assert_eq!(seen.len(), 79);
        assert_eq!(channel_list(0).index(), 0);
        assert_eq!(channel_list(39).index(), 78);
        assert_eq!(channel_list(40).index(), 1);
        assert_eq!(channel_list(78).index(), 77);
    }

    #[test]
    fn basic_hop_stays_in_band_and_spreads() {
        let addr = BdAddr::new(0x00A0_1234_5678 & ((1 << 48) - 1));
        let mut counts = [0u32; 79];
        let n = 79 * 64;
        for clk in 0..n {
            let ch = basic_hop(addr, clk as u64 * 4); // even slots
            counts[ch.index() as usize] += 1;
        }
        let used = counts.iter().filter(|&&c| c > 0).count();
        assert!(used >= 70, "poor channel coverage: {used}/79");
        let max = *counts.iter().max().unwrap();
        assert!(max < (n / 79 * 6) as u32, "badly skewed: max={max}");
    }

    #[test]
    fn basic_hop_differs_between_masters() {
        let a = BdAddr::new(0x0000_0000_0001);
        let b = BdAddr::new(0x0000_0000_0002);
        let differs = (0..200u64).any(|clk| basic_hop(a, clk * 4) != basic_hop(b, clk * 4));
        assert!(differs);
    }

    #[test]
    fn channel_mhz() {
        assert_eq!(Channel::new(0).mhz(), 2402);
        assert_eq!(Channel::new(78).mhz(), 2480);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn channel_bounds_checked() {
        let _ = Channel::new(79);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inquiry_freq_bounds_checked() {
        let _ = InquiryFreq::new(32);
    }
}
