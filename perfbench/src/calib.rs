//! Fixed units of host work that call nothing in the library, timed
//! between the measured operations to track how fast the host runs.
//!
//! Two units, because a noisy neighbour does not slow all code alike:
//!
//! * the **parse unit** resembles the host-side parse path: a
//!   byte-at-a-time integer scan over ASCII text, an ordered-map build and
//!   walk (allocation and pointer chasing), and a sort. It slows with the
//!   conventional path's parse and allocation work.
//! * the **chase unit** follows a random cycle through 16 MiB, one
//!   dependent load after another, so it waits on memory. The Morpheus
//!   paths' host work (the timing model's bookkeeping and the emit
//!   path's copies) slows with the two units together.
//!
//! Their times move with the host's speed and never with a change to the
//! library.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use morpheus_simcore::SplitMix64;

/// Integers in the scanned text.
const TOKENS: usize = 150_000;
/// Keys in the ordered map.
const KEYS: usize = 50_000;
/// Slots in the chased cycle (4 bytes each: 16 MiB).
const SLOTS: usize = 4 << 20;
/// Dependent loads per chase.
const HOPS: usize = 60_000;

/// The units' inputs, built once per process.
pub struct Unit {
    text: Vec<u8>,
    cycle: Vec<u32>,
}

impl Unit {
    pub fn new() -> Self {
        let mut rng = SplitMix64::new(0x00C0_FFEE);
        let mut text = Vec::with_capacity(TOKENS * 8);
        for _ in 0..TOKENS {
            text.extend_from_slice(rng.next_below(10_000_000).to_string().as_bytes());
            text.push(b'\n');
        }
        // Sattolo's algorithm: a random permutation that is one cycle
        // through every slot.
        let mut cycle: Vec<u32> = (0..SLOTS as u32).collect();
        for i in (1..SLOTS).rev() {
            let j = rng.next_below(i as u64) as usize;
            cycle.swap(i, j);
        }
        let unit = Unit { text, cycle };
        // The first run pays for growing the heap; keep it out of the
        // samples.
        black_box(unit.parse());
        unit
    }

    /// Runs the parse unit once; returns its host seconds.
    pub fn time_parse(&self) -> f64 {
        let t = Instant::now();
        black_box(self.parse());
        t.elapsed().as_secs_f64()
    }

    /// Runs the chase unit once; returns its host seconds.
    pub fn time_chase(&self) -> f64 {
        let t = Instant::now();
        let mut at = 0u32;
        for _ in 0..HOPS {
            at = self.cycle[black_box(at) as usize];
        }
        black_box(at);
        t.elapsed().as_secs_f64()
    }

    fn parse(&self) -> u64 {
        let mut vals = Vec::with_capacity(TOKENS);
        let mut v = 0u64;
        for &b in black_box(&self.text) {
            if b.is_ascii_digit() {
                v = v * 10 + u64::from(b - b'0');
            } else {
                vals.push(v);
                v = 0;
            }
        }
        let mut map = BTreeMap::new();
        for (i, &x) in vals.iter().take(KEYS).enumerate() {
            *map.entry(x % 65_536).or_insert(0u64) += i as u64;
        }
        let walk: u64 = map.values().fold(0, |a, &b| a.wrapping_mul(31) ^ b);
        vals.sort_unstable();
        walk ^ vals[vals.len() / 2]
    }
}
