//! Release-only scaling gate for the in-SSD emit path.
//!
//! A Morpheus-mode run must cost host time linear in its input: the
//! StorageApp parses each flash page and emits only that page's new
//! records. The gate times PageRank at 2 MB and 16 MB (best of three
//! runs each) and bounds the ratio of their per-byte costs. Both sizes
//! run in one process, so the speed of the machine cancels out.
//!
//! The deserialization memo replays device work and would hide the cost
//! being measured, so the gate refuses to run with it on:
//!
//! ```text
//! MORPHEUS_DESER_MEMO=0 cargo test --release --test storage_app_scaling -- --ignored
//! ```

use std::time::Instant;

use morpheus::{Mode, System, SystemParams};
use morpheus_workloads::suite;

/// Upper bound on `ns_per_byte(16 MB) / ns_per_byte(2 MB)`. A linear
/// emit path reads about 0.9; the quadratic one it replaced read about 6.
const MAX_SCALING: f64 = 2.0;

const RUNS: usize = 3;

/// Best-of-`RUNS` host nanoseconds per input byte of a Morpheus-mode
/// PageRank run over `bytes` of input.
fn ns_per_byte(bytes: u64) -> f64 {
    let pagerank = suite()
        .into_iter()
        .find(|b| b.name == "pagerank")
        .expect("pagerank is in the suite");
    let data = pagerank.generate(bytes, 1);
    let mut sys = System::new(SystemParams::paper_testbed());
    sys.create_input_file(&pagerank.input_name(), &data)
        .expect("input stages");
    let spec = pagerank.spec();
    let best = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            sys.run(&spec, Mode::Morpheus).expect("morpheus run");
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    best * 1e9 / data.len() as f64
}

#[test]
#[ignore = "release-only timing gate; run with MORPHEUS_DESER_MEMO=0 and --ignored"]
fn morpheus_host_cost_is_linear_in_input_size() {
    assert!(
        matches!(std::env::var("MORPHEUS_DESER_MEMO").as_deref(), Ok("0")),
        "set MORPHEUS_DESER_MEMO=0: the memo replays device work and hides its cost"
    );
    let small = ns_per_byte(2_000_000);
    let large = ns_per_byte(16_000_000);
    let scaling = large / small;
    eprintln!("ns/B: 2 MB {small:.1}, 16 MB {large:.1}, scaling {scaling:.2}");
    assert!(
        scaling <= MAX_SCALING,
        "Morpheus-mode host cost scales super-linearly: {scaling:.2} > {MAX_SCALING} \
         (2 MB {small:.1} ns/B, 16 MB {large:.1} ns/B)"
    );
}
