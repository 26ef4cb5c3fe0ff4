//! One repetition of a benchmark workload, run in a fresh process.
//!
//! `perfbench <workload> --seed N [--trace] [--probe]` generates and stages
//! the workload's inputs from the seed (set-up), runs its measured pass
//! against the library's public API, checks the outputs, and prints one
//! JSON object on stdout: host timings, simulated counters, the number of
//! attempted and failed operations, and a digest over every simulated
//! report the pass rendered. `perfbench probe --seed N` runs the
//! workload-independent layer probes instead (StorageApp scaling and the
//! Fig. 8 model check). `run.py` drives the repetitions and aggregates.
//!
//! Every repetition is its own process on purpose: the deserialization
//! memo and the generated-input memo are process-wide, and the memo
//! setting is read once per process, so a second in-process repetition
//! would replay work instead of measuring it.

mod calib;
mod fleet;
mod layers;
mod serve;
mod suite;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use morpheus::Mode;
use morpheus_simcore::{Histogram, TraceLayer, TraceLog};

/// The measurements and verdicts of one repetition.
#[derive(Default)]
pub struct Out {
    metrics: BTreeMap<String, f64>,
    digest: Fnv,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    unit: Option<calib::Unit>,
    calib_parse: Vec<f64>,
    calib_chase: Vec<f64>,
    calib_spent: f64,
}

/// A measured pass in progress (see [`Out::start_pass`]).
pub struct Pass {
    started: Instant,
    calib_spent: f64,
}

impl Out {
    /// Times each calibration unit (see [`calib`]) once and keeps the
    /// samples.
    pub fn calibrate(&mut self) {
        let t = Instant::now();
        let unit = self.unit.as_ref().expect("calibration unit built in main");
        self.calib_parse.push(unit.time_parse());
        self.calib_chase.push(unit.time_chase());
        self.calib_spent += t.elapsed().as_secs_f64();
    }

    /// Calibrates once, then starts timing the measured pass.
    pub fn start_pass(&mut self) -> Pass {
        self.calibrate();
        Pass {
            started: Instant::now(),
            calib_spent: self.calib_spent,
        }
    }

    /// Sets `wall_s`: the pass's host time less the calibrations run
    /// inside it.
    pub fn end_pass(&mut self, pass: Pass) {
        let calib = self.calib_spent - pass.calib_spent;
        self.set("wall_s", pass.started.elapsed().as_secs_f64() - calib);
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), v);
    }

    /// Adds to a metric (absent counts as zero).
    pub fn add(&mut self, name: &str, v: f64) {
        *self.metrics.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Reads a metric (absent counts as zero).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Folds a rendered simulated report into the determinism digest.
    pub fn render(&mut self, text: &str) {
        self.digest.write(text.as_bytes());
    }

    /// Counts one operation; a returned error or a failed check makes it
    /// a failure.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.errors
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }

    fn to_json(&self) -> String {
        let mut s = String::new();
        let memo = std::env::var("MORPHEUS_DESER_MEMO").unwrap_or_default();
        write!(
            s,
            "{{\"memo_env\": \"{}\", \"sim_digest\": \"{:016x}\", \"attempted\": {}, \
             \"failed\": {}, \"errors\": [",
            json_escape(&memo),
            self.digest.0,
            self.attempted,
            self.failed
        )
        .expect("write to String");
        for (i, e) in self.errors.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(s, "{sep}\"{}\"", json_escape(e)).expect("write to String");
        }
        s.push_str("], \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if v.is_finite() { *v } else { 0.0 };
            write!(s, "{sep}\"{k}\": {v:e}").expect("write to String");
        }
        s.push_str("}}");
        s
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// FNV-1a, 64-bit: a stable digest of rendered report text.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Runs `f`, adding its host time in seconds to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    *acc += t.elapsed().as_secs_f64();
    v
}

/// Metric-name stem of a mode.
pub fn mode_key(mode: Mode) -> &'static str {
    match mode {
        Mode::Conventional => "conv",
        Mode::Morpheus => "morpheus",
        Mode::MorpheusP2P => "p2p",
    }
}

/// Records one timed operation of `mode`: its host seconds under its own
/// name `op` (so `run.py` can take each operation's median across
/// repetitions before summing, which keeps a burst of host noise in one
/// operation from moving the rate), plus the input bytes it simulated and
/// the requests it stands for.
pub fn mode_op(out: &mut Out, mode: Mode, op: &str, host: f64, bytes: f64, reqs: f64) {
    let key = mode_key(mode);
    out.set(&format!("op_s.{key}.{op}"), host);
    out.add(&format!("host.{key}_s"), host);
    out.add(&format!("bytes.{key}"), bytes);
    out.add(&format!("reqs.{key}"), reqs);
}

/// Times one staging write into the host-time metric `metric` and counts
/// it as an operation.
pub fn write_op<E: std::fmt::Display>(
    out: &mut Out,
    metric: &str,
    what: &str,
    f: impl FnOnce() -> Result<(), E>,
) {
    let mut secs = 0.0;
    let res = timed(&mut secs, f);
    out.add(metric, secs);
    out.op(what, res.err().map(|e| e.to_string()).into_iter().collect());
}

/// Simulated per-layer tallies folded from trace logs.
#[derive(Default)]
pub struct SimTally {
    events: [u64; 6],
    busy_ns: [u64; 6],
    nvme_cmd_ns: Histogram,
    flash_read_ns: Histogram,
}

impl SimTally {
    /// Folds one drained trace log.
    pub fn fold(&mut self, log: &TraceLog) {
        for e in &log.events {
            let i = TraceLayer::ALL
                .iter()
                .position(|l| *l == e.layer)
                .expect("known layer");
            self.events[i] += 1;
            self.busy_ns[i] += e.dur_ns;
            match e.layer {
                TraceLayer::Nvme if e.dur_ns > 0 => self.nvme_cmd_ns.record(e.dur_ns),
                TraceLayer::Flash if e.name == "read-cell" => self.flash_read_ns.record(e.dur_ns),
                _ => {}
            }
        }
    }

    fn report(&self, out: &mut Out) {
        for (i, layer) in TraceLayer::ALL.iter().enumerate() {
            let l = layer.as_str();
            out.set(&format!("sim.{l}.events"), self.events[i] as f64);
            out.set(&format!("sim.{l}.busy_ms"), self.busy_ns[i] as f64 / 1e6);
        }
        out.set("sim.events", self.events.iter().sum::<u64>() as f64);
        out.set("sim.nvme.cmd_lat_p99_ns", self.nvme_cmd_ns.p99() as f64);
        out.set("sim.flash.read_lat_p99_ns", self.flash_read_ns.p99() as f64);
    }
}

/// What one repetition was asked to do.
pub struct Ctx {
    /// Generator seed for every input.
    pub seed: u64,
    /// Record traces and report simulated per-layer tallies.
    pub trace: bool,
    /// Run the layer probes after the measured pass.
    pub probe: bool,
    /// Trace tallies (filled only when `trace` is set).
    pub tally: SimTally,
}

/// A size field of `/proc/self/status` (`VmHWM:`, `VmRSS:`), MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

const USAGE: &str = "usage: perfbench <suite_batch|serve_ladder|fleet_zipf_rw|probe> \
                     --seed N [--trace] [--probe]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(workload) = args.first().cloned() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let mut ctx = Ctx {
        seed: 0,
        trace: false,
        probe: false,
        tally: SimTally::default(),
    };
    let mut seed = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().and_then(|v| v.parse::<u64>().ok()),
            "--trace" => ctx.trace = true,
            "--probe" => ctx.probe = true,
            other => {
                eprintln!("error: unknown argument {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let Some(seed) = seed else {
        eprintln!("error: --seed N is required\n{USAGE}");
        std::process::exit(2);
    };
    ctx.seed = seed;
    // The calibration unit is built first and stays resident, so its
    // pages are in every later peak; `peak_rss_mb` leaves them out.
    let rss = status_mb("VmRSS:");
    let mut out = Out {
        unit: Some(calib::Unit::new()),
        ..Out::default()
    };
    let unit_mb = status_mb("VmRSS:") - rss;
    match workload.as_str() {
        "suite_batch" => suite::run(&mut ctx, &mut out),
        "serve_ladder" => serve::run(&mut ctx, &mut out),
        "fleet_zipf_rw" => fleet::run(&mut ctx, &mut out),
        "probe" => suite::probe(&ctx, &mut out),
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
    if ctx.trace {
        ctx.tally.report(&mut out);
    }
    for (name, mut samples) in [
        ("calib.parse_s", out.calib_parse.clone()),
        ("calib.chase_s", out.calib_chase.clone()),
    ] {
        samples.sort_by(f64::total_cmp);
        if let Some(&median) = samples.get(samples.len() / 2) {
            out.set(name, median);
        }
    }
    out.set("peak_rss_mb", status_mb("VmHWM:") - unit_mb);
    println!("{}", out.to_json());
}
