//! Shared harness for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index). Inputs are the paper's nominal sizes
//! divided by a `--scale` factor (default 256) and clamped to a tractable
//! range; all reported quantities are ratios or rates, which a scale sweep
//! (`ablate --sweep scale`) shows to be size-stable.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

use morpheus::{Mode, RunReport, StorageKind, System, SystemParams};
use morpheus_simcore::FaultPlan;
use morpheus_workloads::{run_benchmark, stage_input, BenchOutcome, Benchmark};

mod serve_args;
pub use serve_args::{
    accept_fleet_flag, finish_fleet, flag_value, fleet_mode, schedule_banner, stage_tenants,
    ServeArgs,
};

/// Command-line configuration shared by all figure binaries.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// Divisor applied to the paper's nominal input sizes.
    pub scale: u64,
    /// Generator seed.
    pub seed: u64,
    /// Worker threads for suite fan-out (`--jobs`, `MORPHEUS_JOBS`).
    pub jobs: usize,
    /// Fault-injection plan (`--faults SPEC`), armed on every system the
    /// harness builds. `None` leaves every run fault-free.
    pub faults: Option<FaultPlan>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            scale: 256,
            seed: 42,
            jobs: default_jobs(),
            faults: None,
        }
    }
}

/// Default worker count: `MORPHEUS_JOBS` if set, else 1 (sequential).
fn default_jobs() -> usize {
    std::env::var("MORPHEUS_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|j| *j >= 1)
        .unwrap_or(1)
}

/// Parse error for the harness flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Harness {
    /// Parses `--scale N`, `--seed N` and `--jobs N` from the process
    /// arguments. Unknown flags and malformed values are fatal (exit 2):
    /// a typo like `--sacle` silently running the default configuration
    /// would poison recorded results.
    pub fn from_args() -> Self {
        Self::from_args_with(&[])
    }

    /// Like [`Harness::from_args`] but tolerating `extra` flags that the
    /// binary parses itself (each consumes one value argument).
    pub fn from_args_with(extra: &[&str]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse(&args, extra) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                    "usage: [--scale N] [--seed N] [--jobs N] [--faults SPEC]{}",
                    {
                        let mut s = String::new();
                        for f in extra {
                            s.push_str(&format!(" [{f} V]"));
                        }
                        s
                    }
                );
                std::process::exit(2);
            }
        }
    }

    /// The argument grammar, separated from process state for testing.
    pub fn parse(args: &[String], extra: &[&str]) -> Result<Self, ArgError> {
        let mut h = Harness::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if h.accept(arg, &mut it)? {
                continue;
            }
            if !extra.contains(&arg.as_str()) {
                return Err(ArgError(format!("unknown flag {arg:?}")));
            }
            value_of(arg, &mut it)?;
        }
        Ok(h)
    }

    /// Parses one harness flag (`--scale`, `--seed`, `--jobs`,
    /// `--faults`) and its value; `Ok(false)` when `flag` is not one.
    /// Binaries with a grammar of their own route the harness flags they
    /// take through here.
    ///
    /// # Errors
    ///
    /// A missing or malformed value.
    pub fn accept(
        &mut self,
        flag: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, ArgError> {
        match flag {
            "--scale" => {
                let v = value_of("--scale", it)?;
                self.scale = v.parse().map_err(|_| {
                    ArgError(format!("--scale expects a positive integer, got {v:?}"))
                })?;
                if self.scale == 0 {
                    return Err(ArgError("--scale must be >= 1".into()));
                }
            }
            "--seed" => {
                let v = value_of("--seed", it)?;
                self.seed = v.parse().map_err(|_| {
                    ArgError(format!("--seed expects an unsigned integer, got {v:?}"))
                })?;
            }
            "--jobs" => {
                let v = value_of("--jobs", it)?;
                self.jobs = v.parse().map_err(|_| {
                    ArgError(format!("--jobs expects a positive integer, got {v:?}"))
                })?;
                if self.jobs == 0 {
                    return Err(ArgError("--jobs must be >= 1".into()));
                }
            }
            "--faults" => {
                let v = value_of("--faults", it)?;
                let plan = FaultPlan::parse(v).map_err(|e| ArgError(format!("--faults: {e}")))?;
                self.faults = Some(plan);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Runs `f` once per benchmark on `self.jobs` worker threads and
    /// returns the results in suite order, exactly as a sequential
    /// `benches.iter().map(f)` would. Each invocation builds its own
    /// fresh [`System`], so runs are independent and the fan-out cannot
    /// perturb any simulated quantity — only wall-clock time.
    pub fn run_suite_parallel<T, F>(&self, benches: &[Benchmark], f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Benchmark) -> T + Sync,
    {
        run_parallel(self.jobs, benches, f)
    }

    /// Bytes staged for a benchmark at this scale.
    pub fn input_bytes(&self, bench: &Benchmark) -> u64 {
        (bench.nominal_bytes / self.scale.max(1)).clamp(2_000_000, 48_000_000)
    }

    /// A fresh paper-testbed system with this benchmark's input staged.
    pub fn app_system(&self, bench: &Benchmark) -> System {
        self.app_system_with(bench, StorageKind::NvmeSsd, None)
    }

    /// A fresh system with the given conventional-path storage device and
    /// optional host frequency override.
    pub fn app_system_with(
        &self,
        bench: &Benchmark,
        storage: StorageKind,
        freq_hz: Option<f64>,
    ) -> System {
        let mut params = SystemParams::paper_testbed();
        params.storage = storage;
        let mut sys = System::new(params);
        if let Some(f) = freq_hz {
            sys.cpu.set_frequency(f);
        }
        stage_input(&mut sys, bench, self.input_bytes(bench), self.seed)
            .expect("staging benchmark input");
        // Arm faults only after staging: input files are always written
        // intact, faults perturb the measured runs alone.
        if let Some(plan) = self.faults {
            sys.set_fault_plan(plan);
        }
        sys
    }
}

fn value_of<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a String, ArgError> {
    flag_value(flag, it).map_err(ArgError)
}

/// Maps `f` over `items` on up to `jobs` threads, preserving input
/// order in the output. Work is claimed dynamically (an atomic cursor),
/// so a slow item never strands the remaining ones behind it; results
/// are tagged with their index and merged after the join, keeping the
/// output — and therefore everything printed from it — byte-identical
/// to the sequential run. A panic in any worker propagates.
pub fn run_parallel<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        for w in workers {
            match w.join() {
                Ok(local) => tagged.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, t)| t).collect()
}

/// Runs one benchmark under one mode on its own fresh system.
pub fn run_mode(h: &Harness, bench: &Benchmark, mode: Mode) -> BenchOutcome {
    let mut sys = h.app_system(bench);
    run_benchmark(&mut sys, bench, mode).expect("benchmark run")
}

/// Runs conventional and Morpheus over the *same* staged input.
pub fn run_pair(h: &Harness, bench: &Benchmark) -> (BenchOutcome, BenchOutcome) {
    let mut sys = h.app_system(bench);
    let conv = run_benchmark(&mut sys, bench, Mode::Conventional).expect("conventional run");
    let morp = run_benchmark(&mut sys, bench, Mode::Morpheus).expect("morpheus run");
    assert_eq!(
        conv.kernel, morp.kernel,
        "{}: modes must compute identical results",
        bench.name
    );
    (conv, morp)
}

/// Geometric mean.
///
/// # Panics
///
/// Panics on an empty slice or non-positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let s: f64 = xs
        .iter()
        .map(|x| {
            assert!(*x > 0.0, "geomean needs positive values");
            x.ln()
        })
        .sum();
    (s / xs.len() as f64).exp()
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Prints an aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a report's deserialization seconds.
pub fn deser_s(r: &RunReport) -> f64 {
    r.phases.deserialization_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn input_bytes_clamped() {
        let h = Harness {
            scale: 1_000_000,
            ..Harness::default()
        };
        let bench = &morpheus_workloads::suite()[0];
        assert_eq!(h.input_bytes(bench), 2_000_000);
    }

    #[test]
    fn parse_accepts_known_flags() {
        let h = Harness::parse(&argv(&["--scale", "64", "--seed", "7", "--jobs", "3"]), &[])
            .expect("valid flags");
        assert_eq!((h.scale, h.seed, h.jobs), (64, 7, 3));
    }

    #[test]
    fn parse_rejects_unknown_flag() {
        let err = Harness::parse(&argv(&["--sacle", "64"]), &[]).unwrap_err();
        assert!(err.0.contains("unknown flag"), "{err}");
    }

    #[test]
    fn parse_rejects_malformed_values() {
        for bad in [
            vec!["--scale", "abc"],
            vec!["--scale", "0"],
            vec!["--seed", "-3"],
            vec!["--jobs", "0"],
            vec!["--jobs"],
        ] {
            assert!(
                Harness::parse(&argv(&bad), &[]).is_err(),
                "should reject {bad:?}"
            );
        }
    }

    #[test]
    fn parse_tolerates_registered_extras() {
        let h = Harness::parse(&argv(&["--sweep", "cores", "--scale", "128"]), &["--sweep"])
            .expect("registered extra flag");
        assert_eq!(h.scale, 128);
        assert!(Harness::parse(&argv(&["--sweep", "cores"]), &[]).is_err());
    }

    #[test]
    fn run_parallel_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 4, 7, 100, 1000] {
            let par = run_parallel(jobs, &items, |x| x * x);
            assert_eq!(par, seq, "jobs={jobs}");
        }
    }

    #[test]
    fn run_parallel_handles_empty_input() {
        let out: Vec<u64> = run_parallel(4, &[], |x: &u64| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_suite_reports_match_sequential_field_for_field() {
        // The determinism contract of the tentpole: fanning the suite out
        // over threads must not change a single reported quantity.
        let h = Harness {
            scale: 8192,
            seed: 42,
            jobs: 1,
            faults: None,
        };
        let benches: Vec<Benchmark> = morpheus_workloads::suite().into_iter().take(4).collect();
        let seq = h.run_suite_parallel(&benches, |b| run_mode(&h, b, Mode::Conventional));
        let hp = Harness { jobs: 4, ..h };
        let par = hp.run_suite_parallel(&benches, |b| run_mode(&hp, b, Mode::Conventional));
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            // RunReport has no PartialEq; its Debug form prints every
            // field, so equal strings mean field-for-field equality.
            assert_eq!(format!("{:?}", s.report), format!("{:?}", p.report));
            assert_eq!(s.kernel, p.kernel);
        }
    }
}
