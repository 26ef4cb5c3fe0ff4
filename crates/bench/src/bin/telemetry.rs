//! Windowed serving telemetry + SLO / error-budget evaluation.
//!
//! Runs one open-loop serving cell with the sim-time sampler armed and
//! renders the windowed time-series three ways:
//!
//! * `--format text` (default) — ASCII sparklines of the key series
//!   (RPS, p99, queue depth, cache hit rate), one SLO verdict line per
//!   objective with its burn-rate alert timeline, and the totals row;
//! * `--format csv` — one row per window, canonical number formatting;
//! * `--format prom` — Prometheus text exposition (counters, gauges,
//!   log2 histograms with cumulative buckets, SLO burn/budget series).
//!
//! Deterministic by construction: the cell builds its own seeded system
//! and the sampler folds events into windows keyed by integer sim-time
//! division, so every byte of output is identical across repeats.
//! `docs/TELEMETRY.md` documents the sampling model and SLO semantics.

use morpheus::{Mode, ServeReport, SloSpec, TelemetryConfig, TelemetryReport};
use morpheus_bench::{flag_value, fleet_mode, ServeArgs};
use morpheus_simcore::{parse_duration, render_error_chain, SimDuration};

const USAGE: &str =
    "usage: telemetry [--rps R] [--duration S] [--mode conventional|morpheus|morpheus+p2p]
                 [--apps N] [--bytes N] [--depth N] [--batch N] [--sq-depth N]
                 [--policy shed|fallback] [--skew F]
                 [--cache-mb N] [--cache-host-mb N] [--cache-policy tinylfu|lru]
                 [--window DUR] [--slo SPEC] [--format text|csv|prom] [--out <path>]
                 [--devices N] [--placement rr|hash|capacity] [--kill-device DEV@SECS]
                 [--rolling-update SECS] [--heal]
                 [--seed N] [--faults SPEC]";

/// Output rendering selected by `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Csv,
    Prom,
}

/// One parsed invocation (a single serving cell): the shared serving
/// grammar plus this binary's own cell, window and output flags.
#[derive(Debug)]
struct Cli {
    rps: f64,
    mode: Mode,
    window: SimDuration,
    slo: SloSpec,
    format: Format,
    out: Option<String>,
    serve: ServeArgs,
}

/// The flag grammar, separated from process state so tests can drive it.
fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        rps: 4000.0,
        mode: Mode::Morpheus,
        window: SimDuration::from_millis(10),
        slo: SloSpec::none(),
        format: Format::Text,
        out: None,
        serve: ServeArgs::default(),
    };
    cli.serve = ServeArgs::parse(args, |_, flag, it| {
        match flag {
            "--rps" => {
                let v = flag_value(flag, it)?;
                let r: f64 = v
                    .parse()
                    .map_err(|_| format!("--rps expects a number, got {v:?}"))?;
                if !r.is_finite() || r <= 0.0 {
                    return Err("--rps must be positive".into());
                }
                cli.rps = r;
            }
            "--mode" => {
                let v = flag_value(flag, it)?;
                cli.mode = match v.as_str() {
                    "conventional" => Mode::Conventional,
                    "morpheus" => Mode::Morpheus,
                    "morpheus+p2p" => Mode::MorpheusP2P,
                    other => {
                        return Err(format!(
                            "--mode expects conventional|morpheus|morpheus+p2p, got {other:?}"
                        ))
                    }
                };
            }
            "--window" => {
                let v = flag_value(flag, it)?;
                cli.window = parse_duration(v).map_err(|e| format!("--window: {e}"))?;
            }
            "--slo" => {
                let v = flag_value(flag, it)?;
                cli.slo = SloSpec::parse(v).map_err(|e| format!("--slo: {e}"))?;
            }
            "--format" => {
                let v = flag_value(flag, it)?;
                cli.format = match v.as_str() {
                    "text" => Format::Text,
                    "csv" => Format::Csv,
                    "prom" => Format::Prom,
                    other => return Err(format!("--format expects text|csv|prom, got {other:?}")),
                };
            }
            "--out" => cli.out = Some(flag_value(flag, it)?.clone()),
            other => return Err(format!("unknown flag {other:?}")),
        }
        Ok(())
    })?;
    if cli.format == Format::Prom && cli.serve.fleet.devices > 1 {
        return Err(
            "--format prom requires --devices 1: a Prometheus exposition declares \
             each metric once (use --format csv for per-device windows)"
                .into(),
        );
    }
    Ok(cli)
}

/// One report's request counts and latency quantiles.
fn summary(r: &ServeReport) -> String {
    format!(
        "offered {} completed {} shed {} failed {} | p50 {:.1}us p99 {:.1}us\n",
        r.offered,
        r.completed,
        r.shed,
        r.failed,
        r.e2e_ns.p50() as f64 / 1e3,
        r.e2e_ns.p99() as f64 / 1e3,
    )
}

/// A device's sampled windows (every cell here arms the sampler).
fn windows(r: &ServeReport) -> &TelemetryReport {
    r.telemetry.as_ref().expect("sampler installed")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    let sa = &cli.serve;

    let mut tcfg = TelemetryConfig::new(cli.window);
    tcfg.slo = cli.slo.clone();
    let (mut fleet, specs) = sa.staged_fleet();
    let rep = fleet
        .serve(&specs, &sa.serve_config(cli.mode, cli.rps, Some(tcfg)))
        .unwrap_or_else(|e| {
            eprintln!("error: serve failed: {}", render_error_chain(&e));
            std::process::exit(1);
        });
    // Telemetry is sampled per device. Fleet runs render one labelled
    // block per device; a plain solo SSD renders its one device bare.
    let fleet_mode = fleet_mode(&sa.fleet);
    let mode = cli.mode.to_string();
    let rps = format!("{:.0}", cli.rps);
    let rendered = match cli.format {
        Format::Text => {
            let mut s = format!(
                "telemetry: {} @ {:.0} rps, duration {}s, window {}, policy {}, seed {}",
                cli.mode, cli.rps, sa.base.duration_s, cli.window, sa.base.policy, sa.base.seed
            );
            if fleet_mode {
                s.push_str(&format!(
                    ", devices {} placement {}\n",
                    sa.fleet.devices, sa.fleet.placement
                ));
                let a = &rep.aggregate;
                s.push_str(&format!(
                    "fleet: rebalanced {} | offered {} completed {} shed {} failed {}\n",
                    rep.rebalanced, a.offered, a.completed, a.shed, a.failed,
                ));
                if let Some(c) = &rep.control {
                    s.push_str(&format!("{c}"));
                }
                for (i, d) in rep.per_device.iter().enumerate() {
                    s.push_str(&format!("device {i}: {}{}", summary(d), windows(d)));
                    if !s.ends_with('\n') {
                        s.push('\n');
                    }
                }
            } else {
                s.push_str(&format!(
                    "\n{}{}",
                    summary(&rep.aggregate),
                    windows(&rep.aggregate)
                ));
            }
            s
        }
        // "target_rps": the offered rate, distinct from the derived
        // per-window "rps" (completed) column.
        Format::Csv => rep
            .per_device
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let mut labels = vec![("mode", mode.clone()), ("target_rps", rps.clone())];
                if fleet_mode {
                    labels.push(("device", i.to_string()));
                }
                windows(d).to_csv(&labels)
            })
            .collect(),
        // One device, validated at parse time.
        Format::Prom => {
            windows(&rep.per_device[0]).to_prometheus("morpheus", &[("mode", &mode), ("rps", &rps)])
        }
    };
    emit(&cli, &rendered);
}

/// Writes the rendered telemetry to `--out` (or stdout when unset).
fn emit(cli: &Cli, rendered: &str) {
    match &cli.out {
        Some(path) => {
            std::fs::write(path, rendered).unwrap_or_else(|e| {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            });
            println!("wrote telemetry ({:?}) to {path}", cli.format);
        }
        None => print!("{rendered}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let cli = parse(&argv(&[])).expect("valid");
        assert_eq!(cli.mode, Mode::Morpheus);
        assert_eq!(cli.window, SimDuration::from_millis(10));
        assert!(cli.slo.is_empty());
        assert_eq!(cli.format, Format::Text);
        assert!(cli.out.is_none());
    }

    #[test]
    fn parse_own_grammar() {
        let cli = parse(&argv(&[
            "--rps",
            "8000",
            "--mode",
            "morpheus+p2p",
            "--window",
            "5ms",
            "--slo",
            "p99<500us,avail>99.9",
            "--format",
            "prom",
            "--out",
            "t.prom",
        ]))
        .expect("valid");
        assert_eq!(cli.rps, 8000.0);
        assert_eq!(cli.mode, Mode::MorpheusP2P);
        assert_eq!(cli.window, SimDuration::from_millis(5));
        assert_eq!(cli.slo.objectives.len(), 2);
        assert_eq!(cli.format, Format::Prom);
        assert_eq!(cli.out.as_deref(), Some("t.prom"));
    }

    #[test]
    fn parse_rejects_bad_input() {
        for bad in [
            vec!["--rps", "0"],                         // non-positive rate
            vec!["--rps", "nan"],                       // non-finite
            vec!["--mode", "all"],                      // sweep grammar not accepted here
            vec!["--window", "0ms"],                    // zero window
            vec!["--window", "later"],                  // malformed
            vec!["--window"],                           // missing value
            vec!["--slo", "p99<"],                      // malformed objective
            vec!["--slo", "avail>100"],                 // target out of range
            vec!["--format", "json"],                   // unknown format
            vec!["--jobs", "4"],                        // single cell: no fan-out flag
            vec!["--telemetry-window", "10ms"],         // serve's spelling
            vec!["--devices", "2", "--format", "prom"], // prom is single-device
        ] {
            assert!(parse(&argv(&bad)).is_err(), "should reject {bad:?}");
        }
    }
}
