//! Open-loop serving experiment: latency vs offered RPS per engine.
//!
//! Sweeps a ladder of arrival rates over one or all modes and prints one
//! row per (mode, rps) cell: admission counts, end-to-end latency
//! quantiles, sustained throughput, and NVMe doorbell economy. The knee —
//! where queue-wait blows up the tail — arrives at a lower RPS on the
//! conventional path than on the Morpheus paths, which is the serving
//! version of the paper's multiprogramming result.
//!
//! Deterministic by construction: the cell grid is fanned out with the
//! shared order-preserving worker pool, and every cell builds its own
//! seeded system, so output is byte-identical across repeats and `--jobs`.

use morpheus::{FleetReport, Mode, RunError, SloSpec, TelemetryConfig};
use morpheus_bench::{
    flag_value, fleet_mode, print_table, run_parallel, schedule_banner, ServeArgs,
};
use morpheus_simcore::{parse_duration, render_error_chain, SimDuration};

const USAGE: &str =
    "usage: serve [--rps LIST] [--duration S] [--depth N] [--batch N] [--sq-depth N]
             [--policy shed|fallback] [--mode all|conventional|morpheus|morpheus+p2p]
             [--apps N] [--bytes N] [--trace-out <path>]
             [--skew F] [--cache-mb N] [--cache-host-mb N] [--cache-policy tinylfu|lru]
             [--telemetry-window DUR] [--slo SPEC] [--telemetry-out <path>]
             [--prom-out <path>]
             [--devices N] [--placement rr|hash|capacity] [--kill-device DEV@SECS]
             [--rolling-update SECS] [--heal]
             [--csv] [--seed N] [--jobs N] [--faults SPEC]";

/// One parsed invocation: the shared serving grammar plus this binary's
/// own sweep, telemetry and output flags.
#[derive(Debug)]
struct Cli {
    rps: Vec<f64>,
    modes: Vec<Mode>,
    trace_out: Option<String>,
    telemetry_window: Option<SimDuration>,
    slo: SloSpec,
    telemetry_out: Option<String>,
    prom_out: Option<String>,
    csv: bool,
    serve: ServeArgs,
}

impl Cli {
    /// The serve-plane telemetry configuration, `None` when sampling is
    /// off (the default — disabled runs stay byte-identical to pre-
    /// telemetry builds).
    fn telemetry_config(&self) -> Option<TelemetryConfig> {
        self.telemetry_window.map(|w| {
            let mut t = TelemetryConfig::new(w);
            t.slo = self.slo.clone();
            t
        })
    }
}

/// The flag grammar, separated from process state so tests can drive it.
fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        rps: vec![250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0],
        modes: vec![Mode::Conventional, Mode::Morpheus, Mode::MorpheusP2P],
        trace_out: None,
        telemetry_window: None,
        slo: SloSpec::none(),
        telemetry_out: None,
        prom_out: None,
        csv: false,
        serve: ServeArgs::default(),
    };
    cli.serve = ServeArgs::parse(args, |shared, flag, it| {
        match flag {
            "--rps" => {
                let v = flag_value(flag, it)?;
                let mut ladder = Vec::new();
                for part in v.split(',') {
                    let r: f64 = part
                        .parse()
                        .map_err(|_| format!("--rps expects numbers, got {part:?}"))?;
                    if !r.is_finite() || r <= 0.0 {
                        return Err(format!("--rps entries must be positive, got {part:?}"));
                    }
                    ladder.push(r);
                }
                cli.rps = ladder;
            }
            "--mode" => {
                let v = flag_value(flag, it)?;
                cli.modes = match v.as_str() {
                    "all" => vec![Mode::Conventional, Mode::Morpheus, Mode::MorpheusP2P],
                    "conventional" => vec![Mode::Conventional],
                    "morpheus" => vec![Mode::Morpheus],
                    "morpheus+p2p" => vec![Mode::MorpheusP2P],
                    other => {
                        return Err(format!(
                            "--mode expects all|conventional|morpheus|morpheus+p2p, got {other:?}"
                        ))
                    }
                };
            }
            "--trace-out" => cli.trace_out = Some(flag_value(flag, it)?.clone()),
            "--telemetry-window" => {
                let v = flag_value(flag, it)?;
                cli.telemetry_window =
                    Some(parse_duration(v).map_err(|e| format!("--telemetry-window: {e}"))?);
            }
            "--slo" => {
                let v = flag_value(flag, it)?;
                cli.slo = SloSpec::parse(v).map_err(|e| format!("--slo: {e}"))?;
            }
            "--telemetry-out" => cli.telemetry_out = Some(flag_value(flag, it)?.clone()),
            "--prom-out" => cli.prom_out = Some(flag_value(flag, it)?.clone()),
            "--csv" => cli.csv = true,
            "--jobs" => {
                shared.harness.accept(flag, it).map_err(|e| e.0)?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        Ok(())
    })?;
    if cli.trace_out.is_some() && (cli.modes.len() > 1 || cli.rps.len() > 1) {
        return Err("--trace-out needs a single cell: one --mode and one --rps".into());
    }
    if cli.csv && cli.trace_out.is_some() {
        return Err("--csv and --trace-out are mutually exclusive (CSV owns stdout)".into());
    }
    if cli.telemetry_window.is_none() {
        if !cli.slo.is_empty() {
            return Err("--slo requires --telemetry-window".into());
        }
        if cli.telemetry_out.is_some() {
            return Err("--telemetry-out requires --telemetry-window".into());
        }
        if cli.prom_out.is_some() {
            return Err("--prom-out requires --telemetry-window".into());
        }
    }
    if cli.prom_out.is_some() && (cli.modes.len() > 1 || cli.rps.len() > 1) {
        return Err(
            "--prom-out needs a single cell (one --mode, one --rps): a Prometheus \
             exposition declares each metric once"
                .into(),
        );
    }
    if cli.prom_out.is_some() && cli.serve.fleet.devices > 1 {
        return Err(
            "--prom-out requires --devices 1: a Prometheus exposition declares each \
             metric once (use --telemetry-out for per-device windows)"
                .into(),
        );
    }
    Ok(cli)
}

/// Runs one (mode, rps) cell on its own fresh fleet, returning the fleet
/// report and the rendered trace if this is the traced cell. The cell
/// builds its cache fresh too, so the grid stays byte-identical across
/// `--jobs` fan-outs; cache-on cells therefore measure the within-run
/// (cold-start plus steady-state) hit economy.
fn run_cell(cli: &Cli, mode: Mode, rps: f64) -> Result<(FleetReport, Option<String>), RunError> {
    let (mut fleet, specs) = cli.serve.staged_fleet();
    if cli.trace_out.is_some() {
        fleet.enable_tracing();
    }
    let rep = fleet.serve(
        &specs,
        &cli.serve.serve_config(mode, rps, cli.telemetry_config()),
    )?;
    let trace = cli
        .trace_out
        .as_ref()
        .map(|_| fleet.take_merged_trace().to_chrome_json());
    Ok((rep, trace))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    let sa = &cli.serve;

    let grid: Vec<(Mode, f64)> = cli
        .modes
        .iter()
        .flat_map(|m| cli.rps.iter().map(move |r| (*m, *r)))
        .collect();
    let cells = run_parallel(sa.harness.jobs, &grid, |(mode, rps)| {
        run_cell(&cli, *mode, *rps)
    });

    let (base, cache) = (&sa.base, &sa.cache);
    let cache_on = cache.is_enabled();
    let fleet_mode = fleet_mode(&sa.fleet);
    if !cli.csv {
        // The historical banner is extended only when the new knobs are in
        // play, so pre-cache invocations stay byte-identical.
        let mut banner = format!(
            "serve: {} apps x ~{} bytes, duration {}s, depth {}, batch <= {}, policy {}, seed {}",
            sa.apps, sa.bytes, base.duration_s, base.depth, base.batch_max, base.policy, base.seed
        );
        if base.skew > 0.0 || cache_on {
            banner.push_str(&format!(
                ", skew {}, cache {}+{}MB {}",
                base.skew,
                cache.dram_bytes >> 20,
                cache.host_bytes >> 20,
                cache.policy
            ));
        }
        if let Some(w) = cli.telemetry_window {
            banner.push_str(&format!(", telemetry {w}"));
            if !cli.slo.is_empty() {
                banner.push_str(&format!(", slo {}", cli.slo));
            }
        }
        if fleet_mode {
            banner.push_str(&format!(
                ", devices {} placement {}{}",
                sa.fleet.devices,
                sa.fleet.placement,
                schedule_banner(&sa.fleet)
            ));
        }
        println!("{banner}");
    }
    let mut rows = Vec::new();
    let mut fault_lines = Vec::new();
    let mut cache_lines = Vec::new();
    let mut fleet_lines = Vec::new();
    let mut telemetry_blocks = Vec::new();
    let mut telemetry_csv = String::new();
    let mut prom_text = None;
    let mut trace_json = None;
    for ((mode, rps), cell) in grid.iter().zip(cells) {
        let (fleet_rep, trace) = match cell {
            Ok(v) => v,
            Err(e) => {
                eprintln!(
                    "error: serve {mode} @ {rps} rps failed: {}",
                    render_error_chain(&e)
                );
                std::process::exit(1);
            }
        };
        if trace.is_some() {
            trace_json = trace;
        }
        if fleet_mode {
            fleet_lines.push(format!(
                "fleet ({mode} @ {rps:.0} rps): devices={} placement={} rebalanced={}",
                fleet_rep.per_device.len(),
                fleet_rep.policy,
                fleet_rep.rebalanced
            ));
            for (i, d) in fleet_rep.per_device.iter().enumerate() {
                fleet_lines.push(format!(
                    "  dev{i}: offered={} done={} shed={} fail={} sust_rps={:.1} p99_us={:.1}",
                    d.offered,
                    d.completed,
                    d.shed,
                    d.failed,
                    d.sustained_rps,
                    d.e2e_ns.p99() as f64 / 1e3
                ));
            }
            // Control-plane outcome: the transition counters then one
            // lifecycle/health line per device, labelled like the fleet
            // rows above.
            if let Some(c) = &fleet_rep.control {
                for line in format!("{c}").lines() {
                    fleet_lines.push(format!("  {line}"));
                }
            }
        }
        // Telemetry is sampled per device; fleet rows label each block
        // with its device, a plain solo SSD prints its one block bare.
        for (i, d) in fleet_rep.per_device.iter().enumerate() {
            let Some(t) = &d.telemetry else { continue };
            let mut labels = vec![
                ("mode", mode.to_string()),
                // The offered rate, distinct from the derived per-window
                // "rps" (completed) column.
                ("target_rps", format!("{rps:.0}")),
            ];
            let mut title = format!("telemetry ({mode} @ {rps:.0} rps");
            if fleet_mode {
                labels.push(("device", i.to_string()));
                title.push_str(&format!(", dev{i}"));
            }
            telemetry_blocks.push(format!("{title}):\n{t}"));
            if cli.telemetry_out.is_some() {
                // One header+rows block per cell: window columns are
                // data-dependent, so cells keep their own headers.
                telemetry_csv.push_str(&t.to_csv(&labels));
            }
            if cli.prom_out.is_some() {
                // One cell on one device, validated at parse time.
                prom_text = Some(t.to_prometheus(
                    "morpheus",
                    &[("mode", &mode.to_string()), ("rps", &format!("{rps:.0}"))],
                ));
            }
        }
        let rep = fleet_rep.aggregate;
        let mut row = vec![
            mode.to_string(),
            format!("{rps:.0}"),
            rep.offered.to_string(),
            rep.completed.to_string(),
            rep.shed.to_string(),
            rep.overflow_fallbacks.to_string(),
            rep.fault_redispatches.to_string(),
            rep.failed.to_string(),
            format!("{:.1}", rep.e2e_ns.p50() as f64 / 1e3),
            format!("{:.1}", rep.e2e_ns.p95() as f64 / 1e3),
            format!("{:.1}", rep.e2e_ns.p99() as f64 / 1e3),
            format!("{:.1}", rep.sustained_rps),
            format!("{:.1}", rep.aggregate_mbs),
            rep.commands.to_string(),
            rep.doorbell_writes.to_string(),
            format!("{:.3}", rep.metrics.get("ssd_core_utilization")),
        ];
        if cache_on {
            let c = rep.cache.unwrap_or_default();
            row.push(format!("{:.3}", c.hit_rate()));
        }
        rows.push(row);
        if sa.harness.faults.is_some() {
            fault_lines.push(format!("faults ({mode} @ {rps:.0} rps): {}", rep.faults));
        }
        if let Some(c) = rep.cache {
            cache_lines.push(format!("cache ({mode} @ {rps:.0} rps): {c}"));
        }
    }
    let mut header = vec![
        "mode", "rps", "offered", "done", "shed", "fb", "redisp", "fail", "p50us", "p95us",
        "p99us", "sust_rps", "mb_s", "cmds", "dbell", "ssd_util",
    ];
    if cache_on {
        header.push("hit_rate");
    }
    let write_file = |path: &String, content: &str| {
        std::fs::write(path, content).unwrap_or_else(|e| {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        });
    };
    if let Some(path) = &cli.telemetry_out {
        write_file(path, &telemetry_csv);
    }
    if let (Some(path), Some(prom)) = (&cli.prom_out, &prom_text) {
        write_file(path, prom);
    }
    if cli.csv {
        // CSV owns stdout: exactly one header line plus one line per cell.
        println!("{}", header.join(","));
        for row in &rows {
            println!("{}", row.join(","));
        }
        return;
    }
    print_table(&header, &rows);
    for line in fleet_lines {
        println!("{line}");
    }
    for line in fault_lines {
        println!("{line}");
    }
    for line in cache_lines {
        println!("{line}");
    }
    for block in telemetry_blocks {
        println!("{block}");
    }
    if let Some(path) = &cli.telemetry_out {
        println!("wrote windowed telemetry CSV to {path}");
    }
    if let Some(path) = &cli.prom_out {
        println!("wrote Prometheus text exposition to {path}");
    }
    if let (Some(path), Some(json)) = (&cli.trace_out, trace_json) {
        write_file(path, &json);
        println!("wrote Chrome trace-event JSON to {path} (load in Perfetto)");
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
        assert_eq!(cli.modes.len(), 3);
        assert_eq!(cli.rps.len(), 6);
        assert!(!cli.csv);
        assert!(
            cli.telemetry_config().is_none(),
            "telemetry is off by default"
        );
    }

    #[test]
    fn parse_own_grammar() {
        let cli = parse(&argv(&[
            "--rps",
            "100,200.5",
            "--mode",
            "morpheus",
            "--csv",
            "--jobs",
            "4",
            "--seed",
            "7",
        ]))
        .expect("valid");
        assert_eq!(cli.rps, vec![100.0, 200.5]);
        assert_eq!(cli.modes, vec![Mode::Morpheus]);
        assert!(cli.csv);
        assert_eq!((cli.serve.harness.seed, cli.serve.harness.jobs), (7, 4));
    }

    #[test]
    fn parse_telemetry_grammar() {
        let cli = parse(&argv(&[
            "--telemetry-window",
            "10ms",
            "--slo",
            "p99<500us,avail>99.9",
            "--telemetry-out",
            "t.csv",
        ]))
        .expect("valid");
        assert_eq!(cli.telemetry_window.unwrap(), SimDuration::from_millis(10));
        let t = cli.telemetry_config().expect("window set");
        assert_eq!(t.slo.objectives.len(), 2);
    }

    #[test]
    fn parse_rejects_bad_input() {
        let cell = ["--mode", "morpheus", "--rps", "100"];
        let window = ["--telemetry-window", "10ms"];
        for bad in [
            vec!["--rps"],                                             // missing value
            vec!["--rps", "0"],                                        // non-positive rate
            vec!["--rps", "100,abc"],                                  // malformed entry
            vec!["--mode", "turbo"],                                   // unknown mode
            vec!["--sacle", "64"],                                     // typo flag
            vec!["--jobs", "0"],                                       // harness re-check
            vec!["--csv", "x"],                                        // --csv takes no value
            vec!["--fast-forward"],                                    // retired flag
            vec!["--trace-out", "t.json"],                             // needs a single cell
            [&["--csv", "--trace-out", "t.json"][..], &cell].concat(), // CSV owns stdout
            vec!["--slo", "avail>99.9"],                               // needs a window
            vec!["--telemetry-out", "t.csv"],                          // needs a window
            vec!["--prom-out", "t.prom"],                              // needs a window
            vec!["--telemetry-window"],                                // missing value
            vec!["--telemetry-window", "0ms"],                         // zero window
            vec!["--telemetry-window", "soon"],                        // malformed
            [&window[..], &["--slo", "x"]].concat(),                   // bad term
            [&window[..], &["--slo", "p99<0ns"]].concat(),             // bad threshold
            [&window[..], &["--prom-out", "t.prom"]].concat(),         // needs a single cell
            // Prometheus exposition is single-device only.
            [
                &window[..],
                &["--prom-out", "t.prom", "--devices", "4"],
                &cell,
            ]
            .concat(),
        ] {
            assert!(parse(&argv(&bad)).is_err(), "should reject {bad:?}");
        }
        for good in [
            [&["--trace-out", "t.json"][..], &cell].concat(),
            [&window[..], &["--prom-out", "t.prom"], &cell].concat(),
        ] {
            assert!(parse(&argv(&good)).is_ok(), "should accept {good:?}");
        }
    }
}
