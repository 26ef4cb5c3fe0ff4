//! `fleet_zipf_rw`: eight devices with capacity placement, 64 tenants of
//! 64 KB under Zipf 1.1 traffic, a two-tier object cache smaller than the
//! working set, a telemetry window with an SLO, and a rolling update. Each
//! mode serves, overwrites its hottest files, then serves again.

use std::time::Instant;

use morpheus::{
    aggregate_reports, AppSpec, Fleet, FleetConfig, Mode, PlacementPolicy, RollingUpdate,
    ServeConfig, SloSpec, SystemParams, TelemetryConfig,
};
use morpheus_format::Schema;
use morpheus_simcore::{SimDuration, SplitMix64, Zipfian};

use crate::serve::{
    cache_config, check_report, finish_serve, mode_name, tally_serve, tenant_input, tenant_schema,
    tenant_spec, MODES, PROBE_KEYS, TENANT_BYTES,
};
use crate::{layers, timed, write_op, Ctx, Out};

const DEVICES: usize = 8;
const APPS: usize = 64;
const SKEW: f64 = 1.1;
/// Offered rate and arrival window of each serve phase.
const RPS: f64 = 8000.0;
const DURATION_S: f64 = 0.5;
/// The rolling update starts this far into each serve phase.
const ROLLING_START_S: f64 = 0.1;
/// Telemetry window and the objectives evaluated over it.
const WINDOW_MS: u64 = 10;
const SLO: &str = "p99<2ms,avail>99.9";
/// How many of the most popular files the write phase overwrites.
const HOT_FILES: usize = 4;
/// Salt that makes the rewritten files differ from the originals.
const WRITE_SALT: u64 = 0x5752_4954_4553_0001;

fn fleet_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::new(DEVICES);
    cfg.placement = PlacementPolicy::CapacityAware;
    cfg.seed = seed;
    cfg.control.rolling = Some(RollingUpdate::starting_at(ROLLING_START_S));
    cfg
}

pub fn run(ctx: &mut Ctx, out: &mut Out) {
    let specs: Vec<AppSpec> = (0..APPS).map(tenant_spec).collect();
    let slo = SloSpec::parse(SLO).expect("valid SLO spec");
    let t_setup = Instant::now();
    let mut gen_s = 0.0;
    let (inputs, rewrites): (Vec<Vec<u8>>, Vec<Vec<u8>>) = timed(&mut gen_s, || {
        let inputs = (0..APPS)
            .map(|i| tenant_input(ctx.seed, i, TENANT_BYTES))
            .collect();
        let rewrites = (0..HOT_FILES)
            .map(|i| tenant_input(ctx.seed ^ WRITE_SALT, i, TENANT_BYTES))
            .collect();
        (inputs, rewrites)
    });
    out.add("workloads.gen_s", gen_s);
    let mean_bytes = inputs.iter().map(Vec::len).sum::<usize>() as f64 / APPS as f64;
    // One fresh fleet per mode, so each mode starts with a cold cache.
    let mut fleets = Vec::new();
    for mode in MODES {
        let mut fleet = Fleet::new(SystemParams::paper_testbed(), fleet_config(ctx.seed));
        for (spec, data) in specs.iter().zip(&inputs) {
            write_op(out, "ftl.stage_s", &format!("stage {}", spec.input), || {
                fleet.create_input_file(&spec.input, data)
            });
        }
        fleet.set_object_cache(cache_config(ctx.seed));
        if ctx.trace {
            fleet.enable_tracing();
        }
        fleets.push((mode, fleet));
    }
    out.set("setup_s", t_setup.elapsed().as_secs_f64());

    let pass = out.start_pass();
    for (mode, fleet) in &mut fleets {
        let mut telemetry = TelemetryConfig::new(SimDuration::from_millis(WINDOW_MS));
        telemetry.slo = slo.clone();
        let cfg = ServeConfig {
            mode: *mode,
            seed: ctx.seed,
            skew: SKEW,
            telemetry: Some(telemetry),
            ..ServeConfig::new(RPS, DURATION_S)
        };
        for phase in 0..2 {
            if phase == 1 {
                for (i, data) in rewrites.iter().enumerate() {
                    let file = &specs[i].input;
                    write_op(
                        out,
                        "ftl.overwrite_s",
                        &format!("overwrite {file} ({mode})"),
                        || fleet.overwrite_input_file(file, data),
                    );
                }
            }
            serve_phase(ctx, out, fleet, &specs, &cfg, phase, mean_bytes);
            out.calibrate();
        }
        for d in 0..fleet.num_devices() {
            if let Some(c) = fleet.device(d).object_cache_stats() {
                out.add("sim.cache.evictions", c.evictions as f64);
                out.add("sim.cache.spills", c.spills as f64);
                out.add("sim.cache.promotions", c.promotions as f64);
                out.add("sim.cache.invalidations", c.invalidations as f64);
            }
        }
    }
    out.end_pass(pass);
    finish_serve(out);
    let lookups = out.get("sim.cache.hits") + out.get("sim.cache.misses");
    out.set(
        "sim.cache.hit_rate",
        if lookups > 0.0 {
            out.get("sim.cache.hits") / lookups
        } else {
            0.0
        },
    );

    if ctx.probe {
        let schema = tenant_schema();
        let pairs: Vec<(&[u8], Schema)> = inputs
            .iter()
            .map(|d| (d.as_slice(), schema.clone()))
            .collect();
        layers::parse_probe(out, &pairs);
        let zipf = Zipfian::new(APPS, SKEW);
        let mut rng = SplitMix64::new(ctx.seed);
        let keys: Vec<usize> = (0..PROBE_KEYS).map(|_| zipf.sample(&mut rng)).collect();
        layers::cache_probe(out, cache_config(ctx.seed), &specs, &inputs, &keys);
    }
}

/// One `Fleet::serve` call plus its checks, telemetry export and counters.
fn serve_phase(
    ctx: &mut Ctx,
    out: &mut Out,
    fleet: &mut Fleet,
    specs: &[AppSpec],
    cfg: &ServeConfig,
    phase: usize,
    mean_bytes: f64,
) {
    let mode = cfg.mode;
    let what = format!("fleet serve {mode} phase {phase}");
    let mut host = 0.0;
    let rep = match timed(&mut host, || fleet.serve(specs, cfg)) {
        Ok(rep) => rep,
        Err(e) => {
            out.op(&what, vec![e.to_string()]);
            return;
        }
    };
    out.add("fleet.serve_s", host);
    if ctx.trace {
        ctx.tally.fold(&fleet.take_merged_trace());
    }
    out.render(&format!(
        "{rep}\nunordered={:016x}\n",
        rep.aggregate.checksum_unordered
    ));
    tally_serve(
        out,
        &format!("phase{phase}"),
        host,
        &rep.aggregate,
        mean_bytes,
    );

    let mut problems = Vec::new();
    // Without faults every Morpheus-path admission probes the cache once;
    // the host path never touches it.
    let lookups = |admitted: u64| {
        if mode == Mode::Conventional {
            0
        } else {
            admitted
        }
    };
    for (d, r) in rep.per_device.iter().enumerate() {
        for p in check_report(r, Some(lookups(r.admitted))) {
            problems.push(format!("dev{d}: {p}"));
        }
    }
    problems.extend(check_report(
        &rep.aggregate,
        Some(lookups(rep.aggregate.admitted)),
    ));
    let offered: Vec<u64> = rep.per_device.iter().map(|r| r.offered).collect();
    if offered.iter().sum::<u64>() != rep.aggregate.offered {
        problems.push(format!(
            "per-device offered {offered:?} does not sum to {}",
            rep.aggregate.offered
        ));
    }
    let mut agg_s = 0.0;
    let again = timed(&mut agg_s, || aggregate_reports(&rep.per_device));
    out.add("fleet.aggregate_us", agg_s * 1e6);
    if format!("{again:?}") != format!("{:?}", rep.aggregate) {
        problems.push("aggregate_reports disagrees with the fleet's aggregate".into());
    }
    out.op(&what, problems);

    let mut export_s = 0.0;
    for (d, r) in rep.per_device.iter().enumerate() {
        if let Some(t) = &r.telemetry {
            let dev = d.to_string();
            let text = timed(&mut export_s, || {
                let csv = t.to_csv(&[("mode", mode.to_string()), ("device", dev.clone())]);
                let prom =
                    t.to_prometheus("morpheus", &[("mode", mode_name(mode)), ("device", &dev)]);
                csv + &prom
            });
            out.render(&text);
        }
    }
    out.add("telemetry.export_s", export_s);

    if let Some(c) = rep.aggregate.cache {
        out.add("sim.cache.hits", c.hits as f64);
        out.add("sim.cache.misses", c.misses as f64);
    }
    out.add("sim.fleet.rebalanced", rep.rebalanced as f64);
    if mode == Mode::Morpheus && phase == 0 {
        let mean = offered.iter().sum::<u64>() as f64 / offered.len() as f64;
        let max = offered.iter().copied().max().unwrap_or(0) as f64;
        out.set(
            "sim.fleet.offered_skew",
            if mean > 0.0 { max / mean } else { 0.0 },
        );
    }
    if let Some(c) = &rep.control {
        let n = c.counts;
        out.add(
            "sim.control.transitions",
            (n.in_service + n.draining + n.updating + n.rebooting + n.failed) as f64,
        );
    }
}
