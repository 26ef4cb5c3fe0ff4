//! `serve_ladder`: one device, three 64 KB tenants with uniform
//! popularity, no cache, open-loop Poisson load at fixed rates below, near
//! and above the Morpheus knee, in all three modes, memo at its default.

use std::time::Instant;

use morpheus::{
    AppSpec, CacheConfig, CachePolicy, Mode, ServeConfig, ServeReport, System, SystemParams,
};
use morpheus_format::{FieldKind, Schema, TextWriter};
use morpheus_simcore::{SplitMix64, Tracer};

use crate::{layers, mode_key, mode_op, timed, write_op, Ctx, Out};

/// Offered rates, requests per simulated second.
const LADDER: [f64; 3] = [500.0, 1200.0, 2000.0];
/// Arrival window of each ladder cell, simulated seconds.
const DURATION_S: f64 = 2.0;
/// Tenants and their input size.
const APPS: usize = 3;
pub const TENANT_BYTES: u64 = 64 * 1024;
/// Keys replayed by the cache probe.
pub const PROBE_KEYS: usize = 100_000;

pub const MODES: [Mode; 3] = [Mode::Conventional, Mode::Morpheus, Mode::MorpheusP2P];

/// The cache shape of the fleet workload, also used by the serve ladder's
/// cache probe: per device, a DRAM tier and a host tier each well below
/// the objects placed on it, so eviction, spill and promotion all run.
pub fn cache_config(seed: u64) -> CacheConfig {
    CacheConfig {
        dram_bytes: 128 << 10,
        host_bytes: 128 << 10,
        policy: CachePolicy::TinyLfu,
        seed,
    }
}

/// Spelled-out mode name used in serve metric names.
pub fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Conventional => "conventional",
        Mode::Morpheus => "morpheus",
        Mode::MorpheusP2P => "p2p",
    }
}

/// Tenant `i`'s input: ~`bytes` of two-column integer edges, seeded.
pub fn tenant_input(seed: u64, i: usize, bytes: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
    let mut w = TextWriter::new();
    for _ in 0..(bytes / 12).max(1) {
        w.write_u64(rng.next_below(100_000));
        w.sep();
        w.write_u64(rng.next_below(100_000));
        w.newline();
    }
    w.into_bytes()
}

pub fn tenant_schema() -> Schema {
    Schema::new(vec![FieldKind::U32, FieldKind::U32])
}

/// Tenant `i`'s app spec and file name.
pub fn tenant_spec(i: usize) -> AppSpec {
    let name = format!("svc{i}");
    AppSpec::cpu_app(&name, &format!("{name}.txt"), tenant_schema(), 1, 50.0)
}

/// The serve-report invariants every run must hold (no faults are
/// armed, so nothing may fail). `lookups` is the number of cache probes
/// the run must have made, when a cache is installed.
pub fn check_report(rep: &ServeReport, lookups: Option<u64>) -> Vec<String> {
    let mut p = Vec::new();
    if rep.offered != rep.admitted + rep.shed + rep.overflow_fallbacks {
        p.push(format!(
            "offered {} != admitted {} + shed {} + overflow {}",
            rep.offered, rep.admitted, rep.shed, rep.overflow_fallbacks
        ));
    }
    if rep.admitted + rep.overflow_fallbacks != rep.completed + rep.failed {
        p.push(format!(
            "admitted {} + overflow {} != completed {} + failed {}",
            rep.admitted, rep.overflow_fallbacks, rep.completed, rep.failed
        ));
    }
    if rep.failed != 0 {
        p.push(format!(
            "{} requests failed with no faults armed",
            rep.failed
        ));
    }
    if let (Some(want), Some(c)) = (lookups, rep.cache) {
        if c.hits + c.misses != want {
            p.push(format!(
                "cache hits {} + misses {} != lookups {want}",
                c.hits, c.misses
            ));
        }
    }
    p
}

/// Records one serve call under its mode (see [`mode_op`]) plus the
/// simulated NVMe and core counters the per-layer metrics use.
pub fn tally_serve(out: &mut Out, op: &str, host: f64, rep: &ServeReport, mean_bytes: f64) {
    let bytes = rep.completed as f64 * mean_bytes;
    mode_op(out, rep.mode, op, host, bytes, rep.offered as f64);
    out.add("sim.commands", rep.commands as f64);
    out.add("sim.doorbells", rep.doorbell_writes as f64);
    if rep.mode != Mode::Conventional {
        out.add(
            "sim.util_busy_s",
            rep.metrics.get("ssd_core_utilization") * rep.makespan_s,
        );
        out.add("sim.util_window_s", rep.makespan_s);
    }
}

/// The per-mode host cost per offered request and the simulated ratios.
pub fn finish_serve(out: &mut Out) {
    for mode in MODES {
        let key = mode_key(mode);
        out.set(
            &format!("serve.host_us_per_req.{}", mode_name(mode)),
            out.get(&format!("host.{key}_s")) * 1e6 / out.get(&format!("reqs.{key}")),
        );
    }
    out.set(
        "sim.nvme.cmds_per_doorbell",
        out.get("sim.commands") / out.get("sim.doorbells"),
    );
    let window = out.get("sim.util_window_s");
    out.set(
        "sim.ssd.core_util",
        if window > 0.0 {
            out.get("sim.util_busy_s") / window
        } else {
            0.0
        },
    );
}

pub fn run(ctx: &mut Ctx, out: &mut Out) {
    let specs: Vec<AppSpec> = (0..APPS).map(tenant_spec).collect();
    let t_setup = Instant::now();
    let mut gen_s = 0.0;
    let inputs: Vec<Vec<u8>> = timed(&mut gen_s, || {
        (0..APPS)
            .map(|i| tenant_input(ctx.seed, i, TENANT_BYTES))
            .collect()
    });
    out.add("workloads.gen_s", gen_s);
    let mean_bytes = inputs.iter().map(Vec::len).sum::<usize>() as f64 / APPS as f64;
    // One fresh system per ladder cell, like the `serve` binary.
    let mut cells = Vec::new();
    for mode in MODES {
        for rps in LADDER {
            let mut sys = System::new(SystemParams::paper_testbed());
            for (spec, data) in specs.iter().zip(&inputs) {
                write_op(out, "ftl.stage_s", &format!("stage {}", spec.input), || {
                    sys.create_input_file(&spec.input, data)
                });
            }
            if ctx.trace {
                sys.set_tracer(Tracer::enabled());
            }
            cells.push((mode, rps, sys));
        }
    }
    out.set("setup_s", t_setup.elapsed().as_secs_f64());

    let pass = out.start_pass();
    let mut baseline: Vec<Option<ServeReport>> = vec![None; LADDER.len()];
    for (i, (mode, rps, sys)) in cells.iter_mut().enumerate() {
        let cfg = ServeConfig {
            mode: *mode,
            seed: ctx.seed,
            ..ServeConfig::new(*rps, DURATION_S)
        };
        let what = format!("serve {mode} @ {rps} rps");
        let mut host = 0.0;
        let rep = match timed(&mut host, || sys.serve(&specs, &cfg)) {
            Ok(rep) => rep,
            Err(e) => {
                out.op(&what, vec![e.to_string()]);
                continue;
            }
        };
        if ctx.trace {
            ctx.tally.fold(&sys.tracer().take());
        }
        out.render(&format!(
            "{rep}\nunordered={:016x}\n",
            rep.checksum_unordered
        ));
        tally_serve(out, &format!("{rps:.0}"), host, &rep, mean_bytes);
        let cell = format!("{}.{rps:.0}", mode_name(*mode));
        out.set(
            &format!("sim.serve.p99_us.{cell}"),
            rep.e2e_ns.p99() as f64 / 1e3,
        );
        out.set(&format!("sim.serve.shed.{cell}"), rep.shed as f64);
        let mut problems = check_report(&rep, None);
        // Every mode deserializes bit-identical objects, so at a rate where
        // no mode sheds, all modes serve the same checksums.
        let rung = i % LADDER.len();
        match &baseline[rung] {
            None => baseline[rung] = Some(rep),
            Some(b) => {
                if b.shed == 0 && rep.shed == 0 && b.checksum_unordered != rep.checksum_unordered {
                    problems.push(format!("objects differ from {} at the same load", b.mode));
                }
            }
        }
        out.op(&what, problems);
        out.calibrate();
    }
    out.end_pass(pass);
    finish_serve(out);

    if ctx.probe {
        let schema = tenant_schema();
        let pairs: Vec<(&[u8], Schema)> = inputs
            .iter()
            .map(|d| (d.as_slice(), schema.clone()))
            .collect();
        layers::parse_probe(out, &pairs);
        let mut rng = SplitMix64::new(ctx.seed);
        let keys: Vec<usize> = (0..PROBE_KEYS)
            .map(|_| rng.next_below(APPS as u64) as usize)
            .collect();
        layers::cache_probe(out, cache_config(ctx.seed), &specs, &inputs, &keys);
    }
}
