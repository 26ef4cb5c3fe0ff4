//! `suite_batch`: the ten Table-I apps under every mode they support, with
//! the deserialization memo off, plus the workload-independent probes.

use std::time::Instant;

use morpheus::{AppSpec, Mode, ParallelModel, RunOutcome, System, SystemParams};
use morpheus_simcore::{SimDuration, SimTime, Tracer};
use morpheus_workloads::{suite, Benchmark};

use crate::{layers, mode_key, mode_op, timed, write_op, Ctx, Out};

/// The harness's default `--scale`: the paper's input sizes divided by
/// 256 and clamped to 2–48 MB (`morpheus_bench::Harness::input_bytes`).
const SCALE: u64 = 256;

/// The paper's average Fig. 8 deserialization speedup.
const PAPER_FIG8_SPEEDUP: f64 = 1.66;

/// Input bytes of one app at the default scale.
fn input_bytes(b: &Benchmark) -> u64 {
    (b.nominal_bytes / SCALE).clamp(2_000_000, 48_000_000)
}

/// The modes an app supports: P2P needs a GPU kernel to land objects in.
fn modes_of(spec: &AppSpec) -> &'static [Mode] {
    match spec.parallel {
        ParallelModel::GpuCuda => &[Mode::Conventional, Mode::Morpheus, Mode::MorpheusP2P],
        _ => &[Mode::Conventional, Mode::Morpheus],
    }
}

/// Generates and stages one input on a fresh system, charging the two
/// halves to `workloads.gen_s` and `ftl.stage_s`.
fn stage(out: &mut Out, name: &str, gen: impl FnOnce() -> Vec<u8>) -> (System, Vec<u8>) {
    let mut gen_s = 0.0;
    let data = timed(&mut gen_s, gen);
    out.add("workloads.gen_s", gen_s);
    let mut sys = System::new(SystemParams::paper_testbed());
    write_op(out, "ftl.stage_s", &format!("stage {name}"), || {
        sys.create_input_file(name, &data)
    });
    (sys, data)
}

/// Runs one app under one mode, charging host time to `exec.<mode>_s`.
fn run_mode(
    out: &mut Out,
    sys: &mut System,
    spec: &AppSpec,
    mode: Mode,
) -> (f64, Option<RunOutcome>) {
    let mut host = 0.0;
    let res = timed(&mut host, || sys.run(spec, mode));
    out.add(&format!("exec.{}_s", mode_key(mode)), host);
    match res {
        Ok(o) => (host, Some(o)),
        Err(e) => {
            out.op(&format!("run {} {mode}", spec.name), vec![e.to_string()]);
            (host, None)
        }
    }
}

pub fn run(ctx: &mut Ctx, out: &mut Out) {
    let benches = suite();
    let t_setup = Instant::now();
    let mut staged = Vec::new();
    for b in &benches {
        let (mut sys, data) = stage(out, &b.input_name(), || {
            b.generate(input_bytes(b), ctx.seed)
        });
        if ctx.trace {
            sys.set_tracer(Tracer::enabled());
        }
        staged.push((sys, if ctx.probe { data } else { Vec::new() }));
    }
    out.set("setup_s", t_setup.elapsed().as_secs_f64());

    let pass = out.start_pass();
    let (mut util_busy, mut util_window) = (0.0, 0.0);
    let mut morpheus_host = vec![0.0; benches.len()];
    for (i, (b, (sys, _))) in benches.iter().zip(staged.iter_mut()).enumerate() {
        let spec = b.spec();
        let mut reference: Option<(&'static str, u64, u64, u64)> = None;
        for &mode in modes_of(&spec) {
            let (host, outcome) = run_mode(out, sys, &spec, mode);
            let Some(o) = outcome else { continue };
            let mut kernel_s = 0.0;
            let k = timed(&mut kernel_s, || b.kernel(&o.objects));
            out.add("kernels.s", kernel_s);
            let r = &o.report;
            out.render(&format!("{r:?} kernel={:016x}\n", k.digest));
            if ctx.trace {
                ctx.tally.fold(&sys.tracer().take());
            }
            if mode != Mode::Conventional {
                let window = r.phases.total_s();
                let until = SimTime::ZERO + SimDuration::from_secs_f64(window);
                util_busy += sys.mssd.dev.cores().utilization(until) * window;
                util_window += window;
            }
            if mode == Mode::Morpheus {
                morpheus_host[i] = host;
            }
            mode_op(out, mode, b.name, host, r.text_bytes as f64, 1.0);
            let seen = (mode_key(mode), o.objects.checksum(), r.records, k.digest);
            let mut problems = Vec::new();
            match reference {
                None => reference = Some(seen),
                Some(want) => {
                    if (want.1, want.2) != (seen.1, seen.2) {
                        problems.push(format!(
                            "objects differ from {} (checksum {:x}/{:x}, records {}/{})",
                            want.0, want.1, seen.1, want.2, seen.2
                        ));
                    }
                    if want.3 != seen.3 {
                        problems.push(format!("kernel result differs from {}", want.0));
                    }
                }
            }
            if r.checksum != seen.1 {
                problems.push("report checksum differs from the objects".into());
            }
            out.op(&format!("run {} {mode}", b.name), problems);
        }
        out.calibrate();
    }
    out.end_pass(pass);
    out.set(
        "sim.ssd.core_util",
        if util_window > 0.0 {
            util_busy / util_window
        } else {
            0.0
        },
    );

    // Memo self-test: rerun the first 2 MB app in Morpheus mode. With the
    // memo off the rerun costs what the measured run cost; a memo replay
    // is many times cheaper, which `run.py` rejects.
    if let Some(i) = benches.iter().position(|b| input_bytes(b) == 2_000_000) {
        let sys = &mut staged[i].0;
        let mut again = 0.0;
        let _ = timed(&mut again, || sys.run(&benches[i].spec(), Mode::Morpheus));
        sys.tracer().take();
        out.set("selftest.memo_replay_ratio", again / morpheus_host[i]);
    }

    if ctx.probe {
        let inputs: Vec<(&[u8], _)> = benches
            .iter()
            .zip(&staged)
            .map(|(b, (_, data))| (data.as_slice(), b.schema()))
            .collect();
        layers::parse_probe(out, &inputs);
    }
}

/// The workload-independent probes, run in a process with the memo off.
///
/// * `storage_app.*`: host cost per input byte of a Morpheus-mode PageRank
///   run at 2 MB and 16 MB, and their ratio (1.0 = linear in input size).
/// * `model.fig8_*`: the simulated mean deserialization speedup over the
///   ten apps at the default scale, and its relative error against the
///   paper's 1.66x.
pub fn probe(ctx: &Ctx, out: &mut Out) {
    let benches = suite();
    let pagerank = &benches[0];
    let spec = pagerank.spec();
    let mut ns_per_byte = Vec::new();
    for bytes in [2_000_000u64, 16_000_000] {
        let (mut sys, data) = stage(out, &pagerank.input_name(), || {
            pagerank.generate(bytes, ctx.seed)
        });
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let (host, outcome) = run_mode(out, &mut sys, &spec, Mode::Morpheus);
            if let Some(o) = outcome {
                out.render(&format!("{:?}\n", o.report));
                out.op(&format!("probe pagerank {bytes}"), Vec::new());
                best = best.min(host);
            }
        }
        ns_per_byte.push(best * 1e9 / data.len() as f64);
    }
    out.set("storage_app.ns_per_byte_2mb", ns_per_byte[0]);
    out.set("storage_app.ns_per_byte_16mb", ns_per_byte[1]);
    out.set("storage_app.scaling", ns_per_byte[1] / ns_per_byte[0]);

    let mut speedups = Vec::new();
    for b in &benches {
        let (mut sys, _) = stage(out, &b.input_name(), || {
            b.generate(input_bytes(b), ctx.seed)
        });
        let spec = b.spec();
        let (_, conv) = run_mode(out, &mut sys, &spec, Mode::Conventional);
        let (_, morp) = run_mode(out, &mut sys, &spec, Mode::Morpheus);
        if let (Some(c), Some(m)) = (conv, morp) {
            out.render(&format!("{:?}\n{:?}\n", c.report, m.report));
            let same = c.objects.checksum() == m.objects.checksum();
            out.op(
                &format!("fig8 {}", b.name),
                if same {
                    Vec::new()
                } else {
                    vec!["modes disagree".into()]
                },
            );
            speedups.push(m.report.deser_speedup_over(&c.report));
        }
    }
    let mean = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    out.set("model.fig8_speedup", mean);
    out.set(
        "model.fig8_err_vs_paper",
        (mean - PAPER_FIG8_SPEEDUP).abs() / PAPER_FIG8_SPEEDUP,
    );
}
