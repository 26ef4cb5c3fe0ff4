//! Fault injection end to end: whatever the plan throws at the system,
//! every run either produces objects bit-identical to a fault-free run or
//! fails cleanly with a typed error — and the same plan always injects the
//! same faults at the same simulated times.

use morpheus::{AppSpec, Mode, RunError, ServeConfig, ServePolicy, System, SystemParams};
use morpheus_format::{FieldKind, Schema, TextWriter};
use morpheus_simcore::{FaultPlan, TraceEventKind, TraceLayer, Tracer};
use proptest::prelude::*;

fn edge_schema() -> Schema {
    Schema::new(vec![FieldKind::U32, FieldKind::U32])
}

fn edge_text(edges: u32) -> Vec<u8> {
    let mut w = TextWriter::new();
    for i in 0..edges {
        w.write_u64(u64::from(i) * 7 % 997);
        w.sep();
        w.write_u64(u64::from(i) * 13 % 997);
        w.newline();
    }
    w.into_bytes()
}

fn staged_system(edges: u32) -> (System, AppSpec) {
    let mut sys = System::new(SystemParams::paper_testbed());
    sys.create_input_file("edges.txt", &edge_text(edges))
        .unwrap();
    let spec = AppSpec::cpu_app("faulty", "edges.txt", edge_schema(), 2, 50.0);
    (sys, spec)
}

/// A guaranteed MINIT-phase core crash degrades gracefully: the run falls
/// back to host deserialization, produces objects bit-identical to a
/// fault-free conventional run, and both the fault and the fallback are
/// visible in the counters and the trace.
#[test]
fn core_crash_falls_back_to_bit_identical_objects() {
    let (mut clean, spec) = staged_system(400);
    let reference = clean.run(&spec, Mode::Conventional).unwrap();

    let (mut sys, spec) = staged_system(400);
    sys.set_tracer(Tracer::enabled());
    sys.set_fault_plan(FaultPlan::parse("seed=7,crash=1").unwrap());
    let out = sys.run(&spec, Mode::Morpheus).unwrap();

    assert_eq!(out.objects, reference.objects);
    assert_eq!(out.report.checksum, reference.report.checksum);
    assert_eq!(out.report.faults.host_fallbacks, 1);
    assert!(out.report.faults.core_crashes >= 1);
    assert_eq!(
        sys.last_fallback_cause(),
        Some("embedded core crashed during MINIT")
    );

    let log = sys.tracer().take();
    let instant = |name: &str| {
        log.events
            .iter()
            .any(|e| e.kind == TraceEventKind::Instant && e.name == name)
    };
    assert!(instant("core-crash"), "crash must be traced");
    assert!(instant("host-fallback"), "fallback must be traced");
}

/// Solo and serve share one fault guard: under a certain crash both
/// degrade at MINIT and report the same rendered cause.
#[test]
fn serve_and_solo_fall_back_with_the_same_cause() {
    let (mut sys, spec) = staged_system(400);
    sys.set_fault_plan(FaultPlan::parse("seed=7,crash=1").unwrap());
    sys.run(&spec, Mode::Morpheus).unwrap();
    let solo = sys.last_fallback_cause().map(str::to_owned);
    assert_eq!(solo.as_deref(), Some("embedded core crashed during MINIT"));

    let mut cfg = ServeConfig::new(2000.0, 0.01);
    cfg.policy = ServePolicy::HostFallback;
    let rep = sys.serve(std::slice::from_ref(&spec), &cfg).unwrap();
    assert!(rep.fault_redispatches > 0, "every served request crashes");
    assert_eq!(sys.last_fallback_cause(), solo.as_deref());
}

/// Guaranteed command loss exhausts the reissue budget on the conventional
/// path (which has nothing to fall back to) as a clean typed failure, with
/// every timeout detection pinned at its closed-form simulated time:
/// `detect_k = (k+1)·W + (2^k - 1)·B` for window `W` and base backoff `B`.
#[test]
fn timeout_exhaustion_is_clean_and_backoff_times_are_exact() {
    let (mut sys, spec) = staged_system(120);
    sys.set_tracer(Tracer::enabled());
    let plan = FaultPlan::parse("timeout=1").unwrap();
    sys.set_fault_plan(plan);

    match sys.run(&spec, Mode::Conventional) {
        Err(RunError::CommandTimeout { attempts }) => {
            assert_eq!(attempts, plan.nvme_max_retries + 1);
        }
        other => panic!("expected CommandTimeout, got {other:?}"),
    }
    assert_eq!(
        sys.fault_counters().nvme_timeouts,
        u64::from(plan.nvme_max_retries) + 1
    );
    assert_eq!(
        sys.fault_counters().nvme_retries,
        u64::from(plan.nvme_max_retries)
    );

    let log = sys.tracer().take();
    let observed: Vec<u64> = log
        .events
        .iter()
        .filter(|e| e.layer == TraceLayer::Nvme && e.name == "nvme-timeout")
        .map(|e| e.start_ns)
        .collect();
    let (w, b) = (plan.nvme_timeout_ns, plan.nvme_backoff_ns);
    let expected: Vec<u64> = (0..=plan.nvme_max_retries)
        .map(|k| u64::from(k + 1) * w + ((1u64 << k) - 1) * b)
        .collect();
    assert_eq!(observed, expected);
}

/// The determinism contract: the same plan on the same input produces the
/// same faults, the same recovery, and field-for-field identical reports,
/// run after run.
#[test]
fn same_plan_is_reproducible_run_to_run() {
    let (mut sys, spec) = staged_system(600);
    sys.set_fault_plan(
        FaultPlan::parse("seed=11,flash-corr=0.2,flash-uncorr=0.01,timeout=0.1,stall=0.2,pcie=0.3")
            .unwrap(),
    );
    let a = sys.run(&spec, Mode::Morpheus).unwrap();
    let b = sys.run(&spec, Mode::Morpheus).unwrap();
    // RunReport has no PartialEq; its Debug form prints every field, so
    // equal strings mean field-for-field equality (faults included).
    assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
    assert_eq!(a.objects, b.objects);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the plan, a run either yields objects bit-identical to the
    /// fault-free run or fails with a clean typed error — never silently
    /// wrong data.
    #[test]
    fn any_fault_plan_preserves_object_integrity(
        seed in any::<u64>(),
        flash_corr in 0.0f64..1.0,
        flash_uncorr in 0.0f64..0.3,
        timeout in 0.0f64..0.4,
        stall in 0.0f64..1.0,
        crash in 0.0f64..1.0,
        pcie in 0.0f64..1.0,
        mode_morpheus in any::<bool>(),
    ) {
        let (mut clean, spec) = staged_system(250);
        let reference = clean.run(&spec, Mode::Conventional).unwrap();

        let mut plan = FaultPlan::none();
        plan.seed = seed;
        plan.flash_correctable = flash_corr;
        plan.flash_uncorrectable = flash_uncorr;
        plan.nvme_timeout = timeout;
        plan.core_stall = stall;
        plan.core_crash = crash;
        plan.pcie_degrade = pcie;

        let (mut sys, spec) = staged_system(250);
        sys.set_fault_plan(plan);
        let mode = if mode_morpheus { Mode::Morpheus } else { Mode::Conventional };
        match sys.run(&spec, mode) {
            Ok(out) => {
                prop_assert_eq!(&out.objects, &reference.objects);
                prop_assert_eq!(out.report.checksum, reference.report.checksum);
            }
            // Clean failure (reissue budget spent, media failure with no
            // fallback left) is acceptable; corruption is not.
            Err(e) => {
                let _ = morpheus_simcore::render_error_chain(&e);
            }
        }
    }
}
