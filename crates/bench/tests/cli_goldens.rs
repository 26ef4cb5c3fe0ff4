//! CLI goldens: the serving binaries' stdout and side files, byte for
//! byte, against output captured from the build that still had a
//! separate single-SSD path beside the fleet. Every serving cell now runs
//! through `Fleet::serve`, so these pin that a solo SSD, a one-device
//! fleet with a kill schedule, and an N-device fleet all render exactly
//! as they did.
//!
//! The test only compares. A golden changes only with an intended output
//! change: run the case's command (binary plus `args`, in an empty
//! directory) and write its stdout to `tests/goldens/<name>.txt` and its
//! side file to `tests/goldens/<name>.<ext>`, and name the change in the
//! commit that makes it.

use std::path::{Path, PathBuf};
use std::process::Command;

/// One golden case: the binary, its arguments, and the side file it
/// writes (relative to its working directory), if any.
struct Case {
    name: &'static str,
    bin: &'static str,
    args: &'static [&'static str],
    side_file: Option<&'static str>,
}

const CASES: &[Case] = &[
    Case {
        name: "serve_mode_all",
        bin: env!("CARGO_BIN_EXE_serve"),
        args: &["--mode", "all", "--duration", "0.02"],
        side_file: None,
    },
    Case {
        name: "serve_cache_csv",
        bin: env!("CARGO_BIN_EXE_serve"),
        args: &[
            "--mode",
            "morpheus",
            "--rps",
            "500,2000",
            "--duration",
            "0.02",
            "--skew",
            "1.1",
            "--cache-mb",
            "1",
            "--cache-host-mb",
            "1",
            "--csv",
        ],
        side_file: None,
    },
    // A one-device fleet with a (never-firing) kill prints fleet rows, and
    // its telemetry must print once, labelled with the device, even
    // though the aggregate of one report is that report.
    Case {
        name: "serve_one_device_kill_telemetry",
        bin: env!("CARGO_BIN_EXE_serve"),
        args: &[
            "--mode",
            "morpheus",
            "--rps",
            "4000",
            "--duration",
            "0.02",
            "--devices",
            "1",
            "--kill-device",
            "0@0.02",
            "--telemetry-window",
            "5ms",
            "--telemetry-out",
            "telemetry.csv",
        ],
        side_file: Some("telemetry.csv"),
    },
    Case {
        name: "serve_rolling_update_heal",
        bin: env!("CARGO_BIN_EXE_serve"),
        args: &[
            "--mode",
            "morpheus",
            "--rps",
            "4000",
            "--duration",
            "0.02",
            "--devices",
            "3",
            "--rolling-update",
            "0.005",
            "--heal",
        ],
        side_file: None,
    },
    Case {
        name: "telemetry_text",
        bin: env!("CARGO_BIN_EXE_telemetry"),
        args: &["--duration", "0.02"],
        side_file: None,
    },
    Case {
        name: "telemetry_prom",
        bin: env!("CARGO_BIN_EXE_telemetry"),
        args: &["--duration", "0.02", "--format", "prom"],
        side_file: None,
    },
    Case {
        name: "telemetry_fleet_csv",
        bin: env!("CARGO_BIN_EXE_telemetry"),
        args: &["--duration", "0.02", "--devices", "3", "--format", "csv"],
        side_file: None,
    },
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

/// Compares `actual` with the golden file `name`.
fn check(name: &str, actual: &[u8]) {
    let path = golden_dir().join(name);
    let want = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        actual == want.as_slice(),
        "{name} differs from its golden\n--- golden\n{}\n--- actual\n{}",
        String::from_utf8_lossy(&want),
        String::from_utf8_lossy(actual)
    );
}

#[test]
fn serving_binaries_match_their_goldens() {
    for case in CASES {
        // Each case runs in its own directory so side-file paths (echoed
        // on stdout) are relative and stable.
        let dir = std::env::temp_dir().join(format!(
            "morpheus-golden-{}-{}",
            std::process::id(),
            case.name
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let out = Command::new(case.bin)
            .args(case.args)
            .current_dir(&dir)
            .env_remove("MORPHEUS_JOBS")
            .output()
            .expect("launch binary");
        assert!(
            out.status.success(),
            "{}: exit {:?}, stderr: {}",
            case.name,
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        check(&format!("{}.txt", case.name), &out.stdout);
        if let Some(file) = case.side_file {
            let ext = Path::new(file).extension().expect("side file extension");
            let bytes = std::fs::read(dir.join(file)).expect("side file written");
            check(&format!("{}.{}", case.name, ext.to_string_lossy()), &bytes);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
