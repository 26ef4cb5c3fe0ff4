//! The flag grammar the serving binaries (`serve`, `telemetry`, `faults`)
//! share, and the one recipe that stages their tenants on a fleet.
//!
//! Every serving cell runs through [`Fleet::serve`]; a solo SSD is a
//! one-device fleet. [`ServeArgs`] parses the shared flags, validates the
//! fleet once through [`FleetConfig::validate`], and builds the
//! [`FleetConfig`], [`CacheConfig`] and [`ServeConfig`] a cell needs. Each
//! binary parses only its own flags, through the callback it hands to
//! [`ServeArgs::parse`].

use std::slice::Iter;

use morpheus::{
    AppSpec, CacheConfig, CachePolicy, DeviceKill, Fleet, FleetConfig, HealPolicy, Mode,
    PlacementPolicy, RollingUpdate, ServeConfig, ServePolicy, SystemParams, TelemetryConfig,
};
use morpheus_format::{FieldKind, Schema, TextWriter};
use morpheus_simcore::{FaultPlan, SplitMix64};

use crate::Harness;

/// The value following `flag`, or the "requires a value" error.
///
/// # Errors
///
/// When the argument list ends at `flag`.
pub fn flag_value<'a>(flag: &str, it: &mut Iter<'a, String>) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} requires a value"))
}

/// Parses `flag`'s value as a number `>= 1`.
fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    flag: &str,
    it: &mut Iter<'_, String>,
) -> Result<T, String> {
    let v = flag_value(flag, it)?;
    let n: T = v
        .parse()
        .map_err(|_| format!("{flag} expects a positive number, got {v:?}"))?;
    if n < T::from(1u8) {
        return Err(format!("{flag} must be >= 1"));
    }
    Ok(n)
}

/// Parses one fleet flag (`--devices`, `--placement`, `--kill-device`,
/// `--rolling-update`, `--heal`) into `fleet`. `Ok(false)` when `flag`
/// is not one of them.
///
/// # Errors
///
/// A missing or malformed value.
pub fn accept_fleet_flag(
    fleet: &mut FleetConfig,
    flag: &str,
    it: &mut Iter<'_, String>,
) -> Result<bool, String> {
    match flag {
        "--devices" => fleet.devices = positive(flag, it)?,
        "--placement" => {
            let v = flag_value(flag, it)?;
            fleet.placement = PlacementPolicy::parse(v)
                .ok_or_else(|| format!("--placement expects rr|hash|capacity, got {v:?}"))?;
        }
        "--kill-device" => {
            let v = flag_value(flag, it)?;
            fleet
                .kills
                .push(DeviceKill::parse(v).map_err(|e| format!("--kill-device: {e}"))?);
        }
        "--rolling-update" => {
            let v = flag_value(flag, it)?;
            let s: f64 = v
                .parse()
                .map_err(|_| format!("--rolling-update expects seconds, got {v:?}"))?;
            if !s.is_finite() || s < 0.0 {
                return Err("--rolling-update must be finite and >= 0".into());
            }
            fleet.control.rolling = Some(RollingUpdate::starting_at(s));
        }
        "--heal" => fleet.control.heal = Some(HealPolicy::default()),
        _ => return Ok(false),
    }
    Ok(true)
}

/// Seeds the placement hash and checks the parsed fleet through
/// [`FleetConfig::validate`], the one kill-range check.
///
/// # Errors
///
/// A kill naming a device outside the fleet.
pub fn finish_fleet(fleet: &mut FleetConfig, seed: u64) -> Result<(), String> {
    fleet.seed = seed;
    fleet.validate().map_err(|e| format!("--kill-device: {e}"))
}

/// True when the fleet flags ask for more than a plain solo SSD: more than
/// one device, a kill schedule, or control-plane intent. Decides only
/// whether fleet rows and banners print; every cell runs on a fleet.
pub fn fleet_mode(fleet: &FleetConfig) -> bool {
    fleet.devices > 1 || !fleet.kills.is_empty() || fleet.control.is_active()
}

/// The banner suffix naming the kill schedule and control plane, e.g.
/// `, kill dev1@0.010s, rolling-update @0.005s, heal`.
pub fn schedule_banner(fleet: &FleetConfig) -> String {
    let mut s = String::new();
    for k in &fleet.kills {
        s.push_str(&format!(
            ", kill dev{}@{:.3}s",
            k.device,
            k.at.as_secs_f64()
        ));
    }
    if let Some(r) = &fleet.control.rolling {
        s.push_str(&format!(", rolling-update @{:.3}s", r.start.as_secs_f64()));
    }
    if fleet.control.heal.is_some() {
        s.push_str(", heal");
    }
    s
}

/// Builds a fleet of shape `cfg` and stages `apps` tenant inputs on it
/// (~`bytes` each of two-column text edges, replicated to every device),
/// then arms `faults` fleet-wide. Input files are always written intact;
/// faults perturb the measured runs alone.
pub fn stage_tenants(
    cfg: FleetConfig,
    apps: usize,
    bytes: u64,
    seed: u64,
    faults: Option<FaultPlan>,
) -> (Fleet, Vec<AppSpec>) {
    let mut fleet = Fleet::new(SystemParams::paper_testbed(), cfg);
    let schema = Schema::new(vec![FieldKind::U32, FieldKind::U32]);
    let mut specs = Vec::new();
    for i in 0..apps {
        let name = format!("svc{i}");
        let file = format!("{name}.txt");
        let mut rng = SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
        let mut w = TextWriter::new();
        // ~12 bytes per "xxxxx xxxxx\n" row.
        for _ in 0..(bytes / 12).max(1) {
            w.write_u64(rng.next_below(100_000));
            w.sep();
            w.write_u64(rng.next_below(100_000));
            w.newline();
        }
        fleet
            .create_input_file(&file, &w.into_bytes())
            .expect("staging tenant input");
        specs.push(AppSpec::cpu_app(&name, &file, schema.clone(), 1, 50.0));
    }
    if let Some(plan) = faults {
        fleet.set_fault_plan(plan);
    }
    (fleet, specs)
}

/// The serving flags `serve` and `telemetry` share, parsed and validated.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// `--duration/--depth/--batch/--sq-depth/--policy/--skew` over the
    /// [`ServeConfig::new`] defaults, seeded from `--seed`; each cell sets
    /// its own rate, mode and telemetry (see [`ServeArgs::serve_config`]).
    pub base: ServeConfig,
    /// `--cache-mb/--cache-host-mb/--cache-policy`, seeded from `--seed`
    /// (inert when both capacities are zero — exactly cache-off).
    pub cache: CacheConfig,
    /// Tenant count (`--apps`).
    pub apps: usize,
    /// Approximate input bytes per tenant (`--bytes`).
    pub bytes: u64,
    /// Fleet shape, kill schedule and control plane (see
    /// [`accept_fleet_flag`]), seeded from `--seed`.
    pub fleet: FleetConfig,
    /// `--seed` and `--faults` (plus `--jobs` where a binary takes it).
    pub harness: Harness,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            base: ServeConfig::new(1.0, 0.05),
            cache: CacheConfig::new(0),
            apps: 3,
            bytes: 64 * 1024,
            fleet: FleetConfig::new(1),
            harness: Harness::default(),
        }
    }
}

impl ServeArgs {
    /// Parses `args`. Flags of the shared grammar land here; every other
    /// flag goes to `own`, which parses the binary's own flags (it may
    /// consume values from the iterator) and rejects the rest. The fleet
    /// is validated once, after the last flag.
    ///
    /// # Errors
    ///
    /// The first malformed value, unknown flag, or invalid fleet.
    pub fn parse<F>(args: &[String], mut own: F) -> Result<ServeArgs, String>
    where
        F: FnMut(&mut ServeArgs, &str, &mut Iter<'_, String>) -> Result<(), String>,
    {
        let mut a = ServeArgs::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !a.accept(flag, &mut it)? {
                own(&mut a, flag, &mut it)?;
            }
        }
        a.base.seed = a.harness.seed;
        a.cache.seed = a.harness.seed;
        finish_fleet(&mut a.fleet, a.harness.seed)?;
        Ok(a)
    }

    /// Parses one shared flag; `Ok(false)` when `flag` is not one.
    fn accept(&mut self, flag: &str, it: &mut Iter<'_, String>) -> Result<bool, String> {
        match flag {
            "--duration" => {
                let v = flag_value(flag, it)?;
                let d: f64 = v
                    .parse()
                    .map_err(|_| format!("--duration expects seconds, got {v:?}"))?;
                if !d.is_finite() || d <= 0.0 {
                    return Err("--duration must be positive".into());
                }
                self.base.duration_s = d;
            }
            "--depth" => self.base.depth = positive(flag, it)?,
            "--batch" => self.base.batch_max = positive(flag, it)?,
            "--sq-depth" => self.base.sq_depth = positive(flag, it)?,
            "--apps" => self.apps = positive(flag, it)?,
            "--bytes" => self.bytes = positive(flag, it)?,
            "--policy" => {
                let v = flag_value(flag, it)?;
                self.base.policy = ServePolicy::parse(v)
                    .ok_or_else(|| format!("--policy expects shed|fallback, got {v:?}"))?;
            }
            "--skew" => {
                let v = flag_value(flag, it)?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--skew expects a number, got {v:?}"))?;
                if !s.is_finite() || s < 0.0 {
                    return Err("--skew must be finite and non-negative".into());
                }
                self.base.skew = s;
            }
            "--cache-mb" => {
                let v = flag_value(flag, it)?;
                let mb: u64 = v
                    .parse()
                    .map_err(|_| format!("--cache-mb expects a byte count in MB, got {v:?}"))?;
                self.cache.dram_bytes = mb << 20;
            }
            "--cache-host-mb" => {
                let v = flag_value(flag, it)?;
                let mb: u64 = v.parse().map_err(|_| {
                    format!("--cache-host-mb expects a byte count in MB, got {v:?}")
                })?;
                self.cache.host_bytes = mb << 20;
            }
            "--cache-policy" => {
                let v = flag_value(flag, it)?;
                self.cache.policy = CachePolicy::parse(v)
                    .ok_or_else(|| format!("--cache-policy expects tinylfu|lru, got {v:?}"))?;
            }
            // Validated by the harness grammar, so `--faults bogus` fails
            // exactly as in every figure binary.
            "--seed" | "--faults" => {
                self.harness.accept(flag, it).map_err(|e| e.0)?;
            }
            _ => return accept_fleet_flag(&mut self.fleet, flag, it),
        }
        Ok(true)
    }

    /// The serve configuration of one (mode, rps) cell.
    pub fn serve_config(
        &self,
        mode: Mode,
        rps: f64,
        telemetry: Option<TelemetryConfig>,
    ) -> ServeConfig {
        ServeConfig {
            rps,
            mode,
            telemetry,
            ..self.base.clone()
        }
    }

    /// A fresh fleet with the tenants staged, the fault plan armed and
    /// the object cache installed. Every cell builds its own, so a grid
    /// stays byte-identical across `--jobs` fan-outs.
    pub fn staged_fleet(&self) -> (Fleet, Vec<AppSpec>) {
        let (mut fleet, specs) = stage_tenants(
            self.fleet.clone(),
            self.apps,
            self.bytes,
            self.harness.seed,
            self.harness.faults,
        );
        fleet.set_object_cache(self.cache);
        (fleet, specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// The shared grammar alone: every binary-specific flag is unknown.
    fn parse(args: &[&str]) -> Result<ServeArgs, String> {
        ServeArgs::parse(&argv(args), |_, flag, _| {
            Err(format!("unknown flag {flag:?}"))
        })
    }

    #[test]
    fn defaults_are_a_cache_off_solo_ssd() {
        let a = parse(&[]).expect("valid");
        let b = &a.base;
        assert_eq!((b.depth, b.batch_max, b.sq_depth), (64, 8, 64));
        assert_eq!((a.apps, a.bytes, b.duration_s), (3, 64 * 1024, 0.05));
        assert_eq!(b.policy, ServePolicy::Shed);
        assert_eq!((b.skew, b.seed), (0.0, 42));
        assert_eq!((a.cache.policy, a.cache.seed), (CachePolicy::TinyLfu, 42));
        assert!(!a.cache.is_enabled(), "defaults are cache-off");
        assert_eq!(a.fleet.devices, 1);
        assert_eq!(a.fleet.placement, PlacementPolicy::HashByFile);
        assert!(a.fleet.kills.is_empty());
        assert!(!a.fleet.control.is_active());
        assert!(
            !fleet_mode(&a.fleet),
            "a plain solo SSD prints no fleet rows"
        );
    }

    #[test]
    fn full_grammar_builds_every_config() {
        let a = parse(&[
            "--duration",
            "0.1",
            "--depth",
            "16",
            "--batch",
            "4",
            "--sq-depth",
            "32",
            "--policy",
            "fallback",
            "--apps",
            "2",
            "--bytes",
            "4096",
            "--skew",
            "1.1",
            "--cache-mb",
            "256",
            "--cache-host-mb",
            "512",
            "--cache-policy",
            "lru",
            "--devices",
            "4",
            "--placement",
            "capacity",
            "--kill-device",
            "2@0.01",
            "--kill-device",
            "3@0.02",
            "--rolling-update",
            "0.002",
            "--heal",
            "--seed",
            "7",
            "--faults",
            "seed=9,crash=0.5",
        ])
        .expect("valid");
        let cc = a.cache;
        assert_eq!((cc.dram_bytes, cc.host_bytes), (256 << 20, 512 << 20));
        assert_eq!((cc.policy, cc.seed), (CachePolicy::Lru, 7));
        let sc = a.serve_config(Mode::Morpheus, 100.0, None);
        assert_eq!(
            (sc.rps, sc.duration_s, sc.seed, sc.skew),
            (100.0, 0.1, 7, 1.1)
        );
        assert_eq!((sc.depth, sc.batch_max, sc.sq_depth), (16, 4, 32));
        assert_eq!(sc.policy, ServePolicy::HostFallback);
        assert_eq!((a.apps, a.bytes), (2, 4096));
        assert_eq!(a.harness.faults.expect("plan").core_crash, 0.5);
        let fc = &a.fleet;
        assert_eq!((fc.devices, fc.kills.len(), fc.seed), (4, 2, 7));
        assert_eq!(fc.placement, PlacementPolicy::CapacityAware);
        assert_eq!(fc.kills[0].device, 2);
        assert!(fc.control.rolling.is_some() && fc.control.heal.is_some());
        assert_eq!(
            schedule_banner(fc),
            ", kill dev2@0.010s, kill dev3@0.020s, rolling-update @0.002s, heal"
        );
    }

    #[test]
    fn kills_and_control_alone_engage_the_fleet_rows() {
        for args in [
            vec!["--devices", "2"],
            vec!["--kill-device", "0@0.01"],
            vec!["--rolling-update", "0.01"],
            vec!["--heal"],
        ] {
            assert!(fleet_mode(&parse(&args).expect("valid").fleet), "{args:?}");
        }
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            vec!["--duration", "-1"],                          // negative
            vec!["--duration", "x"],                           // malformed
            vec!["--depth", "0"],                              // zero depth
            vec!["--batch", "x"],                              // malformed
            vec!["--sq-depth"],                                // missing value
            vec!["--policy", "drop"],                          // unknown policy
            vec!["--apps", "0"],                               // zero tenants
            vec!["--bytes", "0"],                              // zero bytes
            vec!["--skew"],                                    // missing value
            vec!["--skew", "-0.5"],                            // negative skew
            vec!["--skew", "inf"],                             // non-finite skew
            vec!["--skew", "hot"],                             // malformed skew
            vec!["--cache-mb", "many"],                        // malformed capacity
            vec!["--cache-mb", "-1"],                          // negative capacity
            vec!["--cache-host-mb", "x"],                      // malformed spill tier
            vec!["--cache-policy", "arc"],                     // unknown cache policy
            vec!["--cache-policy"],                            // missing value
            vec!["--seed", "-3"],                              // harness re-check
            vec!["--faults", "bogus"],                         // bad fault spec
            vec!["--devices", "0"],                            // zero devices
            vec!["--devices", "x"],                            // malformed
            vec!["--placement", "random"],                     // unknown policy
            vec!["--placement"],                               // missing value
            vec!["--kill-device", "2"],                        // missing @SECS
            vec!["--kill-device", "2@-1"],                     // negative time
            vec!["--kill-device", "1@0.01"],                   // outside a solo fleet
            vec!["--devices", "2", "--kill-device", "2@0.01"], // out of range
            vec!["--rolling-update"],                          // missing value
            vec!["--rolling-update", "-1"],                    // negative start
            vec!["--rolling-update", "inf"],                   // non-finite
            vec!["--rolling-update", "later"],                 // malformed
            vec!["--heal", "now"],                             // --heal takes no value
            vec!["--scale", "64"],                             // not a serving flag
            vec!["--jobs", "4"],                               // each binary opts in
        ] {
            assert!(parse(&bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn out_of_range_kill_names_the_device() {
        let err = parse(&["--devices", "4", "--kill-device", "9@0.1"]).unwrap_err();
        assert!(err.contains("device 9"), "{err}");
    }
}
