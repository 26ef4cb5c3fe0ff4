//! Layer probes: single-layer costs measured around one public call each,
//! over the workload's own inputs or key stream.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use morpheus::{AppSpec, CacheConfig, ObjectCache};
use morpheus_format::{parse_buffer, Schema};

/// Minimum host time a probe loops for, so short inputs still give a
/// readable rate.
const MIN_PROBE_S: f64 = 0.25;

/// `format.parse_mb_per_s`: `parse_buffer` throughput over the inputs,
/// repeated whole until the probe has run for at least [`MIN_PROBE_S`].
pub fn parse_probe(out: &mut crate::Out, inputs: &[(&[u8], Schema)]) {
    let (mut bytes, mut secs) = (0u64, 0.0f64);
    while secs < MIN_PROBE_S {
        for (data, schema) in inputs {
            let t = Instant::now();
            let parsed = black_box(parse_buffer(black_box(data), schema));
            secs += t.elapsed().as_secs_f64();
            bytes += data.len() as u64;
            if let Err(e) = parsed {
                out.op("parse_buffer", vec![e.to_string()]);
                return;
            }
        }
    }
    out.set("format.parse_mb_per_s", bytes as f64 / 1e6 / secs);
}

/// `cache.lookup_ns`: host nanoseconds per `ObjectCache::lookup` (plus the
/// `admit` a miss triggers) replaying `keys` — indices into `apps` — over
/// the apps' parsed inputs through a cache of shape `cfg`, until the probe
/// has run for at least [`MIN_PROBE_S`].
pub fn cache_probe(
    out: &mut crate::Out,
    cfg: CacheConfig,
    apps: &[AppSpec],
    inputs: &[Vec<u8>],
    keys: &[usize],
) {
    let mut objects = Vec::new();
    for (spec, data) in apps.iter().zip(inputs) {
        match parse_buffer(data, &spec.schema) {
            Ok((o, _)) => objects.push(Arc::new(o)),
            Err(e) => {
                out.op("parse_buffer", vec![e.to_string()]);
                return;
            }
        }
    }
    let (mut ops, mut secs) = (0u64, 0.0f64);
    while secs < MIN_PROBE_S {
        let mut cache = ObjectCache::new(cfg);
        let t = Instant::now();
        for &k in keys {
            let (app, file) = (&apps[k].name, &apps[k].input);
            if black_box(cache.lookup(app, file, 0)).is_none() {
                cache.admit(app, file, 0, Arc::clone(&objects[k]));
            }
        }
        secs += t.elapsed().as_secs_f64();
        ops += keys.len() as u64;
        let s = cache.stats();
        if s.hits + s.misses != keys.len() as u64 {
            out.op(
                "cache replay",
                vec![format!(
                    "hits {} + misses {} != lookups {}",
                    s.hits,
                    s.misses,
                    keys.len()
                )],
            );
            return;
        }
    }
    out.set("cache.lookup_ns", secs * 1e9 / ops as f64);
}
