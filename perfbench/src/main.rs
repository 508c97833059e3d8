//! End-to-end benchmark of the adcomp user paths.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs whole rounds of the same operations until `--seconds`
//! have passed, checks every output against an independent computation and
//! prints, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Untraced runs (`--trace 0`) print the end-to-end
//! metrics; traced runs (`--trace 1`) print the per-layer metrics, with the
//! spans written to `.bench_out/`. See README.md for what each metric means.

mod check;
mod layers;
mod link;
mod local;
mod nephele;
mod serve;
mod trace;

use check::Tally;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = [
    "local-roundtrip",
    "shared-link",
    "serve-mixed",
    "nephele-records",
];

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_MiB", "MiB"),
    ("write_MBps", "MB/s"),
    ("read_MBps", "MB/s"),
];

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Test seam: flip one byte of the first checked result, so the
    /// checks can be shown to catch a damaged output.
    pub damage: bool,
}

/// What a workload hands back to the driver loop.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// CRC-32 over the generated inputs: equal seeds give equal digests.
    pub inputs_crc: u32,
    pub rounds: u64,
    /// Metrics by name: value and unit.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Workload-specific figures printed on the summary line only.
    pub notes: Vec<(String, f64)>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), value));
    }
}

/// Runs whole rounds until `seconds` have passed (at least one round);
/// returns how many ran.
pub fn run_rounds(seconds: f64, mut round: impl FnMut(u64)) -> u64 {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut n = 0;
    loop {
        round(n);
        n += 1;
        if Instant::now() >= deadline {
            return n;
        }
    }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (`q` in 0..=1); 0 for no samples.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    adcomp::metrics::stats::quantile(&s, q)
}

pub fn mb_per_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs.max(1e-9)
}

/// Process high-water resident set size, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seed for one named input stream of a run.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^ (x >> 29)
}

/// `n` sizes following a Pareto law of shape `alpha` truncated to
/// `[min, max]`, taken at evenly spaced quantiles: every seed gets the same
/// multiset of sizes, so heavy-tailed inputs do not make the work per run
/// depend on the seed. Callers shuffle them with the seed.
pub fn heavy_tailed_sizes(n: usize, min: usize, max: usize, alpha: f64) -> Vec<usize> {
    let tail = (min as f64 / max as f64).powf(alpha);
    (0..n)
        .map(|i| {
            let u = (i as f64 + 0.5) / n as f64;
            let x = min as f64 / (1.0 - u * (1.0 - tail)).powf(1.0 / alpha);
            (x as usize).clamp(min, max)
        })
        .collect()
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut adcomp::corpus::Prng) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<(String, RunConfig)> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        traced: false,
        damage: false,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => workload = Some(args.next()?),
            "--seed" => cfg.seed = args.next()?.parse().ok()?,
            "--seconds" => cfg.seconds = args.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                cfg.traced = match args.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--damage" => cfg.damage = true,
            _ => return None,
        }
    }
    let w = workload?;
    WORKLOADS.contains(&w.as_str()).then_some((w, cfg))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let Some((workload, cfg)) = parse_args() else {
        return usage();
    };
    let mut out = match workload.as_str() {
        "local-roundtrip" => local::run(&cfg),
        "shared-link" => link::run(&cfg),
        "serve-mixed" => serve::run(&cfg),
        _ => nephele::run(&cfg),
    };
    let selected: Vec<(&str, &str)> = if cfg.traced {
        layers::PER_LAYER.to_vec()
    } else {
        out.put("peak_rss_MiB", peak_rss_mib(), "MiB");
        END_TO_END.to_vec()
    };
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|(k, v)| format!("{k}={v:.4}"))
        .collect();
    println!(
        "# perfbench workload={workload} seed={} trace={} rounds={} inputs_crc32={:08x} {}",
        cfg.seed,
        u8::from(cfg.traced),
        out.rounds,
        out.inputs_crc,
        notes.join(" ")
    );
    let metrics: Vec<String> = selected
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(*name).map_or(0.0, |m| m.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    let correct = out.tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[5.0, 1.0], 1.0), 5.0);
    }

    #[test]
    fn heavy_tailed_sizes_stay_in_range_and_skew() {
        let s = heavy_tailed_sizes(1000, 100, 100_000, 1.2);
        assert!(s.iter().all(|&x| (100..=100_000).contains(&x)));
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        let mean = s.iter().sum::<usize>() as f64 / s.len() as f64;
        assert!(mean > 2.0 * s[500] as f64, "mean {mean} median {}", s[500]);
    }

    #[test]
    fn derived_seeds_differ_per_stream_and_repeat() {
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
    }
}
