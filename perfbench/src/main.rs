//! `emmark-perfbench`: end-to-end and per-layer benchmark of the emmark
//! stamp, fleet and serve paths.
//!
//! ```text
//! perfbench --workload stamp|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a checkout. Fixtures are generated from the
//! seed under `.bench_work/`, which is removed again on exit. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; see `perfbench/README.md`.

mod fixtures;
mod fleet;
mod proc;
mod serve;
mod stamp;
mod stats;
mod trace;

use emmark_bench::alloc::TrackingAllocator;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// End-to-end metrics, printed by every untraced run. Their meaning per
/// workload is tabled in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rate_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vault.decode_ms", "ms"),
    ("store.load_ms", "ms"),
    ("scoring.locate_ms", "ms"),
    ("scoring.mcell_per_s", "Mcell/s"),
    ("watermark.insert_ms", "ms"),
    ("deploy.encode_ms", "ms"),
    ("watermark.stream_hidden_ms", "ms"),
    ("provision.family_build_ms", "ms"),
    ("deploy.splice_us", "us"),
    ("cli.artifact_write_ms", "ms"),
    ("registry.shard_index_ms", "ms"),
    ("registry.load_ms", "ms"),
    ("cli.artifact_read_ms", "ms"),
    ("cli.artifact_read_mib", "MiB"),
    ("fleet.family_build_ms", "ms"),
    ("fleet.verify_batch_ms", "ms"),
    ("deploy.sparse_open_us", "us"),
    ("registry.identify_us", "us"),
    ("cli.unattributed_provision_ms", "ms"),
    ("cli.unattributed_verify_ms", "ms"),
    ("cli.unattributed_identify_ms", "ms"),
    ("service.warm_verify_us", "us"),
    ("service.warm_identify_us", "us"),
    ("service.warm_provision_us", "us"),
    ("service.miss_ms", "ms"),
    ("service.cache_hit_share", "ratio"),
    ("service.evictions", "count"),
    ("service.codec_us", "us"),
    ("cli.socket_overhead_us", "us"),
];

/// What one run hands back: operations attempted and failed (a failed
/// correctness check counts as a failed operation) and its metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts one operation; prints the reason when its check failed.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        /// Failures printed in full; later ones are only counted.
        const SHOWN: u64 = 10;
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            if self.failed <= SHOWN {
                eprintln!("FAILED {what}: {reason}");
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// The command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for this run's fixtures and outputs.
    pub work: PathBuf,
}

impl Ctx {
    pub fn run_for(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Runs `setup` `SETUPS` times, keeping the last result, and returns it
/// with the median set-up time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    const SETUPS: usize = 3;
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    println!(
        "setup: {SETUPS} set-ups, median {:.3} s ({times:.3?})",
        stats::median(&times)
    );
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok((
        workload.ok_or("missing --workload")?,
        seed.ok_or("missing --seed")?,
        seconds.ok_or("missing --seconds")?,
        trace.unwrap_or(false),
    ))
}

/// Renders the result line. Every metric of `spec` must be present
/// exactly once.
pub fn result_json(outcome: &Outcome, spec: &[(&str, &str)]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(spec.len());
    for (name, unit) in spec {
        let values: Vec<f64> = outcome
            .metrics
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .collect();
        match values.as_slice() {
            [v] if v.is_finite() => parts.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )),
            [v] => return Err(format!("metric {name} is not finite ({v})")),
            _ => return Err(format!("metric {name} reported {} times", values.len())),
        }
    }
    if outcome.metrics.len() != spec.len() {
        return Err("a metric outside the benchmark's list was reported".into());
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        parts.join(", ")
    ))
}

fn run(workload: &str, trace: bool, ctx: &Ctx) -> Result<Outcome, String> {
    // The program under test is the checkout's own release CLI.
    let bin = proc::build_emmark()?;
    match (workload, trace) {
        ("stamp", false) => stamp::run(ctx),
        ("fleet", false) => fleet::run(ctx, &bin),
        (w @ ("stamp" | "fleet"), true) => trace::run(w, ctx, &bin),
        (other, _) => Err(format!("unknown workload `{other}` (stamp, fleet)")),
    }
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload stamp|fleet --seed N --seconds S --trace 0|1");
            return ExitCode::FAILURE;
        }
    };
    let work = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: creating {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed,
        seconds,
        work,
    };
    let result = run(&workload, trace, &ctx)
        .and_then(|outcome| result_json(&outcome, if trace { PER_LAYER } else { END_TO_END }));
    let _ = std::fs::remove_dir_all(&ctx.work);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `key` in BENCHMARK.json, in order.
    fn listed_names(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names =
            |spec: &[(&str, &str)]| spec.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(listed_names(&json, "end_to_end"), names(END_TO_END));
        assert_eq!(listed_names(&json, "per_layer"), names(PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} listed with unit {unit}"
            );
        }
    }

    #[test]
    fn result_line_requires_every_metric_once() {
        let spec = &[("a_ms", "ms"), ("b_s", "s")];
        let mut o = Outcome::default();
        o.check("op", Ok(()));
        o.metric("a_ms", 1.25);
        assert!(result_json(&o, spec).is_err(), "b_s missing");
        o.metric("b_s", 0.5);
        assert_eq!(
            result_json(&o, spec).unwrap(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        o.metric("b_s", 0.5);
        assert!(result_json(&o, spec).is_err(), "b_s twice");
    }
}
