//! The `stamp` workload: seeded model families stamped disk→disk on the
//! streaming path `demo --max-resident-mb` uses, through the public
//! library functions (no CLI command stamps an existing model).

use crate::fixtures::{build_family, spec, Family, FamilySpec, Scheme};
use crate::stats::{median, percentile, Latency};
use crate::{timed_setup, Ctx, Outcome};
use emmark::core::deploy::SparseArtifact;
use emmark::core::store::{ArtifactLayerStore, ArtifactSink};
use emmark::core::watermark::stream_watermark;
use emmark_bench::alloc;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The families: OPT-style AWQ-INT4, LLaMA-style gated RTN-INT8, and a
/// wide OPT-style AWQ-INT4.
pub const SPECS: [FamilySpec; 3] = [
    spec("opt-d256", 256, 1024, false, Scheme::AwqInt4),
    spec("llama-d256", 256, 768, true, Scheme::RtnInt8),
    spec("opt-d512", 512, 2048, false, Scheme::AwqInt4),
];

/// Rounds measured at least, so the latency tail is always p90 with ten
/// rounds beyond it, also on a machine slower than the run time allows.
const MIN_ROUNDS: usize = 100;

pub fn setup(ctx: &Ctx) -> Result<Vec<Family>, String> {
    SPECS
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            build_family(
                spec,
                ctx.seed.wrapping_add(i as u64),
                &ctx.work.join(spec.label),
            )
            .map_err(|e| format!("building {}: {e}", spec.label))
        })
        .collect()
}

/// Opens `path` for writing without truncating it. Outputs are rewritten
/// in place at the same length: on a filesystem mounted with `discard`,
/// blocks freed by a truncation slow down the writes that follow.
pub fn overwrite(path: &Path) -> Result<File, String> {
    OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(|e| format!("opening {}: {e}", path.display()))
}

/// Where `family`'s stamped artifact is written.
pub fn out_path(family: &Family) -> PathBuf {
    family.original_path.with_file_name("stamped.emqm")
}

/// Stamps `family`'s original artifact from disk into `out`: layers are
/// loaded through the file-backed store and records written through the
/// artifact sink, one layer resident at a time.
pub fn stamp_once(family: &Family, out: &Path) -> Result<(), String> {
    let original = File::open(&family.original_path).map_err(|e| e.to_string())?;
    let store = ArtifactLayerStore::open(BufReader::new(original)).map_err(|e| e.to_string())?;
    let mut sink = ArtifactSink::new(BufWriter::new(overwrite(out)?));
    let s = &family.secrets;
    stream_watermark(&store, &s.stats, &s.signature, &s.config, &mut sink)
        .map_err(|e| e.to_string())?;
    sink.into_inner().flush().map_err(|e| e.to_string())
}

/// The stamped file equals the setup-time
/// `encode_model(watermark_for_deployment())` bytes.
pub fn check_bytes(family: &Family, out: &Path) -> Result<Vec<u8>, String> {
    let bytes = std::fs::read(out).map_err(|e| e.to_string())?;
    if bytes != family.deployed {
        return Err(format!(
            "{}: stamped bytes differ from the reference stamp",
            family.label
        ));
    }
    Ok(bytes)
}

/// The stamped file equals the reference stamp and carries the whole
/// signature.
pub fn check(family: &Family, out: &Path) -> Result<(), String> {
    let bytes = check_bytes(family, out)?;
    let sparse = SparseArtifact::open(&bytes).map_err(|e| e.to_string())?;
    let wer = family
        .secrets
        .verify(&sparse)
        .map_err(|e| e.to_string())?
        .wer();
    if wer != 100.0 {
        return Err(format!("{}: WER {wer}% after stamping", family.label));
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (families, setup_s) = timed_setup(|| setup(ctx))?;
    let mut outcome = Outcome::default();
    for family in &families {
        stamp_once(family, &out_path(family))?;
        outcome.check("warm-up stamp", check(family, &out_path(family)));
    }

    let mut round_rates = Vec::new();
    let mut round_peaks = Vec::new();
    let mut round_ms = Vec::new();
    let start = Instant::now();
    while start.elapsed() < ctx.run_for() || round_ms.len() < MIN_ROUNDS {
        let (mut cells, mut wall, mut peak) = (0u64, Duration::ZERO, 0usize);
        for family in &families {
            let baseline = alloc::current_bytes();
            alloc::reset_peak();
            let out = out_path(family);
            let t = Instant::now();
            let stamped = stamp_once(family, &out);
            let elapsed = t.elapsed();
            peak = peak.max(alloc::peak_bytes().saturating_sub(baseline));
            // The warm-up stamp verified these very bytes at 100% WER.
            outcome.check(
                &format!("stamp {}", family.label),
                stamped.and_then(|()| check_bytes(family, &out).map(drop)),
            );
            cells += family.cells;
            wall += elapsed;
        }
        round_rates.push(cells as f64 / wall.as_secs_f64());
        round_ms.push(wall.as_secs_f64() * 1e3);
        round_peaks.push(peak as f64 / (1024.0 * 1024.0));
    }

    let lat = Latency::of(&round_ms);
    let rate = median(&round_rates);
    let peak = median(&round_peaks);
    println!(
        "stamp: {} rounds over {} families ({} cells): stamp_mcell_per_s {:.1} (quartiles {:.1}..{:.1}), \
         stamp_peak_heap_mib {:.2} above baseline",
        round_rates.len(),
        families.len(),
        families.iter().map(|f| f.cells).sum::<u64>(),
        rate / 1e6,
        percentile(&round_rates, 25.0) / 1e6,
        percentile(&round_rates, 75.0) / 1e6,
        peak
    );
    println!(
        "stamp: round wall (all families stamped once) p50 {:.2} ms, p{} {:.2} ms (n={})",
        lat.p50, lat.tail_p, lat.tail, lat.n
    );
    outcome.metric("setup_s", setup_s);
    outcome.metric("rate_per_s", rate);
    outcome.metric("p50_ms", lat.p50);
    outcome.metric("tail_ms", lat.tail);
    outcome.metric("peak_mib", peak);
    Ok(outcome)
}
