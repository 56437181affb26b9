//! **Streaming pipeline** — constant-memory watermark stamping over the
//! unified `LayerStore` abstraction.
//!
//! Compares the buffered write path (clone the model, insert the
//! watermark in place, `encode_model` to a resident artifact buffer)
//! with the streaming pipeline
//! ([`emmark_core::watermark::stream_watermark`] via
//! [`OwnerSecrets::watermark_into`]): `score → insert → encode` with
//! one layer resident at a time, records flowing straight to the
//! output. Both paths write to `io::sink()` so the measurement isolates
//! pipeline memory from disk noise.
//!
//! PR 7 also measures the pipeline against its own past: the serial
//! scalar-scoring baseline ([`stream_watermark_reference`], the exact
//! pre-kernel pipeline) versus the current chunked-kernel,
//! load/compute-overlapped [`stream_watermark`].
//!
//! Acceptance gates, pinned on the largest Sim-OPT grid point
//! (sim-opt-30b, AWQ INT4):
//!
//! * **byte identity** — the streamed artifact equals the buffered one
//!   *and* the serial scalar baseline's;
//! * **peak memory** — the streaming path's peak heap delta is at
//!   least 4x smaller than buffered (tracking allocator), and no
//!   larger than the serial baseline's (overlap must not cost memory);
//! * **throughput** — the streaming path is no slower than the
//!   buffered path (5% tolerance for timer noise), and at least 1.5x
//!   the end-to-end stamp throughput of the pre-kernel baseline.

use criterion::Criterion;
use emmark_bench::alloc::{self, TrackingAllocator};
use emmark_bench::{awq_int4, prepare, print_header};
use emmark_core::deploy::encode_model;
use emmark_core::watermark::{stream_watermark_reference, OwnerSecrets, WatermarkConfig};
use emmark_core::ArtifactSink;
use emmark_nanolm::families::{sim_opt_grid, TrainEffort};
use std::io::Write;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

const REPS: usize = 5;

/// Runs `f` `REPS` times, returning (min wall time, max peak heap
/// delta) across the repetitions.
fn measure(mut f: impl FnMut()) -> (Duration, usize) {
    let mut best_time = Duration::MAX;
    let mut worst_peak = 0usize;
    for _ in 0..REPS {
        let baseline = alloc::current_bytes();
        alloc::reset_peak();
        let start = Instant::now();
        f();
        best_time = best_time.min(start.elapsed());
        worst_peak = worst_peak.max(alloc::peak_bytes().saturating_sub(baseline));
    }
    (best_time, worst_peak)
}

fn main() {
    print_header(
        "STREAMING",
        "constant-memory stamp pipeline vs the buffered write path",
    );
    let spec = sim_opt_grid().into_iter().last().expect("grid non-empty"); // sim-opt-30b
    println!("target: {} (largest grid model), AWQ INT4", spec.name());
    let prepared = prepare(&spec, TrainEffort::bench_from_env());
    let quantized = awq_int4(&prepared);
    let cfg = WatermarkConfig {
        bits_per_layer: 8,
        pool_ratio: 20,
        ..Default::default()
    };
    let secrets = OwnerSecrets::new(quantized, prepared.stats.clone(), cfg, 0x57AB1E);

    // Byte identity first: the two paths must produce the same artifact.
    let buffered_bytes = {
        let deployed = secrets.watermark_for_deployment().expect("insert");
        encode_model(&deployed).to_vec()
    };
    let mut streamed_bytes = Vec::with_capacity(buffered_bytes.len());
    secrets
        .watermark_into(&mut streamed_bytes)
        .expect("streaming stamp");
    assert_eq!(
        streamed_bytes, buffered_bytes,
        "streaming pipeline must be byte-identical to the buffered path"
    );
    // The pre-kernel serial baseline produces the same bytes: neither
    // the chunked kernels nor the load/compute overlap may change
    // selection or output.
    let mut reference_bytes = Vec::with_capacity(buffered_bytes.len());
    stream_watermark_reference(
        &secrets.original,
        &secrets.stats,
        &secrets.signature,
        &secrets.config,
        &mut ArtifactSink::new(&mut reference_bytes),
    )
    .expect("reference stamp");
    assert_eq!(
        reference_bytes, buffered_bytes,
        "serial scalar baseline must be byte-identical to the buffered path"
    );
    let artifact_len = buffered_bytes.len();
    drop(buffered_bytes);
    drop(streamed_bytes);
    drop(reference_bytes);

    let (buffered_time, buffered_peak) = measure(|| {
        let deployed = secrets.watermark_for_deployment().expect("insert");
        let bytes = encode_model(&deployed);
        std::io::sink().write_all(&bytes).expect("sink");
    });
    let (streaming_time, streaming_peak) = measure(|| {
        secrets.watermark_into(std::io::sink()).expect("stream");
    });
    let (reference_time, reference_peak) = measure(|| {
        stream_watermark_reference(
            &secrets.original,
            &secrets.stats,
            &secrets.signature,
            &secrets.config,
            &mut ArtifactSink::new(std::io::sink()),
        )
        .expect("reference stamp");
    });

    let mem_ratio = buffered_peak as f64 / streaming_peak.max(1) as f64;
    let speed_ratio = buffered_time.as_secs_f64() / streaming_time.as_secs_f64();
    let stamp_ratio = reference_time.as_secs_f64() / streaming_time.as_secs_f64();
    println!(
        "\nartifact: {} ({} layers, {} watermark bits)",
        alloc::fmt_bytes(artifact_len),
        secrets.original.layer_count(),
        secrets.signature.len()
    );
    println!("{:<44} {:>12} {:>14}", "path", "wall time", "peak heap Δ");
    println!(
        "{:<44} {:>9.1} ms {:>14}",
        "buffered (clone + insert + encode_model)",
        buffered_time.as_secs_f64() * 1e3,
        alloc::fmt_bytes(buffered_peak)
    );
    println!(
        "{:<44} {:>9.1} ms {:>14}",
        "serial scalar baseline (pre-kernel pipeline)",
        reference_time.as_secs_f64() * 1e3,
        alloc::fmt_bytes(reference_peak)
    );
    println!(
        "{:<44} {:>9.1} ms {:>14}",
        "streaming (kernels + prefetched sweep)",
        streaming_time.as_secs_f64() * 1e3,
        alloc::fmt_bytes(streaming_peak)
    );
    println!(
        "\npeak-memory reduction {mem_ratio:.1}x, throughput {speed_ratio:.2}x buffered, \
         {stamp_ratio:.2}x the pre-kernel stamp (byte-identical output)"
    );

    assert!(
        mem_ratio >= 4.0,
        "streaming pipeline must cut peak memory at least 4x on the largest grid point \
         (got {mem_ratio:.2}x: buffered {buffered_peak} B, streaming {streaming_peak} B)"
    );
    assert!(
        streaming_time.as_secs_f64() <= buffered_time.as_secs_f64() * 1.05,
        "streaming pipeline must hold throughput parity (streaming {:.1} ms vs buffered {:.1} ms)",
        streaming_time.as_secs_f64() * 1e3,
        buffered_time.as_secs_f64() * 1e3
    );
    assert!(
        stamp_ratio >= 1.5,
        "kernels + overlap must deliver at least 1.5x end-to-end stamp throughput over the \
         pre-kernel baseline (got {stamp_ratio:.2}x: baseline {:.1} ms, streaming {:.1} ms)",
        reference_time.as_secs_f64() * 1e3,
        streaming_time.as_secs_f64() * 1e3
    );
    assert!(
        streaming_peak <= reference_peak.max(1) * 11 / 10,
        "load/compute overlap must not grow peak memory beyond the serial pipeline's \
         (streaming {streaming_peak} B, serial {reference_peak} B)"
    );

    let mut criterion = Criterion::default().sample_size(10).configure_from_args();
    criterion.bench_function("streaming/buffered_stamp_30b", |b| {
        b.iter(|| {
            let deployed = secrets.watermark_for_deployment().expect("insert");
            encode_model(&deployed)
        })
    });
    criterion.bench_function("streaming/stream_stamp_30b", |b| {
        b.iter(|| secrets.watermark_into(std::io::sink()).expect("stream"))
    });
    criterion.final_summary();
}
