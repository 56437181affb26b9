//! **Service throughput** — the `emmarkd` batched-verification daemon
//! against the per-request CLI cost model.
//!
//! The one-shot CLI pays the full cold-start tax on every invocation:
//! decode the owner vault, rebuild the score sweep and location set,
//! then extract. The daemon pays it once per model family and serves
//! every later request from the warm shared family through the frame
//! codec. This bench drives the same verification requests down both
//! paths, asserts the reports are bit-for-bit identical per request,
//! and gates the warm path at **≥ 10×** the per-request throughput.

use criterion::Criterion;
use emmark_bench::print_header;
use emmark_core::deploy::{encode_model, SparseArtifact};
use emmark_core::service::{
    decode_response, encode_request, Blob, ReportSummary, Request, Response, Service, ServiceConfig,
};
use emmark_core::vault::{decode_secrets, encode_secrets};
use emmark_core::watermark::{OwnerSecrets, WatermarkConfig};
use emmark_nanolm::config::ModelConfig;
use emmark_nanolm::TransformerModel;
use emmark_quant::awq::{awq, AwqConfig};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Instant;

const FAMILIES: usize = 2;
const REQUESTS: usize = 200;

struct Family {
    secrets_path: PathBuf,
    suspect_path: PathBuf,
    secrets_len: usize,
    suspect_len: usize,
}

fn build_family(seed: u64) -> Family {
    let mut cfg = ModelConfig::tiny_test();
    cfg.d_model = 128;
    cfg.d_ff = 384;
    cfg.init_seed = seed;
    let mut model = TransformerModel::new(cfg);
    let calib: Vec<Vec<u32>> = (0..8u32)
        .map(|s| (0..24u32).map(|i| (i * 7 + s * 5) % 31).collect())
        .collect();
    let stats = model.collect_activation_stats(&calib);
    let quantized = awq(&model, &stats, &AwqConfig::default());
    let wm_cfg = WatermarkConfig {
        bits_per_layer: 8,
        pool_ratio: 20,
        ..Default::default()
    };
    let secrets = OwnerSecrets::new(quantized, stats, wm_cfg, 0xF1EE7 ^ seed);
    let deployed = secrets.watermark_for_deployment().expect("stamp");
    let secrets_bytes = encode_secrets(&secrets).to_vec();
    let suspect_bytes = encode_model(&deployed).to_vec();
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let secrets_path = dir.join(format!("emmark-svcbench-{pid}-{seed}.emws"));
    let suspect_path = dir.join(format!("emmark-svcbench-{pid}-{seed}.emqm"));
    std::fs::write(&secrets_path, &secrets_bytes).expect("write vault");
    std::fs::write(&suspect_path, &suspect_bytes).expect("write artifact");
    Family {
        secrets_path,
        suspect_path,
        secrets_len: secrets_bytes.len(),
        suspect_len: suspect_bytes.len(),
    }
}

impl Family {
    fn verify_request(&self) -> Request {
        Request::Verify {
            secrets: Blob::Path(self.secrets_path.display().to_string()),
            suspect: Blob::Path(self.suspect_path.display().to_string()),
            log10_threshold: -9.0,
        }
    }
}

/// One request down the cold path, exactly what each `emmark verify`
/// process re-does from scratch: read both files, decode the vault,
/// re-derive the locations, extract. (Process spawn is NOT charged —
/// a conservative handicap in the daemon's favor.)
fn cold_verify(family: &Family) -> ReportSummary {
    let secrets_bytes = std::fs::read(&family.secrets_path).expect("read vault");
    let suspect_bytes = std::fs::read(&family.suspect_path).expect("read artifact");
    let secrets = decode_secrets(&secrets_bytes).expect("vault");
    let sparse = SparseArtifact::open(&suspect_bytes).expect("open");
    ReportSummary::from(&secrets.verify(&sparse).expect("verify"))
}

fn main() {
    print_header(
        "SERVICE",
        &format!("{REQUESTS} verification requests, cold CLI path vs warm emmarkd pool"),
    );
    let families: Vec<Family> = (0..FAMILIES as u64).map(build_family).collect();
    println!(
        "{FAMILIES} model families, vault {:.1} KiB, artifact {:.1} KiB (path blobs)",
        families[0].secrets_len as f64 / 1024.0,
        families[0].suspect_len as f64 / 1024.0
    );

    // Cold path: every request decodes the vault and re-derives the
    // locations, like one CLI process per request.
    let start = Instant::now();
    let cold: Vec<ReportSummary> = (0..REQUESTS)
        .map(|i| cold_verify(&families[i % FAMILIES]))
        .collect();
    let cold_time = start.elapsed();

    // Warm path: the daemon's worker pool behind the frame codec, the
    // family cache populated on first touch.
    let service = Service::start(ServiceConfig {
        workers: 4,
        queue_capacity: REQUESTS + 1,
        cache_capacity: FAMILIES,
        max_resident_bytes: None,
        retry_after_ms: 10,
    });
    // Prime the cache (one miss per family), outside the timed window —
    // the daemon's whole point is that this happens once per family,
    // not once per request.
    for (i, family) in families.iter().enumerate() {
        assert!(matches!(
            service.request(i as u64, &family.verify_request()),
            Response::Verify { .. }
        ));
    }

    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    for i in 0..REQUESTS {
        let req = families[i % FAMILIES].verify_request();
        let tx = tx.clone();
        service.submit(
            encode_request(i as u64, &req),
            Box::new(move |bytes| tx.send(decode_response(&bytes).expect("decode")).unwrap()),
        );
    }
    let mut hot: Vec<Option<ReportSummary>> = vec![None; REQUESTS];
    for _ in 0..REQUESTS {
        let (id, resp) = rx.recv().expect("reply");
        match resp {
            Response::Verify { report, proved } => {
                assert!(proved, "request {id}: stamp must prove");
                hot[id as usize] = Some(report);
            }
            other => panic!("request {id}: unexpected response {other:?}"),
        }
    }
    let hot_time = start.elapsed();

    // Bit-identity per request: the daemon must answer exactly what the
    // one-shot path answers, or the speedup is meaningless.
    for (i, (h, c)) in hot.iter().zip(&cold).enumerate() {
        assert_eq!(h.as_ref(), Some(c), "request {i}: reports diverged");
    }

    let cold_rps = REQUESTS as f64 / cold_time.as_secs_f64();
    let hot_rps = REQUESTS as f64 / hot_time.as_secs_f64();
    let speedup = hot_rps / cold_rps;
    println!("\n{:<44} {:>12} {:>12}", "path", "wall time", "req/s");
    println!(
        "{:<44} {:>9.1} ms {:>12.0}",
        "cold (vault decode + locate per request)",
        cold_time.as_secs_f64() * 1e3,
        cold_rps
    );
    println!(
        "{:<44} {:>9.1} ms {:>12.0}",
        "warm emmarkd (4 workers, framed requests)",
        hot_time.as_secs_f64() * 1e3,
        hot_rps
    );
    println!(
        "\nthroughput {speedup:.1}x, reports bit-for-bit identical on all {REQUESTS} requests"
    );
    assert!(
        speedup >= 10.0,
        "warm service must be >= 10x per-request throughput (got {speedup:.2}x)"
    );

    let mut criterion = Criterion::default().sample_size(10).configure_from_args();
    criterion.bench_function("service/cold_verify_per_request", |b| {
        b.iter(|| cold_verify(&families[0]))
    });
    criterion.bench_function("service/warm_verify_request", |b| {
        let req = families[0].verify_request();
        b.iter(|| match service.request(0, &req) {
            Response::Verify { report, .. } => report,
            other => panic!("unexpected response {other:?}"),
        })
    });
    criterion.final_summary();
    let _ = service.request(u64::MAX, &Request::Shutdown);
    for family in &families {
        let _ = std::fs::remove_file(&family.secrets_path);
        let _ = std::fs::remove_file(&family.suspect_path);
    }
}
