//! End-to-end behavior of `emmark_core::telemetry` against the real
//! pipelines:
//!
//! * **JSONL round-trip** — with a sink installed, the streaming stamp
//!   emits span events from both the consumer and the scoped prefetch
//!   worker; every emitted line parses as JSON, span/counter/histogram
//!   lines carry their required keys, and the trailing snapshot lines
//!   agree exactly with the in-process [`Snapshot`] they were rendered
//!   from.
//! * **Spans across scoped threads** — load spans are recorded on the
//!   prefetch worker while stall/compute spans land on the caller, and
//!   nested spans (the per-layer scoring span inside the locate-sweep
//!   span) both record.
//! * **Artifact reads** — directory verification records one read
//!   span per artifact file and counts exactly the bytes it read.
//! * **Manifest-only identification** — an indexed identify, in
//!   process and through the service, decodes the manifest once, reads
//!   at most the winner's shard, and never decodes the vault, builds a
//!   family, or scans a scoring cell.
//! * **Disabled mode** — the same pipeline with telemetry off records
//!   nothing: every counter zero, every histogram empty.
//!
//! Bucketing edge cases live with the module's unit tests; this file
//! covers the global state, which is why every test serializes on one
//! lock and resets the registry before and after.

use emmark::core::deploy::encode_model;
use emmark::core::provision::FleetProvisioner;
use emmark::core::registry::{
    decode_manifest, encode_manifest, provision_sharded_into, IndexedFleetVerifier,
};
use emmark::core::service::{Blob, Request, Response, Service, ServiceConfig};
use emmark::core::store::{ArtifactLayerStore, ArtifactSink};
use emmark::core::telemetry::{Snapshot, Telemetry};
use emmark::core::vault::encode_secrets;
use emmark::core::watermark::{stream_watermark, OwnerSecrets, WatermarkConfig};
use emmark::nanolm::{ModelConfig, TransformerModel};
use emmark::quant::awq::{awq, AwqConfig};
use emmark::quant::rtn::quantize_linear_rtn;
use emmark::quant::{ActQuant, Granularity, QuantizedModel};
use std::io::{Cursor, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// The telemetry registry is process-global; tests that enable, record,
/// and reset must not interleave.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An in-memory JSONL sink the test can read back after the run.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("sink output is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs the streaming stamp from a file-format store (real loads, so
/// the prefetch worker participates) and returns the layer count.
fn run_streaming_stamp() -> usize {
    let mut cfg = ModelConfig::tiny_test();
    cfg.init_seed = 7;
    let mut model = TransformerModel::new(cfg);
    let calib: Vec<Vec<u32>> = (0..4u32)
        .map(|s| (0..16u32).map(|i| (i * 7 + s * 3) % 31).collect())
        .collect();
    let stats = model.collect_activation_stats(&calib);
    let qm = QuantizedModel::quantize_with(&model, "rtn-int8", |_, lin| {
        quantize_linear_rtn(lin, 8, Granularity::PerOutChannel, ActQuant::None)
    });
    let n_layers = qm.layers.len();
    let secrets = OwnerSecrets::new(
        qm,
        stats,
        WatermarkConfig {
            bits_per_layer: 4,
            pool_ratio: 10,
            ..Default::default()
        },
        2024,
    );
    let artifact = emmark::core::deploy::encode_model(&secrets.original);
    let store = ArtifactLayerStore::open(Cursor::new(artifact)).expect("open artifact store");
    let mut out = Vec::new();
    stream_watermark(
        &store,
        &secrets.stats,
        &secrets.signature,
        &secrets.config,
        &mut ArtifactSink::new(&mut out),
    )
    .expect("streaming stamp");
    n_layers
}

// ---------------------------------------------------------------------
// A minimal JSON parser — enough to validate the hand-rolled exporter
// without a JSON dependency.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self, key: &str) -> &str {
        match self.get(key) {
            Some(Json::Str(s)) => s,
            other => panic!("expected string at key {key}, got {other:?}"),
        }
    }

    fn num(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(Json::Num(n)) => *n,
            other => panic!("expected number at key {key}, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn parse(line: &'a str) -> Json {
        let mut p = Parser {
            s: line.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes in JSON line: {line}");
        v
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&b),
            "expected {:?} at byte {}",
            b as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut fields = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Json::Obj(fields);
        }
        loop {
            self.ws();
            let key = self.string();
            self.eat(b':');
            fields.push((key, self.value()));
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                other => panic!("expected , or }} in object, got {other:?}"),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut items = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b']') {
            self.i += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Json::Arr(items);
                }
                other => panic!("expected , or ] in array, got {other:?}"),
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            match self.s[self.i] {
                b'"' => {
                    self.i += 1;
                    return out;
                }
                b'\\' => {
                    self.i += 1;
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            self.i += 4;
                            out.push(
                                char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap(),
                            );
                        }
                        other => panic!("unsupported escape \\{}", other as char),
                    }
                }
                _ => {
                    // Multi-byte UTF-8 passes through unescaped.
                    let rest = std::str::from_utf8(&self.s[self.i..]).unwrap();
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Json {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
        Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
    }
}

#[test]
fn jsonl_round_trip_matches_in_process_snapshot() {
    let _guard = lock();
    Telemetry::reset();
    let sink = SharedBuf::default();
    Telemetry::install_jsonl_sink(Box::new(sink.clone()));
    let n_layers = run_streaming_stamp();

    // Stop event streaming, capture once, and append that same capture
    // — file and in-process snapshot cannot disagree by construction,
    // so any mismatch below is an exporter bug.
    let mut taken = Telemetry::take_jsonl_sink().expect("sink was installed");
    let snap = Snapshot::capture();
    snap.write_jsonl(&mut taken).expect("snapshot write");
    taken.flush().expect("snapshot flush");
    drop(taken);
    Telemetry::set_enabled(false);

    let text = sink.contents();
    let lines: Vec<Json> = text.lines().map(Parser::parse).collect();
    assert!(
        lines.len() > n_layers,
        "expected span events plus snapshot, got {} lines",
        lines.len()
    );

    let mut load_threads = Vec::new();
    let mut compute_threads = Vec::new();
    let mut counters_seen = 0usize;
    let mut gauges_seen = 0usize;
    let mut histograms_seen = 0usize;
    for line in &lines {
        match line.str("type") {
            "span" => {
                assert!(line.num("ns") >= 0.0);
                let thread = line.str("thread").to_string();
                match line.str("name") {
                    "emmark_stream_load_ns" => load_threads.push(thread),
                    "emmark_stream_compute_ns" => compute_threads.push(thread),
                    _ => {}
                }
            }
            "counter" => {
                counters_seen += 1;
                let sample = snap
                    .counters
                    .iter()
                    .find(|c| c.name == line.str("name"))
                    .expect("counter line names a registered metric");
                assert_eq!(sample.value as f64, line.num("value"));
            }
            "gauge" => {
                gauges_seen += 1;
                let sample = snap
                    .gauges
                    .iter()
                    .find(|g| g.name == line.str("name"))
                    .expect("gauge line names a registered metric");
                assert_eq!(sample.value as f64, line.num("value"));
            }
            "histogram" => {
                histograms_seen += 1;
                let sample = snap
                    .histograms
                    .iter()
                    .find(|h| h.name == line.str("name"))
                    .expect("histogram line names a registered metric");
                assert_eq!(sample.count as f64, line.num("count"));
                assert_eq!(sample.sum as f64, line.num("sum"));
                let Some(Json::Arr(buckets)) = line.get("buckets") else {
                    panic!("histogram line without a buckets array");
                };
                let total: f64 = buckets.iter().map(|b| b.num("count")).sum();
                assert_eq!(total, sample.count as f64, "buckets must partition count");
            }
            "snapshot" => {}
            other => panic!("unknown line type {other}"),
        }
    }
    assert_eq!(counters_seen, snap.counters.len());
    assert_eq!(gauges_seen, snap.gauges.len());
    assert_eq!(histograms_seen, snap.histograms.len());

    // Cross-thread spans: loads happen on the scoped prefetch worker,
    // compute on the caller — different thread ids in the event stream.
    assert!(!load_threads.is_empty() && !compute_threads.is_empty());
    assert!(
        load_threads.iter().all(|t| !compute_threads.contains(t)),
        "load spans must come from the prefetch worker, not the consumer thread"
    );

    // Nested spans all record: the one stamp sweep wraps one scoring
    // span and one encode span per layer inside the sweep-level span.
    let pool = Telemetry::histogram("emmark_scoring_layer_pool_ns").unwrap();
    let sweep = Telemetry::histogram("emmark_stamp_sweep_ns").unwrap();
    let encode = Telemetry::histogram("emmark_stamp_encode_ns").unwrap();
    assert_eq!(pool.count(), n_layers as u64);
    assert_eq!(sweep.count(), 1);
    assert_eq!(encode.count(), n_layers as u64);
    assert_eq!(
        Telemetry::counter("emmark_stream_layers_total")
            .unwrap()
            .get(),
        n_layers as u64,
        "the one sweep streams every layer once"
    );
    assert_eq!(
        Telemetry::histogram("emmark_stream_load_ns")
            .unwrap()
            .count(),
        n_layers as u64,
        "each layer is loaded exactly once"
    );
    Telemetry::reset();
}

#[test]
fn directory_verification_times_and_counts_each_artifact_read() {
    let _guard = lock();
    Telemetry::reset();
    let (provisioner, ids) = tiny_fleet();
    let dir = std::env::temp_dir().join(format!("emmark-telemetry-reads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let devices = provisioner
        .provision_files(&ids, &dir, Some(2))
        .expect("provision");
    let verifier = IndexedFleetVerifier::from(provisioner.verifier(devices));
    let mut paths: Vec<PathBuf> = ids
        .iter()
        .map(|id| dir.join(format!("{id}.emqm")))
        .collect();
    paths.push(dir.join("missing.emqm"));
    let on_disk: u64 = paths
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();

    Telemetry::set_enabled(true);
    let (verdicts, read) = verifier.verify_files(&paths, -6.0, Some(2));
    Telemetry::set_enabled(false);
    std::fs::remove_dir_all(&dir).expect("cleanup");

    assert_eq!(verdicts.iter().filter(|v| v.is_ok()).count(), ids.len());
    assert_eq!(read, on_disk);
    // One read span per file attempted (the failed open included), and
    // the byte counter agrees with what verify_files reports.
    let spans = Telemetry::histogram("emmark_fleet_artifact_read_ns").unwrap();
    assert_eq!(spans.count(), paths.len() as u64);
    let bytes = Telemetry::counter("emmark_fleet_artifact_bytes_read_total").unwrap();
    assert_eq!(bytes.get(), on_disk);
    Telemetry::reset();
}

/// A three-device fleet over a tiny AWQ model.
fn tiny_fleet() -> (FleetProvisioner, Vec<String>) {
    let (secrets, fp_cfg) = tiny_secrets();
    let provisioner = FleetProvisioner::new(secrets, fp_cfg).expect("provisioner");
    (provisioner, (0..3).map(|i| format!("dev-{i}")).collect())
}

/// The owner secrets and fingerprint config of [`tiny_fleet`].
fn tiny_secrets() -> (OwnerSecrets, WatermarkConfig) {
    let mut model = TransformerModel::new(ModelConfig::tiny_test());
    let calib: Vec<Vec<u32>> = (0..4u32)
        .map(|s| (0..16u32).map(|i| (i * 7 + s) % 31).collect())
        .collect();
    let stats = model.collect_activation_stats(&calib);
    let qm = awq(&model, &stats, &AwqConfig::default());
    let base_cfg = WatermarkConfig {
        bits_per_layer: 4,
        pool_ratio: 10,
        ..Default::default()
    };
    let fp_cfg = WatermarkConfig {
        bits_per_layer: 3,
        pool_ratio: 10,
        selection_seed: 0x7E1E,
        ..Default::default()
    };
    (OwnerSecrets::new(qm, stats, base_cfg, 0x7E1E), fp_cfg)
}

/// What one indexed identify may record: one manifest decode, one
/// shard load per traced device, and nothing of the vault-backed
/// engine — no vault decode, no family build, no scoring.
fn assert_manifest_only(path: &str, shard_loads: u64) {
    let spans = |name: &str| Telemetry::histogram(name).expect(name).count();
    let count = |name: &str| Telemetry::counter(name).expect(name).get();
    assert_eq!(
        spans("emmark_manifest_load_ns"),
        1,
        "{path}: manifest loads"
    );
    assert_eq!(
        spans("emmark_shard_load_ns"),
        shard_loads,
        "{path}: shard loads"
    );
    assert_eq!(spans("emmark_vault_decode_ns"), 0, "{path}: vault decodes");
    assert_eq!(
        count("emmark_scoring_cells_scanned_total"),
        0,
        "{path}: scoring cells"
    );
    assert_eq!(
        count("emmark_fleet_family_cache_misses_total"),
        0,
        "{path}: family builds"
    );
}

#[test]
fn indexed_identification_reads_the_manifest_and_nothing_of_the_vault() {
    let _guard = lock();
    Telemetry::reset();
    let (secrets, fp_cfg) = tiny_secrets();
    let vault = encode_secrets(&secrets);
    let provisioner = FleetProvisioner::new(secrets, fp_cfg).expect("provisioner");
    let ids: Vec<String> = (0..3).map(|i| format!("dev-{i}")).collect();
    let dir =
        std::env::temp_dir().join(format!("emmark-telemetry-identify-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    provisioner
        .provision_files(&ids, &dir, Some(1))
        .expect("provision");
    let manifest = provision_sharded_into(&provisioner, &ids, 2, Some(1), |name, bytes| {
        std::fs::write(dir.join(name), bytes)
    })
    .expect("shards");
    let manifest_path = dir.join("fleet.emfm");
    std::fs::write(&manifest_path, encode_manifest(&manifest)).expect("manifest");
    let vault_path = dir.join("secrets.emws");
    std::fs::write(&vault_path, &vault).expect("vault");
    let leak_path = dir.join("dev-1.emqm");
    let leak = std::fs::read(&leak_path).expect("leak");
    let outside = encode_model(provisioner.base_deployed());
    Telemetry::reset();

    // In process, as `emmark identify-leak` runs it: a traced leak reads
    // the winner's shard, an outside suspect none.
    for (suspect, traced, shard_loads) in [(&leak[..], Some("dev-1"), 1), (&outside[..], None, 0)] {
        Telemetry::set_enabled(true);
        let manifest =
            decode_manifest(&std::fs::read(&manifest_path).expect("read")).expect("decode");
        let found = manifest
            .identify_artifact(&dir, suspect, -6.0)
            .expect("identify");
        Telemetry::set_enabled(false);
        assert_eq!(found.map(|(d, _)| d.device_id).as_deref(), traced);
        assert_manifest_only("in-process", shard_loads);
        Telemetry::reset();
    }

    // Through the service, with a real vault path it must not open.
    let path = |p: &PathBuf| Blob::Path(p.display().to_string());
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    Telemetry::set_enabled(true);
    let response = service.request(
        1,
        &Request::IdentifyLeak {
            secrets: path(&vault_path),
            registry: path(&manifest_path),
            suspect: path(&leak_path),
            log10_threshold: -6.0,
            linear: false,
        },
    );
    drop(service);
    Telemetry::set_enabled(false);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    match response {
        Response::Identify {
            matched: Some((device, _)),
        } => assert_eq!(device.device_id, "dev-1"),
        other => panic!("unexpected response {other:?}"),
    }
    assert_manifest_only("service", 1);
    Telemetry::reset();
}

#[test]
fn disabled_mode_records_nothing() {
    let _guard = lock();
    Telemetry::reset();
    assert!(!Telemetry::enabled());
    run_streaming_stamp();
    let snap = Snapshot::capture();
    for c in &snap.counters {
        assert_eq!(c.value, 0, "{} recorded while disabled", c.name);
    }
    for h in &snap.histograms {
        assert_eq!(h.count, 0, "{} recorded while disabled", h.name);
        assert_eq!(h.sum, 0, "{} recorded while disabled", h.name);
    }
}
