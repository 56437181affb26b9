//! One warm `emmarkd` family runs the ownership location pass exactly
//! once, whatever mix of requests it serves: leak identification
//! against an inline EMFR registry and against an EMFM manifest,
//! provisioning under two fingerprint configurations, and ownership
//! verification all share the one family the first request built.
//!
//! The check reads the process-global telemetry registry, so it lives in
//! its own test binary (no other test can bump the counter mid-run) and
//! builds every reference answer before telemetry is switched on.

use emmark::core::deploy::encode_model;
use emmark::core::fleet::FleetVerifier;
use emmark::core::provision::FleetProvisioner;
use emmark::core::registry::{encode_manifest, provision_sharded_into};
use emmark::core::service::{Blob, Request, Response, Service, ServiceConfig};
use emmark::core::telemetry::Telemetry;
use emmark::core::vault::encode_secrets;
use emmark::core::watermark::{OwnerSecrets, WatermarkConfig};
use emmark::core::SparseArtifact;
use emmark::nanolm::{ModelConfig, TransformerModel};
use emmark::quant::awq::{awq, AwqConfig};

fn secrets() -> OwnerSecrets {
    let mut model = TransformerModel::new(ModelConfig::tiny_test());
    let calib: Vec<Vec<u32>> = (0..4u32)
        .map(|s| (0..16u32).map(|i| (i * 7 + s) % 31).collect())
        .collect();
    let stats = model.collect_activation_stats(&calib);
    let qm = awq(&model, &stats, &AwqConfig::default());
    let cfg = WatermarkConfig {
        bits_per_layer: 3,
        pool_ratio: 10,
        ..Default::default()
    };
    OwnerSecrets::new(qm, stats, cfg, 0xFA117)
}

fn fp_cfg(bits_per_layer: usize, pool_ratio: usize) -> WatermarkConfig {
    WatermarkConfig {
        bits_per_layer,
        pool_ratio,
        selection_seed: 0xDE11CE,
        ..Default::default()
    }
}

#[test]
fn one_family_build_serves_identify_provision_and_verify() {
    let secrets = secrets();
    let vault = encode_secrets(&secrets).to_vec();
    let deployed = encode_model(&secrets.watermark_for_deployment().expect("stamp")).to_vec();
    let (cfg_a, cfg_b) = (fp_cfg(2, 10), fp_cfg(3, 8));

    // Reference answers from the one-shot engines, telemetry off.
    let provisioner_a = FleetProvisioner::new(secrets.clone(), cfg_a).expect("provisioner a");
    let provisioner_b = FleetProvisioner::new(secrets.clone(), cfg_b).expect("provisioner b");
    let ids: Vec<String> = (0..6).map(|i| format!("edge-{i:02}")).collect();
    let fleet = provisioner_a.provision_batch(&ids, Some(1));
    let registry = provisioner_a.registry(&fleet).to_vec();
    let dir = std::env::temp_dir().join(format!("emmark-family-sharing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = provision_sharded_into(&provisioner_a, &ids, 2, Some(1), |name, bytes| {
        std::fs::write(dir.join(name), bytes)
    })
    .expect("shards");
    let manifest_path = dir.join("fleet.emfm");
    std::fs::write(&manifest_path, encode_manifest(&manifest)).expect("manifest");
    let leak = &fleet[4].artifact;
    let devices = fleet.iter().map(|p| p.fingerprint.clone()).collect();
    let traced = FleetVerifier::from_parts(secrets.clone(), cfg_a, devices)
        .expect("verifier")
        .identify_leak(&SparseArtifact::open(leak).expect("open"), -6.0)
        .expect("identify")
        .map(|(d, _)| d.device_id.clone());
    assert_eq!(traced.as_deref(), Some("edge-04"));
    let want_a = provisioner_a.provision_artifact("field-a");
    let want_b = provisioner_b.provision_artifact("field-b");

    Telemetry::reset();
    Telemetry::set_enabled(true);
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let identify = |registry: Blob| Request::IdentifyLeak {
        secrets: Blob::Inline(vault.clone()),
        registry,
        suspect: Blob::Inline(leak.clone()),
        log10_threshold: -6.0,
        linear: false,
    };
    let manifest_blob = Blob::Path(manifest_path.display().to_string());
    for (id, registry) in [(1, Blob::Inline(registry)), (2, manifest_blob)] {
        match service.request(id, &identify(registry)) {
            Response::Identify {
                matched: Some((device, _)),
            } => assert_eq!(Some(device.device_id), traced, "request {id}"),
            other => panic!("request {id}: unexpected response {other:?}"),
        }
    }
    for (id, cfg, want) in [(3, cfg_a, &want_a), (4, cfg_b, &want_b)] {
        let req = Request::Provision {
            secrets: Blob::Inline(vault.clone()),
            fingerprint_config: cfg,
            device_id: want.fingerprint.device_id.clone(),
        };
        match service.request(id, &req) {
            Response::Provision {
                fingerprint,
                artifact,
            } => {
                assert_eq!(fingerprint, want.fingerprint, "request {id}");
                assert!(artifact == want.artifact, "request {id}: artifact bytes");
            }
            other => panic!("request {id}: unexpected response {other:?}"),
        }
    }
    let verify = Request::Verify {
        secrets: Blob::Inline(vault.clone()),
        suspect: Blob::Inline(deployed),
        log10_threshold: -9.0,
    };
    match service.request(5, &verify) {
        Response::Verify { proved, .. } => assert!(proved, "the stamped model must prove"),
        other => panic!("verify: unexpected response {other:?}"),
    }
    let builds = Telemetry::counter("emmark_fleet_family_cache_misses_total")
        .expect("registered counter")
        .get();
    Telemetry::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        builds, 1,
        "one warm family must run the ownership location pass exactly once"
    );
}
