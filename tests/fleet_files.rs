//! The file-streaming fleet engines against their in-memory oracles:
//!
//! * [`FleetProvisioner::provision_files`] at 1, 2 and 3 workers writes
//!   files byte-identical to [`FleetProvisioner::provision_batch`]'s
//!   artifacts, and returns the same registry entries in order;
//! * [`IndexedFleetVerifier::verify_files`] returns verdicts equal to
//!   [`IndexedFleetVerifier::verify_batch`] over the same bytes, in path
//!   order, across v2 and v1 artifacts and a corrupt one — and a file
//!   missing mid-list fails on its own row only, as [`FleetError::Io`].

use emmark::core::deploy::{decode_model, encode_model_v1};
use emmark::core::fleet::FleetError;
use emmark::core::provision::FleetProvisioner;
use emmark::core::registry::IndexedFleetVerifier;
use emmark::core::watermark::{OwnerSecrets, WatermarkConfig};
use emmark::nanolm::{ModelConfig, TransformerModel};
use emmark::quant::awq::{awq, AwqConfig};
use std::path::{Path, PathBuf};

fn provisioner() -> FleetProvisioner {
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
        selection_seed: 0xF11E5,
        ..Default::default()
    };
    FleetProvisioner::new(OwnerSecrets::new(qm, stats, base_cfg, 0xF11E), fp_cfg)
        .expect("provisioner")
}

/// A fresh, empty scratch directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emmark-fleet-files-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn artifact_path(dir: &Path, id: &str) -> PathBuf {
    dir.join(format!("{id}.emqm"))
}

#[test]
fn provisioned_files_are_byte_identical_to_the_batch_at_any_job_count() {
    let p = provisioner();
    let ids: Vec<String> = (0..7).map(|i| format!("edge-{i:02}")).collect();
    let batch = p.provision_batch(&ids, Some(1));
    for jobs in [1, 2, 3] {
        let dir = scratch_dir(&format!("provision-{jobs}"));
        let devices = p
            .provision_files(&ids, &dir, Some(jobs))
            .expect("provision");
        assert_eq!(devices.len(), ids.len(), "jobs={jobs}");
        for (device, expected) in devices.iter().zip(&batch) {
            assert_eq!(device, &expected.fingerprint, "jobs={jobs}");
            let written = std::fs::read(artifact_path(&dir, &device.device_id)).expect("read");
            assert_eq!(
                written, expected.artifact,
                "jobs={jobs}: {} differs from the batch artifact",
                device.device_id
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

#[test]
fn file_verdicts_equal_batch_verdicts_and_a_missing_file_fails_alone() {
    let p = provisioner();
    let ids: Vec<String> = (0..5).map(|i| format!("edge-{i:02}")).collect();
    let dir = scratch_dir("verify");
    let devices = p.provision_files(&ids, &dir, Some(2)).expect("provision");
    let verifier = IndexedFleetVerifier::from(p.verifier(devices));

    // edge-00 and edge-04 stay v2; edge-01 is re-encoded as v1; edge-03
    // is truncated mid-body; a path that does not exist sits between.
    let v1 = encode_model_v1(
        &decode_model(&std::fs::read(artifact_path(&dir, "edge-01")).expect("read"))
            .expect("decode"),
    );
    std::fs::write(artifact_path(&dir, "edge-01"), &v1).expect("write v1");
    let corrupt = std::fs::read(artifact_path(&dir, "edge-03")).expect("read");
    std::fs::write(
        artifact_path(&dir, "edge-03"),
        &corrupt[..corrupt.len() / 2],
    )
    .expect("cut");
    let missing = artifact_path(&dir, "edge-vanished");
    let paths = vec![
        artifact_path(&dir, "edge-00"),
        artifact_path(&dir, "edge-01"),
        missing.clone(),
        artifact_path(&dir, "edge-02"),
        artifact_path(&dir, "edge-03"),
        artifact_path(&dir, "edge-04"),
    ];
    let present: Vec<&PathBuf> = paths.iter().filter(|p| **p != missing).collect();
    let bytes: Vec<Vec<u8>> = present
        .iter()
        .map(|p| std::fs::read(p).expect("read"))
        .collect();
    let total: u64 = bytes.iter().map(|b| b.len() as u64).sum();
    let batch = verifier.verify_batch(&bytes, -6.0, Some(1));
    assert!(batch[0].is_ok() && batch[1].is_ok(), "v2 and v1 verify");
    assert!(
        matches!(batch[3], Err(FleetError::Codec(_))),
        "the truncated artifact is a codec error"
    );

    for jobs in [1, 2, 3] {
        let (verdicts, read) = verifier.verify_files(&paths, -6.0, Some(jobs));
        assert_eq!(verdicts.len(), paths.len(), "jobs={jobs}");
        assert_eq!(read, total, "jobs={jobs}: bytes read");
        let Err(FleetError::Io(msg)) = &verdicts[2] else {
            panic!(
                "jobs={jobs}: missing file must be an Io verdict, got {:?}",
                verdicts[2]
            );
        };
        assert!(
            msg.contains("edge-vanished.emqm"),
            "error must name the file: {msg}"
        );
        let others: Vec<_> = verdicts
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 2)
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(
            others, batch,
            "jobs={jobs}: file verdicts differ from the batch"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
