//! `emmark identify-leak` and `fleet-verify` at the process boundary:
//! the indexed identify needs no vault and agrees with the vault-backed
//! `--linear` oracle; `--linear` without `--secrets` says what is
//! missing; a version 1 manifest is refused with re-provisioning advice;
//! and a manifest whose persisted base value was altered (checksum
//! re-stamped) fails `fleet-verify`, naming the layer and cell.

use emmark::core::provision::FleetProvisioner;
use emmark::core::registry::{
    encode_manifest, manifest_section_boundaries, provision_sharded_into, shard_checksum,
};
use emmark::core::vault::encode_secrets;
use emmark::core::watermark::{OwnerSecrets, WatermarkConfig};
use emmark::nanolm::{ModelConfig, TransformerModel};
use emmark::quant::awq::{awq, AwqConfig};
use std::path::PathBuf;
use std::process::{Command, Output};

/// A four-device, two-shard fleet directory with its vault beside it.
struct FleetDir {
    dir: PathBuf,
    shard_count: usize,
    layer_count: usize,
    cell_count: usize,
}

impl FleetDir {
    fn new(tag: &str) -> Self {
        let mut model = TransformerModel::new(ModelConfig::tiny_test());
        let calib: Vec<Vec<u32>> = (0..4u32)
            .map(|s| (0..16u32).map(|i| (i * 5 + s) % 29).collect())
            .collect();
        let stats = model.collect_activation_stats(&calib);
        let qm = awq(&model, &stats, &AwqConfig::default());
        let base_cfg = WatermarkConfig {
            bits_per_layer: 4,
            pool_ratio: 10,
            ..Default::default()
        };
        let secrets = OwnerSecrets::new(qm, stats, base_cfg, 0xC11);
        let fp_cfg = WatermarkConfig {
            bits_per_layer: 3,
            pool_ratio: 10,
            selection_seed: 0xDE11CE,
            ..Default::default()
        };
        let dir =
            std::env::temp_dir().join(format!("emmark-identify-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("fleet dir");
        std::fs::write(dir.join("secrets.emws"), encode_secrets(&secrets)).expect("vault");
        let provisioner = FleetProvisioner::new(secrets, fp_cfg).expect("provisioner");
        let ids: Vec<String> = (0..4).map(|i| format!("device-{i:04}")).collect();
        provisioner
            .provision_files(&ids, &dir, Some(1))
            .expect("artifacts");
        let manifest = provision_sharded_into(&provisioner, &ids, 2, Some(1), |name, bytes| {
            std::fs::write(dir.join(name), bytes)
        })
        .expect("shards");
        std::fs::write(dir.join("fleet.emfm"), encode_manifest(&manifest)).expect("manifest");
        Self {
            dir,
            shard_count: manifest.shards.len(),
            layer_count: manifest.index.layer_count(),
            cell_count: manifest.index.cell_count(),
        }
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).display().to_string()
    }

    /// Rewrites the manifest through `edit`, then re-stamps its trailer.
    fn tamper(&self, edit: impl FnOnce(&mut Vec<u8>)) {
        let path = self.dir.join("fleet.emfm");
        let mut bytes = std::fs::read(&path).expect("manifest");
        edit(&mut bytes);
        let body = bytes.len() - 8;
        let sum = shard_checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, bytes).expect("tampered manifest");
    }
}

impl Drop for FleetDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn emmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_emmark"))
        .args(args)
        .output()
        .expect("running emmark")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The `traced to …` verdict line of an identify-leak run.
fn traced_line(out: &Output) -> String {
    stdout(out)
        .lines()
        .find(|l| l.starts_with("traced to "))
        .unwrap_or_default()
        .to_string()
}

#[test]
fn indexed_identify_needs_no_vault_and_agrees_with_linear() {
    let fleet = FleetDir::new("agree");
    let manifest = fleet.path("fleet.emfm");
    let suspect = fleet.path("device-0002.emqm");
    let indexed = emmark(&[
        "identify-leak",
        "--manifest",
        &manifest,
        "--suspect",
        &suspect,
    ]);
    assert!(indexed.status.success(), "{}", stderr(&indexed));
    assert!(
        traced_line(&indexed).starts_with("traced to device-0002:"),
        "{}",
        stdout(&indexed)
    );
    // --secrets stays accepted; the indexed path does not open it (a
    // path that does not exist is fine).
    let missing = fleet.path("no-such-vault.emws");
    let with_secrets = emmark(&[
        "identify-leak",
        "--secrets",
        &missing,
        "--manifest",
        &manifest,
        "--suspect",
        &suspect,
    ]);
    assert!(with_secrets.status.success(), "{}", stderr(&with_secrets));
    assert_eq!(traced_line(&with_secrets), traced_line(&indexed));
    let vault = fleet.path("secrets.emws");
    let linear = emmark(&[
        "identify-leak",
        "--secrets",
        &vault,
        "--manifest",
        &manifest,
        "--suspect",
        &suspect,
        "--linear",
    ]);
    assert!(linear.status.success(), "{}", stderr(&linear));
    assert_eq!(traced_line(&linear), traced_line(&indexed));

    let no_vault = emmark(&[
        "identify-leak",
        "--manifest",
        &manifest,
        "--suspect",
        &suspect,
        "--linear",
    ]);
    assert!(!no_vault.status.success());
    assert!(
        stderr(&no_vault).contains("--secrets"),
        "{}",
        stderr(&no_vault)
    );
}

#[test]
fn version_1_manifests_get_re_provisioning_advice() {
    let fleet = FleetDir::new("v1");
    fleet.tamper(|bytes| bytes[4..8].copy_from_slice(&1u32.to_le_bytes()));
    let out = emmark(&[
        "identify-leak",
        "--manifest",
        &fleet.path("fleet.emfm"),
        "--suspect",
        &fleet.path("device-0001.emqm"),
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("version 1") && err.contains("version 2") && err.contains("re-provision"),
        "{err}"
    );
}

#[test]
fn fleet_verify_refuses_a_tampered_base_value_naming_layer_and_cell() {
    let fleet = FleetDir::new("tampered");
    let mut cell = (0u32, 0u64);
    let (shards, layers, cells) = (fleet.shard_count, fleet.layer_count, fleet.cell_count);
    fleet.tamper(|bytes| {
        let boundaries = manifest_section_boundaries(bytes).expect("boundaries");
        let at = boundaries[6 + shards];
        cell = (
            u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()),
            u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()),
        );
        // The first cell's base byte: the column precedes the shape
        // table and the trailer.
        let base = bytes.len() - 8 - (4 + 8 * layers) - cells;
        bytes[base] = bytes[base].wrapping_add(1);
    });
    let out = emmark(&[
        "fleet-verify",
        "--secrets",
        &fleet.path("secrets.emws"),
        "--manifest",
        &fleet.path("fleet.emfm"),
        "--artifacts",
        fleet.dir.to_str().expect("UTF-8 temp dir"),
        "--jobs",
        "1",
    ]);
    assert!(!out.status.success(), "{}", stdout(&out));
    let err = stderr(&out);
    assert!(
        err.contains(&format!("layer {}, cell {}", cell.0, cell.1)),
        "{err}"
    );
}
