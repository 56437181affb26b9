//! Fleet-scale provisioning — the insertion half of the paper's
//! deployment story, built score-once/insert-many.
//!
//! A proprietor stamps one model family onto thousands of edge devices:
//! every device carries the same ownership watermark plus its own
//! traitor-tracing fingerprint ([`crate::fingerprint`]). The serial
//! [`Fleet::provision`](crate::fingerprint::Fleet::provision) path
//! repeats two expensive, device-independent computations per device —
//! Eqs. 2–4 scoring to reproduce the ownership locations and the
//! fingerprint candidate pools, and a full
//! [`crate::deploy::encode_model`] pass to produce the device artifact.
//!
//! [`FleetProvisioner`] runs over the one shared per-family state (the
//! crate-private `Family` in [`crate::fingerprint`], the same one the
//! batch verifier and the service use):
//!
//! * the ownership watermark locations and the base-watermarked
//!   reference model,
//! * the per-layer fingerprint candidate pools (base-excluded), and
//! * the base artifact's **v2 encoding plus its layer-offset index**,
//!   which provisioning fills on first use,
//!
//! after which provisioning one device is pure PRNG sampling plus a
//! delta patch: the device artifact is the base artifact with the
//! fingerprinted cells poked through the offset index
//! ([`crate::deploy::patch_artifact`]) — one buffer copy and
//! O(fingerprint bits) byte writes instead of an O(params) re-encode.
//! Batches fan out across scoped threads exactly like
//! [`FleetVerifier::verify_batch`].
//!
//! Cached and serial paths are bit-for-bit identical: provisioned
//! models equal
//! [`Fleet::provision`](crate::fingerprint::Fleet::provision)'s, and
//! provisioned artifacts are *byte*-identical to encoding the serial
//! models. The module tests and `tests/provision_equivalence.rs` pin
//! both equivalences.

use crate::deploy::{splice_patches, CellPatch};
use crate::fingerprint::{derive_device, device_material, DeviceFingerprint, Family, Pools};
use crate::fleet::{encode_registry, par_map, FleetVerifier};
use crate::signature::Signature;
use crate::store::StoreError;
use crate::telemetry::{self, Telemetry};
use crate::watermark::{apply_bits_at, Locations, OwnerSecrets, WatermarkConfig, WatermarkError};
use bytes::Bytes;
use emmark_quant::QuantizedModel;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// One provisioned device: its registry entry and its deployable v2
/// artifact (byte-identical to encoding the serially fingerprinted
/// model).
#[derive(Debug, Clone, PartialEq)]
pub struct ProvisionedDevice {
    /// The registry entry
    /// [`Fleet::provision`](crate::fingerprint::Fleet::provision) would record.
    pub fingerprint: DeviceFingerprint,
    /// The device's deploy-codec artifact (v2, indexed).
    pub artifact: Vec<u8>,
}

/// Batch provisioning engine: compute scores, pools, and the ownership
/// watermark once per model family, then stamp per-device fingerprints
/// in parallel.
///
/// Construction pays the device-independent costs once (or shares a
/// family that already paid them); every provisioning call afterwards
/// is read-only over the family, so batches parallelize freely.
#[derive(Debug, Clone)]
pub struct FleetProvisioner {
    family: Arc<Family>,
    fingerprint_config: WatermarkConfig,
    /// The family's fingerprint candidate pools for this config.
    pools: Arc<Pools>,
}

impl FleetProvisioner {
    /// Builds the engine from the owner's secrets and the fingerprint
    /// parameters.
    ///
    /// # Errors
    ///
    /// Rejects an inconsistent secret bundle
    /// ([`WatermarkError::SignatureLength`],
    /// [`WatermarkError::InvalidConfig`]) and propagates
    /// location-reproduction errors.
    pub fn new(
        base: OwnerSecrets,
        fingerprint_config: WatermarkConfig,
    ) -> Result<Self, WatermarkError> {
        // Reject a bad config before paying for the location pass.
        fingerprint_config.validate()?;
        Self::from_family(Family::build(base)?, fingerprint_config)
    }

    /// Builds the engine over a shared `Family`, encoding the family's
    /// base artifact if no provisioner has yet.
    ///
    /// # Errors
    ///
    /// [`WatermarkError::InvalidConfig`] for an invalid config, and
    /// pool-scoring errors.
    pub(crate) fn from_family(
        family: Arc<Family>,
        fingerprint_config: WatermarkConfig,
    ) -> Result<Self, WatermarkError> {
        let pools = family.pools(&fingerprint_config)?;
        family.base_artifact();
        Ok(Self {
            family,
            fingerprint_config,
            pools,
        })
    }

    /// The fingerprint parameters devices are provisioned with.
    pub fn fingerprint_config(&self) -> &WatermarkConfig {
        &self.fingerprint_config
    }

    /// Derives one device's fingerprint material from the shared pools:
    /// its registry entry, signature, and sampled locations — pure PRNG
    /// work, no scoring. Sharded registry provisioning
    /// ([`crate::registry`]) derives its entries through it too.
    pub(crate) fn device_material(
        &self,
        device_id: &str,
    ) -> (DeviceFingerprint, Signature, Locations) {
        let fp = derive_device(&self.fingerprint_config, device_id);
        let (sig, locs) = device_material(&self.pools, &self.fingerprint_config, &fp);
        (fp, sig, locs)
    }

    /// The shared base-watermarked model (ownership watermark only, no
    /// fingerprint) — the state every device artifact is a delta of.
    pub fn base_deployed(&self) -> &QuantizedModel {
        &self.family.base_deployed
    }

    /// The base-watermarked model's v2 artifact bytes.
    pub fn base_artifact(&self) -> &[u8] {
        &self.family.base_artifact().0
    }

    /// Provisions one device as an in-memory model — bit-identical to
    /// [`Fleet::provision`](crate::fingerprint::Fleet::provision) for the same
    /// device id, without mutating a registry.
    pub fn provision_model(&self, device_id: &str) -> (DeviceFingerprint, QuantizedModel) {
        let (fp, sig, locs) = self.device_material(device_id);
        let mut deployed = self.family.base_deployed.clone();
        apply_bits_at(&mut deployed, &locs, &sig);
        (fp, deployed)
    }

    /// The delta a device's fingerprint makes against the base
    /// artifact: one [`CellPatch`] per signature bit. Shared by the
    /// buffered and streaming artifact emitters.
    fn device_patches(&self, sig: &Signature, locs: &Locations) -> Vec<CellPatch> {
        let base = &self.family.base_deployed;
        let n = base.layer_count();
        let mut patches = Vec::with_capacity(sig.len());
        for (l, layer_locs) in locs.iter().enumerate() {
            let bits = sig.layer_bits(l, n);
            for (&f, &b) in layer_locs.iter().zip(bits) {
                // Same arithmetic as `bump_q_flat`: pools exclude
                // clamped cells, so the bump stays in range.
                let q = base.layers[l].q_at_flat(f) + b;
                patches.push(CellPatch {
                    layer: l,
                    flat: f,
                    q,
                });
            }
        }
        patches
    }

    /// Provisions one device as a deployable artifact via the delta
    /// encoder: the cached base artifact with the device's fingerprint
    /// cells patched through the v2 offset index. Byte-identical to
    /// `encode_model(&fleet.provision(device_id))`, at one buffer copy
    /// plus O(fingerprint bits) cost.
    pub fn provision_artifact(&self, device_id: &str) -> ProvisionedDevice {
        let (fingerprint, sig, locs) = self.device_material(device_id);
        let patches = self.device_patches(&sig, &locs);
        let (base, index) = self.family.base_artifact();
        let artifact = crate::deploy::patch_artifact(base, index, &patches)
            .expect("pool-derived patches are always in range");
        if Telemetry::enabled() {
            telemetry::PROVISION_DEVICES.incr();
        }
        ProvisionedDevice {
            fingerprint,
            artifact,
        }
    }

    /// Streams one device's artifact straight into `out` — the base
    /// artifact bytes with the fingerprint patches spliced in flight
    /// ([`splice_patches`]). Byte-identical to
    /// [`Self::provision_artifact`], but the device artifact is *never*
    /// resident: per-device memory is O(fingerprint bits) beyond the
    /// shared base, which is what lets `fleet-provision` stamp
    /// arbitrarily many devices under a fixed memory budget.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from `out`, including its final flush.
    pub fn provision_artifact_into<W: Write>(
        &self,
        device_id: &str,
        mut out: W,
    ) -> Result<DeviceFingerprint, StoreError> {
        let (fingerprint, sig, locs) = self.device_material(device_id);
        let patches = self.device_patches(&sig, &locs);
        let (base, index) = self.family.base_artifact();
        splice_patches(base, index, &patches, &mut out)?;
        // A `BufWriter` would flush on drop and discard the error, so a
        // failed final write (ENOSPC, EIO) must surface here.
        out.flush().map_err(|source| StoreError::Io {
            what: "flushing a device artifact",
            source,
        })?;
        if Telemetry::enabled() {
            telemetry::PROVISION_DEVICES.incr();
        }
        Ok(fingerprint)
    }

    /// Provisions devices straight into `dir/<device id>.emqm` files on
    /// `jobs` worker threads (`None` = one per available core). Each
    /// worker splices one device at a time into its own file
    /// ([`Self::provision_artifact_into`]), so no device artifact is
    /// ever resident; every file is byte-for-byte the artifact
    /// [`Self::provision_batch`] returns for that id.
    ///
    /// Returns the registry entries in input order.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] naming the first file, in input order, that
    /// could not be created or written.
    pub fn provision_files<S: AsRef<str> + Sync>(
        &self,
        device_ids: &[S],
        dir: &Path,
        jobs: Option<usize>,
    ) -> Result<Vec<DeviceFingerprint>, StoreError> {
        par_map(device_ids, jobs, |id| {
            let path = dir.join(format!("{}.emqm", id.as_ref()));
            File::create(&path)
                .map_err(|source| StoreError::Io {
                    what: "creating a device artifact",
                    source,
                })
                .and_then(|file| self.provision_artifact_into(id.as_ref(), BufWriter::new(file)))
                .map_err(|e| match e {
                    StoreError::Io { what, source } => StoreError::Io {
                        what,
                        source: io::Error::new(
                            source.kind(),
                            format!("{}: {source}", path.display()),
                        ),
                    },
                    other => other,
                })
        })
        .into_iter()
        .collect()
    }

    /// Provisions a batch of device ids in parallel on `jobs` worker
    /// threads (`None` = one per available core). Output order matches
    /// input order, and every artifact is byte-for-byte what
    /// [`Self::provision_artifact`] returns serially.
    pub fn provision_batch<S: AsRef<str> + Sync>(
        &self,
        device_ids: &[S],
        jobs: Option<usize>,
    ) -> Vec<ProvisionedDevice> {
        par_map(device_ids, jobs, |id| self.provision_artifact(id.as_ref()))
    }

    /// The fleet registry for a set of provisioned devices, in the
    /// [`crate::fleet::encode_registry`] wire format `fleet-verify`
    /// consumes.
    pub fn registry(&self, provisioned: &[ProvisionedDevice]) -> Bytes {
        let devices: Vec<DeviceFingerprint> =
            provisioned.iter().map(|p| p.fingerprint.clone()).collect();
        encode_registry(&self.fingerprint_config, &devices)
    }

    /// A [`FleetVerifier`] over the same family — the provision→verify
    /// flow without paying the Eqs. 2–4 scoring a second time or
    /// copying any model. Verdicts are bit-identical to
    /// [`FleetVerifier::from_parts`] on the same inputs.
    pub fn verifier(&self, devices: Vec<DeviceFingerprint>) -> FleetVerifier {
        if Telemetry::enabled() {
            telemetry::FLEET_CACHE_HITS.incr();
        }
        FleetVerifier::from_family(Arc::clone(&self.family), self.fingerprint_config, devices)
            .expect("this config's pools were memoized when the provisioner was built")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{decode_model, encode_model};
    use crate::fingerprint::Fleet;
    use emmark_nanolm::config::ModelConfig;
    use emmark_nanolm::TransformerModel;
    use emmark_quant::awq::{awq, AwqConfig};

    fn base_secrets() -> OwnerSecrets {
        let mut model = TransformerModel::new(ModelConfig::tiny_test());
        let calib: Vec<Vec<u32>> = (0..4u32)
            .map(|s| (0..16u32).map(|i| (i * 7 + s) % 31).collect())
            .collect();
        let stats = model.collect_activation_stats(&calib);
        let qm = awq(&model, &stats, &AwqConfig::default());
        let cfg = WatermarkConfig {
            bits_per_layer: 4,
            pool_ratio: 10,
            ..Default::default()
        };
        OwnerSecrets::new(qm, stats, cfg, 0xF1EE7)
    }

    fn fp_cfg() -> WatermarkConfig {
        WatermarkConfig {
            bits_per_layer: 3,
            pool_ratio: 10,
            selection_seed: 0xDE11CE,
            ..Default::default()
        }
    }

    #[test]
    fn provisioned_models_match_the_serial_fleet_path() {
        let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
        let mut fleet = Fleet::new(base_secrets(), fp_cfg());
        for id in ["alice", "bob", "carol"] {
            let serial = fleet.provision(id).expect("provision");
            let (fp, cached) = provisioner.provision_model(id);
            assert!(cached.same_weights(&serial), "{id}: models diverged");
            assert_eq!(
                &fp,
                fleet.devices().last().expect("registered"),
                "{id}: registry entries diverged"
            );
        }
    }

    #[test]
    fn delta_patched_artifacts_are_byte_identical_to_serial_encodes() {
        let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
        let mut fleet = Fleet::new(base_secrets(), fp_cfg());
        for id in ["edge-00", "edge-01", "edge-02"] {
            let serial_bytes = encode_model(&fleet.provision(id).expect("provision")).to_vec();
            let provisioned = provisioner.provision_artifact(id);
            assert_eq!(
                provisioned.artifact, serial_bytes,
                "{id}: delta patch must be byte-identical to a full re-encode"
            );
        }
    }

    #[test]
    fn batch_is_order_preserving_and_identical_serial_and_parallel() {
        let ids: Vec<String> = (0..7).map(|i| format!("edge-{i:02}")).collect();
        let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
        let serial = provisioner.provision_batch(&ids, Some(1));
        let parallel = provisioner.provision_batch(&ids, Some(4));
        assert_eq!(serial, parallel);
        for (id, p) in ids.iter().zip(&serial) {
            assert_eq!(&p.fingerprint.device_id, id);
        }
    }

    #[test]
    fn provisioned_artifacts_verify_and_attribute_through_the_shared_cache() {
        let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
        let ids = ["a", "b", "c"];
        let provisioned = provisioner.provision_batch(&ids, None);
        let devices: Vec<DeviceFingerprint> =
            provisioned.iter().map(|p| p.fingerprint.clone()).collect();
        let verifier = provisioner.verifier(devices.clone());
        // Must be bit-identical to a verifier built from scratch.
        let from_scratch =
            FleetVerifier::from_parts(base_secrets(), fp_cfg(), devices).expect("cache");
        for (i, p) in provisioned.iter().enumerate() {
            let verdict = verifier.verify_artifact(&p.artifact, -6.0).expect("verify");
            let scratch = from_scratch
                .verify_artifact(&p.artifact, -6.0)
                .expect("verify");
            assert_eq!(verdict, scratch, "artifact {i}");
            assert_eq!(verdict.ownership.wer(), 100.0, "artifact {i}");
            let (device, _) = verdict.attribution.expect("attributed");
            assert_eq!(device.device_id, ids[i], "artifact {i}");
        }
    }

    #[test]
    fn registry_from_provisioner_matches_the_serial_fleet_registry() {
        let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
        let mut fleet = Fleet::new(base_secrets(), fp_cfg());
        let ids = ["x", "y"];
        for id in ids {
            fleet.provision(id).expect("provision");
        }
        let provisioned = provisioner.provision_batch(&ids, None);
        let bytes = provisioner.registry(&provisioned);
        assert_eq!(
            bytes,
            encode_registry(&fleet.fingerprint_config, fleet.devices())
        );
    }

    #[test]
    fn base_artifact_decodes_to_the_base_deployed_model() {
        let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
        let decoded = decode_model(provisioner.base_artifact()).expect("decode");
        assert!(decoded.same_weights(provisioner.base_deployed()));
        // The base artifact carries the ownership watermark but no
        // fingerprint: never attributed to any provisioned device.
        let provisioned = provisioner.provision_batch(&["a", "b"], None);
        let devices = provisioned.iter().map(|p| p.fingerprint.clone()).collect();
        let verifier = provisioner.verifier(devices);
        let verdict = verifier
            .verify_artifact(provisioner.base_artifact(), -6.0)
            .expect("verify");
        assert_eq!(verdict.ownership.wer(), 100.0);
        assert!(verdict.attribution.is_none(), "false attribution");
    }

    /// Accepts nothing: every write fails as a full disk would.
    struct FullDisk;

    impl Write for FullDisk {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::StorageFull, "no space left"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Buffers writes, but its flush fails.
    struct FailingFlush(Vec<u8>);

    impl Write for FailingFlush {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("flush failed"))
        }
    }

    #[test]
    fn streamed_artifact_reports_a_failed_final_flush() {
        let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
        let err = provisioner
            .provision_artifact_into("edge-00", FailingFlush(Vec::new()))
            .expect_err("a failed flush must not count as provisioned");
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        // A buffer large enough to hold the whole artifact defers every
        // write to the final flush, which a drop would silently discard.
        let buffered = io::BufWriter::with_capacity(1 << 22, FullDisk);
        let err = provisioner
            .provision_artifact_into("edge-00", buffered)
            .expect_err("a write failing at flush must surface");
        assert!(err.to_string().contains("no space left"), "{err}");
    }

    #[test]
    fn provision_files_errors_name_the_file() {
        let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
        let missing = std::env::temp_dir().join(format!("emmark-absent-{}", std::process::id()));
        let err = provisioner
            .provision_files(&["edge-00", "edge-01"], &missing, Some(2))
            .expect_err("files in a missing directory cannot be created");
        let msg = err.to_string();
        assert!(
            msg.contains("edge-00.emqm"),
            "error must name the file: {msg}"
        );
    }

    #[test]
    fn corrupt_secret_bundle_is_rejected_at_construction() {
        let base = base_secrets();
        let mut bad_fp = fp_cfg();
        bad_fp.bits_per_layer = 0;
        assert!(matches!(
            FleetProvisioner::new(base.clone(), bad_fp),
            Err(WatermarkError::InvalidConfig(_))
        ));
        let mut bad = base;
        bad.signature = crate::signature::Signature::generate(bad.signature.len() + 1, 9);
        assert!(matches!(
            FleetProvisioner::new(bad, fp_cfg()),
            Err(WatermarkError::SignatureLength { .. })
        ));
    }
}
