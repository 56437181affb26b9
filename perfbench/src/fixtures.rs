//! Seeded fixtures: quantized model families, their owner vaults and
//! original artifacts on disk, and provisioned device fleets.
//!
//! Everything here is derived from the workload seed, so one seed gives
//! byte-identical inputs. The program under test only ever sees the
//! files written here (or frames built from them).

use emmark::core::deploy::{encode_model, encode_model_into};
use emmark::core::provision::FleetProvisioner;
use emmark::core::registry::{encode_manifest, provision_sharded_into};
use emmark::core::vault::encode_secrets;
use emmark::core::watermark::{OwnerSecrets, WatermarkConfig};
use emmark::nanolm::config::{MlpKind, NormKind, OutlierProfile};
use emmark::nanolm::{ModelConfig, TransformerModel};
use emmark::quant::awq::{awq, AwqConfig};
use emmark::quant::qlinear::{ActQuant, Granularity};
use emmark::quant::rtn::quantize_linear_rtn;
use emmark::quant::QuantizedModel;
use emmark::tensor::rng::SplitMix64;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

/// Quantization scheme of a family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    AwqInt4,
    RtnInt8,
}

/// Shape and scheme of one model family.
#[derive(Debug, Clone, Copy)]
pub struct FamilySpec {
    pub label: &'static str,
    pub d_model: usize,
    pub d_ff: usize,
    /// LLaMA-style gated SiLU MLP with RMSNorm (else OPT-style GELU with
    /// LayerNorm).
    pub gated: bool,
    pub scheme: Scheme,
}

pub const fn spec(
    label: &'static str,
    d_model: usize,
    d_ff: usize,
    gated: bool,
    scheme: Scheme,
) -> FamilySpec {
    FamilySpec {
        label,
        d_model,
        d_ff,
        gated,
        scheme,
    }
}

/// Fingerprint parameters every fleet is provisioned with (the CLI's
/// `fleet-provision` defaults).
pub fn fingerprint_config() -> WatermarkConfig {
    WatermarkConfig {
        bits_per_layer: 3,
        pool_ratio: 10,
        selection_seed: 0xDE11CE,
        ..Default::default()
    }
}

/// One model family: the owner's secrets and the files derived from
/// them.
pub struct Family {
    pub label: &'static str,
    pub secrets: OwnerSecrets,
    /// `encode_secrets` bytes, also written to `vault_path`.
    pub vault: Vec<u8>,
    pub vault_path: PathBuf,
    /// The unwatermarked model's v2 artifact.
    pub original_path: PathBuf,
    /// `encode_model(watermark_for_deployment())`: what a correct stamp
    /// writes.
    pub deployed: Vec<u8>,
    /// Quantized weight cells across all layers.
    pub cells: u64,
}

fn model_config(spec: &FamilySpec, init_seed: u64) -> ModelConfig {
    let mut cfg = ModelConfig::tiny_test();
    cfg.name = format!("bench-{}", spec.label);
    cfg.d_model = spec.d_model;
    cfg.d_ff = spec.d_ff;
    cfg.init_seed = init_seed;
    cfg.outliers = Some(OutlierProfile {
        seed: init_seed ^ 0xEDA,
        ..OutlierProfile::default()
    });
    if spec.gated {
        cfg.norm = NormKind::RmsNorm;
        cfg.mlp = MlpKind::GatedSilu;
    }
    cfg
}

fn quantize(spec: &FamilySpec, seed: u64) -> (QuantizedModel, emmark::nanolm::ActivationStats) {
    let mut rng = SplitMix64::new(seed);
    let mut model = TransformerModel::new(model_config(spec, rng.next_u64()));
    let vocab = model.cfg.vocab_size as u64;
    let calibration: Vec<Vec<u32>> = (0..8)
        .map(|_| (0..24).map(|_| (rng.next_u64() % vocab) as u32).collect())
        .collect();
    let stats = model.collect_activation_stats(&calibration);
    let quantized = match spec.scheme {
        Scheme::AwqInt4 => awq(&model, &stats, &AwqConfig::default()),
        Scheme::RtnInt8 => QuantizedModel::quantize_with(&model, "rtn-int8", |_, lin| {
            quantize_linear_rtn(lin, 8, Granularity::PerOutChannel, ActQuant::None)
        }),
    };
    (quantized, stats)
}

/// Builds a family from `seed` and writes its vault and original
/// artifact under `dir`.
pub fn build_family(spec: &FamilySpec, seed: u64, dir: &Path) -> std::io::Result<Family> {
    std::fs::create_dir_all(dir)?;
    let (quantized, stats) = quantize(spec, seed);
    let wm_cfg = match spec.scheme {
        Scheme::AwqInt4 => WatermarkConfig::int4_default(),
        Scheme::RtnInt8 => WatermarkConfig::int8_default(),
    };
    let secrets = OwnerSecrets::new(quantized, stats, wm_cfg, seed ^ 0x51C);
    let cells = secrets.original.layers.iter().map(|l| l.len() as u64).sum();
    let deployed = encode_model(
        &secrets
            .watermark_for_deployment()
            .map_err(std::io::Error::other)?,
    )
    .to_vec();
    let vault = encode_secrets(&secrets).to_vec();
    let vault_path = dir.join("secrets.emws");
    std::fs::write(&vault_path, &vault)?;
    let original_path = dir.join("original.emqm");
    encode_model_into(
        &secrets.original,
        BufWriter::new(File::create(&original_path)?),
    )
    .map_err(std::io::Error::other)?;
    Ok(Family {
        label: spec.label,
        secrets,
        vault,
        vault_path,
        original_path,
        deployed,
        cells,
    })
}

/// Device `i`'s id as `fleet-provision` names it.
pub fn device_id(i: usize) -> String {
    format!("device-{i:04}")
}

/// A sharded fleet provisioned through the library for the serve path:
/// the manifest and its shards are written to `dir`; device artifacts
/// are derived on demand, not written.
pub struct Fleet {
    pub manifest_path: PathBuf,
    pub provisioner: FleetProvisioner,
    pub ids: Vec<String>,
}

pub fn build_fleet(
    family: &Family,
    devices: usize,
    shards: usize,
    dir: &Path,
) -> std::io::Result<Fleet> {
    std::fs::create_dir_all(dir)?;
    let provisioner = FleetProvisioner::new(family.secrets.clone(), fingerprint_config())
        .map_err(std::io::Error::other)?;
    let ids: Vec<String> = (0..devices).map(device_id).collect();
    let manifest = provision_sharded_into(&provisioner, &ids, shards, Some(2), |name, bytes| {
        std::fs::write(dir.join(name), bytes)
    })
    .map_err(std::io::Error::other)?;
    let manifest_path = dir.join("fleet.emfm");
    std::fs::write(&manifest_path, encode_manifest(&manifest))?;
    Ok(Fleet {
        manifest_path,
        provisioner,
        ids,
    })
}
