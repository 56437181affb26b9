//! Serialization of the owner's secret material.
//!
//! §4.1: "The watermark consists of (i) signature sequence B; (ii) the
//! random seed d, the original quantized weight W, full-precision
//! activation A_f, and α, β coefficients for location L reproduction."
//! That bundle *is* the ownership proof — it must survive years of
//! storage bit-exactly. This module gives [`OwnerSecrets`] a versioned
//! binary form built on the same primitives as the deploy codec.
//!
//! The vault version tracks the deploy-codec version of the embedded
//! pristine model: a v1 vault embeds a v1 artifact, a v2 vault a v2
//! (indexed) artifact. Mixed pairings are rejected with
//! [`CodecError::MixedVersion`] instead of a generic decode failure —
//! they only arise from hand-spliced or corrupted vaults.

use crate::deploy::{
    artifact_version, decode_model, encode_model, encode_model_v1, put_watermark_config,
    CodecError, Reader, Section, FORMAT_V1, FORMAT_V2,
};
use crate::signature::Signature;
use crate::telemetry;
use crate::watermark::OwnerSecrets;
use bytes::{BufMut, Bytes, BytesMut};
use emmark_nanolm::model::{ActivationStats, LayerActivation};

const MAGIC: &[u8; 4] = b"EMWS";
/// Current vault version; matches the deploy codec's
/// [`FORMAT_V2`](crate::deploy::FORMAT_V2).
const VERSION: u32 = 2;

fn encode_secrets_with(secrets: &OwnerSecrets, version: u32) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 << 16);
    buf.put_slice(MAGIC);
    buf.put_u32_le(version);
    put_watermark_config(&mut buf, &secrets.config);
    // Signature.
    buf.put_u32_le(secrets.signature.len() as u32);
    for &b in secrets.signature.bits() {
        buf.put_i8(b);
    }
    // Activation stats.
    buf.put_u32_le(secrets.stats.per_layer.len() as u32);
    for layer in &secrets.stats.per_layer {
        buf.put_u32_le(layer.mean_abs.len() as u32);
        for &v in &layer.mean_abs {
            buf.put_f32_le(v);
        }
        for &v in &layer.max_abs {
            buf.put_f32_le(v);
        }
    }
    // Original model, embedded via the deploy codec (length-prefixed),
    // at the matching format version.
    let model_bytes = match version {
        FORMAT_V1 => encode_model_v1(&secrets.original),
        _ => encode_model(&secrets.original),
    };
    buf.put_u32_le(model_bytes.len() as u32);
    buf.put_slice(&model_bytes);
    buf.freeze()
}

/// Serializes the secret bundle (current version: v2, embedding an
/// indexed v2 model artifact).
pub fn encode_secrets(secrets: &OwnerSecrets) -> Bytes {
    encode_secrets_with(secrets, VERSION)
}

/// Serializes the secret bundle in the legacy v1 layout (v1 embedded
/// model). Kept for compatibility testing and for producing vaults that
/// pre-index readers can load; [`decode_secrets`] accepts both, so
/// loading a v1 vault and calling [`encode_secrets`] re-encodes it at
/// the current version.
pub fn encode_secrets_v1(secrets: &OwnerSecrets) -> Bytes {
    encode_secrets_with(secrets, FORMAT_V1)
}

/// Deserializes a secret bundle (v1 or v2).
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input, including
/// [`CodecError::MixedVersion`] when the vault version and the embedded
/// model's format version disagree.
pub fn decode_secrets(bytes: &[u8]) -> Result<OwnerSecrets, CodecError> {
    let _span = telemetry::Span::enter(&telemetry::VAULT_DECODE_NS);
    let mut r = Reader::new(bytes, Section::Vault);
    r.magic(MAGIC)?;
    let version = r.u32("secrets version")?;
    if version != FORMAT_V1 && version != FORMAT_V2 {
        return Err(CodecError::BadVersion(version));
    }
    let config = r.watermark_config()?;

    let sig_len = r.u32("signature length")? as usize;
    r.need(sig_len, "signature bits")?;
    let mut bits = Vec::with_capacity(sig_len);
    for _ in 0..sig_len {
        let b = r.i8("signature bit")?;
        if b != 1 && b != -1 {
            return Err(r.corrupt(format!("signature bit {b} is not ±1")));
        }
        bits.push(b);
    }
    let signature = Signature::from_bits(bits);

    let n_layers = r.u32("stats layer count")? as usize;
    // Bound the allocation by the bytes actually present (each layer
    // carries at least a channel-count word) before trusting the count.
    r.need(n_layers.saturating_mul(4), "stats layers")?;
    let mut per_layer = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let channels = r.u32("stats channel count")? as usize;
        r.need(channels * 8, "stats values")?;
        let mut mean_abs = Vec::with_capacity(channels);
        for _ in 0..channels {
            mean_abs.push(r.f32("stats mean")?);
        }
        let mut max_abs = Vec::with_capacity(channels);
        for _ in 0..channels {
            max_abs.push(r.f32("stats max")?);
        }
        per_layer.push(LayerActivation { mean_abs, max_abs });
    }
    let stats = ActivationStats { per_layer };

    let model_len = r.u32("model length")? as usize;
    let model_bytes = r.take(model_len, "model bytes")?;
    // A vault must embed an artifact of its own format generation; a
    // mismatch means the vault was spliced or mis-migrated.
    let inner = artifact_version(model_bytes)?;
    if inner != version {
        return Err(CodecError::MixedVersion {
            outer: version,
            inner,
        });
    }
    let original = decode_model(model_bytes)?;
    if stats.layer_count() != original.layer_count() {
        return Err(r.corrupt(format!(
            "stats cover {} layers, model has {}",
            stats.layer_count(),
            original.layer_count()
        )));
    }
    Ok(OwnerSecrets {
        original,
        stats,
        signature,
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watermark::WatermarkConfig;
    use emmark_nanolm::config::ModelConfig;
    use emmark_nanolm::TransformerModel;
    use emmark_quant::awq::{awq, AwqConfig};

    fn secrets() -> OwnerSecrets {
        let mut model = TransformerModel::new(ModelConfig::tiny_test());
        let calib = vec![vec![1u32, 2, 3, 4, 5, 6, 7, 8]];
        let stats = model.collect_activation_stats(&calib);
        let qm = awq(&model, &stats, &AwqConfig::default());
        let cfg = WatermarkConfig {
            bits_per_layer: 4,
            pool_ratio: 10,
            ..Default::default()
        };
        OwnerSecrets::new(qm, stats, cfg, 0x5EC2)
    }

    #[test]
    fn vault_roundtrip_preserves_proof_power() {
        let original = secrets();
        let deployed = original.watermark_for_deployment().expect("insert");
        let bytes = encode_secrets(&original);
        let restored = decode_secrets(&bytes).expect("decode");
        // The restored secrets prove ownership of the deployed model
        // exactly as the originals did.
        let report = restored.verify(&deployed).expect("verify");
        assert_eq!(report.wer(), 100.0);
        assert_eq!(restored.signature, original.signature);
        assert_eq!(restored.config, original.config);
        assert_eq!(restored.stats, original.stats);
        assert!(restored.original.same_weights(&original.original));
    }

    #[test]
    fn v1_vault_still_decodes_and_reencodes_at_v2() {
        let original = secrets();
        let v1_bytes = encode_secrets_v1(&original);
        let restored = decode_secrets(&v1_bytes).expect("v1 decode");
        assert!(restored.original.same_weights(&original.original));
        assert_eq!(restored.signature, original.signature);
        // Re-encoding migrates to the current version.
        let v2_bytes = encode_secrets(&restored);
        assert_eq!(&v2_bytes[4..8], &VERSION.to_le_bytes());
        let again = decode_secrets(&v2_bytes).expect("v2 decode");
        assert!(again.original.same_weights(&original.original));
    }

    #[test]
    fn mixed_version_vault_is_rejected_with_a_clear_error() {
        let original = secrets();
        // A v2 vault whose embedded model was downgraded to v1 — the
        // splice a buggy migration tool would produce.
        let good = encode_secrets(&original).to_vec();
        let v1_model = encode_model_v1(&original.original);
        let v2_model = encode_model(&original.original);
        let model_start = good.len() - v2_model.len();
        let mut spliced = good[..model_start - 4].to_vec();
        spliced.extend_from_slice(&(v1_model.len() as u32).to_le_bytes());
        spliced.extend_from_slice(&v1_model);
        let err = decode_secrets(&spliced).expect_err("mixed vault must fail");
        assert_eq!(
            err,
            CodecError::MixedVersion {
                outer: FORMAT_V2,
                inner: FORMAT_V1
            }
        );
        assert!(err.to_string().contains("mixed-version"), "{err}");
    }

    #[test]
    fn vault_rejects_garbage() {
        assert!(matches!(
            decode_secrets(b"EMQM1234"),
            Err(CodecError::BadMagic)
        ));
        assert!(matches!(
            decode_secrets(b"EM"),
            Err(CodecError::Truncated { .. })
        ));
        let bytes = encode_secrets(&secrets());
        for cut in [10usize, 40, bytes.len() / 2, bytes.len() - 5] {
            assert!(
                decode_secrets(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn vault_rejects_corrupted_signature_bits() {
        let bytes = encode_secrets(&secrets()).to_vec();
        // Signature bits start after magic(4)+version(4)+config(32)+len(4).
        let mut corrupted = bytes.clone();
        corrupted[4 + 4 + 32 + 4] = 3; // not ±1
        assert!(matches!(
            decode_secrets(&corrupted),
            Err(CodecError::Corrupt { .. })
        ));
    }

    #[test]
    fn unknown_vault_version_is_rejected() {
        let mut bytes = encode_secrets(&secrets()).to_vec();
        bytes[4] = 77;
        assert_eq!(
            decode_secrets(&bytes).unwrap_err(),
            CodecError::BadVersion(77)
        );
    }
}
