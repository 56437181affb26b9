//! Truncation/corruption coverage for the EMFM shard-manifest codec and
//! the EMFR registry entries it names: cutting the manifest at (and
//! around) *every* section boundary must fail
//! cleanly — never panic, never load a damaged fleet — and the shard
//! loader must reject mixed-version layouts, overlapping or gapped
//! device ranges, checksum/length mismatches, and a leak index naming
//! devices the registry does not have or cells outside its shape
//! table. Version 1 manifests are refused by version, and the version 2
//! trailer checksum catches any structurally valid edit.

use emmark::core::deploy::CodecError;
use emmark::core::fleet::{decode_registry, encode_registry, registry_entry};
use emmark::core::provision::FleetProvisioner;
use emmark::core::registry::{
    decode_manifest, encode_manifest, load_sharded_registry, manifest_section_boundaries,
    provision_sharded, shard_checksum, ShardedFleet, MANIFEST_VERSION,
};
use emmark::core::store::StoreError;
use emmark::core::watermark::{OwnerSecrets, WatermarkConfig};
use emmark::nanolm::{ModelConfig, TransformerModel};
use emmark::quant::awq::{awq, AwqConfig};
use proptest::prelude::*;

fn base_secrets(seed: u64) -> OwnerSecrets {
    let mut cfg = ModelConfig::tiny_test();
    cfg.init_seed = seed;
    let mut model = TransformerModel::new(cfg);
    let calib: Vec<Vec<u32>> = (0..4u32)
        .map(|s| (0..16u32).map(|i| (i * 7 + s) % 31).collect())
        .collect();
    let stats = model.collect_activation_stats(&calib);
    let qm = awq(&model, &stats, &AwqConfig::default());
    let wm = WatermarkConfig {
        bits_per_layer: 3,
        pool_ratio: 10,
        ..Default::default()
    };
    OwnerSecrets::new(qm, stats, wm, seed ^ 0x5EC2)
}

fn sharded_fleet(seed: u64, devices: usize, shards: usize) -> (Vec<String>, ShardedFleet) {
    let fp_cfg = WatermarkConfig {
        bits_per_layer: 2,
        pool_ratio: 10,
        selection_seed: 0xDE11CE ^ seed,
        ..Default::default()
    };
    let provisioner = FleetProvisioner::new(base_secrets(seed), fp_cfg).expect("cache");
    let ids: Vec<String> = (0..devices).map(|i| format!("edge-{i:02}")).collect();
    let fleet = provision_sharded(&provisioner, &ids, shards, None).expect("provision");
    (ids, fleet)
}

/// Loads a fleet whose shard bytes live in memory.
fn load(
    manifest_bytes: &[u8],
    fleet: &ShardedFleet,
) -> Result<emmark::core::registry::ShardedRegistry, StoreError> {
    load_sharded_registry(manifest_bytes, |name| {
        fleet
            .shards
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.to_vec())
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, name.to_string()))
    })
}

// Fixed offsets of the manifest header: magic (4), manifest version
// (4), shard registry version (4), then the 32-byte fingerprint config.
const REGISTRY_VERSION_WORD: usize = 8;
const CONFIG_START: usize = 12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Encode → decode is the identity, the loaded device list matches
    /// the serially derived registry entries, and the section-boundary
    /// walk spans exactly the encoded bytes.
    #[test]
    fn manifest_round_trips_and_loads(
        seed in 0u64..100_000,
        devices in 1usize..12,
        shards in 1usize..5,
    ) {
        let (ids, fleet) = sharded_fleet(seed, devices, shards);
        let bytes = encode_manifest(&fleet.manifest).to_vec();
        let decoded = decode_manifest(&bytes).expect("decode");
        prop_assert_eq!(&decoded, &fleet.manifest);

        let boundaries = manifest_section_boundaries(&bytes).expect("boundaries");
        prop_assert_eq!(*boundaries.last().unwrap(), bytes.len());
        prop_assert!(boundaries.windows(2).all(|w| w[0] < w[1]));

        let loaded = load(&bytes, &fleet).expect("load");
        prop_assert_eq!(loaded.devices().len(), devices);
        for (id, device) in ids.iter().zip(loaded.devices()) {
            prop_assert_eq!(device, &registry_entry(&fleet.manifest.fingerprint_config, id));
        }
        prop_assert_eq!(loaded.index(), &fleet.manifest.index);
    }

    /// Truncating the manifest at (and just around) every section
    /// boundary is a clean codec error, never a panic or a silently
    /// shortened fleet.
    #[test]
    fn truncation_at_every_section_boundary_errors_cleanly(
        seed in 0u64..100_000,
        devices in 1usize..8,
        shards in 1usize..4,
    ) {
        let (_, fleet) = sharded_fleet(seed, devices, shards);
        let bytes = encode_manifest(&fleet.manifest).to_vec();
        let boundaries = manifest_section_boundaries(&bytes).expect("boundaries");
        let mut cuts: Vec<usize> = boundaries
            .iter()
            .flat_map(|&b| [b.saturating_sub(1), b, b + 1])
            .filter(|&c| c < bytes.len())
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        for cut in cuts {
            let err = decode_manifest(&bytes[..cut]).expect_err("truncated decode");
            prop_assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. }
                        | CodecError::Corrupt { .. }
                        | CodecError::BadMagic
                        | CodecError::BadVersion(_)
                ),
                "cut {cut}: {err:?}"
            );
        }
    }
}

#[test]
fn foreign_versions_are_rejected() {
    let (_, fleet) = sharded_fleet(1, 6, 2);
    let bytes = encode_manifest(&fleet.manifest).to_vec();

    // An unknown manifest version.
    let mut evil = bytes.clone();
    evil[4..8].copy_from_slice(&9u32.to_le_bytes());
    assert_eq!(
        decode_manifest(&evil).expect_err("bad manifest version"),
        CodecError::BadVersion(9)
    );

    // A manifest declaring shards of a registry version this build does
    // not write: a mixed-version layout, not mere corruption.
    let mut evil = bytes.clone();
    evil[REGISTRY_VERSION_WORD..REGISTRY_VERSION_WORD + 4].copy_from_slice(&2u32.to_le_bytes());
    assert_eq!(
        decode_manifest(&evil).expect_err("mixed registry version"),
        CodecError::MixedVersion {
            outer: MANIFEST_VERSION,
            inner: 2
        }
    );

    // A shard file of a foreign registry version under a consistent
    // manifest (checksum and length re-stamped to collude): still a
    // mixed-version error at load time.
    let mut fleet = fleet;
    let mut shard0 = fleet.shards[0].1.to_vec();
    shard0[4..8].copy_from_slice(&2u32.to_le_bytes());
    fleet.manifest.shards[0].checksum = shard_checksum(&shard0);
    fleet.manifest.shards[0].byte_len = shard0.len() as u64;
    fleet.shards[0].1 = shard0.into();
    let bytes = encode_manifest(&fleet.manifest).to_vec();
    match load(&bytes, &fleet).expect_err("mixed shard version") {
        StoreError::Codec(CodecError::MixedVersion {
            outer: MANIFEST_VERSION,
            inner: 2,
        }) => {}
        other => panic!("expected MixedVersion, got {other:?}"),
    }
}

#[test]
fn overlapping_gapped_and_empty_shard_ranges_are_rejected() {
    let (_, fleet) = sharded_fleet(2, 8, 2);

    // Overlap: shard 1 restarts inside shard 0's range.
    let mut evil = fleet.manifest.clone();
    evil.shards[1].first_device -= 1;
    let err = decode_manifest(&encode_manifest(&evil)).expect_err("overlap");
    assert!(err.to_string().contains("contiguous"), "{err}");

    // Gap: shard 1 skips a device.
    let mut evil = fleet.manifest.clone();
    evil.shards[1].first_device += 1;
    let err = decode_manifest(&encode_manifest(&evil)).expect_err("gap");
    assert!(err.to_string().contains("contiguous"), "{err}");

    // Total mismatch: the shards do not sum to the declared count.
    let mut evil = fleet.manifest.clone();
    evil.total_devices += 1;
    let err = decode_manifest(&encode_manifest(&evil)).expect_err("total");
    assert!(err.to_string().contains("declares"), "{err}");

    // Empty shard (ranges still contiguous and summing correctly).
    let mut evil = fleet.manifest.clone();
    let moved = evil.shards[1].device_count;
    evil.shards[0].device_count += moved;
    evil.shards[1].first_device += moved;
    evil.shards[1].device_count = 0;
    let err = decode_manifest(&encode_manifest(&evil)).expect_err("empty shard");
    assert!(err.to_string().contains("empty"), "{err}");
}

#[test]
fn shard_bytes_must_match_their_manifest_entry() {
    let (_, fleet) = sharded_fleet(3, 6, 2);
    let bytes = encode_manifest(&fleet.manifest).to_vec();

    // A flipped byte in a shard file: checksum mismatch.
    let mut evil = fleet.clone();
    let mut shard1 = evil.shards[1].1.to_vec();
    let last = shard1.len() - 1;
    shard1[last] ^= 0x40;
    evil.shards[1].1 = shard1.into();
    let err = load(&bytes, &evil).expect_err("checksum");
    assert!(err.to_string().contains("checksum"), "{err}");

    // An appended byte: length mismatch (before the checksum is even
    // computed).
    let mut evil = fleet.clone();
    let mut shard0 = evil.shards[0].1.to_vec();
    shard0.push(0);
    evil.shards[0].1 = shard0.into();
    let err = load(&bytes, &evil).expect_err("length");
    assert!(err.to_string().contains("bytes"), "{err}");

    // A shard whose fingerprint config disagrees with the manifest,
    // with checksum and length re-stamped to collude.
    let mut evil = fleet.clone();
    let mut shard0 = evil.shards[0].1.to_vec();
    // pool_ratio word inside the shard's config (magic 4 + version 4 +
    // bits_per_layer u64 ... the config's second u64-ish field); flip a
    // config byte that keeps the config valid but different.
    shard0[8 + 24] ^= 0x01;
    evil.manifest.shards[0].checksum = shard_checksum(&shard0);
    evil.manifest.shards[0].byte_len = shard0.len() as u64;
    evil.shards[0].1 = shard0.into();
    let err = load(&encode_manifest(&evil.manifest), &evil).expect_err("config");
    let msg = err.to_string();
    assert!(
        msg.contains("differs") || msg.contains("config"),
        "unhelpful error: {msg}"
    );

    // A missing shard file is an I/O error, not a panic.
    let err = load_sharded_registry(&bytes, |_| {
        Err(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"))
    })
    .expect_err("missing shard");
    assert!(matches!(err, StoreError::Io { .. }));
}

#[test]
fn shard_names_cannot_escape_the_manifest_directory() {
    let (_, fleet) = sharded_fleet(4, 4, 1);
    for evil_name in ["../secrets.emws", "a/b.emfr", "a\\b.emfr", ""] {
        let mut evil = fleet.manifest.clone();
        evil.shards[0].name = evil_name.to_string();
        let err = decode_manifest(&encode_manifest(&evil)).expect_err("path escape");
        assert!(
            err.to_string().contains("escapes") || err.to_string().contains("empty"),
            "{evil_name:?}: {err}"
        );
    }

    // Invalid UTF-8 in a shard name.
    let bytes = encode_manifest(&fleet.manifest).to_vec();
    let boundaries = manifest_section_boundaries(&bytes).expect("boundaries");
    // boundaries: [0, 4, 8, 12, config end, shard-count end, …]; the
    // first shard entry (length-prefixed name) starts at boundaries[5].
    let name_start = boundaries[5] + 4;
    let mut evil = bytes.clone();
    evil[name_start] = 0xFF;
    let err = decode_manifest(&evil).expect_err("bad utf-8");
    assert!(err.to_string().contains("utf-8"), "{err}");
}

#[test]
fn corrupted_leak_index_is_rejected_not_panicking() {
    let (_, fleet) = sharded_fleet(5, 10, 2);
    let bytes = encode_manifest(&fleet.manifest).to_vec();
    let boundaries = manifest_section_boundaries(&bytes).expect("boundaries");
    let shard_count = fleet.manifest.shards.len();
    // boundaries: [0, 4, 8, 12, config end, shard-count end,
    // per-shard ends…, cells start, per-cell marks…].
    let cells_start = boundaries[6 + shard_count];
    let total = fleet.manifest.total_devices as u32;

    // An invalid fingerprint config (pool_ratio = 0).
    let mut evil = bytes.clone();
    evil[CONFIG_START + 20..CONFIG_START + 24].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        decode_manifest(&evil),
        Err(CodecError::Corrupt { .. })
    ));

    // A cell-count word promising more cells than the input holds.
    let mut evil = bytes.clone();
    evil[cells_start - 4..cells_start].copy_from_slice(&(u32::MAX / 2).to_le_bytes());
    assert!(matches!(
        decode_manifest(&evil),
        Err(CodecError::Truncated { .. })
    ));

    // An out-of-order first cell: forcing its layer word sky-high makes
    // the (layer, flat) ordering check fire on the second cell.
    let mut evil = bytes.clone();
    evil[cells_start..cells_start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = decode_manifest(&evil).expect_err("unsorted cells");
    assert!(err.to_string().contains("sorted"), "{err}");

    // Walk the cells for a bucket with entries, then (a) point its
    // first device id past the fleet and (b) break its ordering.
    let mut pos = cells_start;
    let mut bucket_with_two = None;
    let mut bucket_with_one = None;
    while pos < bytes.len() {
        pos += 12; // layer + flat
        for _ in 0..2 {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            if len >= 1 && bucket_with_one.is_none() {
                bucket_with_one = Some(pos);
            }
            if len >= 2 && bucket_with_two.is_none() {
                bucket_with_two = Some(pos);
            }
            pos += 4 + 4 * len;
        }
        if bucket_with_two.is_some() {
            break;
        }
    }
    let one = bucket_with_one.expect("some bucket has an entry");
    let mut evil = bytes.clone();
    evil[one + 4..one + 8].copy_from_slice(&total.to_le_bytes());
    let err = decode_manifest(&evil).expect_err("out-of-range device");
    assert!(err.to_string().contains("names device"), "{err}");

    if let Some(two) = bucket_with_two {
        let first = u32::from_le_bytes(bytes[two + 4..two + 8].try_into().unwrap());
        let mut evil = bytes.clone();
        evil[two + 8..two + 12].copy_from_slice(&first.to_le_bytes());
        let err = decode_manifest(&evil).expect_err("unsorted bucket");
        assert!(err.to_string().contains("ascending"), "{err}");
    }
}

#[test]
fn registry_errors_carry_device_section_context_too() {
    let fp_cfg = WatermarkConfig {
        bits_per_layer: 2,
        pool_ratio: 10,
        selection_seed: 0xDE11CE ^ 2,
        ..Default::default()
    };
    let devices: Vec<_> = ["edge-00", "edge-01"]
        .iter()
        .map(|id| registry_entry(&fp_cfg, id))
        .collect();
    let bytes = encode_registry(&fp_cfg, &devices).to_vec();
    // Truncate inside the second device entry.
    let err = decode_registry(&bytes[..bytes.len() - 5]).expect_err("truncated");
    let msg = err.to_string();
    assert!(msg.contains("device 1"), "unhelpful error: {msg}");
    assert!(msg.contains("byte"), "no offset in: {msg}");
}

/// Re-stamps a manifest's trailer after an in-place edit, so only the
/// structural checks stand between the edit and a decoded manifest.
fn restamp(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let sum = shard_checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

/// Offset of the per-cell base column: it follows the cells and
/// precedes the shape table (u32 count + 8 bytes per layer) and the
/// 8-byte trailer.
fn base_column_start(fleet: &ShardedFleet, len: usize) -> usize {
    let index = &fleet.manifest.index;
    len - 8 - (4 + 8 * index.layer_count()) - index.cell_count()
}

#[test]
fn version_1_manifests_are_refused_by_version() {
    let (_, fleet) = sharded_fleet(6, 4, 2);
    let mut bytes = encode_manifest(&fleet.manifest).to_vec();
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    restamp(&mut bytes);
    assert_eq!(
        decode_manifest(&bytes).expect_err("v1 manifest"),
        CodecError::BadVersion(1)
    );
    assert_eq!(MANIFEST_VERSION, 2);
}

#[test]
fn checksum_catches_structurally_valid_edits() {
    let (_, fleet) = sharded_fleet(7, 6, 2);
    let bytes = encode_manifest(&fleet.manifest).to_vec();
    let boundaries = manifest_section_boundaries(&bytes).expect("boundaries");
    let checksum_mismatch = |evil: &[u8]| match decode_manifest(evil) {
        Err(CodecError::Corrupt { msg, .. }) => msg == "manifest checksum mismatch",
        _ => false,
    };

    // One base value nudged by one level: every structural check passes.
    let base = base_column_start(&fleet, bytes.len());
    let mut evil = bytes.clone();
    evil[base + 1] = evil[base + 1].wrapping_add(1);
    assert!(checksum_mismatch(&evil), "{:?}", decode_manifest(&evil));
    // The same edit, re-stamped, decodes — the checksum was the only
    // guard, and the base value really moved.
    restamp(&mut evil);
    let decoded = decode_manifest(&evil).expect("re-stamped edit decodes");
    assert_ne!(decoded.index, fleet.manifest.index);

    // One bucket id swapped for another in-range id in a one-entry
    // bucket: still ascending, still in range.
    let cells_start = boundaries[6 + fleet.manifest.shards.len()];
    let total = fleet.manifest.total_devices as u32;
    let mut pos = cells_start;
    let lone = loop {
        pos += 12; // layer + flat
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        if len == 1 {
            break pos + 4;
        }
        pos += 4 + 4 * len as usize;
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        pos += 4 + 4 * len as usize;
    };
    let id = u32::from_le_bytes(bytes[lone..lone + 4].try_into().unwrap());
    let mut evil = bytes.clone();
    evil[lone..lone + 4].copy_from_slice(&((id + 1) % total).to_le_bytes());
    assert!(checksum_mismatch(&evil), "{:?}", decode_manifest(&evil));

    // A flipped trailer byte, and trailing bytes after the trailer.
    let mut evil = bytes.clone();
    let last = evil.len() - 1;
    evil[last] ^= 0x01;
    assert!(checksum_mismatch(&evil), "{:?}", decode_manifest(&evil));
    let mut evil = bytes.clone();
    evil.push(0);
    let err = decode_manifest(&evil).expect_err("trailing byte");
    assert!(err.to_string().contains("trailing"), "{err}");
}

#[test]
fn cells_outside_the_shape_table_are_corrupt() {
    let (_, fleet) = sharded_fleet(8, 6, 2);
    let bytes = encode_manifest(&fleet.manifest).to_vec();
    let index = &fleet.manifest.index;
    // Shrink the last layer's recorded shape to 1x1: every indexed cell
    // of that layer (all at flat >= 1 but one, at most) falls outside.
    let shapes = bytes.len() - 8 - 8 * index.layer_count();
    let last = shapes + 8 * (index.layer_count() - 1);
    let mut evil = bytes.clone();
    evil[last..last + 8].copy_from_slice(&[1, 0, 0, 0, 1, 0, 0, 0]);
    restamp(&mut evil);
    let err = decode_manifest(&evil).expect_err("cell outside the shape table");
    assert!(matches!(err, CodecError::Corrupt { .. }), "{err:?}");
    assert!(err.to_string().contains("outside"), "{err}");
}
