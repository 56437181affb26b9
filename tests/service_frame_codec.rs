//! Truncation/corruption coverage for the `emmarkd` frame payload codec,
//! the service counterpart of the EMQM/EMFM codec proptests: every
//! [`Request`] and [`Response`] variant round-trips, every strict prefix
//! of an encoded payload is rejected with an `Err`, and no single-byte
//! flip anywhere in a payload makes the decoder panic. Inline blobs and
//! the inline `Provision` artifact are drawn at varying lengths, so
//! their length words are exercised against the bytes actually present.

use emmark::core::fingerprint::DeviceFingerprint;
use emmark::core::service::{
    decode_request, decode_response, encode_request, encode_response, Blob, InspectSummary,
    ReportSummary, Request, Response,
};
use emmark::core::watermark::WatermarkConfig;
use proptest::prelude::*;

fn bytes(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_add((i as u8).wrapping_mul(37)))
        .collect()
}

fn fingerprint(seed: u64) -> DeviceFingerprint {
    DeviceFingerprint {
        device_id: format!("edge-{seed:04}"),
        selection_seed: seed ^ 0xA5A5,
        signature_seed: seed.rotate_left(17),
    }
}

fn report(seed: u64, threshold: f64) -> ReportSummary {
    ReportSummary {
        total_bits: 48 + seed % 7,
        matched_bits: 40 + seed % 5,
        wer: 90.0 + (seed % 10) as f64,
        log10_p_chance: threshold,
    }
}

/// One request of every variant, with inline and path blobs.
fn requests(blob_len: usize, seed: u8, threshold: f64) -> Vec<Request> {
    let inline = Blob::Inline(bytes(blob_len, seed));
    let path = Blob::Path(format!("/srv/vault-{seed}.emws"));
    vec![
        Request::Ping,
        Request::Shutdown,
        Request::Verify {
            secrets: inline.clone(),
            suspect: path.clone(),
            log10_threshold: threshold,
        },
        Request::Provision {
            secrets: inline.clone(),
            fingerprint_config: WatermarkConfig {
                bits_per_layer: 1 + blob_len % 5,
                pool_ratio: 10,
                selection_seed: seed as u64,
                ..Default::default()
            },
            device_id: format!("device-{seed}"),
        },
        Request::IdentifyLeak {
            secrets: path.clone(),
            registry: inline.clone(),
            suspect: Blob::Inline(bytes(blob_len / 2, seed ^ 0x5A)),
            log10_threshold: threshold,
            linear: seed.is_multiple_of(2),
        },
        Request::Inspect { target: inline },
        Request::Inspect { target: path },
    ]
}

/// One response of every variant and inspect kind, including an inline
/// `Provision` artifact.
fn responses(blob_len: usize, seed: u8, threshold: f64) -> Vec<Response> {
    let s = seed as u64;
    let cfg = WatermarkConfig {
        bits_per_layer: 2,
        pool_ratio: 10,
        selection_seed: s,
        ..Default::default()
    };
    vec![
        Response::Pong,
        Response::ShutdownComplete,
        Response::Busy {
            retry_after_ms: seed as u32,
        },
        Response::Error {
            message: format!("failure {seed}"),
        },
        Response::Verify {
            report: report(s, threshold),
            proved: !seed.is_multiple_of(2),
        },
        Response::Provision {
            fingerprint: fingerprint(s),
            artifact: bytes(blob_len, seed),
        },
        Response::Identify { matched: None },
        Response::Identify {
            matched: Some((fingerprint(s + 1), report(s + 1, threshold))),
        },
        Response::Inspect(InspectSummary::Artifact {
            format_version: 2,
            scheme: "awq-int4".to_string(),
            layers: 6,
            cells: 4096 + s,
        }),
        Response::Inspect(InspectSummary::Manifest {
            shard_count: 4,
            device_count: 1024 + s,
        }),
        Response::Inspect(InspectSummary::Registry {
            device_count: 16,
            fingerprint_config: cfg,
        }),
        Response::Inspect(InspectSummary::Secrets {
            layers: 6,
            signature_bits: 48,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every request variant round-trips, and cutting its payload short
    /// anywhere is an error, never a shorter valid request or a panic.
    #[test]
    fn request_prefixes_are_rejected(
        id in 0u64..u64::MAX,
        blob_len in 0usize..48,
        seed in 0u8..255,
        threshold in -30.0f64..0.0,
    ) {
        for req in requests(blob_len, seed, threshold) {
            let payload = encode_request(id, &req);
            let (echo, decoded) = decode_request(&payload).expect("round trip");
            prop_assert_eq!(echo, id);
            prop_assert_eq!(&decoded, &req);
            for cut in 0..payload.len() {
                prop_assert!(
                    decode_request(&payload[..cut]).is_err(),
                    "{:?} cut at {} of {} decoded", req, cut, payload.len()
                );
            }
        }
    }

    /// Every response variant round-trips, and every strict prefix of
    /// its payload is an error.
    #[test]
    fn response_prefixes_are_rejected(
        id in 0u64..u64::MAX,
        blob_len in 0usize..48,
        seed in 0u8..255,
        threshold in -30.0f64..0.0,
    ) {
        for resp in responses(blob_len, seed, threshold) {
            let payload = encode_response(id, &resp);
            let (echo, decoded) = decode_response(&payload).expect("round trip");
            prop_assert_eq!(echo, id);
            prop_assert_eq!(&decoded, &resp);
            for cut in 0..payload.len() {
                prop_assert!(
                    decode_response(&payload[..cut]).is_err(),
                    "{:?} cut at {} of {} decoded", resp, cut, payload.len()
                );
            }
        }
    }

    /// Flipping any single byte of any payload yields `Ok` or `Err` —
    /// the decoders never panic, whatever a length word or tag becomes.
    #[test]
    fn single_byte_flips_never_panic(
        id in 0u64..u64::MAX,
        blob_len in 0usize..48,
        seed in 0u8..255,
        mask in 1u8..255,
    ) {
        let threshold = -(seed as f64) / 8.0;
        for req in requests(blob_len, seed, threshold) {
            let payload = encode_request(id, &req);
            for at in 0..payload.len() {
                let mut flipped = payload.clone();
                flipped[at] ^= mask;
                let _ = decode_request(&flipped);
            }
        }
        for resp in responses(blob_len, seed, threshold) {
            let payload = encode_response(id, &resp);
            for at in 0..payload.len() {
                let mut flipped = payload.clone();
                flipped[at] ^= mask;
                let _ = decode_response(&flipped);
            }
        }
    }
}

/// Inspect kind 1 is retired and stays unassigned: a response carrying
/// it is rejected, even with a body in that kind's old layout (a device
/// count plus a fingerprint config — the layout kind 3 still uses).
#[test]
fn retired_inspect_kind_is_rejected() {
    let registry = Response::Inspect(InspectSummary::Registry {
        device_count: 8,
        fingerprint_config: WatermarkConfig {
            bits_per_layer: 2,
            pool_ratio: 10,
            ..Default::default()
        },
    });
    let mut payload = encode_response(9, &registry);
    // The kind byte follows the header and the one-byte response tag,
    // which is exactly where a `Pong` payload ends.
    let kind_at = encode_response(9, &Response::Pong).len();
    assert_eq!(payload[kind_at], 3, "registry inspect kind");
    payload[kind_at] = 1;
    let err = decode_response(&payload).expect_err("retired kind");
    assert!(err.to_string().contains("unknown inspect kind"), "{err}");
}
