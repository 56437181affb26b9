//! The serve path: six model families, each with a sharded 64-device
//! fleet, and a client for a real `emmark serve --socket` daemon over one
//! Unix-socket connection.
//!
//! Families are picked by a seeded Zipf draw and the daemon keeps four
//! warm, so the working set is larger than its family cache. The mix is
//! ~70% `Verify`, ~20% `IdentifyLeak` and ~10% `Provision`, all with
//! path blobs; `Provision` returns the whole artifact inline. The traced
//! run drives this mix through an in-process `Service` and through the
//! daemon.

use crate::fixtures::{
    build_family, build_fleet, fingerprint_config, spec, Family, FamilySpec, Scheme,
};
use crate::proc::Daemon;
use crate::Ctx;
use emmark::core::deploy::SparseArtifact;
use emmark::core::service::{
    decode_response, encode_request, read_frame, write_frame, Blob, ReportSummary, Request,
    Response,
};
use emmark::tensor::rng::SplitMix64;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Six families of similar size, so a family-cache miss costs about
/// the same whichever family it hits.
const SPECS: [FamilySpec; 6] = [
    spec("opt-d48", 48, 192, false, Scheme::AwqInt4),
    spec("llama-d48", 48, 144, true, Scheme::RtnInt8),
    spec("opt-d48-int8", 48, 192, false, Scheme::RtnInt8),
    spec("llama-d48-int4", 48, 144, true, Scheme::AwqInt4),
    spec("opt-d56", 56, 192, false, Scheme::AwqInt4),
    spec("llama-d56", 56, 144, true, Scheme::RtnInt8),
];
/// Warm families the daemon keeps (fewer than the six served).
pub const CACHE_FAMILIES: usize = 4;
const THRESHOLD: f64 = -6.0;

pub struct ServeFamily {
    pub family: Family,
    pub manifest: PathBuf,
    /// Device artifacts on disk, their device, and the one-shot report.
    pub suspects: Vec<(PathBuf, String, ReportSummary)>,
    /// Device ids to provision and the artifact each must come back as.
    pub provisions: Vec<(String, Vec<u8>)>,
}

/// Each family's fleet: devices, shards, device artifacts written as
/// suspects, and fresh device ids for `Provision` requests.
const DEVICES: usize = 64;
const SHARDS: usize = 4;
const SUSPECTS: usize = 8;
const PROVISIONS: usize = 8;

/// Builds each family with a sharded fleet, suspects with their
/// one-shot verify reports, and expected provisioned artifacts.
pub fn setup_families(ctx: &Ctx) -> Result<Vec<ServeFamily>, String> {
    SPECS
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let seed = ctx.seed.wrapping_add(i as u64);
            let dir = ctx.work.join("serve").join(spec.label);
            let family = build_family(spec, seed, &dir).map_err(|e| e.to_string())?;
            let fleet = build_fleet(&family, DEVICES, SHARDS, &dir.join("fleet"))
                .map_err(|e| e.to_string())?;
            let mut rng = SplitMix64::new(seed ^ 0x5E7E);
            let suspects = (0..SUSPECTS)
                .map(|k| {
                    let id = fleet.ids[rng.next_u64() as usize % DEVICES].clone();
                    let artifact = fleet.provisioner.provision_artifact(&id).artifact;
                    let report = family
                        .secrets
                        .verify(&SparseArtifact::open(&artifact).map_err(|e| e.to_string())?)
                        .map_err(|e| e.to_string())?;
                    let path = dir.join(format!("suspect-{k}.emqm"));
                    std::fs::write(&path, &artifact).map_err(|e| e.to_string())?;
                    Ok((path, id, ReportSummary::from(&report)))
                })
                .collect::<Result<_, String>>()?;
            let provisions = (0..PROVISIONS)
                .map(|_| {
                    let id = format!("field-{:08x}", rng.next_u64() as u32);
                    let artifact = fleet.provisioner.provision_artifact(&id).artifact;
                    (id, artifact)
                })
                .collect();
            Ok(ServeFamily {
                family,
                manifest: fleet.manifest_path,
                suspects,
                provisions,
            })
        })
        .collect()
}

/// Which request of which family, and what its reply must be.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Verify { family: usize, suspect: usize },
    Identify { family: usize, suspect: usize },
    Provision { family: usize, device: usize },
}

fn path(p: &Path) -> Blob {
    Blob::Path(p.to_str().expect("work paths are UTF-8").to_string())
}

impl Op {
    pub fn family(self) -> usize {
        match self {
            Op::Verify { family, .. }
            | Op::Identify { family, .. }
            | Op::Provision { family, .. } => family,
        }
    }

    pub fn request(self, fams: &[ServeFamily]) -> Request {
        let f = &fams[self.family()];
        let secrets = path(&f.family.vault_path);
        match self {
            Op::Verify { suspect, .. } => Request::Verify {
                secrets,
                suspect: path(&f.suspects[suspect].0),
                log10_threshold: THRESHOLD,
            },
            Op::Identify { suspect, .. } => Request::IdentifyLeak {
                secrets,
                registry: path(&f.manifest),
                suspect: path(&f.suspects[suspect].0),
                log10_threshold: THRESHOLD,
                linear: false,
            },
            Op::Provision { device, .. } => Request::Provision {
                secrets,
                fingerprint_config: fingerprint_config(),
                device_id: f.provisions[device].0.clone(),
            },
        }
    }

    /// Checks a reply against the one-shot engines' answer.
    pub fn check(self, fams: &[ServeFamily], resp: &Response) -> Result<(), String> {
        let f = &fams[self.family()];
        match (self, resp) {
            (Op::Verify { suspect, .. }, Response::Verify { report, proved }) => (*proved
                && *report == f.suspects[suspect].2)
                .then_some(())
                .ok_or_else(|| {
                    format!("verify report {report:?} differs from the one-shot report")
                }),
            (
                Op::Identify { suspect, .. },
                Response::Identify {
                    matched: Some((fp, _)),
                },
            ) => (fp.device_id == f.suspects[suspect].1)
                .then_some(())
                .ok_or_else(|| {
                    format!(
                        "identified {}, expected {}",
                        fp.device_id, f.suspects[suspect].1
                    )
                }),
            (
                Op::Provision { device, .. },
                Response::Provision {
                    fingerprint,
                    artifact,
                },
            ) => {
                let (id, want) = &f.provisions[device];
                (fingerprint.device_id == *id && artifact == want)
                    .then_some(())
                    .ok_or_else(|| {
                        format!("provisioned artifact for {id} differs from provision_artifact")
                    })
            }
            (op, other) => Err(format!("{op:?}: unexpected reply {other:?}")),
        }
    }
}

/// Family index drawn from a Zipf(1) law over `n` families.
fn zipf(rng: &mut SplitMix64, n: usize) -> usize {
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
    let mut x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * weights.iter().sum::<f64>();
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    n - 1
}

/// The seeded request mix: Zipf families, ~70/20/10 verify/identify/
/// provision.
pub fn plan(fams: &[ServeFamily], rng: &mut SplitMix64, n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let family = zipf(rng, fams.len());
            let f = &fams[family];
            let pick = rng.next_u64();
            let k = (pick / 10) as usize;
            match pick % 10 {
                0..=6 => Op::Verify {
                    family,
                    suspect: k % f.suspects.len(),
                },
                7 | 8 => Op::Identify {
                    family,
                    suspect: k % f.suspects.len(),
                },
                _ => Op::Provision {
                    family,
                    device: k % f.provisions.len(),
                },
            }
        })
        .collect()
}

/// The client side of the daemon connection.
pub struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
    next_id: u64,
}

impl Client {
    pub fn connect(socket: &Path) -> Result<Self, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connecting: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            stream,
            reader,
            next_id: 1,
        })
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &encode_request(id, req)).map_err(|e| e.to_string())?;
        let frame = read_frame(&mut self.reader)
            .map_err(|e| format!("reading a reply: {e}"))?
            .ok_or("the daemon closed the connection")?;
        let (echo, resp) = decode_response(&frame).map_err(|e| format!("decoding a reply: {e}"))?;
        (echo == id)
            .then_some(resp)
            .ok_or_else(|| format!("reply to {echo}, expected {id}"))
    }
}

/// Starts the daemon with two workers, the family cache, and its exit
/// metrics dump.
pub fn start_daemon(ctx: &Ctx, bin: &Path) -> Result<Daemon, String> {
    let cache = CACHE_FAMILIES.to_string();
    let args = ["--workers", "2", "--cache-families", &cache, "--metrics"];
    Daemon::start(bin, &ctx.work.join("emmarkd.sock"), &args, &ctx.work)
}

/// Sends the in-protocol shutdown and reaps the daemon; returns what it
/// wrote to stderr (its metrics dump).
pub fn shut_down(daemon: Daemon, mut client: Client) -> Result<String, String> {
    match client.call(&Request::Shutdown)? {
        Response::ShutdownComplete => {}
        other => return Err(format!("shutdown answered with {other:?}")),
    }
    drop(client);
    let (exit, stderr) = daemon.finish()?;
    match exit.code {
        Some(0) => Ok(stderr),
        code => Err(format!("the daemon exited with {code:?}: {stderr}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_favours_the_first_families() {
        let mut rng = SplitMix64::new(7);
        let mut counts = [0usize; 6];
        for _ in 0..6000 {
            counts[zipf(&mut rng, 6)] += 1;
        }
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
        assert!(counts[5] > 0);
    }
}
