//! The traced run: replays a workload in-process and times the public
//! function of each module from outside, around each call.
//!
//! Every workload's traced run reports every per-layer metric: the stamp
//! path on the workload's model families, the fleet path on a fleet of
//! its first family (provisioned through the CLI and mirrored call by
//! call in-process), and the serve path on the six served families,
//! through an in-process `Service` and through a daemon. The fleet
//! mirror follows the call sequence of the CLI's `fleet-provision`,
//! `fleet-verify --manifest` and `identify-leak` as they were when the
//! benchmark was written; when the CLI changes what it calls, the
//! `cli.unattributed_*` metrics show the difference.
//!
//! Each path's in-process calls are replayed twice, with and without the
//! per-call timers, and the difference of the two walls is printed as
//! the tracing overhead.

use crate::fixtures::{device_id, fingerprint_config, Family};
use crate::fleet::{self, Expect};
use crate::proc::{self, Run};
use crate::serve::{self, Client, Op, ServeFamily};
use crate::stats::median;
use crate::{stamp, Ctx, Outcome};
use emmark::core::deploy::{encode_model_into, SparseArtifact};
use emmark::core::fleet::{FleetError, FleetVerdict, FleetVerifier};
use emmark::core::provision::FleetProvisioner;
use emmark::core::registry::{
    encode_manifest, load_sharded_registry, provision_sharded_into, IndexedFleetVerifier,
};
use emmark::core::service::{decode_response, encode_request, Service, ServiceConfig};
use emmark::core::store::{ArtifactLayerStore, LayerStore};
use emmark::core::vault::decode_secrets;
use emmark::core::watermark::{insert_watermark, locate_watermark, OwnerSecrets};
use emmark::tensor::rng::SplitMix64;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Instant;

/// Repetitions of each stamp-path call and of each serve mix pass; the
/// median is reported.
const REPS: usize = 3;
/// `identify-leak` suspects replayed through the CLI and the mirror.
const IDENTIFY_CALLS: usize = 20;
/// Requests per op for the warm in-process service timings.
const WARM_REQUESTS: usize = 30;
/// Requests of the mix sent through the daemon and the in-process
/// service for the socket-overhead comparison.
const MIX_REQUESTS: usize = 200;

/// The fleet the CLI provisions in a traced run: the workload's own
/// fleet for `fleet`, a small one of the first family for `stamp`.
fn fleet_shape(workload: &str) -> (usize, usize) {
    match workload {
        "fleet" => (fleet::DEVICES, fleet::SHARDS),
        _ => (16, 2),
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Per-call timers that can be switched off. Each path replays the same
/// call sequence once with the timers on and once with them off; the
/// difference between the two replays' wall times is the tracing
/// overhead.
struct Tracer {
    on: bool,
    /// Milliseconds per timed call, by slot.
    laps: Vec<Vec<f64>>,
}

impl Tracer {
    fn new(on: bool, slots: usize) -> Self {
        Tracer {
            on,
            laps: vec![Vec::new(); slots],
        }
    }

    fn time<T>(&mut self, slot: usize, call: impl FnOnce() -> T) -> T {
        if !self.on {
            return call();
        }
        let start = Instant::now();
        let out = call();
        self.laps[slot].push(ms(start));
        out
    }

    fn median(&self, slot: usize) -> f64 {
        median(&self.laps[slot])
    }

    fn calls(&self) -> usize {
        self.laps.iter().map(Vec::len).sum()
    }

    /// Sum over `slots` of each slot's median: one typical pass.
    fn total(&self, slots: std::ops::Range<usize>) -> f64 {
        slots.map(|slot| self.median(slot)).sum()
    }
}

/// Wall times of the same replay with and without per-call timers.
struct Replay {
    traced_ms: f64,
    untraced_ms: f64,
    /// Calls the traced replay timed.
    timed_calls: usize,
}

impl Replay {
    /// Runs `pass` traced, untraced, untraced, traced, so that a drift
    /// over the four passes (page-cache writeback, say) cancels out of
    /// the difference, and adds each kind's mean wall time. `pass` gets
    /// the pass number.
    fn abba(
        &mut self,
        traced: &mut Tracer,
        untraced: &mut Tracer,
        mut pass: impl FnMut(&mut Tracer, usize) -> Result<(), String>,
    ) -> Result<(), String> {
        for (k, on) in [true, false, false, true].into_iter().enumerate() {
            let t = if on { &mut *traced } else { &mut *untraced };
            let start = Instant::now();
            pass(t, k)?;
            let wall = ms(start) / 2.0;
            if on {
                self.traced_ms += wall;
            } else {
                self.untraced_ms += wall;
            }
        }
        Ok(())
    }
}

// Stamp-path call slots.
const DECODE: usize = 0;
const LOAD: usize = 1;
const LOCATE: usize = 2;
const INSERT: usize = 3;
const ENCODE: usize = 4;
const STREAM: usize = 5;

/// One pass of the stamp path over `f`: decode, load, locate, insert,
/// encode into `encoded`, and the streaming stamp into `out`.
fn stamp_pass(f: &Family, encoded: &Path, out: &Path, t: &mut Tracer) -> Result<(), String> {
    let secrets = t.time(DECODE, || decode_secrets(&f.vault)).map_err(err)?;
    t.time(LOAD, || -> Result<(), String> {
        let store =
            ArtifactLayerStore::open(BufReader::new(File::open(&f.original_path).map_err(err)?))
                .map_err(err)?;
        for l in 0..store.store_layer_count() {
            std::hint::black_box(store.load_layer(l).map_err(err)?);
        }
        Ok(())
    })?;
    let locations = t
        .time(LOCATE, || {
            locate_watermark(&secrets.original, &secrets.stats, &secrets.config)
        })
        .map_err(err)?;
    std::hint::black_box(locations);
    let mut model = secrets.original.clone();
    t.time(INSERT, || {
        insert_watermark(
            &mut model,
            &secrets.stats,
            &secrets.signature,
            &secrets.config,
        )
    })
    .map_err(err)?;
    t.time(ENCODE, || -> Result<(), String> {
        let mut w = BufWriter::new(stamp::overwrite(encoded)?);
        encode_model_into(&model, &mut w).map_err(err)?;
        w.flush().map_err(err)
    })?;
    t.time(STREAM, || stamp::stamp_once(f, out))
}

/// The stamp path, per family: decode, load, locate, insert, encode and
/// the streaming stamp.
fn stamp_layers(fams: &[Family], outcome: &mut Outcome) -> Result<Replay, String> {
    let mut sums = [0.0f64; 6];
    let mut cells = 0u64;
    let mut replay = Replay {
        traced_ms: 0.0,
        untraced_ms: 0.0,
        timed_calls: 0,
    };
    for f in fams {
        let encoded = f.original_path.with_file_name("encoded.emqm");
        let out = stamp::out_path(f);
        let (mut traced, mut untraced) = (Tracer::new(true, 6), Tracer::new(false, 6));
        let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            for (t, walls) in [
                (&mut traced, &mut traced_ms),
                (&mut untraced, &mut untraced_ms),
            ] {
                let start = Instant::now();
                stamp_pass(f, &encoded, &out, t)?;
                walls.push(ms(start));
                outcome.check("traced encode", stamp::check(f, &encoded));
                outcome.check("traced stamp", stamp::check(f, &out));
            }
        }
        for (slot, sum) in sums.iter_mut().enumerate() {
            *sum += traced.median(slot);
        }
        replay.traced_ms += median(&traced_ms);
        replay.untraced_ms += median(&untraced_ms);
        replay.timed_calls += traced.calls() / REPS;
        cells += f.cells;
    }
    let [decode, load, locate, insert, encode, stream] = sums;
    outcome.metric("vault.decode_ms", decode);
    outcome.metric("store.load_ms", load);
    outcome.metric("scoring.locate_ms", locate);
    outcome.metric("scoring.mcell_per_s", cells as f64 / 1e6 / (locate / 1e3));
    outcome.metric("watermark.insert_ms", insert);
    outcome.metric("deploy.encode_ms", encode);
    outcome.metric(
        "watermark.stream_hidden_ms",
        load + insert + encode - stream,
    );
    println!(
        "trace stamp path ({} families, {cells} cells): decode {decode:.2} ms, load {load:.2} ms, \
         locate {locate:.2} ms, insert {insert:.2} ms, encode {encode:.2} ms, streaming stamp {stream:.2} ms",
        fams.len()
    );
    Ok(replay)
}

/// Reads every `.emqm` file of `dir` in name order, as the CLI does.
fn read_artifacts_dir(dir: &Path) -> Result<(Vec<String>, Vec<Vec<u8>>), String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(err)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "emqm"))
        .collect();
    paths.sort();
    let names = paths
        .iter()
        .map(|p| {
            p.file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default()
        })
        .collect();
    let artifacts = paths
        .iter()
        .map(std::fs::read)
        .collect::<Result<_, _>>()
        .map_err(err)?;
    Ok((names, artifacts))
}

fn load_registry(manifest: &Path) -> Result<emmark::core::registry::ShardedRegistry, String> {
    let bytes = std::fs::read(manifest).map_err(err)?;
    let dir = manifest
        .parent()
        .expect("manifest has a directory")
        .to_path_buf();
    load_sharded_registry(&bytes, |name| std::fs::read(dir.join(name))).map_err(err)
}

fn read_vault(f: &Family) -> Result<OwnerSecrets, String> {
    decode_secrets(&std::fs::read(&f.vault_path).map_err(err)?).map_err(err)
}

// Fleet-path call slots: `fleet-provision`, `fleet-verify --manifest`
// and `identify-leak`, in the CLI's order.
const P_DECODE: usize = 0;
const P_FAMILY: usize = 1;
const P_BATCH: usize = 2;
const P_WRITE: usize = 3;
const P_FLAT: usize = 4;
const P_SHARD: usize = 5;
const V_DECODE: usize = 6;
const V_REGISTRY: usize = 7;
const V_READ: usize = 8;
const V_FAMILY: usize = 9;
const V_BATCH: usize = 10;
const I_OPEN: usize = 11;
const I_IDENTIFY: usize = 12;
const FLEET_SLOTS: usize = 13;

/// The calls of `fleet-provision --shards`, writing into `dir`.
fn provision_mirror(
    f: &Family,
    ids: &[String],
    shards: usize,
    dir: &Path,
    t: &mut Tracer,
) -> Result<FleetProvisioner, String> {
    std::fs::create_dir_all(dir).map_err(err)?;
    let secrets = t.time(P_DECODE, || read_vault(f))?;
    let provisioner = t
        .time(P_FAMILY, || {
            FleetProvisioner::new(secrets, fingerprint_config())
        })
        .map_err(err)?;
    let provisioned = t.time(P_BATCH, || provisioner.provision_batch(ids, Some(2)));
    t.time(P_WRITE, || -> Result<(), String> {
        for d in &provisioned {
            std::fs::write(
                dir.join(format!("{}.emqm", d.fingerprint.device_id)),
                &d.artifact,
            )
            .map_err(err)?;
        }
        Ok(())
    })?;
    t.time(P_FLAT, || {
        std::fs::write(dir.join("fleet.emfr"), provisioner.registry(&provisioned))
    })
    .map_err(err)?;
    drop(provisioned);
    t.time(P_SHARD, || -> Result<(), String> {
        let m = provision_sharded_into(&provisioner, ids, shards, Some(2), |name, b| {
            std::fs::write(dir.join(name), b)
        })
        .map_err(err)?;
        std::fs::write(dir.join("fleet.emfm"), encode_manifest(&m)).map_err(err)
    })?;
    Ok(provisioner)
}

/// Each artifact's file name with its verdict.
type Verdicts = Vec<(String, Result<FleetVerdict, FleetError>)>;

/// The calls of `fleet-verify --manifest --artifacts dir`.
fn verify_mirror(
    f: &Family,
    manifest: &Path,
    dir: &Path,
    t: &mut Tracer,
) -> Result<Verdicts, String> {
    let secrets = t.time(V_DECODE, || read_vault(f))?;
    let registry = t.time(V_REGISTRY, || load_registry(manifest))?;
    let (names, artifacts) = t.time(V_READ, || read_artifacts_dir(dir))?;
    let (cfg, devs, index) = registry.into_parts();
    let verifier = t
        .time(V_FAMILY, || FleetVerifier::from_parts(secrets, cfg, devs))
        .map_err(err)?;
    let verifier = IndexedFleetVerifier::new(verifier, index).map_err(err)?;
    let verdicts = t.time(V_BATCH, || verifier.verify_batch(&artifacts, -6.0, Some(2)));
    Ok(names.into_iter().zip(verdicts).collect())
}

/// The calls of `identify-leak --manifest`; returns the device the
/// suspect traced to.
fn identify_mirror(
    f: &Family,
    manifest: &Path,
    suspect: &Path,
    t: &mut Tracer,
) -> Result<Option<String>, String> {
    let secrets = read_vault(f)?;
    let registry = load_registry(manifest)?;
    let bytes = std::fs::read(suspect).map_err(err)?;
    let verifier = registry.into_verifier(secrets).map_err(err)?;
    let sparse = t
        .time(I_OPEN, || SparseArtifact::open(&bytes))
        .map_err(err)?;
    let traced = t
        .time(I_IDENTIFY, || verifier.identify_leak(&sparse, -6.0))
        .map_err(err)?;
    Ok(traced.map(|(d, _)| d.device_id.clone()))
}

fn check_verdicts(verdicts: &Verdicts, outcome: &mut Outcome) {
    for (name, v) in verdicts {
        let ok = match v {
            Ok(v) if v.proves_ownership(-6.0) => match &v.attribution {
                Some((d, _)) if d.device_id == *name => Ok(()),
                other => Err(format!(
                    "{name} traced to {:?}",
                    other.as_ref().map(|(d, _)| &d.device_id)
                )),
            },
            other => Err(format!("{name}: {other:?}")),
        };
        outcome.check("traced verify_batch", ok);
    }
}

/// The fleet path: each CLI command once (or per suspect), and the same
/// calls in-process, replayed with and without per-call timers.
fn fleet_layers(
    ctx: &Ctx,
    bin: &Path,
    f: &Family,
    (devices, shards): (usize, usize),
    outcome: &mut Outcome,
) -> Result<Replay, String> {
    let cli_dir = ctx.work.join("trace-cli");
    let mirror = |k: usize| ctx.work.join(format!("trace-mirror-{k}"));
    let vault = &f.vault_path;
    let (n_devices, n_shards) = (devices.to_string(), shards.to_string());
    let manifest = cli_dir.join("fleet.emfm");
    let ids: Vec<String> = (0..devices).map(device_id).collect();
    let mut traced = Tracer::new(true, FLEET_SLOTS);
    let mut untraced = Tracer::new(false, FLEET_SLOTS);
    let mut replay = Replay {
        traced_ms: 0.0,
        untraced_ms: 0.0,
        timed_calls: 0,
    };

    // fleet-provision
    let cli: Run = proc::run(
        bin,
        &fleet::provision_args(vault, &cli_dir, &n_devices, &n_shards),
    )?;
    outcome.check("traced fleet-provision", fleet::exited(&cli));
    let provision_cli = cli.wall.as_secs_f64() * 1e3;
    let mut provisioner = None;
    replay.abba(&mut traced, &mut untraced, |t, k| {
        provisioner = Some(provision_mirror(f, &ids, shards, &mirror(k), t)?);
        Ok(())
    })?;
    let provisioner = provisioner.expect("four provisioning passes ran");
    let mut splice = Vec::new();
    for id in ids.iter().take(256) {
        let mut out = Vec::with_capacity(f.deployed.len());
        let start = Instant::now();
        provisioner
            .provision_artifact_into(id, &mut out)
            .map_err(err)?;
        splice.push(start.elapsed().as_secs_f64() * 1e6);
    }
    for k in 0..4 {
        let _ = std::fs::remove_dir_all(mirror(k));
    }

    // fleet-verify --manifest, over the artifacts the CLI wrote.
    let cli = proc::run(bin, &fleet::verify_args(vault, &manifest, &cli_dir))?;
    outcome.check("traced fleet-verify", fleet::exited(&cli));
    let verify_cli = cli.wall.as_secs_f64() * 1e3;
    replay.abba(&mut traced, &mut untraced, |t, _| {
        let verdicts = verify_mirror(f, &manifest, &cli_dir, t)?;
        check_verdicts(&verdicts, outcome);
        Ok(())
    })?;
    let read_mib = fleet::artifacts_mib(&cli_dir)?;

    // identify-leak, on device artifacts the CLI wrote.
    let mut rng = SplitMix64::new(ctx.seed ^ 0x7ACE);
    let (mut cli_ms, mut mirror_ms) = (Vec::new(), Vec::new());
    for _ in 0..IDENTIFY_CALLS {
        let id = device_id(rng.next_u64() as usize % devices);
        let suspect = cli_dir.join(format!("{id}.emqm"));
        let cli = proc::run(bin, &fleet::identify_args(vault, &manifest, &suspect))?;
        outcome.check(
            "traced identify-leak",
            fleet::check_identify(&cli, &Expect::Device(id.clone())),
        );
        cli_ms.push(cli.wall.as_secs_f64() * 1e3);
        for (t, wall) in [
            (&mut traced, &mut replay.traced_ms),
            (&mut untraced, &mut replay.untraced_ms),
        ] {
            let start = Instant::now();
            let got = identify_mirror(f, &manifest, &suspect, t)?;
            let elapsed = ms(start);
            *wall += elapsed;
            if t.on {
                mirror_ms.push(elapsed);
            }
            outcome.check(
                "traced identify_leak",
                (got.as_deref() == Some(id.as_str()))
                    .then_some(())
                    .ok_or(format!("{id} traced to {got:?}")),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&cli_dir);

    let provision_traced = traced.total(P_DECODE..V_DECODE);
    let verify_traced = traced.total(V_DECODE..I_OPEN);
    outcome.metric("provision.family_build_ms", traced.median(P_FAMILY));
    outcome.metric("deploy.splice_us", median(&splice));
    outcome.metric("cli.artifact_write_ms", traced.median(P_WRITE));
    outcome.metric("registry.shard_index_ms", traced.median(P_SHARD));
    outcome.metric("registry.load_ms", traced.median(V_REGISTRY));
    outcome.metric("cli.artifact_read_ms", traced.median(V_READ));
    outcome.metric("cli.artifact_read_mib", read_mib);
    outcome.metric("fleet.family_build_ms", traced.median(V_FAMILY));
    outcome.metric("fleet.verify_batch_ms", traced.median(V_BATCH));
    outcome.metric("deploy.sparse_open_us", traced.median(I_OPEN) * 1e3);
    outcome.metric("registry.identify_us", traced.median(I_IDENTIFY) * 1e3);
    let (identify_cli, identify_traced) = (median(&cli_ms), median(&mirror_ms));
    outcome.metric(
        "cli.unattributed_provision_ms",
        provision_cli - provision_traced,
    );
    outcome.metric("cli.unattributed_verify_ms", verify_cli - verify_traced);
    outcome.metric(
        "cli.unattributed_identify_ms",
        identify_cli - identify_traced,
    );
    println!(
        "trace fleet path ({devices} devices, {shards} shards, {read_mib:.1} MiB of artifacts): fleet-provision \
         {provision_cli:.1} ms wall vs {provision_traced:.1} ms timed in-process; fleet-verify {verify_cli:.1} vs \
         {verify_traced:.1} ms (artifact read {:.1} ms, {:.0}% of the CLI wall); identify-leak p50 \
         {identify_cli:.2} vs {identify_traced:.2} ms",
        traced.median(V_READ),
        100.0 * traced.median(V_READ) / verify_cli
    );
    // The provisioning and verify passes ran twice each with timers on.
    replay.timed_calls = traced.laps[..I_OPEN].iter().map(Vec::len).sum::<usize>() / 2
        + traced.laps[I_OPEN..].iter().map(Vec::len).sum::<usize>();
    Ok(replay)
}

/// Runs `op` on an in-process service and returns its reply payload.
fn request(svc: &Service, fams: &[ServeFamily], op: Op, id: u64) -> Result<Vec<u8>, String> {
    let (tx, rx) = mpsc::channel();
    svc.submit(
        encode_request(id, &op.request(fams)),
        Box::new(move |payload| {
            let _ = tx.send(payload);
        }),
    );
    rx.recv()
        .map_err(|_| "the service dropped a request".to_string())
}

fn checked(
    fams: &[ServeFamily],
    op: Op,
    payload: &[u8],
    outcome: &mut Outcome,
) -> Result<(), String> {
    let (_, resp) = decode_response(payload).map_err(err)?;
    outcome.check("traced service request", op.check(fams, &resp));
    Ok(())
}

fn service(cache: usize) -> Service {
    Service::start(ServiceConfig {
        workers: 2,
        cache_capacity: cache,
        ..ServiceConfig::default()
    })
}

/// Prometheus counter value from the daemon's exit snapshot.
fn counter(dump: &str, name: &str) -> Result<f64, String> {
    dump.lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .ok_or_else(|| format!("{name} missing from the daemon's metrics"))
}

// Serve-path call slots.
const S_REQUEST: usize = 0;
const S_CODEC: usize = 1;

/// One pass of the mix through an in-process service: each request, and
/// the frame codec on the request and its reply.
fn mix_pass(
    svc: &Service,
    fams: &[ServeFamily],
    mix: &[Op],
    id: &mut u64,
    t: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<(), String> {
    for &op in mix {
        let payload = t.time(S_REQUEST, || request(svc, fams, op, *id))?;
        let req = op.request(fams);
        t.time(S_CODEC, || -> Result<(), String> {
            std::hint::black_box(encode_request(*id, &req));
            std::hint::black_box(decode_response(&payload).map_err(err)?);
            Ok(())
        })?;
        checked(fams, op, &payload, outcome)?;
        *id += 1;
    }
    Ok(())
}

/// The serve path: warm and cold in-process requests, the frame codec,
/// and the same mix through the daemon.
fn serve_layers(
    ctx: &Ctx,
    bin: &Path,
    fams: &[ServeFamily],
    outcome: &mut Outcome,
) -> Result<Replay, String> {
    let n = fams.len();
    // Warm: every family resident, one request at a time.
    let svc = service(n);
    let mut id = 1u64;
    let mut warm = Tracer::new(true, 3);
    for round in 0..=WARM_REQUESTS {
        let family = round % n;
        let ops = [
            Op::Verify {
                family,
                suspect: round % fams[family].suspects.len(),
            },
            Op::Identify {
                family,
                suspect: round % fams[family].suspects.len(),
            },
            Op::Provision {
                family,
                device: round % fams[family].provisions.len(),
            },
        ];
        // The first pass over the families fills the cache.
        warm.on = round >= n;
        for (slot, op) in ops.into_iter().enumerate() {
            let payload = warm.time(slot, || request(&svc, fams, op, id))?;
            id += 1;
            checked(fams, op, &payload, outcome)?;
        }
    }
    drop(svc);

    // Cold: the first request per family on a fresh service.
    let svc = service(n);
    let mut cold = Tracer::new(true, 1);
    for family in 0..n {
        let op = Op::Verify { family, suspect: 0 };
        let payload = cold.time(0, || request(&svc, fams, op, id))?;
        id += 1;
        checked(fams, op, &payload, outcome)?;
    }
    drop(svc);

    // The workload's mix in-process, with the daemon's cache size: one
    // untimed pass fills the cache as the daemon's warm-up does, then
    // passes alternate with and without the per-call timers.
    let mut rng = SplitMix64::new(ctx.seed ^ 0x5E4E);
    let mix = serve::plan(fams, &mut rng, MIX_REQUESTS);
    let cache = serve::CACHE_FAMILIES;
    let svc = service(cache);
    let (mut traced, mut untraced) = (Tracer::new(true, 2), Tracer::new(false, 2));
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    mix_pass(&svc, fams, &mix, &mut id, &mut untraced, outcome)?;
    for _ in 0..REPS {
        for (t, walls) in [
            (&mut traced, &mut traced_ms),
            (&mut untraced, &mut untraced_ms),
        ] {
            let start = Instant::now();
            mix_pass(&svc, fams, &mix, &mut id, t, outcome)?;
            walls.push(ms(start));
        }
    }
    drop(svc);
    let replay = Replay {
        traced_ms: median(&traced_ms),
        untraced_ms: median(&untraced_ms),
        timed_calls: traced.calls() / REPS,
    };

    let daemon = serve::start_daemon(ctx, bin)?;
    let mut client = Client::connect(&daemon.socket)?;
    let mut socket_us = Vec::new();
    for (k, &op) in mix.iter().chain(&mix).enumerate() {
        let start = Instant::now();
        let resp = client.call(&op.request(fams))?;
        if k >= MIX_REQUESTS {
            socket_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        outcome.check("traced daemon request", op.check(fams, &resp));
    }
    let dump = serve::shut_down(daemon, client)?;
    let hits = counter(&dump, "emmark_service_family_cache_hits_total")?;
    let misses = counter(&dump, "emmark_service_family_cache_misses_total")?;
    let evictions = counter(&dump, "emmark_service_family_cache_evictions_total")?;

    let [verify, identify, provision] = [0, 1, 2].map(|slot| warm.median(slot) * 1e3);
    let miss = cold.median(0);
    outcome.metric("service.warm_verify_us", verify);
    outcome.metric("service.warm_identify_us", identify);
    outcome.metric("service.warm_provision_us", provision);
    outcome.metric("service.miss_ms", miss);
    outcome.metric("service.cache_hit_share", hits / (hits + misses));
    outcome.metric("service.evictions", evictions);
    outcome.metric("service.codec_us", traced.median(S_CODEC) * 1e3);
    let (socket, inproc) = (median(&socket_us), traced.median(S_REQUEST) * 1e3);
    outcome.metric("cli.socket_overhead_us", socket - inproc);
    println!(
        "trace serve path ({n} families, cache {cache}): warm verify {verify:.1} us, identify {identify:.1} us, \
         provision {provision:.1} us; cold {miss:.2} ms; mix p50 in-process {inproc:.1} us vs socket {socket:.1} us; \
         daemon cache hits {hits}, misses {misses}, evictions {evictions}"
    );
    Ok(replay)
}

/// Cost of one per-call timer (an `Instant::now` pair and a lap push)
/// in nanoseconds: the part of the overhead the replay difference cannot
/// resolve below the run-to-run noise of the calls themselves.
fn timer_cost_ns() -> f64 {
    const N: usize = 100_000;
    let mut t = Tracer::new(true, 1);
    let start = Instant::now();
    for i in 0..N {
        t.time(0, || std::hint::black_box(i));
    }
    start.elapsed().as_secs_f64() * 1e9 / N as f64
}

pub fn run(workload: &str, ctx: &Ctx, bin: &Path) -> Result<Outcome, String> {
    // The stamp and fleet paths run on the workload's own families; the
    // serve path always on the six served families.
    let fams = match workload {
        "fleet" => vec![fleet::setup(ctx)?.family],
        _ => stamp::setup(ctx)?,
    };
    let served = serve::setup_families(ctx)?;
    let mut outcome = Outcome::default();
    let paths = [
        ("stamp", stamp_layers(&fams, &mut outcome)?),
        (
            "fleet",
            fleet_layers(ctx, bin, &fams[0], fleet_shape(workload), &mut outcome)?,
        ),
        ("serve", serve_layers(ctx, bin, &served, &mut outcome)?),
    ];
    let timer_ns = timer_cost_ns();
    for (path, r) in paths {
        println!(
            "trace {workload}/{path}: the same in-process calls take {:.2} ms with per-call timers and \
             {:.2} ms without, tracing overhead {:.2} ms ({} timed calls x {timer_ns:.0} ns per timer = {:.3} ms)",
            r.traced_ms,
            r.untraced_ms,
            r.traced_ms - r.untraced_ms,
            r.timed_calls,
            r.timed_calls as f64 * timer_ns / 1e6
        );
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_times_calls_only_when_on() {
        let mut on = Tracer::new(true, 2);
        assert_eq!(on.time(1, || 7), 7);
        on.time(1, || ());
        assert_eq!((on.laps[0].len(), on.laps[1].len()), (0, 2));
        assert_eq!(on.calls(), 2);
        assert_eq!(on.total(1..2), on.median(1));

        let mut off = Tracer::new(false, 2);
        assert_eq!(off.time(0, || "ran"), "ran");
        assert!(off.laps.iter().all(Vec::is_empty));
    }
}
