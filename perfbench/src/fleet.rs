//! The `fleet` workload: the CLI lifecycle on disk, one release `emmark`
//! process at a time with `--jobs 2` — `fleet-provision` into shards,
//! `fleet-verify` of the whole artifact directory, then a burst of
//! `identify-leak` calls on intact, attacked and outside suspects.

use crate::fixtures::{
    build_family, device_id, fingerprint_config, spec, Family, FamilySpec, Scheme,
};
use crate::proc::{self, Run};
use crate::stats::{median, Latency};
use crate::{timed_setup, Ctx, Outcome};
use emmark::attacks::overwrite::{overwrite_attack, OverwriteConfig};
use emmark::core::deploy::{decode_model, encode_model};
use emmark::core::provision::FleetProvisioner;
use emmark::tensor::rng::SplitMix64;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// OPT-style d128/ff512: each device artifact is about 540 KiB, so a
/// 1024-device fleet is the ~540 MiB of artifacts whose reading dominates
/// `fleet-verify`'s wall time on the program this benchmark was added to.
pub const SPEC: FamilySpec = spec("opt-d128", 128, 512, false, Scheme::AwqInt4);
pub const DEVICES: usize = 1024;
pub const SHARDS: usize = 8;
/// `fleet-verify` runs over each provisioned fleet.
pub const AUDITS_PER_CYCLE: usize = 2;
/// `identify-leak` calls after each provision + audit.
pub const IDENTIFY_PER_CYCLE: usize = 100;
const ATTACKED: usize = 8;

/// What a suspect must trace to.
#[derive(Clone)]
pub enum Expect {
    Device(String),
    Outside,
}

pub struct Fixture {
    pub family: Family,
    /// Where each cycle's fleet directory is created.
    pub dir: PathBuf,
    /// Overwrite-attacked device artifacts and what they trace to.
    pub attacked: Vec<(PathBuf, String)>,
    /// The base stamped model: watermarked, but no device's fingerprint.
    pub outside: PathBuf,
}

pub fn setup(ctx: &Ctx) -> Result<Fixture, String> {
    let dir = ctx.work.join("fleet");
    let family = build_family(&SPEC, ctx.seed, &dir).map_err(|e| e.to_string())?;
    let provisioner = FleetProvisioner::new(family.secrets.clone(), fingerprint_config())
        .map_err(|e| e.to_string())?;
    let mut rng = SplitMix64::new(ctx.seed ^ 0xA77AC);
    let attacked = (0..ATTACKED)
        .map(|i| {
            let id = device_id(rng.next_u64() as usize % DEVICES);
            let mut model = decode_model(&provisioner.provision_artifact(&id).artifact)
                .map_err(|e| e.to_string())?;
            overwrite_attack(
                &mut model,
                &OverwriteConfig {
                    per_layer: 4,
                    seed: rng.next_u64(),
                },
            );
            let path = dir.join(format!("attacked-{i}.emqm"));
            std::fs::write(&path, encode_model(&model)).map_err(|e| e.to_string())?;
            Ok((path, id))
        })
        .collect::<Result<_, String>>()?;
    let outside = dir.join("outside.emqm");
    std::fs::write(&outside, &family.deployed).map_err(|e| e.to_string())?;
    Ok(Fixture {
        family,
        dir,
        attacked,
        outside,
    })
}

/// The seeded suspect mix of one cycle: ~80% intact device artifacts of
/// the fleet in `fleet_dir`, ~10% attacked ones, ~10% the outside model.
pub fn suspects(
    fx: &Fixture,
    fleet_dir: &Path,
    rng: &mut SplitMix64,
    n: usize,
) -> Vec<(PathBuf, Expect)> {
    (0..n)
        .map(|_| match rng.next_u64() % 10 {
            0 => (fx.outside.clone(), Expect::Outside),
            1 => {
                let (path, id) = &fx.attacked[rng.next_u64() as usize % fx.attacked.len()];
                (path.clone(), Expect::Device(id.clone()))
            }
            _ => {
                let id = device_id(rng.next_u64() as usize % DEVICES);
                (fleet_dir.join(format!("{id}.emqm")), Expect::Device(id))
            }
        })
        .collect()
}

pub fn exited(run: &Run) -> Result<(), String> {
    match run.exit.code {
        Some(0) => Ok(()),
        code => Err(format!("exit {code:?}: {}", run.stderr.trim())),
    }
}

pub fn check_provision(run: &Run) -> Result<(), String> {
    exited(run)?;
    let want = format!("provisioned {DEVICES} fingerprinted artifacts");
    run.stdout
        .contains(&want)
        .then_some(())
        .ok_or_else(|| format!("no `{want}` line"))
}

pub fn check_verify(run: &Run) -> Result<(), String> {
    exited(run)?;
    let want = format!(
        "{DEVICES} artifacts: {DEVICES} prove ownership, {DEVICES} traced to a device, 0 failed"
    );
    run.stdout
        .contains(&want)
        .then_some(())
        .ok_or_else(|| format!("summary is not `{want}`"))
}

pub fn check_identify(run: &Run, expect: &Expect) -> Result<(), String> {
    match expect {
        Expect::Device(id) => {
            exited(run)?;
            let want = format!("traced to {id}:");
            run.stdout
                .contains(&want)
                .then_some(())
                .ok_or_else(|| format!("not {want}"))
        }
        Expect::Outside => match run.exit.code {
            Some(1) if run.stderr.contains("no registered device clears") => Ok(()),
            code => Err(format!(
                "outside suspect: exit {code:?}, {}",
                run.stdout.trim()
            )),
        },
    }
}

fn arg(p: &Path) -> &str {
    p.to_str().expect("work paths are UTF-8")
}

pub fn provision_args<'a>(
    vault: &'a Path,
    fleet_dir: &'a Path,
    devices: &'a str,
    shards: &'a str,
) -> Vec<&'a str> {
    vec![
        "fleet-provision",
        "--secrets",
        arg(vault),
        "--out-dir",
        arg(fleet_dir),
        "--devices",
        devices,
        "--shards",
        shards,
        "--jobs",
        "2",
    ]
}

pub fn verify_args<'a>(vault: &'a Path, manifest: &'a Path, fleet_dir: &'a Path) -> Vec<&'a str> {
    vec![
        "fleet-verify",
        "--secrets",
        arg(vault),
        "--manifest",
        arg(manifest),
        "--artifacts",
        arg(fleet_dir),
        "--jobs",
        "2",
    ]
}

pub fn identify_args<'a>(vault: &'a Path, manifest: &'a Path, suspect: &'a Path) -> Vec<&'a str> {
    vec![
        "identify-leak",
        "--secrets",
        arg(vault),
        "--manifest",
        arg(manifest),
        "--suspect",
        arg(suspect),
    ]
}

pub fn run(ctx: &Ctx, bin: &Path) -> Result<Outcome, String> {
    let (fx, setup_s) = timed_setup(|| setup(ctx))?;
    let (devices, shards) = (DEVICES.to_string(), SHARDS.to_string());
    let vault = &fx.family.vault_path;
    let mut rng = SplitMix64::new(ctx.seed ^ 0x1DE7);
    let mut outcome = Outcome::default();
    let (mut provision_rates, mut audit_rates) = (Vec::new(), Vec::new());
    let (mut provision_rss, mut audit_rss) = (Vec::new(), Vec::new());
    let mut identify_ms = Vec::new();
    let mut read_mib = 0.0;
    let start = Instant::now();
    for cycle in 0.. {
        if start.elapsed() >= ctx.run_for() {
            break;
        }
        let dir = fx.dir.join(format!("cycle-{cycle}"));
        let manifest = dir.join("fleet.emfm");
        let provision = proc::run(bin, &provision_args(vault, &dir, &devices, &shards))?;
        outcome.check("fleet-provision", check_provision(&provision));
        provision_rates.push(DEVICES as f64 / provision.wall.as_secs_f64());
        provision_rss.push(provision.exit.max_rss_mib);
        read_mib = artifacts_mib(&dir)?;
        for _ in 0..AUDITS_PER_CYCLE {
            let audit = proc::run(bin, &verify_args(vault, &manifest, &dir))?;
            outcome.check("fleet-verify", check_verify(&audit));
            audit_rates.push(DEVICES as f64 / audit.wall.as_secs_f64());
            audit_rss.push(audit.exit.max_rss_mib);
        }
        for (suspect, expect) in suspects(&fx, &dir, &mut rng, IDENTIFY_PER_CYCLE) {
            let run = proc::run(bin, &identify_args(vault, &manifest, &suspect))?;
            outcome.check("identify-leak", check_identify(&run, &expect));
            identify_ms.push(run.wall.as_secs_f64() * 1e3);
        }
        // The next cycle writes a fresh directory, so freeing this one's
        // blocks costs its provisioning step (not bounded), not an audit.
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }

    // Identify latencies pool every cycle's calls, so the tail has many
    // samples beyond it however few cycles a run gets.
    let identify = Latency::of(&identify_ms);
    let (cycles, audits) = (provision_rates.len(), audit_rates.len());
    let peak = median(&provision_rss).max(median(&audit_rss));
    println!("fleet: {cycles} cycles of {DEVICES} devices in {SHARDS} shards, {AUDITS_PER_CYCLE} fleet-verify and {IDENTIFY_PER_CYCLE} identify-leak calls each");
    println!(
        "fleet: provision_devices_per_s {:.1} dev/s, provision_peak_rss_mib {:.1} MiB (n={cycles})",
        median(&provision_rates),
        median(&provision_rss)
    );
    println!(
        "fleet: audit_artifacts_per_s {:.1} art/s over {read_mib:.1} MiB of artifacts, audit_peak_rss_mib {:.1} MiB (n={audits})",
        median(&audit_rates),
        median(&audit_rss)
    );
    println!(
        "fleet: identify_p50_ms {:.2}, identify_p{}_ms {:.2} (n={})",
        identify.p50, identify.tail_p, identify.tail, identify.n
    );
    outcome.metric("setup_s", setup_s);
    outcome.metric("rate_per_s", median(&audit_rates));
    outcome.metric("p50_ms", identify.p50);
    outcome.metric("tail_ms", identify.tail);
    outcome.metric("peak_mib", peak);
    Ok(outcome)
}

/// MiB of `.emqm` artifacts in `dir`: what `fleet-verify` reads.
pub fn artifacts_mib(dir: &Path) -> Result<f64, String> {
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "emqm") {
            bytes += path.metadata().map_err(|e| e.to_string())?.len();
        }
    }
    Ok(bytes as f64 / (1024.0 * 1024.0))
}
