//! Crash-safe checkpoint/restore of the resilient DES engine.
//!
//! The paper's campaign survived weeks of infrastructure failures; the
//! one component our reproduction assumed immortal was the campaign
//! manager itself. This module removes that assumption: a campaign run
//! through [`run_resilient_durable`] snapshots the *entire* live engine
//! — stamp-ordered event queue with pending poke blocks, per-site
//! scheduler heaps and free-processor counters, per-job attempt state,
//! accumulated records/failures/metrics, and the attached telemetry
//! stream — every `every_events` resolved events, and a fresh process
//! pointed at the same directory finishes the campaign **bit-identical**
//! to an uninterrupted run: same [`ResilientResult`] records, same
//! failure listing, same telemetry export, for every
//! `DispatchPolicy × ResiliencePolicy` combination. (The per-job RNG
//! streams are stateless functions of the campaign seed, so determinism
//! costs nothing extra to serialize.)
//!
//! Robustness properties, each exercised by the deterministic
//! crash-injection harness ([`CrashPlan`]):
//!
//! * snapshots are written atomically (temp sibling + flush + rename) —
//!   a crash mid-write never damages the previous generation set;
//! * every file carries a versioned header (magic, format version,
//!   generation, configuration fingerprint, payload length, FNV-1a
//!   checksum) so truncated, bit-flipped, mismatched or future-format
//!   files fail loudly with a typed [`DurabilityError`];
//! * recovery degrades gracefully: the newest *intact* generation wins,
//!   and every rejected newer file is reported (with its reason) in the
//!   [`RecoveryReport`].
//!
//! Checkpoint-subsystem activity (`checkpoint.write` / restore spans)
//! lands on the **separate** telemetry handle in
//! [`DurableConfig::telemetry`], never on the campaign handle — so the
//! campaign's own telemetry export stays bit-identical whether or not
//! the run was interrupted.

pub(crate) mod codec;
mod writer;

use crate::campaign::Campaign;
use crate::des::DispatchPolicy;
use crate::resilience::{Engine, EngineImage, EngineStats, ResiliencePolicy, ResilientResult};
use codec::{fnv1a, Dec, Enc};
use spice_telemetry::{intern, EventKind, MetricValue, Telemetry};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// First 8 bytes of every snapshot file.
const MAGIC: [u8; 8] = *b"SPICEDUR";
/// On-disk format version. Bump on any change to the header or payload
/// layout ([`EngineImage::encode`] or the telemetry section). Version 2
/// stores the release-stream cursor in place of the unreleased first
/// submissions, which version 1 kept as event-queue entries.
const FORMAT_VERSION: u32 = 2;

/// Everything that can go wrong writing, finding or restoring a
/// snapshot. Each header check failure is a distinct variant so the
/// [`RecoveryReport`] can say *why* a generation was skipped.
#[derive(Debug)]
pub enum DurabilityError {
    /// Filesystem failure reading or writing the snapshot directory.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic — not a SPICE
    /// snapshot at all (or one whose first bytes were destroyed).
    BadMagic {
        /// The 8 bytes actually found.
        found: Vec<u8>,
    },
    /// The file's format version is not the one this build understands.
    Version {
        /// Version stored in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The payload checksum does not match the header — torn write or
    /// media corruption.
    Checksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually present.
        found: u64,
    },
    /// The snapshot was written by a different campaign / policy /
    /// dispatch configuration than the one resuming.
    Mismatch {
        /// Fingerprint of the resuming configuration.
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
    /// The payload is structurally invalid: truncated mid-field, an
    /// impossible tag, a lying length prefix, or trailing garbage.
    Corrupt(String),
    /// The configured [`CrashPlan`] fired — the simulated process death
    /// the crash harness uses in place of a real `kill -9`.
    InjectedCrash {
        /// Events the engine had resolved when the crash fired.
        after_events: u64,
    },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            DurabilityError::BadMagic { found } => {
                write!(f, "not a SPICE snapshot (magic bytes {found:02x?})")
            }
            DurabilityError::Version { found, supported } => write!(
                f,
                "snapshot format version {found} (this build supports {supported})"
            ),
            DurabilityError::Checksum { expected, found } => write!(
                f,
                "snapshot checksum mismatch: header says {expected:#018x}, payload hashes to {found:#018x}"
            ),
            DurabilityError::Mismatch { expected, found } => write!(
                f,
                "snapshot belongs to a different run configuration: fingerprint {found:#018x}, resuming configuration {expected:#018x}"
            ),
            DurabilityError::Corrupt(why) => write!(f, "snapshot payload corrupt: {why}"),
            DurabilityError::InjectedCrash { after_events } => {
                write!(f, "injected crash after {after_events} events")
            }
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

/// Deterministic crash injection: where, exactly, the durable runner
/// simulates a process death or storage fault. Driven by the crash
/// harness tests and the `durable_campaign` example; production runs use
/// [`CrashPlan::None`].
///
/// After an injected crash, resume by calling [`run_resilient_durable`]
/// again on the same directory with a plan that no longer fires (usually
/// `None`) — re-running the *same* plan would re-inject the same fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPlan {
    /// Never crash.
    None,
    /// Die (return [`DurabilityError::InjectedCrash`]) once the engine
    /// has resolved `.0` events — between two event boundaries, exactly
    /// like a `kill -9` landing mid-campaign.
    KillAfterEvents(u64),
    /// After writing snapshot `generation`, truncate it to its first
    /// `keep_bytes` bytes and die — a torn write the checksum must
    /// catch on recovery.
    TornWrite {
        /// Generation whose file is torn.
        generation: u64,
        /// Bytes of the file that survive.
        keep_bytes: u64,
    },
    /// After writing snapshot `generation`, invert one byte at `byte`
    /// and die — silent corruption the checksum must catch.
    ChecksumFlip {
        /// Generation whose file is corrupted.
        generation: u64,
        /// Offset of the inverted byte.
        byte: u64,
    },
    /// After writing snapshot `after_generation`, delete the newest
    /// `drop_newest` snapshot files and die — recovery must fall back
    /// to the newest surviving generation.
    StaleGeneration {
        /// Generation whose write triggers the fault.
        after_generation: u64,
        /// How many of the newest files are destroyed.
        drop_newest: u64,
    },
}

/// Configuration of a durable campaign run.
#[derive(Clone)]
pub struct DurableConfig {
    /// Snapshot directory (created if absent). One campaign per
    /// directory.
    pub dir: PathBuf,
    /// Snapshot cadence: write a checkpoint every this many resolved
    /// events. The generation number of a snapshot is
    /// `events_processed / every_events`.
    pub every_events: u64,
    /// Keep this many newest generations on disk (older ones are
    /// deleted after each successful write). Must be ≥ 1; keeping a few
    /// is what makes stale-generation recovery possible.
    pub retain: usize,
    /// Telemetry handle for the checkpoint subsystem itself
    /// (`checkpoint.write` / `checkpoint.restore` spans and counters).
    /// Deliberately separate from the campaign telemetry handle so the
    /// campaign export stays bit-identical across interruptions.
    pub telemetry: Telemetry,
    /// Deterministic fault injection (see [`CrashPlan`]).
    pub crash: CrashPlan,
}

impl fmt::Debug for DurableConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableConfig")
            .field("dir", &self.dir)
            .field("every_events", &self.every_events)
            .field("retain", &self.retain)
            .field("telemetry_enabled", &self.telemetry.is_enabled())
            .field("crash", &self.crash)
            .finish()
    }
}

impl DurableConfig {
    /// Defaults: checkpoint every 256 events, retain 3 generations, no
    /// checkpoint telemetry, no injected crashes.
    pub fn new(dir: impl Into<PathBuf>) -> DurableConfig {
        DurableConfig {
            dir: dir.into(),
            every_events: 256,
            retain: 3,
            telemetry: Telemetry::disabled(),
            crash: CrashPlan::None,
        }
    }
}

/// What recovery found and did, alongside the campaign result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation the run resumed from (`None` = fresh start).
    pub resumed_from: Option<u64>,
    /// Events already resolved at the resume point (0 on a fresh
    /// start).
    pub resumed_events: u64,
    /// Newer generations that were found but rejected, newest first,
    /// with the reason each failed to load.
    pub skipped: Vec<(u64, String)>,
    /// Snapshots written by *this* process before it finished (or
    /// crashed).
    pub snapshots_written: u64,
}

/// A finished durable campaign: the (bit-identical) resilient result,
/// the engine's scale counters, and the recovery audit trail.
#[derive(Debug, Clone)]
pub struct DurableOutcome {
    /// Campaign outcome — bit-identical to an uninterrupted
    /// [`crate::resilience::run_resilient_with_dispatch`] run.
    pub result: ResilientResult,
    /// Engine scale counters, also bit-identical.
    pub stats: EngineStats,
    /// What recovery saw.
    pub recovery: RecoveryReport,
}

/// Decoded telemetry section of a snapshot, pending re-import.
#[derive(Debug)]
struct TelemetryImage {
    tracks: Vec<(String, u64, Vec<TeleEvent>)>,
    metrics: Vec<(String, MetricValue)>,
}

#[derive(Debug)]
struct TeleEvent {
    kind: EventKind,
    name: String,
    logical: u64,
    attrs: Vec<(String, String)>,
}

/// Fingerprint of the full run configuration — campaign, resilience
/// policy and dispatch policy — via the snapshot codec. Stored in every
/// header; a snapshot only restores into the exact configuration that
/// wrote it.
fn fingerprint(campaign: &Campaign, policy: &ResiliencePolicy, dispatch: DispatchPolicy) -> u64 {
    let mut e = Enc::new();
    e.put_u64(campaign.seed);
    e.put_usize(campaign.jobs.len());
    for j in &campaign.jobs {
        e.put_u32(j.id);
        e.put_str(&j.name);
        e.put_u32(j.procs);
        e.put_f64(j.wall_hours);
        e.put_f64(j.release_hours);
        e.put_bool(j.coupled);
    }
    e.put_usize(campaign.federation.sites.len());
    for s in &campaign.federation.sites {
        e.put_u32(s.id);
        e.put_str(&s.name);
        e.put_str(&s.grid);
        e.put_u32(s.procs);
        e.put_f64(s.speed);
        e.put_f64(s.mean_queue_wait);
        e.put_bool(s.hidden_ip);
        e.put_bool(s.has_gateway);
        e.put_bool(s.lightpath);
    }
    e.put_usize(campaign.outages.len());
    for o in &campaign.outages {
        e.put_u32(o.site);
        e.put_f64(o.start);
        e.put_f64(o.end);
        e.put_u8(match o.cause {
            crate::failure::OutageCause::Hardware => 0,
            crate::failure::OutageCause::SecurityBreach => 1,
            crate::failure::OutageCause::Maintenance => 2,
            crate::failure::OutageCause::MiddlewareImmaturity => 3,
        });
    }
    e.put_u8(match policy.outage {
        crate::resilience::OutagePolicy::Drain => 0,
        crate::resilience::OutagePolicy::Kill => 1,
    });
    match policy.checkpoint.interval_hours {
        Some(h) => {
            e.put_u8(1);
            e.put_f64(h);
        }
        None => e.put_u8(0),
    }
    e.put_f64(policy.checkpoint.overhead_hours);
    e.put_u32(policy.retry.max_retries);
    e.put_f64(policy.retry.backoff_base_hours);
    e.put_f64(policy.retry.backoff_factor);
    e.put_f64(policy.retry.min_resubmit_delay_hours);
    e.put_u32(policy.retry.blacklist_threshold);
    e.put_bool(policy.retry.failover);
    e.put_f64(policy.failures.p_launch);
    e.put_f64(policy.failures.p_launch_immature);
    e.put_f64(policy.failures.crash_rate_per_hour);
    e.put_f64(policy.failures.gateway_drop_rate_per_hour);
    e.put_u8(match dispatch {
        DispatchPolicy::EarliestCompletion => 0,
        DispatchPolicy::RoundRobin => 1,
        DispatchPolicy::Random => 2,
    });
    fnv1a(e.bytes())
}

fn encode_telemetry(e: &mut Enc, t: &Telemetry) {
    e.put_bool(t.is_enabled());
    let snap = t.snapshot();
    e.put_usize(snap.tracks.len());
    for tr in &snap.tracks {
        e.put_str(tr.name);
        e.put_u64(tr.key);
        e.put_usize(tr.events.len());
        for ev in &tr.events {
            e.put_u8(match ev.kind {
                EventKind::Enter => 0,
                EventKind::Exit => 1,
                EventKind::Instant => 2,
            });
            e.put_str(ev.name);
            e.put_u64(ev.logical);
            // wall_ns deliberately dropped: wall time is the one
            // non-deterministic field, and restores re-anchor it.
            e.put_usize(ev.attrs.len());
            for (k, v) in &ev.attrs {
                e.put_str(k);
                e.put_str(v);
            }
        }
    }
    e.put_usize(snap.metrics.len());
    for (name, value) in &snap.metrics {
        e.put_str(name);
        match value {
            MetricValue::Counter(v) => {
                e.put_u8(0);
                e.put_u64(*v);
            }
            MetricValue::Gauge(v) => {
                e.put_u8(1);
                e.put_f64(*v);
            }
            MetricValue::Histogram {
                bounds,
                counts,
                sum,
            } => {
                e.put_u8(2);
                e.put_usize(bounds.len());
                for b in bounds {
                    e.put_f64(*b);
                }
                e.put_usize(counts.len());
                for c in counts {
                    e.put_u64(*c);
                }
                e.put_f64(*sum);
            }
        }
    }
}

fn decode_telemetry(d: &mut Dec<'_>) -> Result<TelemetryImage, DurabilityError> {
    let _was_enabled = d.take_bool()?;
    let mut tracks = Vec::with_capacity(d.take_len(16)?);
    for _ in 0..tracks.capacity() {
        let name = d.take_str()?;
        let key = d.take_u64()?;
        let mut events = Vec::with_capacity(d.take_len(17)?);
        for _ in 0..events.capacity() {
            let kind = match d.take_u8()? {
                0 => EventKind::Enter,
                1 => EventKind::Exit,
                2 => EventKind::Instant,
                t => {
                    return Err(DurabilityError::Corrupt(format!(
                        "invalid span-event kind tag {t}"
                    )))
                }
            };
            let ename = d.take_str()?;
            let logical = d.take_u64()?;
            let mut attrs = Vec::with_capacity(d.take_len(16)?);
            for _ in 0..attrs.capacity() {
                attrs.push((d.take_str()?, d.take_str()?));
            }
            events.push(TeleEvent {
                kind,
                name: ename,
                logical,
                attrs,
            });
        }
        tracks.push((name, key, events));
    }
    let mut metrics = Vec::with_capacity(d.take_len(9)?);
    for _ in 0..metrics.capacity() {
        let name = d.take_str()?;
        let value = match d.take_u8()? {
            0 => MetricValue::Counter(d.take_u64()?),
            1 => MetricValue::Gauge(d.take_f64()?),
            2 => {
                let mut bounds = Vec::with_capacity(d.take_len(8)?);
                for _ in 0..bounds.capacity() {
                    bounds.push(d.take_f64()?);
                }
                let mut counts = Vec::with_capacity(d.take_len(8)?);
                for _ in 0..counts.capacity() {
                    counts.push(d.take_u64()?);
                }
                MetricValue::Histogram {
                    bounds,
                    counts,
                    sum: d.take_f64()?,
                }
            }
            t => return Err(DurabilityError::Corrupt(format!("invalid metric tag {t}"))),
        };
        metrics.push((name, value));
    }
    Ok(TelemetryImage { tracks, metrics })
}

/// Replay a snapshot's telemetry section into `t`. No-op on a disabled
/// handle. Names are interned back to `&'static str`; event order and
/// logical stamps are preserved verbatim, so the resumed export is
/// byte-identical to the uninterrupted one.
fn import_telemetry(t: &Telemetry, img: &TelemetryImage) {
    if !t.is_enabled() {
        return;
    }
    for (name, key, events) in &img.tracks {
        let track = t.track(intern(name), *key);
        for ev in events {
            track.import_event(
                ev.kind,
                intern(&ev.name),
                ev.logical,
                ev.attrs
                    .iter()
                    // spice-lint: allow(P002) one-shot recovery replay, not the DES hot path — attrs move into the fresh track
                    .map(|(k, v)| (intern(k), v.clone()))
                    .collect(),
            );
        }
    }
    for (name, value) in &img.metrics {
        t.import_metric(name, value);
    }
}

/// Read and fully validate one snapshot file against the resuming
/// configuration's fingerprint `fp` and the campaign it must thaw into.
fn load_snapshot(
    path: &Path,
    fp: u64,
    campaign: &Campaign,
) -> Result<(EngineImage, TelemetryImage), DurabilityError> {
    let bytes = fs::read(path)?;
    let mut d = Dec::new(&bytes);
    let magic = d
        .take_bytes(8)
        .map_err(|_| DurabilityError::BadMagic {
            found: bytes.clone(),
        })?
        .to_vec();
    if magic != MAGIC {
        return Err(DurabilityError::BadMagic { found: magic });
    }
    let version = d.take_u32()?;
    if version != FORMAT_VERSION {
        return Err(DurabilityError::Version {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let _generation = d.take_u64()?;
    let file_fp = d.take_u64()?;
    if file_fp != fp {
        return Err(DurabilityError::Mismatch {
            expected: fp,
            found: file_fp,
        });
    }
    let payload_len = d.take_usize()?;
    let checksum = d.take_u64()?;
    if d.remaining() != payload_len {
        return Err(DurabilityError::Corrupt(format!(
            "header promises a {payload_len}-byte payload but {} bytes follow",
            d.remaining()
        )));
    }
    let payload = d.take_bytes(payload_len)?;
    let actual = fnv1a(payload);
    if actual != checksum {
        return Err(DurabilityError::Checksum {
            expected: checksum,
            found: actual,
        });
    }
    let mut pd = Dec::new(payload);
    let image = EngineImage::decode(&mut pd)?;
    image.check_shape(campaign)?;
    let telemetry = decode_telemetry(&mut pd)?;
    pd.finish()?;
    Ok((image, telemetry))
}

/// Serialize `image` + the campaign telemetry stream and write it
/// atomically as generation `generation`.
fn write_snapshot(
    dir: &Path,
    generation: u64,
    fp: u64,
    image: &EngineImage,
    campaign_telemetry: &Telemetry,
) -> Result<u64, DurabilityError> {
    let mut payload = Enc::new();
    image.encode(&mut payload);
    encode_telemetry(&mut payload, campaign_telemetry);
    let payload = payload.into_bytes();
    let mut file = Enc::new();
    file.put_raw(&MAGIC);
    file.put_u32(FORMAT_VERSION);
    file.put_u64(generation);
    file.put_u64(fp);
    file.put_usize(payload.len());
    file.put_u64(fnv1a(&payload));
    file.put_raw(&payload);
    let bytes = file.into_bytes();
    writer::atomic_write(&writer::snapshot_path(dir, generation), &bytes)?;
    Ok(bytes.len() as u64)
}

/// Execute a campaign crash-safely: resume from the newest intact
/// snapshot in `cfg.dir` (if any), checkpoint every `cfg.every_events`
/// resolved events, and finish with results **bit-identical** to an
/// uninterrupted [`crate::resilience::run_resilient_with_dispatch_traced`]
/// run — records, failure listing, telemetry export and engine stats
/// alike, under every dispatch and resilience policy.
///
/// `telemetry` is the campaign handle (its stream is checkpointed and
/// restored with the engine); checkpoint-subsystem spans go to
/// `cfg.telemetry`. For telemetry to survive a crash bit-identically,
/// resume with the handle in the same enabled/disabled state the
/// campaign started with.
///
/// # Errors
/// [`DurabilityError::Io`] on filesystem failure, and
/// [`DurabilityError::InjectedCrash`] when `cfg.crash` fires. Unreadable
/// snapshots never error here — they degrade recovery to an older
/// generation and are reported in [`RecoveryReport::skipped`].
///
/// # Panics
/// Panics on an empty campaign (no jobs or no sites), a zero
/// `cfg.every_events`, or a zero `cfg.retain` — configuration errors,
/// not runtime failures.
pub fn run_resilient_durable(
    campaign: &Campaign,
    policy: &ResiliencePolicy,
    dispatch: DispatchPolicy,
    telemetry: &Telemetry,
    cfg: &DurableConfig,
) -> Result<DurableOutcome, DurabilityError> {
    assert!(!campaign.jobs.is_empty(), "campaign has no jobs");
    assert!(
        !campaign.federation.sites.is_empty(),
        "campaign has no sites"
    );
    assert!(cfg.every_events > 0, "checkpoint cadence must be positive");
    assert!(cfg.retain >= 1, "must retain at least one generation");
    fs::create_dir_all(&cfg.dir)?;
    let fp = fingerprint(campaign, policy, dispatch);
    let ckpt_track = cfg.telemetry.track("checkpoint", 0);

    // Recovery scan: newest generation first, falling back past every
    // unreadable file (recording why) to the newest intact one.
    let mut skipped: Vec<(u64, String)> = Vec::new();
    let mut restored: Option<(u64, EngineImage, TelemetryImage)> = None;
    for (generation, path) in writer::list_generations(&cfg.dir)?.iter().rev() {
        match load_snapshot(path, fp, campaign) {
            Ok((image, tele)) => {
                restored = Some((*generation, image, tele));
                break;
            }
            Err(why) => skipped.push((*generation, why.to_string())),
        }
    }

    let (mut engine, mut last_generation, resumed_from, resumed_events) = match restored {
        Some((generation, image, tele)) => {
            let events = image.events_processed();
            import_telemetry(telemetry, &tele);
            let engine = Engine::thaw(campaign, policy, dispatch, telemetry, image);
            ckpt_track.instant_at(
                "checkpoint.restore",
                events,
                vec![
                    ("generation", generation.to_string()),
                    ("events", events.to_string()),
                ],
            );
            cfg.telemetry.counter("checkpoint.restores").incr();
            (engine, generation, Some(generation), events)
        }
        None => {
            let mut engine = Engine::new(campaign, policy, dispatch, telemetry);
            engine.prologue();
            (engine, 0, None, 0)
        }
    };

    let mut snapshots_written = 0u64;
    loop {
        let events = engine.events();
        let generation = events / cfg.every_events;
        if events > 0 && events % cfg.every_events == 0 && generation > last_generation {
            ckpt_track.enter_at("checkpoint.write", events);
            let image = engine.freeze();
            let bytes = write_snapshot(&cfg.dir, generation, fp, &image, telemetry)?;
            ckpt_track.exit_at("checkpoint.write", events);
            ckpt_track.instant_at(
                "checkpoint.written",
                events,
                vec![
                    ("generation", generation.to_string()),
                    ("bytes", bytes.to_string()),
                ],
            );
            cfg.telemetry.counter("checkpoint.writes").incr();
            cfg.telemetry.counter("checkpoint.bytes").add(bytes);
            writer::retain_newest(&cfg.dir, cfg.retain)?;
            last_generation = generation;
            snapshots_written += 1;
            // Write-stage fault injection: the fault lands *after* the
            // successful write, as if the process died with its final
            // I/O torn or the storage lied.
            match cfg.crash {
                CrashPlan::TornWrite {
                    generation: g,
                    keep_bytes,
                } if g == generation => {
                    writer::truncate_file(&writer::snapshot_path(&cfg.dir, g), keep_bytes)?;
                    return Err(DurabilityError::InjectedCrash {
                        after_events: events,
                    });
                }
                CrashPlan::ChecksumFlip {
                    generation: g,
                    byte,
                } if g == generation => {
                    writer::flip_byte(&writer::snapshot_path(&cfg.dir, g), byte)?;
                    return Err(DurabilityError::InjectedCrash {
                        after_events: events,
                    });
                }
                CrashPlan::StaleGeneration {
                    after_generation,
                    drop_newest,
                } if after_generation == generation => {
                    writer::drop_newest(&cfg.dir, drop_newest)?;
                    return Err(DurabilityError::InjectedCrash {
                        after_events: events,
                    });
                }
                _ => {}
            }
        }
        if let CrashPlan::KillAfterEvents(n) = cfg.crash {
            if events >= n {
                return Err(DurabilityError::InjectedCrash {
                    after_events: events,
                });
            }
        }
        if !engine.step() {
            break;
        }
    }
    let (result, stats) = engine.epilogue();
    Ok(DurableOutcome {
        result,
        stats,
        recovery: RecoveryReport {
            resumed_from,
            resumed_events,
            skipped,
            snapshots_written,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::Outage;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("spice_durability_mod_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn small_campaign() -> Campaign {
        let mut c = Campaign::paper_batch_phase(23);
        c.outages = vec![Outage::security_breach(3, 24.0, 2.0)];
        c
    }

    #[test]
    fn uninterrupted_durable_run_matches_plain_run_and_checkpoints() {
        let c = small_campaign();
        let policy = ResiliencePolicy::checkpoint_failover();
        let plain =
            crate::resilience::run_resilient_with_dispatch(&c, &policy, DispatchPolicy::RoundRobin);
        let dir = scratch_dir("plain");
        let mut cfg = DurableConfig::new(&dir);
        cfg.every_events = 64;
        cfg.retain = 2;
        let out = run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::RoundRobin,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect("uninterrupted run");
        assert_eq!(out.result, plain);
        assert_eq!(out.recovery.resumed_from, None);
        assert!(out.recovery.skipped.is_empty());
        assert!(out.recovery.snapshots_written >= 2);
        let on_disk = super::writer::list_generations(&dir).unwrap();
        assert!(
            on_disk.len() <= 2,
            "retention must cap generations, found {}",
            on_disk.len()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let c = small_campaign();
        let policy = ResiliencePolicy::retry_only();
        let plain = crate::resilience::run_resilient_with_dispatch(
            &c,
            &policy,
            DispatchPolicy::EarliestCompletion,
        );
        let dir = scratch_dir("kill");
        let mut cfg = DurableConfig::new(&dir);
        cfg.every_events = 50;
        cfg.crash = CrashPlan::KillAfterEvents(137);
        let err = run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::EarliestCompletion,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect_err("the crash plan must fire");
        assert!(matches!(
            err,
            DurabilityError::InjectedCrash { after_events: 137 }
        ));
        cfg.crash = CrashPlan::None;
        let out = run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::EarliestCompletion,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect("resume");
        assert_eq!(out.recovery.resumed_from, Some(2), "resumed from event 100");
        assert_eq!(out.recovery.resumed_events, 100);
        assert_eq!(out.result, plain);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_falls_back_to_previous_generation() {
        let c = small_campaign();
        let policy = ResiliencePolicy::checkpoint_failover();
        let plain =
            crate::resilience::run_resilient_with_dispatch(&c, &policy, DispatchPolicy::Random);
        let dir = scratch_dir("torn");
        let mut cfg = DurableConfig::new(&dir);
        cfg.every_events = 40;
        cfg.crash = CrashPlan::TornWrite {
            generation: 3,
            keep_bytes: 100,
        };
        run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::Random,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect_err("torn write must crash");
        cfg.crash = CrashPlan::None;
        let out = run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::Random,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect("resume past the torn file");
        assert_eq!(out.recovery.resumed_from, Some(2));
        assert_eq!(out.recovery.skipped.len(), 1);
        assert_eq!(out.recovery.skipped[0].0, 3);
        assert!(
            out.recovery.skipped[0].1.contains("payload"),
            "torn file must be rejected for its payload shape: {}",
            out.recovery.skipped[0].1
        );
        assert_eq!(out.result, plain);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_byte_is_caught_by_the_checksum() {
        let c = small_campaign();
        let policy = ResiliencePolicy::naive();
        let plain =
            crate::resilience::run_resilient_with_dispatch(&c, &policy, DispatchPolicy::RoundRobin);
        let dir = scratch_dir("flip");
        let mut cfg = DurableConfig::new(&dir);
        cfg.every_events = 60;
        // Flip a byte well inside the payload of generation 2.
        cfg.crash = CrashPlan::ChecksumFlip {
            generation: 2,
            byte: 500,
        };
        run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::RoundRobin,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect_err("flip must crash");
        cfg.crash = CrashPlan::None;
        let out = run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::RoundRobin,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect("resume past the corrupt file");
        assert_eq!(out.recovery.resumed_from, Some(1));
        assert!(out.recovery.skipped[0].1.contains("checksum"));
        assert_eq!(out.result, plain);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_future_version_and_foreign_fingerprint_fail_loudly() {
        let dir = scratch_dir("loud");
        fs::create_dir_all(&dir).unwrap();
        let c = small_campaign();
        let p = super::writer::snapshot_path(&dir, 1);
        fs::write(&p, b"definitely not a snapshot").unwrap();
        assert!(matches!(
            load_snapshot(&p, 0, &c),
            Err(DurabilityError::BadMagic { .. })
        ));
        // A future format version.
        let mut e = Enc::new();
        e.put_raw(&MAGIC);
        e.put_u32(FORMAT_VERSION + 9);
        e.put_u64(1);
        e.put_u64(0);
        e.put_usize(0);
        e.put_u64(fnv1a(b""));
        fs::write(&p, e.into_bytes()).unwrap();
        match load_snapshot(&p, 0, &c) {
            Err(DurabilityError::Version { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 9);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected a version error, got {other:?}"),
        }
        // A snapshot from a different configuration: write one for
        // policy A, try to load it as policy B.
        let mut cfg = DurableConfig::new(&dir);
        cfg.every_events = 80;
        cfg.crash = CrashPlan::KillAfterEvents(80);
        run_resilient_durable(
            &c,
            &ResiliencePolicy::naive(),
            DispatchPolicy::RoundRobin,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect_err("kill");
        let other_fp = fingerprint(
            &c,
            &ResiliencePolicy::retry_only(),
            DispatchPolicy::RoundRobin,
        );
        assert!(matches!(
            load_snapshot(&super::writer::snapshot_path(&dir, 1), other_fp, &c),
            Err(DurabilityError::Mismatch { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Freeze `c` under `policy` after `events` events and write the
    /// image (edited by `edit`) as generation 1 of a fresh `dir`.
    fn write_edited_snapshot(
        dir: &Path,
        c: &Campaign,
        policy: &ResiliencePolicy,
        events: u64,
        edit: impl FnOnce(&mut EngineImage),
    ) -> u64 {
        fs::create_dir_all(dir).unwrap();
        let t = Telemetry::disabled();
        let mut engine = Engine::new(c, policy, DispatchPolicy::RoundRobin, &t);
        engine.prologue();
        while engine.events() < events && engine.step() {}
        let mut image = engine.freeze();
        edit(&mut image);
        let fp = fingerprint(c, policy, DispatchPolicy::RoundRobin);
        write_snapshot(dir, 1, fp, &image, &t).unwrap();
        fp
    }

    #[test]
    fn version_1_snapshot_is_a_typed_version_error() {
        // A snapshot written by the previous format (first submissions in
        // the event queue, no release cursor) must be refused by its
        // version number, never decoded as a version-2 payload.
        let dir = scratch_dir("v1");
        let c = small_campaign();
        let policy = ResiliencePolicy::retry_only();
        let fp = write_edited_snapshot(&dir, &c, &policy, 40, |_| {});
        let p = super::writer::snapshot_path(&dir, 1);
        let mut bytes = fs::read(&p).unwrap();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&p, &bytes).unwrap();
        match load_snapshot(&p, fp, &c) {
            Err(DurabilityError::Version { found, supported }) => {
                assert_eq!(found, 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected a version error, got {other:?}"),
        }
        // Recovery skips it with the reason and starts fresh.
        let plain =
            crate::resilience::run_resilient_with_dispatch(&c, &policy, DispatchPolicy::RoundRobin);
        let out = run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::RoundRobin,
            &Telemetry::disabled(),
            &DurableConfig::new(&dir),
        )
        .expect("recovery degrades to a fresh start");
        assert_eq!(out.recovery.resumed_from, None);
        assert!(out.recovery.skipped[0].1.contains("version 1"));
        assert_eq!(out.result, plain);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn release_cursor_past_the_jobs_is_corrupt_not_a_panic() {
        // Checksum and fingerprint are intact; only the cursor lies.
        let dir = scratch_dir("cursor");
        let c = small_campaign();
        let policy = ResiliencePolicy::checkpoint_failover();
        let fp = write_edited_snapshot(&dir, &c, &policy, 30, |img| {
            img.set_release_cursor(c.jobs.len() + 1);
        });
        let p = super::writer::snapshot_path(&dir, 1);
        match load_snapshot(&p, fp, &c) {
            Err(DurabilityError::Corrupt(why)) => {
                assert!(why.contains("release cursor"), "{why}");
            }
            other => panic!("expected a corrupt-payload error, got {other:?}"),
        }
        let plain =
            crate::resilience::run_resilient_with_dispatch(&c, &policy, DispatchPolicy::RoundRobin);
        let out = run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::RoundRobin,
            &Telemetry::disabled(),
            &DurableConfig::new(&dir),
        )
        .expect("recovery skips the hostile snapshot");
        assert_eq!(out.recovery.resumed_from, None);
        assert_eq!(out.recovery.skipped.len(), 1);
        assert_eq!(out.result, plain);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn image_of_another_campaign_shape_is_corrupt_not_a_panic() {
        // A payload whose job count disagrees with the campaign would
        // trip thaw's asserts; recovery must reject it first.
        let dir = scratch_dir("shape");
        let c = small_campaign();
        let mut fewer = c.clone();
        fewer.jobs.truncate(10);
        let policy = ResiliencePolicy::retry_only();
        write_edited_snapshot(&dir, &fewer, &policy, 20, |_| {});
        let p = super::writer::snapshot_path(&dir, 1);
        let fp = fingerprint(&fewer, &policy, DispatchPolicy::RoundRobin);
        assert!(matches!(
            load_snapshot(&p, fp, &c),
            Err(DurabilityError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_separates_every_configuration_axis() {
        let c = small_campaign();
        let base = fingerprint(
            &c,
            &ResiliencePolicy::retry_only(),
            DispatchPolicy::EarliestCompletion,
        );
        let mut c2 = c.clone();
        c2.seed ^= 1;
        assert_ne!(
            base,
            fingerprint(
                &c2,
                &ResiliencePolicy::retry_only(),
                DispatchPolicy::EarliestCompletion
            )
        );
        assert_ne!(
            base,
            fingerprint(
                &c,
                &ResiliencePolicy::checkpoint_failover(),
                DispatchPolicy::EarliestCompletion
            )
        );
        assert_ne!(
            base,
            fingerprint(&c, &ResiliencePolicy::retry_only(), DispatchPolicy::Random)
        );
    }
}
