//! The indexed DES engine's hard contract: it is the *same simulator*
//! as the seed engine, just faster. The frozen oracle in
//! `gridsim::reference` replays the pre-rework code verbatim; these
//! tests drive both engines over every policy combination on the paper
//! workloads and over randomized synthetic campaigns, and require
//! bit-identical results — records, failure log, goodput/badput
//! accounting, and serialized bytes.
//!
//! The engines intentionally differ in one dimension: the seed engine
//! keeps a redundant poke chain alive per submission, so it processes
//! (many) more wakeup events. Event-stream *diagnostics* — the
//! `grid.des_events` counter, `events_processed`, the event-queue peak,
//! and the campaign track's event-driven clock — therefore differ by
//! design (see DESIGN.md §13), and the tests pin the direction: the
//! indexed engine never processes more events than the seed. Everything
//! observable about the *simulation* (start/finish times, failures,
//! per-job telemetry tracks, site queue peaks) must stay byte-equal.

use proptest::prelude::*;
use spice::gridsim::campaign::Campaign;
use spice::gridsim::des::DispatchPolicy;
use spice::gridsim::failure::{Outage, OutageCause};
use spice::gridsim::federation::Federation;
use spice::gridsim::job::Job;
use spice::gridsim::reference::run_resilient_reference;
use spice::gridsim::resilience::{run_resilient_with_stats, EngineStats, ResiliencePolicy};
use spice::gridsim::trace::failure_listing;
use spice::telemetry::Telemetry;

const DISPATCHES: [DispatchPolicy; 3] = [
    DispatchPolicy::EarliestCompletion,
    DispatchPolicy::RoundRobin,
    DispatchPolicy::Random,
];

fn policies() -> [(&'static str, ResiliencePolicy); 4] {
    [
        ("none", ResiliencePolicy::none()),
        ("naive", ResiliencePolicy::naive()),
        ("retry_only", ResiliencePolicy::retry_only()),
        (
            "checkpoint_failover",
            ResiliencePolicy::checkpoint_failover(),
        ),
    ]
}

/// Mark a sprinkling of jobs steering-coupled so the gateway-drop and
/// connectivity-filter paths execute.
fn couple_some(c: &mut Campaign) {
    for job in c.jobs.iter_mut().step_by(7) {
        job.coupled = true;
    }
}

/// The engines replay the same site trajectories, so queue high-water
/// marks agree exactly; the indexed engine drops redundant wakeups, so
/// its event count is bounded by the seed's.
fn assert_stats_consistent(new_s: &EngineStats, old_s: &EngineStats) {
    assert_eq!(
        new_s.site_queue_peak, old_s.site_queue_peak,
        "site queue trajectories diverged"
    );
    assert!(
        new_s.events_processed <= old_s.events_processed,
        "indexed engine processed more events ({}) than the seed ({})",
        new_s.events_processed,
        old_s.events_processed
    );
}

/// Both engines, untraced; assert full equality including serialized
/// bytes (serde equality is stricter than PartialEq for f64 payloads:
/// it pins the exact decimal rendering too).
fn assert_engines_agree(campaign: &Campaign, policy: &ResiliencePolicy, dispatch: DispatchPolicy) {
    let off = Telemetry::disabled();
    let (new_r, new_s) = run_resilient_with_stats(campaign, policy, dispatch, &off);
    let (old_r, old_s) = run_resilient_reference(campaign, policy, dispatch, &off);
    assert_eq!(new_r, old_r, "replay diverged under {dispatch:?}");
    assert_stats_consistent(&new_s, &old_s);
    let new_json = serde_json::to_string(&new_r).expect("serialize indexed result");
    let old_json = serde_json::to_string(&old_r).expect("serialize reference result");
    assert_eq!(new_json, old_json, "serialized bytes diverged");
    assert_eq!(
        failure_listing(&new_r, &campaign.federation),
        failure_listing(&old_r, &campaign.federation)
    );
}

/// Every dispatch × resilience policy on the paper batch phase (with
/// coupled jobs) and on the SC05 outage history: bit-identical.
#[test]
fn indexed_engine_matches_seed_engine_on_paper_workloads() {
    for seed in [3u64, 11] {
        let mut batch = Campaign::paper_batch_phase(seed);
        couple_some(&mut batch);
        let mut outage = Campaign::sc05_outage_phase(seed);
        couple_some(&mut outage);
        for campaign in [&batch, &outage] {
            for (name, policy) in &policies() {
                for dispatch in DISPATCHES {
                    eprintln!("seed {seed} policy {name} dispatch {dispatch:?}");
                    assert_engines_agree(campaign, policy, dispatch);
                }
            }
        }
    }
}

/// A campaign whose first submissions tie, bit for bit, with an outage
/// start, an outage end and an hourly poke instant. Queue waits are zero
/// (`mean_queue_wait = 0`), so a submission's poke lands at its release
/// time exactly. Every site is down over `[4, 10)`: the jobs released at
/// 4.0 queue behind the outage and, with nothing running, their poke
/// chain ticks hourly from 4.0 — so 7.0 is an hourly poke instant, and
/// at 10.0 a release, the outage end and the chain's tick all coincide.
/// The engine's release stream must merge with the heap in the seed's
/// `(time, stamp)` order at each of these instants.
fn release_tie_campaign(sites: &[u32], seed: u64) -> Campaign {
    let mut c = Campaign::paper_batch_phase(seed);
    c.federation = Federation::paper_us_uk().restricted(sites);
    for site in &mut c.federation.sites {
        site.mean_queue_wait = 0.0;
    }
    let (down, up) = (4.0, 10.0);
    let hourly_tick = down + 3.0;
    c.outages = sites
        .iter()
        .map(|&s| Outage::new(s, down, up, OutageCause::Maintenance))
        .collect();
    let releases = [0.0, down, hourly_tick, up];
    c.jobs = (0..16u32)
        .map(|i| {
            let mut j = Job::new(i, format!("tie-{i:02}"), 64, 0.5 + f64::from(i % 3));
            j.release_hours = releases[i as usize % releases.len()];
            j
        })
        .collect();
    c
}

/// First submissions released exactly at outage starts, outage ends and
/// hourly poke instants replay bit-identically through both engines,
/// under every dispatch × resilience policy.
#[test]
fn release_ties_with_outages_and_pokes_match_seed_engine() {
    for sites in [&[0u32][..], &[0, 1][..]] {
        for seed in [2u64, 9] {
            let campaign = release_tie_campaign(sites, seed);
            for (name, policy) in &policies() {
                for dispatch in DISPATCHES {
                    eprintln!("sites {sites:?} seed {seed} policy {name} dispatch {dispatch:?}");
                    assert_engines_agree(&campaign, policy, dispatch);
                }
            }
        }
    }
    // The ties are real: failure-free, nothing starts while the site is
    // down, and the first sweep at the outage end, 10.0, starts jobs
    // released at 4.0 and at 7.0 (FCFS; six 64-proc jobs fit at once).
    let campaign = release_tie_campaign(&[0], 2);
    let (r, _) = run_resilient_with_stats(
        &campaign,
        &ResiliencePolicy::none(),
        DispatchPolicy::EarliestCompletion,
        &Telemetry::disabled(),
    );
    let mut released_at_up = Vec::new();
    for rec in &r.result.records {
        if rec.submitted >= 4.0 {
            assert!(
                rec.started >= 10.0,
                "job {} started inside the outage",
                rec.job
            );
        }
        if rec.started == 10.0 {
            released_at_up.push(rec.submitted);
        }
    }
    assert!(released_at_up.contains(&4.0) && released_at_up.contains(&7.0));
}

/// A JSONL line that derives from the raw event *stream* rather than
/// the simulated trajectory: the campaign track (its clock ticks per
/// popped event) and the event-count diagnostics. Only these may differ
/// between the engines.
fn is_event_stream_line(line: &str) -> bool {
    line.contains("\"track\":\"grid.campaign\"")
        || line.contains("\"name\":\"grid.des_events\"")
        || line.contains("\"name\":\"grid.events_processed\"")
        || line.contains("\"name\":\"grid.event_queue_peak\"")
}

fn trajectory_lines(jsonl: &str) -> Vec<&str> {
    jsonl.lines().filter(|l| !is_event_stream_line(l)).collect()
}

/// Traced replays export byte-identical *trajectory* telemetry from
/// both engines: every per-job track (attempt spans, failures, retries,
/// checkpoint restores), every domain counter, and the site-queue-peak
/// gauge, in the same order. Only the event-stream diagnostics listed
/// in [`is_event_stream_line`] may differ, and the campaign-level
/// instants (outages) inside the campaign track still agree.
#[test]
fn traced_trajectory_telemetry_is_byte_identical_across_engines() {
    let mut campaign = Campaign::sc05_outage_phase(5);
    couple_some(&mut campaign);
    let policy = ResiliencePolicy::checkpoint_failover();
    for dispatch in DISPATCHES {
        let t_new = Telemetry::enabled();
        let (new_r, new_s) = run_resilient_with_stats(&campaign, &policy, dispatch, &t_new);
        let t_old = Telemetry::enabled();
        let (old_r, old_s) = run_resilient_reference(&campaign, &policy, dispatch, &t_old);
        assert_eq!(new_r, old_r);
        assert_stats_consistent(&new_s, &old_s);
        let new_jsonl = t_new.jsonl();
        let old_jsonl = t_old.jsonl();
        assert_eq!(
            trajectory_lines(&new_jsonl),
            trajectory_lines(&old_jsonl),
            "trajectory telemetry diverged"
        );
        // The campaign track still carries the same outage instants.
        let outages = |jsonl: &str| {
            jsonl
                .lines()
                .filter(|l| l.contains("\"name\":\"grid.outage\""))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            outages(&new_jsonl),
            outages(&old_jsonl),
            "outage instants diverged"
        );
        // And the event-stream diagnostics really are present in both.
        assert!(new_jsonl.contains("\"name\":\"grid.des_events\""));
        assert!(old_jsonl.contains("\"name\":\"grid.des_events\""));
    }
}

proptest! {
    // Each case replays a full campaign through two engines — a modest
    // case count covers a lot of event-space.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized synthetic campaigns (outages, coupled jobs,
    /// heavy-tailed runtimes, odd site topologies) replay identically
    /// through both engines under arbitrary policies.
    #[test]
    fn indexed_engine_matches_seed_engine_on_synthetic_campaigns(
        seed in 0u64..1_000_000,
        n_jobs in 1usize..60,
        n_sites in 1usize..9,
        policy_ix in 0usize..4,
        dispatch_ix in 0usize..3,
    ) {
        let campaign = Campaign::synthetic(n_jobs, n_sites, seed);
        let (_, policy) = &policies()[policy_ix];
        let dispatch = DISPATCHES[dispatch_ix];
        let off = Telemetry::disabled();
        let (new_r, new_s) = run_resilient_with_stats(&campaign, policy, dispatch, &off);
        let (old_r, old_s) = run_resilient_reference(&campaign, policy, dispatch, &off);
        prop_assert_eq!(&new_r, &old_r);
        prop_assert_eq!(new_s.site_queue_peak, old_s.site_queue_peak);
        prop_assert!(new_s.events_processed <= old_s.events_processed);
    }
}
