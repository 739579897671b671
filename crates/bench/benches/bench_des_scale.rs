//! Federated-DES scale gate, machine-readable: drives the indexed
//! resilient engine and the frozen seed-engine oracle over campaigns
//! from the paper's 72 jobs up to 10⁶ synthetic jobs, records wall-clock
//! and events/sec for both, verifies the replays stay bit-identical
//! while timing them, and writes `BENCH_des_scale.json`.
//!
//! The two engines simulate identical trajectories but process
//! different event counts: the seed keeps one poke chain alive per
//! submission (quadratic in campaign size), the indexed engine
//! coalesces the duplicate `(time, site)` pokes into one event with a
//! multiplicity — see DESIGN.md §13. Comparing raw events/sec across
//! different event
//! streams would be meaningless, so the per-tier `speedup` is the
//! replay speedup `wall_seed / wall_indexed`: equivalently, the rate at
//! which the indexed engine retires the *seed's* event workload,
//! divided by the seed's own rate.
//!
//! The gate: at the 10⁴-job tier the indexed engine must replay the
//! campaign ≥ 10× faster than the seed engine. The full run adds a
//! linearity gate — the indexed engine's events/sec at 10⁶ jobs stays
//! within 2× of its rate at 10⁴ — and reports the fitted scaling
//! exponent: the least-squares log-log slope of wall time over the
//! 10⁴ / 10⁵ / 10⁶ tiers (1.0 is linear). Exits nonzero when a gate
//! fails, so this bench is a CI check, not just a report.
//!
//! ```sh
//! cargo bench -p spice-bench --bench bench_des_scale          # full, up to 10⁶ jobs
//! cargo bench -p spice-bench --bench bench_des_scale -- smoke # CI: stop at 10⁴
//! ```
//!
//! The seed oracle is only run up to 10⁴ jobs — its quadratic event
//! count makes 10⁵ jobs a coffee-break, which is the point of the
//! rework.

use spice_gridsim::campaign::Campaign;
use spice_gridsim::des::DispatchPolicy;
use spice_gridsim::reference::run_resilient_reference;
use spice_gridsim::resilience::{run_resilient_with_stats, EngineStats, ResiliencePolicy};
use spice_telemetry::Telemetry;
use std::time::Instant;

/// Minimum indexed-over-seed replay speedup at the gate tier.
const GATE_SPEEDUP_MIN: f64 = 10.0;
/// Campaign size whose speedup is the CI gate.
const GATE_TIER: usize = 10_000;
/// Largest tier of the full run; its events/sec is gated against
/// [`GATE_TIER`]'s.
const TOP_TIER: usize = 1_000_000;
/// Largest allowed drop in events/sec from [`GATE_TIER`] to
/// [`TOP_TIER`].
const MAX_RATE_DROP: f64 = 2.0;

struct Row {
    n_jobs: usize,
    n_sites: usize,
    events_new: u64,
    events_old: Option<u64>,
    wall_new_s: f64,
    wall_old_s: Option<f64>,
}

impl Row {
    /// Replay speedup: how much faster the indexed engine finishes the
    /// same campaign (= seed-workload events/sec over the seed's rate).
    fn speedup(&self) -> Option<f64> {
        self.wall_old_s.map(|old| old / self.wall_new_s)
    }

    fn events_per_sec_new(&self) -> f64 {
        self.events_new as f64 / self.wall_new_s
    }

    fn events_per_sec_old(&self) -> Option<f64> {
        match (self.events_old, self.wall_old_s) {
            (Some(e), Some(w)) => Some(e as f64 / w),
            _ => None,
        }
    }
}

fn campaign_for(n_jobs: usize) -> Campaign {
    if n_jobs == 72 {
        // The paper's own production batch, not a synthetic lookalike.
        Campaign::paper_batch_phase(11)
    } else {
        Campaign::synthetic(n_jobs, 12, 11)
    }
}

/// Best-of-N wall-clock for one engine over one campaign; returns the
/// result of the last run so the caller can cross-check replays.
fn time_engine<R>(rounds: u32, mut run: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..rounds {
        let t0 = Instant::now();
        let r = run();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("at least one round"))
}

fn bench_tier(n_jobs: usize, run_reference: bool) -> Row {
    let campaign = campaign_for(n_jobs);
    let policy = ResiliencePolicy::checkpoint_failover();
    let dispatch = DispatchPolicy::EarliestCompletion;
    let off = Telemetry::disabled();
    // Best-of-N on every tier the linearity gate compares, so one
    // preempted run on a shared host cannot decide it; two rounds at
    // 10⁶ keep the full run near a minute and a half.
    let rounds = if n_jobs >= TOP_TIER { 2 } else { 3 };

    let (wall_new, (new_r, new_s)): (f64, (_, EngineStats)) = time_engine(rounds, || {
        run_resilient_with_stats(&campaign, &policy, dispatch, &off)
    });

    let (wall_old, events_old) = if run_reference {
        let (wall_old, (old_r, old_s)) = time_engine(rounds, || {
            run_resilient_reference(&campaign, &policy, dispatch, &off)
        });
        assert_eq!(new_r, old_r, "{n_jobs}-job replay diverged between engines");
        assert_eq!(
            new_s.site_queue_peak, old_s.site_queue_peak,
            "{n_jobs}-job site queue trajectories diverged"
        );
        assert!(
            new_s.events_processed <= old_s.events_processed,
            "{n_jobs}-job indexed engine processed more events than the seed"
        );
        (Some(wall_old), Some(old_s.events_processed))
    } else {
        (None, None)
    };

    let row = Row {
        n_jobs,
        n_sites: campaign.federation.sites.len(),
        events_new: new_s.events_processed,
        events_old,
        wall_new_s: wall_new,
        wall_old_s: wall_old,
    };
    eprintln!(
        "jobs {n_jobs:>7}: indexed {:>10} events {:>8.3}s ({:>12.0} ev/s){}",
        row.events_new,
        row.wall_new_s,
        row.events_per_sec_new(),
        match (row.events_old, row.wall_old_s, row.speedup()) {
            (Some(e), Some(w), Some(s)) => format!(
                ", seed {e:>11} events {w:>8.3}s ({:>12.0} ev/s), speedup {s:.1}x",
                row.events_per_sec_old().expect("seed timed")
            ),
            _ => String::from(", seed skipped"),
        }
    );
    row
}

/// Least-squares slope of `ln(wall)` against `ln(jobs)` over the rows
/// from [`GATE_TIER`] up: the exponent `k` in `wall ∝ jobs^k`.
fn scaling_exponent(rows: &[Row]) -> f64 {
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.n_jobs >= GATE_TIER)
        .map(|r| ((r.n_jobs as f64).ln(), r.wall_new_s.ln()))
        .collect();
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    sxy / sxx
}

fn main() {
    let smoke = std::env::args().any(|a| a == "smoke");
    let tiers: &[usize] = if smoke {
        &[72, 1_000, 10_000]
    } else {
        &[72, 1_000, 10_000, 100_000, 1_000_000]
    };

    let rows: Vec<Row> = tiers
        .iter()
        .map(|&n| bench_tier(n, n <= GATE_TIER))
        .collect();

    let gate_row = rows
        .iter()
        .find(|r| r.n_jobs == GATE_TIER)
        .expect("gate tier always runs");
    let speedup = gate_row.speedup().expect("gate tier times both engines");
    let speedup_ok = speedup >= GATE_SPEEDUP_MIN;
    // Full run only: the linearity gate and the fitted exponent.
    let linearity = rows.iter().find(|r| r.n_jobs == TOP_TIER).map(|top| {
        let rate_ratio = gate_row.events_per_sec_new() / top.events_per_sec_new();
        (rate_ratio, scaling_exponent(&rows))
    });
    let linear_ok = linearity.is_none_or(|(ratio, _)| ratio <= MAX_RATE_DROP);

    let opt_u64 = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
    let row_json = |r: &Row| {
        format!(
            "    {{\"n_jobs\": {}, \"n_sites\": {}, \
             \"events_indexed\": {}, \"events_seed\": {}, \
             \"wall_s_indexed\": {:.4}, \"wall_s_seed\": {}, \
             \"events_per_sec_indexed\": {:.1}, \"events_per_sec_seed\": {}, \
             \"speedup\": {}}}",
            r.n_jobs,
            r.n_sites,
            r.events_new,
            opt_u64(r.events_old),
            r.wall_new_s,
            r.wall_old_s
                .map_or("null".to_string(), |w| format!("{w:.4}")),
            r.events_per_sec_new(),
            r.events_per_sec_old()
                .map_or("null".to_string(), |e| format!("{e:.1}")),
            r.speedup()
                .map_or("null".to_string(), |s| format!("{s:.2}")),
        )
    };
    let linearity_json = match linearity {
        Some((ratio, exponent)) => format!(
            ",\n  \"linearity\": {{\"from_jobs\": {GATE_TIER}, \"to_jobs\": {TOP_TIER}, \
             \"events_per_sec_ratio\": {ratio:.2}, \"max_ratio\": {MAX_RATE_DROP:.1}, \
             \"scaling_exponent\": {exponent:.3}, \"linear_ok\": {linear_ok}}}"
        ),
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"bench\": \"des_scale\",\n  \"smoke\": {smoke},\n  \
         \"gate_tier_jobs\": {GATE_TIER},\n  \
         \"gate_speedup_min\": {GATE_SPEEDUP_MIN:.1},\n  \
         \"rows\": [\n{}\n  ],\n  \
         \"gate_speedup\": {speedup:.2},\n  \
         \"speedup_ok\": {speedup_ok}{linearity_json}\n}}\n",
        rows.iter().map(row_json).collect::<Vec<_>>().join(",\n"),
    );
    std::fs::write("BENCH_des_scale.json", &json).expect("write BENCH_des_scale.json");
    println!("{json}");

    if !speedup_ok {
        eprintln!(
            "FAIL: indexed engine replays the {GATE_TIER}-job campaign only \
             {speedup:.2}x faster than the seed engine (gate: {GATE_SPEEDUP_MIN}x)"
        );
    }
    if let Some((ratio, _)) = linearity.filter(|_| !linear_ok) {
        eprintln!(
            "FAIL: events/sec at {TOP_TIER} jobs is {ratio:.2}x below the \
             {GATE_TIER}-job rate (gate: within {MAX_RATE_DROP}x)"
        );
    }
    if !(speedup_ok && linear_ok) {
        std::process::exit(1);
    }
}
