//! Batched ≡ cloned on the production pore system.
//!
//! `crates/smd/tests/batch_equivalence.rs` pins the batched SoA engine
//! to the cloned path on toy fixtures (a bead, a dimer) that carry no
//! FENE bonds, no angles and no external one-body terms. This suite runs
//! the real thing — `pore_simulation(Scale::Test, _)`: an 8-bead FENE
//! strand with angle terms, WCA + Debye–Hückel pairs and all seven pore
//! externals (two axial corrugations, the lumen wall, the membrane slab,
//! the bulk slab and cylinder walls, the charged constriction ring) — at
//! 16 lanes for two (κ, v) cells, and demands every work sample agree
//! bit for bit. Under `--features audit` the batched run also replays
//! lanes against scalar shadow simulations as it goes.
//!
//! A second check pins an FNV-1a digest of the cells' work samples to
//! the value the scalar engine produced before the external potentials
//! gained their exact lumen cull and lane-swept evaluation, so a change
//! to the scalar bits cannot hide behind batched == cloned agreement.

use spice::core::config::Scale;
use spice::core::pipeline::pore_simulation;
use spice::md::MdError;
use spice::smd::{run_ensemble_batched, run_ensemble_cloned, WorkTrajectory};
use spice::stats::rng::SeedSequence;

/// Replicas per cell: at or above the pipeline's batching threshold.
const LANES: usize = 16;

/// (κ pN/Å, v Å/ns label, master seed) of the two cells.
const CELLS: [(f64, f64, u64); 2] = [(100.0, 100.0, 7), (1000.0, 50.0, 11)];

/// FNV-1a over every slot of both cells (see [`digest`]), as computed by
/// the scalar engine before the lumen cull existed.
const PINNED_DIGEST: u64 = 0x3318_a4cc_0cc7_9e5e;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest of an ensemble's outcome: per slot, the seed and the raw bits
/// of every work-sample field, or the error text.
fn digest(h: &mut u64, results: &[Result<WorkTrajectory, MdError>]) {
    for r in results {
        match r {
            Ok(t) => {
                fnv1a(h, &t.seed.to_le_bytes());
                for s in &t.samples {
                    for v in [s.t_ps, s.guide_disp, s.com_disp, s.work, s.force] {
                        fnv1a(h, &v.to_bits().to_le_bytes());
                    }
                }
            }
            Err(e) => fnv1a(h, e.to_string().as_bytes()),
        }
    }
}

#[test]
fn batched_matches_cloned_bitwise_on_pore_system() {
    let scale = Scale::Test;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(kappa, v, master) in &CELLS {
        let protocol = scale.protocol(kappa, v);
        let factory = |seed| pore_simulation(scale, seed);
        let run = |batched: bool| {
            let seeds = SeedSequence::new(master);
            let decorr = scale.decorrelation_steps();
            if batched {
                run_ensemble_batched(factory, &protocol, LANES, seeds, decorr)
            } else {
                run_ensemble_cloned(factory, &protocol, LANES, seeds, decorr)
            }
        };
        let cloned = run(false);
        let batched = run(true);
        assert_eq!(batched.len(), LANES);
        assert_eq!(cloned.len(), LANES);
        let mut ok = 0;
        for (l, (b, c)) in batched.iter().zip(&cloned).enumerate() {
            match (b, c) {
                (Ok(b), Ok(c)) => {
                    ok += 1;
                    assert_eq!(b.seed, c.seed, "κ={kappa} v={v} lane {l}: seed");
                    assert_eq!(
                        b.kappa_pn_per_a.to_bits(),
                        c.kappa_pn_per_a.to_bits(),
                        "κ={kappa} v={v} lane {l}: kappa"
                    );
                    // WorkSample's PartialEq compares raw f64 fields.
                    assert_eq!(
                        b.samples, c.samples,
                        "κ={kappa} v={v} lane {l}: work samples"
                    );
                }
                (Err(b), Err(c)) => {
                    assert_eq!(b.to_string(), c.to_string(), "κ={kappa} v={v} lane {l}")
                }
                _ => panic!("κ={kappa} v={v} lane {l}: one path failed, the other did not"),
            }
        }
        assert!(ok >= LANES / 2, "κ={kappa} v={v}: too few lanes survived");
        digest(&mut h, &cloned);
    }
    assert_eq!(
        h, PINNED_DIGEST,
        "scalar pore work samples changed bits: {h:#018x}"
    );
}
