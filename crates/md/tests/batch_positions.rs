//! Property test pinning `BatchSim` lane trajectories to independent
//! scalar `Simulation`s: for any noise-seed base, step count, and
//! replica count in {1, 3, 64}, every lane's final positions *and*
//! velocities must match its scalar twin bitwise. The fixture is a
//! bonded, charged chain with WCA + Debye–Hückel non-bonded terms, so
//! the shared tiered pair list, union rebuilds, and every kernel family
//! are all on the comparison path.

use proptest::prelude::*;
use spice_md::batch::{BatchSim, LaneForces, LaneThermostat};
use spice_md::forces::nonbonded::{LjParams, NonBonded};
use spice_md::forces::Restraint;
use spice_md::integrate::LangevinBaoab;
use spice_md::{ForceField, Simulation, System, Topology, Vec3};

const DT: f64 = 0.01;

fn chain_parts() -> (System, ForceField) {
    let mut sys = System::new();
    let mut topo = Topology::new();
    for i in 0..5usize {
        let f = i as f64;
        sys.add_particle(
            Vec3::new(
                f * 1.1 + 0.05 * (f * 0.7).sin(),
                0.2 * (f * 1.3).cos(),
                0.1 * f,
            ),
            15.0,
            if i % 2 == 0 { 0.0 } else { -1.0 },
            0,
        );
        if i > 0 {
            topo.add_harmonic_bond(i - 1, i, 1.1, 40.0);
        }
        if i > 1 {
            topo.add_angle(i - 2, i - 1, i, 2.6, 6.0);
        }
    }
    let anchor = sys.positions()[0];
    let ff = ForceField::new(topo)
        .with_nonbonded(
            NonBonded::new(LjParams::wca(1.0, 0.8), 4.0, 0.4).with_debye_huckel(3.0, 80.0),
        )
        .with_restraint(Restraint::harmonic(0, anchor, 5.0));
    (sys, ff)
}

fn lane_thermostat(base: u64, l: usize) -> LaneThermostat {
    LaneThermostat {
        // Spread temperatures so lanes exercise distinct c1/c2/kT rows.
        temperature: 290.0 + 7.0 * (l % 6) as f64,
        gamma: 5.0,
        noise_seed: base
            .wrapping_add(l as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15),
    }
}

fn scalar_final(t: &LaneThermostat, steps: u64) -> (Vec<Vec3>, Vec<Vec3>) {
    let (sys, ff) = chain_parts();
    let mut sim = Simulation::new(
        sys,
        ff,
        Box::new(LangevinBaoab::new(t.temperature, t.gamma, t.noise_seed)),
        DT,
    );
    for _ in 0..steps {
        sim.step_once();
    }
    (
        sim.system().positions().to_vec(),
        sim.system().velocities().to_vec(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// ISSUE 10 gate (position half): lane trajectories are bitwise
    /// equal to scalar replays across replica counts {1, 3, 64}.
    #[test]
    fn lanes_match_scalar_bitwise(base in 1u64..u32::MAX as u64, steps in 60u64..140) {
        for &n in &[1usize, 3, 64] {
            let lanes: Vec<LaneThermostat> = (0..n).map(|l| lane_thermostat(base, l)).collect();
            let (sys, ff) = chain_parts();
            let template =
                Simulation::new(sys, ff, Box::new(LangevinBaoab::new(300.0, 5.0, 0)), DT);
            let mut bsim = BatchSim::new(template, &lanes);
            let mut no_bias = |_t: f64, _lf: &mut LaneForces<'_>| {};
            bsim.refresh_forces(&mut no_bias);
            for _ in 0..steps {
                bsim.step_once(&mut no_bias);
            }
            // Scalar replays are expensive at n = 64; spot-check the
            // first, an interior, and the last lane there, all lanes
            // otherwise.
            let check: Vec<usize> = if n > 8 { vec![0, n / 2, n - 1] } else { (0..n).collect() };
            for &l in &check {
                let (pos, vel) = scalar_final(&lanes[l], steps);
                prop_assert_eq!(bsim.lane_positions(l), pos, "n={} lane {} positions", n, l);
                prop_assert_eq!(bsim.lane_velocities(l), vel, "n={} lane {} velocities", n, l);
            }
        }
    }
}

/// Edge geometries of the lane-swept bonded kernels, each replayed
/// against scalar simulations from a start that hits the edge on the
/// first force evaluation (every lane starts from the same coordinates).
mod bonded_edges {
    use super::*;

    fn replay(parts: fn() -> (System, ForceField), n: usize, steps: u64, label: &str) -> BatchSim {
        let lanes: Vec<LaneThermostat> = (0..n).map(|l| lane_thermostat(0x5eed, l)).collect();
        let (sys, ff) = parts();
        let template = Simulation::new(sys, ff, Box::new(LangevinBaoab::new(300.0, 5.0, 0)), DT);
        let mut bsim = BatchSim::new(template, &lanes);
        let mut no_bias = |_t: f64, _lf: &mut LaneForces<'_>| {};
        bsim.refresh_forces(&mut no_bias);
        for _ in 0..steps {
            bsim.step_once(&mut no_bias);
        }
        for (l, t) in lanes.iter().enumerate() {
            let (sys, ff) = parts();
            let mut sim = Simulation::new(
                sys,
                ff,
                Box::new(LangevinBaoab::new(t.temperature, t.gamma, t.noise_seed)),
                DT,
            );
            for _ in 0..steps {
                sim.step_once();
            }
            assert!(sim.system().is_finite(), "{label}: scalar lane {l} blew up");
            assert_eq!(
                bsim.lane_positions(l),
                sim.system().positions(),
                "{label}: lane {l} positions"
            );
            assert_eq!(
                bsim.lane_velocities(l),
                sim.system().velocities(),
                "{label}: lane {l} velocities"
            );
        }
        bsim
    }

    /// Start separation of the over-stretched FENE bond (R0 = 1.5).
    const OVERSTRETCH: f64 = 1.62;

    /// A FENE bond stretched past the 0.99·R0 cap (x > 1, where the
    /// uncapped expression even changes sign), next to one inside it.
    fn fene_overstretched() -> (System, ForceField) {
        let mut sys = System::new();
        let mut topo = Topology::new();
        sys.add_particle(Vec3::new(0.0, 0.0, 0.0), 20.0, 0.0, 0);
        sys.add_particle(Vec3::new(OVERSTRETCH, 0.0, 0.0), 20.0, 0.0, 0);
        sys.add_particle(Vec3::new(2.5, 0.4, 0.1), 20.0, 0.0, 0);
        topo.add_fene_bond(0, 1, 1.5, 1.0);
        topo.add_fene_bond(1, 2, 1.5, 1.0);
        (sys, ForceField::new(topo))
    }

    /// Bonded beads at exactly the same point: the bond (`r == 0`) and
    /// the angle with that zero-length arm are skipped by the scalar
    /// kernels.
    fn coincident_beads() -> (System, ForceField) {
        let mut sys = System::new();
        let mut topo = Topology::new();
        sys.add_particle(Vec3::new(0.3, -0.1, 0.2), 20.0, 0.0, 0);
        sys.add_particle(Vec3::new(0.3, -0.1, 0.2), 20.0, 0.0, 0);
        sys.add_particle(Vec3::new(1.4, 0.2, 0.0), 20.0, 0.0, 0);
        topo.add_harmonic_bond(0, 1, 1.0, 40.0);
        topo.add_fene_bond(0, 1, 2.0, 10.0);
        topo.add_harmonic_bond(1, 2, 1.1, 40.0);
        topo.add_angle(0, 1, 2, 2.0, 6.0);
        (sys, ForceField::new(topo))
    }

    /// Three collinear beads: the angle sits at θ = π (the sin θ floor)
    /// and the dihedral through them has a zero plane normal, which the
    /// scalar kernel skips as degenerate.
    fn collinear_angle() -> (System, ForceField) {
        let mut sys = System::new();
        let mut topo = Topology::new();
        sys.add_particle(Vec3::new(0.0, 0.0, 0.0), 20.0, 0.0, 0);
        sys.add_particle(Vec3::new(1.0, 0.0, 0.0), 20.0, 0.0, 0);
        sys.add_particle(Vec3::new(2.0, 0.0, 0.0), 20.0, 0.0, 0);
        sys.add_particle(Vec3::new(2.6, 0.9, -0.3), 20.0, 0.0, 0);
        for i in 0..3 {
            topo.add_harmonic_bond(i, i + 1, 1.0, 40.0);
        }
        topo.add_angle(0, 1, 2, 2.0, 6.0);
        topo.add_angle(1, 2, 3, 2.2, 6.0);
        topo.add_dihedral(0, 1, 2, 3, 1, 0.3, 2.0);
        (sys, ForceField::new(topo))
    }

    /// A twisted five-bead chain with two overlapping dihedrals of
    /// different multiplicity and phase.
    fn dihedral_chain() -> (System, ForceField) {
        let mut sys = System::new();
        let mut topo = Topology::new();
        for (i, p) in [
            Vec3::new(0.0, 1.0, 0.2),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.1),
            Vec3::new(1.3, 0.9, -0.6),
            Vec3::new(2.2, 1.1, -0.2),
        ]
        .into_iter()
        .enumerate()
        {
            sys.add_particle(p, 20.0, 0.0, 0);
            if i > 0 {
                topo.add_harmonic_bond(i - 1, i, 1.0, 40.0);
            }
            if i > 1 {
                topo.add_angle(i - 2, i - 1, i, 1.9, 6.0);
            }
        }
        topo.add_dihedral(0, 1, 2, 3, 3, 0.7, 2.5);
        topo.add_dihedral(1, 2, 3, 4, 1, -1.1, 1.5);
        (sys, ForceField::new(topo))
    }

    #[test]
    fn fene_past_cap_matches_scalar() {
        let bsim = replay(fene_overstretched, 5, 30, "fene-cap");
        // The cap's force restores; the uncapped expression past R0
        // would have pushed the beads apart.
        for l in 0..bsim.n_lanes() {
            let sep = (bsim.pos(1, l) - bsim.pos(0, l)).norm();
            assert!(
                sep < OVERSTRETCH,
                "lane {l}: capped bond did not relax ({sep})"
            );
        }
    }

    #[test]
    fn coincident_bonded_beads_match_scalar() {
        replay(coincident_beads, 5, 30, "coincident");
    }

    #[test]
    fn collinear_angle_matches_scalar() {
        replay(collinear_angle, 5, 30, "collinear");
    }

    #[test]
    fn dihedral_matches_scalar() {
        replay(dihedral_chain, 3, 60, "dihedral");
    }
}
