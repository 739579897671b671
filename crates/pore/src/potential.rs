//! External potentials derived from the pore geometry.
//!
//! Three one-body terms build the environment the DNA translocates
//! through:
//!
//! * [`PoreWall`] — harmonic confinement to the lumen, `U = k_w (ρ −
//!   (r(z) − a))²` when a bead of radius `a` overlaps the wall. Because
//!   r(z) varies with z (constriction, corrugation), the wall exerts both
//!   radial and axial forces — the axial component is what makes the PMF
//!   along z non-trivial.
//! * [`ConstrictionRing`] — the charged residue ring (E111/K147 in
//!   hemolysin) modeled as a uniformly charged circle interacting with
//!   bead charges through Debye–Hückel screening; gives the PMF its
//!   electrostatic barrier/well at the constriction.
//! * [`MembraneSlab`] — excludes beads from the lipid region outside the
//!   barrel.

use crate::geometry::PoreGeometry;
use spice_md::forces::nonbonded::COULOMB_KCAL;
use spice_md::forces::ExternalPotential;
use spice_md::system::SpeciesId;
use spice_md::Vec3;

/// Species id for DNA beads (the builder assigns it).
pub const SPECIES_DNA: SpeciesId = 1;

/// Lanes per stack-buffer chunk of the two-pass lane sweeps: the libm
/// pass fills one chunk's buffer, the arithmetic pass drains it, so any
/// lane count runs without allocating.
const LANE_CHUNK: usize = 64;

/// Harmonic confinement of beads to the pore lumen.
#[derive(Debug, Clone)]
pub struct PoreWall {
    geometry: PoreGeometry,
    /// Wall stiffness (kcal mol⁻¹ Å⁻²).
    pub k_wall: f64,
    /// Effective bead radius (Å): beads feel the wall at ρ = r(z) − a.
    pub bead_radius: f64,
}

impl PoreWall {
    /// Wall potential over `geometry` with stiffness `k_wall` for beads of
    /// radius `bead_radius`.
    pub fn new(geometry: PoreGeometry, k_wall: f64, bead_radius: f64) -> Self {
        assert!(k_wall > 0.0 && bead_radius >= 0.0);
        PoreWall {
            geometry,
            k_wall,
            bead_radius,
        }
    }

    /// The wrapped geometry.
    pub fn geometry(&self) -> &PoreGeometry {
        &self.geometry
    }

    /// Allowed radial extent of a bead centre for lumen radius `r_lumen`.
    #[inline(always)]
    fn allowed(&self, r_lumen: f64) -> f64 {
        (r_lumen - self.bead_radius).max(0.1)
    }
}

impl ExternalPotential for PoreWall {
    fn energy_force(&self, p: Vec3, _species: SpeciesId) -> (f64, Vec3) {
        let rho = p.rho();
        // Exact cull without the ripple `cos`: `allowed` is monotone in
        // the lumen radius, so a bead at or inside it for the radius
        // lower bound is inside the wall for the true radius too (see
        // `PoreGeometry::radius_lower_bound`) and feels an exact zero.
        if rho <= self.allowed(self.geometry.radius_lower_bound(p.z)) {
            return (0.0, Vec3::zero());
        }
        let r_lumen = self.geometry.radius(p.z);
        if !r_lumen.is_finite() {
            return (0.0, Vec3::zero());
        }
        let allowed = self.allowed(r_lumen);
        if rho <= allowed {
            return (0.0, Vec3::zero());
        }
        let d = rho - allowed;
        let e = self.k_wall * d * d;
        // ∂U/∂ρ = 2 k d ;  ∂U/∂z = -2 k d · d(allowed)/dz = -2 k d r'(z)
        let inv_rho = 1.0 / rho;
        let dr_dz = self.geometry.radius_gradient(p.z);
        let f_rho = -2.0 * self.k_wall * d;
        let f_z = 2.0 * self.k_wall * d * dr_dz;
        (
            e,
            Vec3::new(f_rho * p.x * inv_rho, f_rho * p.y * inv_rho, f_z),
        )
    }

    fn name(&self) -> &str {
        "pore-wall"
    }
}

/// A charged ring at the constriction, screened Debye–Hückel.
///
/// The potential of a uniformly charged ring of radius R at height z₀ is
/// approximated by the screened interaction with the *closest point* of
/// the ring; at lumen scales (ρ < R, |z − z₀| small) the closest-point
/// distance `d = √((R − ρ)² + (z − z₀)²)` dominates the screened sum, so
/// the approximation preserves barrier location and scale.
#[derive(Debug, Clone, Copy)]
pub struct ConstrictionRing {
    /// Ring radius (Å).
    pub radius: f64,
    /// Ring height z₀ (Å).
    pub z0: f64,
    /// Total ring charge (e).
    pub charge: f64,
    /// Debye screening length (Å).
    pub lambda: f64,
    /// Relative dielectric constant.
    pub epsilon_r: f64,
    /// Charge (e) assigned to each bead of [`SPECIES_DNA`]; other species
    /// are unaffected. (The builder passes the bead charge explicitly so
    /// the ring does not need system charge arrays.)
    pub bead_charge: f64,
    /// Short-distance regularization (Å) to avoid the 1/d singularity.
    pub softening: f64,
}

/// Closest-point geometry of a bead against the ring.
#[derive(Clone, Copy)]
struct RingDistance {
    rho: f64,
    dr: f64,
    dz: f64,
    d2: f64,
    d: f64,
}

impl ConstrictionRing {
    /// Does the ring act on `species` at all?
    fn acts_on(&self, species: SpeciesId) -> bool {
        // spice-lint: allow(N002) exact-zero charge is the "electrostatics disabled" sentinel
        species == SPECIES_DNA && self.bead_charge != 0.0
    }

    /// Softened closest-point distance of the bead at (x, y, z).
    #[inline(always)]
    fn distance(&self, x: f64, y: f64, z: f64) -> RingDistance {
        let rho = (x * x + y * y).sqrt();
        let dr = self.radius - rho;
        let dz = z - self.z0;
        let d2 = dr * dr + dz * dz + self.softening * self.softening;
        RingDistance {
            rho,
            dr,
            dz,
            d2,
            d: d2.sqrt(),
        }
    }

    /// Exponent `−d/λ` of the screening factor, the one libm call.
    #[inline(always)]
    fn screen_exponent(&self, g: &RingDistance) -> f64 {
        -g.d / self.lambda
    }

    /// Energy and force from the geometry and its screening factor: the
    /// arithmetic after the libm call, shared by the scalar and the
    /// lane-swept paths.
    #[inline(always)]
    fn screened_energy_force(&self, x: f64, y: f64, g: &RingDistance, screen: f64) -> (f64, Vec3) {
        let RingDistance { rho, dr, dz, d2, d } = *g;
        let pref = COULOMB_KCAL * self.charge * self.bead_charge / self.epsilon_r;
        let e = pref * screen / d;
        // dU/dd = -pref·screen (1/d² + 1/(λ d))
        let du_dd = -pref * screen * (1.0 / d2 + 1.0 / (self.lambda * d));
        // d(d)/dρ = -dr/d ; d(d)/dz = dz/d
        let du_drho = du_dd * (-dr / d);
        let du_dz = du_dd * (dz / d);
        let inv_rho = if rho > 1e-9 { 1.0 / rho } else { 0.0 };
        (
            e,
            Vec3::new(-du_drho * x * inv_rho, -du_drho * y * inv_rho, -du_dz),
        )
    }
}

impl ExternalPotential for ConstrictionRing {
    fn energy_force(&self, p: Vec3, species: SpeciesId) -> (f64, Vec3) {
        if !self.acts_on(species) {
            return (0.0, Vec3::zero());
        }
        let g = self.distance(p.x, p.y, p.z);
        self.screened_energy_force(p.x, p.y, &g, self.screen_exponent(&g).exp())
    }

    /// Per chunk of lanes: the screening exponents into a stack buffer,
    /// `exp` over it in place (the libm pass), then the branch-free rest
    /// through the same inlined helpers.
    fn add_forces_lanes(&self, pos: [&[f64]; 3], species: SpeciesId, frc: [&mut [f64]; 3]) {
        if !self.acts_on(species) {
            return;
        }
        let [px, py, pz] = pos;
        let [fx, fy, fz] = frc;
        let mut screen = [0.0; LANE_CHUNK];
        for c in (0..px.len()).step_by(LANE_CHUNK) {
            let end = (c + LANE_CHUNK).min(px.len());
            let (x, y, z) = (&px[c..end], &py[c..end], &pz[c..end]);
            let (fx, fy, fz) = (&mut fx[c..end], &mut fy[c..end], &mut fz[c..end]);
            let screen = &mut screen[..x.len()];
            for (l, s) in screen.iter_mut().enumerate() {
                *s = self.screen_exponent(&self.distance(x[l], y[l], z[l]));
            }
            for s in screen.iter_mut() {
                *s = s.exp();
            }
            for (l, &s) in screen.iter().enumerate() {
                let g = self.distance(x[l], y[l], z[l]);
                let (_e, f) = self.screened_energy_force(x[l], y[l], &g, s);
                fx[l] += f.x;
                fy[l] += f.y;
                fz[l] += f.z;
            }
        }
    }

    fn name(&self) -> &str {
        "constriction-ring"
    }
}

/// Base-scale axial corrugation of the pore interior.
///
/// The hemolysin β-barrel presents the translocating strand with
/// nucleotide-scale (a few Å) energetic features — side-chain ridges and
/// binding sub-sites. A pulling spring of stiffness κ lets the strand
/// coordinate fluctuate by σ = √(kT/κ); springs softer than the feature
/// scale (the paper's κ = 10 pN/Å → σ ≈ 2 Å) thermally smear these
/// features out of the measured PMF, which is precisely §IV-B's "large
/// variation in the space sampled" failure mode.
///
/// `U(z) = A · env(z) · sin(2π z / p)` for DNA beads inside the barrel,
/// with a smoothstep envelope at both ends.
#[derive(Debug, Clone, Copy)]
pub struct AxialCorrugation {
    /// Feature amplitude per bead (kcal/mol).
    pub amplitude: f64,
    /// Axial period (Å) — nucleotide-scale.
    pub period: f64,
    /// Corrugated region start (Å).
    pub z_lo: f64,
    /// Corrugated region end (Å).
    pub z_hi: f64,
    /// Envelope ramp width (Å).
    pub ramp: f64,
}

impl AxialCorrugation {
    /// Smoothstep envelope and its derivative: up over [z_lo, z_lo+ramp],
    /// down over [z_hi−ramp, z_hi], zero outside (z_lo, z_hi). Both ramps
    /// are evaluated before the selects so the lane sweep stays
    /// branch-free; the selected values are the branchy form's bits.
    #[inline(always)]
    fn envelope(&self, z: f64) -> (f64, f64) {
        let smooth = |t: f64| {
            let t = t.clamp(0.0, 1.0);
            (t * t * (3.0 - 2.0 * t), 6.0 * t * (1.0 - t))
        };
        let (e_up, de_up) = smooth((z - self.z_lo) / self.ramp);
        let (e_dn, de_dn) = smooth((self.z_hi - z) / self.ramp);
        if !self.may_act(z) {
            (0.0, 0.0)
        } else if z < self.z_lo + self.ramp {
            (e_up, de_up / self.ramp)
        } else if z > self.z_hi - self.ramp {
            (e_dn, -de_dn / self.ramp)
        } else {
            (1.0, 0.0)
        }
    }

    /// False exactly where the envelope is identically zero: outside the
    /// open span (z_lo, z_hi). A NaN height counts as inside, as it does
    /// for the envelope.
    #[inline(always)]
    fn may_act(&self, z: f64) -> bool {
        !(z <= self.z_lo || z >= self.z_hi)
    }

    /// Axial wavenumber 2π/p of the ripple.
    #[inline(always)]
    fn wavenumber(&self) -> f64 {
        2.0 * std::f64::consts::PI / self.period
    }

    /// Energy and z-force at height `z` from the ripple's `sin`/`cos` —
    /// the arithmetic after the libm calls, shared by the scalar and the
    /// lane-swept paths. The force-free region (zero envelope and slope)
    /// yields an exact zero force whatever `s`/`c` hold.
    #[inline(always)]
    fn energy_force_z(&self, z: f64, s: f64, c: f64) -> (f64, f64) {
        let (env, denv) = self.envelope(z);
        let w = self.wavenumber();
        let e = self.amplitude * env * s;
        let du_dz = self.amplitude * (denv * s + env * w * c);
        // spice-lint: allow(N002) exact-zero envelope sentinel: force-free region
        let free = env == 0.0 && denv == 0.0;
        if free {
            (0.0, 0.0)
        } else {
            (e, -du_dz)
        }
    }
}

impl ExternalPotential for AxialCorrugation {
    fn energy_force(&self, p: Vec3, species: SpeciesId) -> (f64, Vec3) {
        if species != SPECIES_DNA || !self.may_act(p.z) {
            return (0.0, Vec3::zero());
        }
        let w = self.wavenumber();
        let (e, fz) = self.energy_force_z(p.z, (w * p.z).sin(), (w * p.z).cos());
        (e, Vec3::new(0.0, 0.0, fz))
    }

    /// Two passes per chunk of lanes: `sin`/`cos` into stack buffers,
    /// then the branch-free envelope and force arithmetic. The x/y rows
    /// only ever receive `+0.0`, which leaves an accumulator's bits alone
    /// (force accumulators are never `−0.0`), so they are not touched.
    fn add_forces_lanes(&self, pos: [&[f64]; 3], species: SpeciesId, frc: [&mut [f64]; 3]) {
        let [_, _, pz] = pos;
        if species != SPECIES_DNA || !pz.iter().any(|&z| self.may_act(z)) {
            return;
        }
        let [_, _, fz] = frc;
        let w = self.wavenumber();
        let (mut sin, mut cos) = ([0.0; LANE_CHUNK], [0.0; LANE_CHUNK]);
        for c in (0..pz.len()).step_by(LANE_CHUNK) {
            let end = (c + LANE_CHUNK).min(pz.len());
            let (z, fz) = (&pz[c..end], &mut fz[c..end]);
            let (sin, cos) = (&mut sin[..z.len()], &mut cos[..z.len()]);
            // Lanes outside the span get placeholder zeros: their force
            // is the exact zero of the force-free region whatever s/c hold.
            for l in 0..z.len() {
                (sin[l], cos[l]) = if self.may_act(z[l]) {
                    ((w * z[l]).sin(), (w * z[l]).cos())
                } else {
                    (0.0, 0.0)
                };
            }
            for l in 0..z.len() {
                fz[l] += self.energy_force_z(z[l], sin[l], cos[l]).1;
            }
        }
    }

    fn name(&self) -> &str {
        "axial-corrugation"
    }
}

/// Lipid-bilayer exclusion: beads may not occupy the membrane slab outside
/// the pore lumen.
#[derive(Debug, Clone)]
pub struct MembraneSlab {
    geometry: PoreGeometry,
    /// Exclusion stiffness (kcal mol⁻¹ Å⁻²).
    pub k: f64,
}

impl MembraneSlab {
    /// Membrane exclusion over the barrel span of `geometry`.
    pub fn new(geometry: PoreGeometry, k: f64) -> Self {
        assert!(k > 0.0);
        MembraneSlab { geometry, k }
    }
}

impl ExternalPotential for MembraneSlab {
    fn energy_force(&self, p: Vec3, _species: SpeciesId) -> (f64, Vec3) {
        if !self.geometry.in_membrane_span(p.z) {
            return (0.0, Vec3::zero());
        }
        let rho = p.rho();
        // Exact cull without the ripple `cos` (`+ 2.0` is monotone; see
        // `PoreGeometry::radius_lower_bound`).
        if rho <= self.geometry.radius_lower_bound(p.z) + 2.0 {
            return (0.0, Vec3::zero());
        }
        let r_lumen = self.geometry.radius(p.z);
        // Outside the lumen wall but inside the membrane: push back down/up
        // along z to the nearest face AND inward. We implement the z-face
        // penalty (dominant for beads wandering over the lipid headgroups).
        if rho <= r_lumen + 2.0 {
            return (0.0, Vec3::zero());
        }
        // Penetration depth from the nearest membrane face; U = k d²
        // ejects the bead through that face.
        let d_lo = p.z - self.geometry.barrel_lo;
        let d_hi = self.geometry.barrel_hi - p.z;
        let (d, out_dir) = if d_lo < d_hi {
            (d_lo, -1.0)
        } else {
            (d_hi, 1.0)
        };
        let e = self.k * d * d;
        (e, Vec3::new(0.0, 0.0, 2.0 * self.k * d * out_dir))
    }

    fn name(&self) -> &str {
        "membrane-slab"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> PoreGeometry {
        PoreGeometry::alpha_hemolysin()
    }

    #[test]
    fn wall_inert_on_axis() {
        let w = PoreWall::new(geom(), 10.0, 3.0);
        let (e, f) = w.energy_force(Vec3::new(0.0, 0.0, 25.0), SPECIES_DNA);
        assert_eq!(e, 0.0);
        assert_eq!(f, Vec3::zero());
    }

    #[test]
    fn wall_pushes_back_radially() {
        let w = PoreWall::new(geom(), 10.0, 3.0);
        // Barrel radius ~8, bead radius 3 → allowed ~5 (±corrugation).
        let (e, f) = w.energy_force(Vec3::new(7.5, 0.0, 25.0), SPECIES_DNA);
        assert!(e > 0.0);
        assert!(f.x < 0.0, "radial restoring force");
    }

    #[test]
    fn wall_inert_in_bulk() {
        let w = PoreWall::new(geom(), 10.0, 3.0);
        let (e, f) = w.energy_force(Vec3::new(50.0, 0.0, 120.0), SPECIES_DNA);
        assert_eq!(e, 0.0);
        assert_eq!(f, Vec3::zero());
    }

    #[test]
    fn wall_force_matches_numeric_gradient() {
        let w = PoreWall::new(geom(), 5.0, 3.0);
        let h = 1e-6;
        // Point pressed into the wall inside the constriction region.
        for p in [
            Vec3::new(2.5, 0.5, 53.0),
            Vec3::new(6.0, 1.0, 25.0),
            Vec3::new(0.0, 12.0, 75.0),
        ] {
            let (_, f) = w.energy_force(p, SPECIES_DNA);
            for ax in 0..3 {
                let mut pp = p;
                let mut pm = p;
                match ax {
                    0 => {
                        pp.x += h;
                        pm.x -= h;
                    }
                    1 => {
                        pp.y += h;
                        pm.y -= h;
                    }
                    _ => {
                        pp.z += h;
                        pm.z -= h;
                    }
                }
                let num = -(w.energy_force(pp, SPECIES_DNA).0 - w.energy_force(pm, SPECIES_DNA).0)
                    / (2.0 * h);
                let ana = [f.x, f.y, f.z][ax];
                assert!(
                    (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                    "p={p:?} ax={ax}: {num} vs {ana}"
                );
            }
        }
    }

    #[test]
    fn constriction_creates_axial_barrier_for_like_charge() {
        // Negative ring, negative DNA: energy peaks at the ring height.
        let ring = ConstrictionRing {
            radius: 4.5,
            z0: 53.0,
            charge: -7.0,
            lambda: 3.0,
            epsilon_r: 80.0,
            bead_charge: -1.0,
            softening: 1.0,
        };
        let e_at = ring.energy_force(Vec3::new(0.0, 0.0, 53.0), SPECIES_DNA).0;
        let e_away = ring.energy_force(Vec3::new(0.0, 0.0, 70.0), SPECIES_DNA).0;
        assert!(e_at > 0.0, "like charges repel: {e_at}");
        assert!(
            e_at > 10.0 * e_away.abs().max(1e-6),
            "barrier localized: {e_at} vs {e_away}"
        );
    }

    #[test]
    fn ring_ignores_non_dna_species() {
        let ring = ConstrictionRing {
            radius: 4.5,
            z0: 53.0,
            charge: -7.0,
            lambda: 3.0,
            epsilon_r: 80.0,
            bead_charge: -1.0,
            softening: 1.0,
        };
        let (e, f) = ring.energy_force(Vec3::new(0.0, 0.0, 53.0), 0);
        assert_eq!(e, 0.0);
        assert_eq!(f, Vec3::zero());
    }

    #[test]
    fn ring_force_matches_numeric_gradient() {
        let ring = ConstrictionRing {
            radius: 4.5,
            z0: 53.0,
            charge: -7.0,
            lambda: 3.0,
            epsilon_r: 80.0,
            bead_charge: -1.0,
            softening: 1.0,
        };
        let h = 1e-6;
        for p in [Vec3::new(1.0, 0.7, 52.0), Vec3::new(2.0, -1.0, 55.0)] {
            let (_, f) = ring.energy_force(p, SPECIES_DNA);
            for ax in 0..3 {
                let mut pp = p;
                let mut pm = p;
                match ax {
                    0 => {
                        pp.x += h;
                        pm.x -= h;
                    }
                    1 => {
                        pp.y += h;
                        pm.y -= h;
                    }
                    _ => {
                        pp.z += h;
                        pm.z -= h;
                    }
                }
                let num = -(ring.energy_force(pp, SPECIES_DNA).0
                    - ring.energy_force(pm, SPECIES_DNA).0)
                    / (2.0 * h);
                let ana = [f.x, f.y, f.z][ax];
                assert!(
                    (num - ana).abs() < 1e-4 * (1.0 + ana.abs()),
                    "p={p:?} ax={ax}: {num} vs {ana}"
                );
            }
        }
    }

    #[test]
    fn corrugation_periodic_inside_region() {
        let c = AxialCorrugation {
            amplitude: 2.0,
            period: 6.0,
            z_lo: 10.0,
            z_hi: 50.0,
            ramp: 3.0,
        };
        // Inside the plateau, |U| reaches the amplitude.
        let peak = (0..200)
            .map(|i| {
                c.energy_force(Vec3::new(0.0, 0.0, 20.0 + i as f64 * 0.1), SPECIES_DNA)
                    .0
            })
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((peak - 2.0).abs() < 0.05, "peak {peak}");
        // Outside: inert.
        assert_eq!(
            c.energy_force(Vec3::new(0.0, 0.0, 60.0), SPECIES_DNA).0,
            0.0
        );
        assert_eq!(c.energy_force(Vec3::new(0.0, 0.0, 20.0), 0).0, 0.0);
    }

    #[test]
    fn corrugation_force_matches_numeric_gradient() {
        let c = AxialCorrugation {
            amplitude: 2.0,
            period: 6.0,
            z_lo: 10.0,
            z_hi: 50.0,
            ramp: 3.0,
        };
        let h = 1e-6;
        for z in [11.0, 12.5, 25.0, 47.7, 49.5] {
            let p = Vec3::new(0.3, -0.2, z);
            let (_, f) = c.energy_force(p, SPECIES_DNA);
            let ep = c.energy_force(Vec3::new(0.3, -0.2, z + h), SPECIES_DNA).0;
            let em = c.energy_force(Vec3::new(0.3, -0.2, z - h), SPECIES_DNA).0;
            let num = -(ep - em) / (2.0 * h);
            assert!(
                (num - f.z).abs() < 1e-4 * (1.0 + f.z.abs()),
                "z={z}: {num} vs {}",
                f.z
            );
        }
    }

    #[test]
    fn membrane_inert_inside_lumen_and_outside_span() {
        let m = MembraneSlab::new(geom(), 20.0);
        assert_eq!(
            m.energy_force(Vec3::new(0.0, 0.0, 25.0), SPECIES_DNA).0,
            0.0
        );
        assert_eq!(
            m.energy_force(Vec3::new(50.0, 0.0, 75.0), SPECIES_DNA).0,
            0.0
        );
    }

    fn ring() -> ConstrictionRing {
        ConstrictionRing {
            radius: 4.5,
            z0: 53.0,
            charge: -7.0,
            lambda: 3.0,
            epsilon_r: 80.0,
            bead_charge: -1.0,
            softening: 1.0,
        }
    }

    /// Points spread over the pore, the membrane and bulk, plus the axis
    /// and non-finite coordinates (a dead lane's rows).
    fn lane_points(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|l| match l % 23 {
                7 => Vec3::new(f64::NAN, f64::NAN, f64::NAN),
                11 => Vec3::new(0.0, 0.0, 40.0 + l as f64 * 0.1),
                13 => Vec3::new(1.0, 2.0, f64::INFINITY),
                _ => {
                    let t = l as f64;
                    let rho = (t * 0.618_034).fract() * 16.0;
                    let phi = t * 2.399_963;
                    let z = (t * 0.414_214).fract() * 130.0 - 15.0;
                    Vec3::new(rho * phi.cos(), rho * phi.sin(), z)
                }
            })
            .collect()
    }

    /// Every pore external's lane sweep adds exactly the bits per-lane
    /// `energy_force` would, across chunk boundaries, both species and
    /// non-finite rows.
    #[test]
    fn lane_sweeps_match_scalar_bitwise() {
        let externals: Vec<Box<dyn ExternalPotential>> = vec![
            Box::new(AxialCorrugation {
                amplitude: 0.4,
                period: 1.8,
                z_lo: 2.0,
                z_hi: 58.0,
                ramp: 3.0,
            }),
            Box::new(ring()),
            Box::new(PoreWall::new(geom(), 5.0, 2.5)),
            Box::new(MembraneSlab::new(geom(), 10.0)),
        ];
        for n in [1usize, 5, 64, 65, 131] {
            let pts = lane_points(n);
            let px: Vec<f64> = pts.iter().map(|p| p.x).collect();
            let py: Vec<f64> = pts.iter().map(|p| p.y).collect();
            let pz: Vec<f64> = pts.iter().map(|p| p.z).collect();
            for species in [0, SPECIES_DNA] {
                for ext in &externals {
                    let start = |k: usize| (0..n).map(|l| ((l + k) % 3) as f64 * 0.5).collect();
                    let (mut fx, mut fy, mut fz): (Vec<f64>, Vec<f64>, Vec<f64>) =
                        (start(0), start(1), start(2));
                    let mut want = vec![Vec3::zero(); n];
                    for (l, w) in want.iter_mut().enumerate() {
                        *w = Vec3::new(fx[l], fy[l], fz[l]) + ext.energy_force(pts[l], species).1;
                    }
                    ext.add_forces_lanes([&px, &py, &pz], species, [&mut fx, &mut fy, &mut fz]);
                    for (l, w) in want.iter().enumerate() {
                        let got = [fx[l], fy[l], fz[l]].map(f64::to_bits);
                        let want = [w.x, w.y, w.z].map(f64::to_bits);
                        assert_eq!(got, want, "{} n={n} species={species} lane {l}", ext.name());
                    }
                }
            }
        }
    }

    #[test]
    fn membrane_penalizes_lipid_region() {
        let m = MembraneSlab::new(geom(), 20.0);
        let (e, _) = m.energy_force(Vec3::new(30.0, 0.0, 25.0), SPECIES_DNA);
        assert!(e > 0.0, "bead in lipid must be penalized");
    }
}
