//! The axisymmetric α-hemolysin pore geometry.
//!
//! Crystallographic anatomy (Song et al. 1996), coarse-grained into a
//! smooth radius profile r(z) along the channel axis:
//!
//! ```text
//!        z (Å)
//!   100 ┤   ╭───────╮      cap mouth (cis), r ≈ 22
//!        │  vestibule       narrowing to r ≈ 10
//!    55 ┤    ╰─╮ ╭─╯       constriction, r ≈ 4.5  (E111/K147 ring)
//!    50 ┤     │   │
//!        │    β-barrel      r ≈ 8, through the membrane
//!     0 ┤     ╰───╯         trans exit
//! ```
//!
//! The heptamer's seven-fold symmetry shows up as a small azimuthal and
//! axial corrugation of the wall; the axial component is what matters for
//! the PMF along z (it produces the periodic structure a translocating
//! strand feels), so we model it as a cosine ripple on r(z).

use serde::{Deserialize, Serialize};

/// Geometric description of the pore. All lengths in Å.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PoreGeometry {
    /// z of the trans (lower) end of the β-barrel.
    pub barrel_lo: f64,
    /// z of the top of the β-barrel = bottom of the constriction.
    pub barrel_hi: f64,
    /// z of the top of the constriction = bottom of the vestibule.
    pub constriction_hi: f64,
    /// z of the cap mouth (cis opening).
    pub cap_hi: f64,
    /// β-barrel lumen radius.
    pub barrel_radius: f64,
    /// Constriction lumen radius (the narrowest point).
    pub constriction_radius: f64,
    /// Vestibule radius just above the constriction.
    pub vestibule_radius: f64,
    /// Radius at the cap mouth.
    pub mouth_radius: f64,
    /// Amplitude of the axial wall corrugation (Å).
    pub corrugation_amplitude: f64,
    /// Axial period of the corrugation (Å) — one β-strand rise per
    /// heptamer repeat.
    pub corrugation_period: f64,
}

impl Default for PoreGeometry {
    fn default() -> Self {
        Self::alpha_hemolysin()
    }
}

impl PoreGeometry {
    /// The default α-hemolysin-like geometry used throughout SPICE.
    pub fn alpha_hemolysin() -> Self {
        PoreGeometry {
            barrel_lo: 0.0,
            barrel_hi: 50.0,
            constriction_hi: 56.0,
            cap_hi: 100.0,
            barrel_radius: 8.0,
            constriction_radius: 4.5,
            vestibule_radius: 14.0,
            mouth_radius: 22.0,
            corrugation_amplitude: 0.8,
            corrugation_period: 10.0,
        }
    }

    /// Smoothstep interpolation helper.
    fn smooth(t: f64) -> f64 {
        let t = t.clamp(0.0, 1.0);
        t * t * (3.0 - 2.0 * t)
    }

    /// Lumen radius at height `z`, *without* corrugation. Outside the pore
    /// (z < barrel_lo or z > cap_hi) the profile opens to bulk: returns
    /// `f64::INFINITY`.
    pub fn smooth_radius(&self, z: f64) -> f64 {
        if z < self.barrel_lo || z > self.cap_hi {
            return f64::INFINITY;
        }
        // Blend half-widths for the constriction transitions.
        let w = 3.0;
        if z <= self.barrel_hi - w {
            self.barrel_radius
        } else if z <= self.barrel_hi + (self.constriction_hi - self.barrel_hi) * 0.5 {
            // barrel → constriction
            let t = Self::smooth((z - (self.barrel_hi - w)) / w);
            self.barrel_radius + t * (self.constriction_radius - self.barrel_radius)
        } else if z <= self.constriction_hi + w {
            // constriction → vestibule
            let t = Self::smooth(
                (z - (self.barrel_hi + (self.constriction_hi - self.barrel_hi) * 0.5))
                    / (self.constriction_hi + w
                        - (self.barrel_hi + (self.constriction_hi - self.barrel_hi) * 0.5)),
            );
            self.constriction_radius + t * (self.vestibule_radius - self.constriction_radius)
        } else {
            // vestibule widening toward the mouth
            let t = Self::smooth(
                (z - (self.constriction_hi + w)) / (self.cap_hi - self.constriction_hi - w),
            );
            self.vestibule_radius + t * (self.mouth_radius - self.vestibule_radius)
        }
    }

    /// Lumen radius at height `z` including the seven-fold corrugation.
    pub fn radius(&self, z: f64) -> f64 {
        let r = self.smooth_radius(z);
        if !r.is_finite() {
            return r;
        }
        let ripple = self.corrugation_amplitude
            * (2.0 * std::f64::consts::PI * z / self.corrugation_period).cos();
        // Never let the ripple close the constriction entirely.
        (r + ripple).max(self.constriction_radius * 0.5)
    }

    /// A lower bound on [`radius`](Self::radius) that needs no ripple
    /// `cos`: `max(smooth − |amp|, 0.5·r_constriction)`, or the same
    /// non-finite value outside the pore.
    ///
    /// It never exceeds `radius(z)` in floating point, not just in exact
    /// arithmetic: `|cos| ≤ 1` and `amp·1` is exact, so the rounded
    /// ripple is at least `−|amp|`; IEEE rounding is monotone, so the
    /// rounded `smooth + ripple` is at least the rounded `smooth − |amp|`,
    /// and `max` with the same floor preserves the order. Potentials use
    /// it to cull particles deep inside the lumen before paying for the
    /// `cos` — exactly, since wherever ρ is at or below the bound the full
    /// test would have found ρ inside too.
    pub fn radius_lower_bound(&self, z: f64) -> f64 {
        let r = self.smooth_radius(z);
        if !r.is_finite() {
            return r;
        }
        (r - self.corrugation_amplitude.abs()).max(self.constriction_radius * 0.5)
    }

    /// d(radius)/dz at `z`, used by the wall force: a central difference
    /// (h = 10⁻⁴ Å, clamped to the pore ends) of the full corrugated
    /// profile. Returns 0 outside the pore.
    pub fn radius_gradient(&self, z: f64) -> f64 {
        if z < self.barrel_lo || z > self.cap_hi {
            return 0.0;
        }
        let h = 1e-4;
        let zp = (z + h).min(self.cap_hi);
        let zm = (z - h).max(self.barrel_lo);
        let rp = self.radius(zp);
        let rm = self.radius(zm);
        if !rp.is_finite() || !rm.is_finite() {
            return 0.0;
        }
        (rp - rm) / (zp - zm)
    }

    /// z of the narrowest lumen point (scan at 0.1 Å resolution).
    pub fn constriction_z(&self) -> f64 {
        let mut best_z = self.barrel_lo;
        let mut best_r = f64::INFINITY;
        let mut z = self.barrel_lo;
        while z <= self.cap_hi {
            let r = self.smooth_radius(z);
            if r < best_r {
                best_r = r;
                best_z = z;
            }
            z += 0.1;
        }
        best_z
    }

    /// Total pore length (Å).
    pub fn length(&self) -> f64 {
        self.cap_hi - self.barrel_lo
    }

    /// True when `z` lies within the membrane-spanning β-barrel section.
    pub fn in_membrane_span(&self, z: f64) -> bool {
        (self.barrel_lo..=self.barrel_hi).contains(&z)
    }

    /// Tabulate (z, radius) at the given axial resolution — the Fig. 1
    /// structural summary.
    pub fn radius_profile(&self, dz: f64) -> Vec<(f64, f64)> {
        assert!(dz > 0.0);
        let mut out = Vec::new();
        let mut z = self.barrel_lo;
        while z <= self.cap_hi {
            out.push((z, self.radius(z)));
            z += dz;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrel_is_uniform_away_from_constriction() {
        let g = PoreGeometry::alpha_hemolysin();
        assert_eq!(g.smooth_radius(10.0), g.barrel_radius);
        assert_eq!(g.smooth_radius(30.0), g.barrel_radius);
    }

    #[test]
    fn constriction_is_narrowest() {
        let g = PoreGeometry::alpha_hemolysin();
        let zc = g.constriction_z();
        assert!(
            zc > g.barrel_hi - 5.0 && zc < g.constriction_hi + 1.0,
            "constriction at {zc} should sit near the barrel/vestibule junction"
        );
        let rc = g.smooth_radius(zc);
        assert!((rc - g.constriction_radius).abs() < 0.5);
        for z in [5.0, 25.0, 45.0, 70.0, 90.0] {
            assert!(g.smooth_radius(z) >= rc, "z={z} narrower than constriction");
        }
    }

    #[test]
    fn mouth_is_widest_inside_pore() {
        let g = PoreGeometry::alpha_hemolysin();
        let r_mouth = g.smooth_radius(g.cap_hi - 1e-9);
        assert!((r_mouth - g.mouth_radius).abs() < 0.5);
    }

    #[test]
    fn outside_pore_is_bulk() {
        let g = PoreGeometry::alpha_hemolysin();
        assert!(!g.smooth_radius(-1.0).is_finite());
        assert!(!g.smooth_radius(101.0).is_finite());
        assert_eq!(g.radius_gradient(-5.0), 0.0);
    }

    #[test]
    fn profile_is_continuous() {
        let g = PoreGeometry::alpha_hemolysin();
        let prof = g.radius_profile(0.05);
        for w in prof.windows(2) {
            let dr = (w[1].1 - w[0].1).abs();
            assert!(
                dr < 0.25,
                "radius jump {dr} between z={} and z={}",
                w[0].0,
                w[1].0
            );
        }
    }

    #[test]
    fn corrugation_modulates_barrel() {
        let g = PoreGeometry::alpha_hemolysin();
        let radii: Vec<f64> = (0..100).map(|i| g.radius(5.0 + i as f64 * 0.4)).collect();
        let min = radii.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = radii.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max - min > g.corrugation_amplitude,
            "corrugation should modulate the wall: range {}",
            max - min
        );
    }

    #[test]
    fn corrugation_never_closes_pore() {
        let g = PoreGeometry::alpha_hemolysin();
        for (_, r) in g.radius_profile(0.05) {
            assert!(r >= g.constriction_radius * 0.5);
        }
    }

    #[test]
    fn membrane_span() {
        let g = PoreGeometry::alpha_hemolysin();
        assert!(g.in_membrane_span(25.0));
        assert!(!g.in_membrane_span(75.0));
        assert!((g.length() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn radius_lower_bound_never_exceeds_radius() {
        for g in [
            PoreGeometry::alpha_hemolysin(),
            PoreGeometry {
                corrugation_amplitude: -1.3,
                ..PoreGeometry::alpha_hemolysin()
            },
        ] {
            for i in -20..=2100 {
                let z = i as f64 * 0.05 + 1e-7 * (i % 7) as f64;
                let (lb, r) = (g.radius_lower_bound(z), g.radius(z));
                assert!(lb <= r, "z={z}: {lb} > {r}");
            }
            assert!(g.radius_lower_bound(f64::NAN).is_nan());
        }
    }

    #[test]
    fn gradient_matches_profile() {
        let g = PoreGeometry::alpha_hemolysin();
        for z in [10.0, 51.0, 54.0, 60.0, 80.0] {
            let h = 1e-3;
            let num = (g.radius(z + h) - g.radius(z - h)) / (2.0 * h);
            let ana = g.radius_gradient(z);
            assert!((num - ana).abs() < 0.05, "z={z}: {num} vs {ana}");
        }
    }
}
