// P004: libm calls inside dispatched lane-kernel bodies.
#[inline(always)]
fn ring_impl(r: usize, d: &[f64], out: &mut [f64]) {
    for l in 0..r {
        out[l] = (-d[l]).exp() / d[l];
        out[l] += d[l].atan2(1.0);
    }
}
simd_dispatch!(ring / ring_impl / ring_gen / ring_avx2 / ring_avx512;
    (r: usize, d: &[f64], out: &mut [f64]));
