// P004 must stay silent on the sanctioned shape: libm calls in a plain
// pass outside any dispatched kernel, non-libm methods inside one, a
// transcendental *name* that is not a method call, and the macro's own
// definition.
macro_rules! simd_dispatch {
    ($entry:ident / $imp:ident; ($($arg:ident : $ty:ty),*)) => {
        fn $entry($($arg: $ty),*) { $imp($($arg),*) }
    };
}

pub(super) fn acos_pass(cos_t: &mut [f64]) {
    for c in cos_t {
        *c = c.acos();
    }
}

#[inline(always)]
fn angle_impl(r: usize, theta: &[f64], out: &mut [f64]) {
    let sin = |x: f64| x * 0.5;
    for l in 0..r {
        out[l] = sin(theta[l]).sqrt().max(1e-8);
    }
}
simd_dispatch!(angle / angle_impl; (r: usize, theta: &[f64], out: &mut [f64]));

fn not_dispatched(x: f64) -> f64 {
    x.sin() + x.cos()
}
