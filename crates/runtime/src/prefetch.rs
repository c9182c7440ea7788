//! The software prefetch: a hint to the cache that a line will be used
//! soon, issued by a loop that knows its next address before the
//! hardware's prefetchers could guess it.

/// Ask for the cache line that holds `p`, for writing if `write` — a
/// hint, not an access: it reads and writes no value and cannot fault,
/// whatever `p` points at, so any address may be passed. The write hint
/// is `prefetchw` where the target enables `prfchw`, and the read one,
/// `prefetcht0`, on the default `x86_64` target. Nothing off `x86_64`.
#[inline(always)]
pub fn line(p: *const f32, write: bool) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` emits a prefetch instruction, which is a
    // hint. It never faults — an address that is unmapped, null or past
    // an allocation is dropped — changes no value in memory or in a
    // register, and is not an access in the memory model, so it orders
    // nothing and races with nothing. `sse`, which the intrinsic needs,
    // is part of every `x86_64` target.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_ET0, _MM_HINT_T0};
        if write {
            _mm_prefetch::<_MM_HINT_ET0>(p.cast());
        } else {
            _mm_prefetch::<_MM_HINT_T0>(p.cast());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (p, write);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_prefetch_changes_nothing_and_never_faults() {
        let mut buf: Vec<f32> = (0..64).map(|i| i as f32).collect();
        for (i, write) in (0..buf.len()).flat_map(|i| [(i, false), (i, true)]) {
            line(buf.as_ptr().wrapping_add(i), write);
        }
        line(buf.as_mut_ptr(), true);
        assert!(buf.iter().enumerate().all(|(i, &x)| x == i as f32));
        // Addresses no access may touch: null, past the end, unmapped.
        for p in [
            std::ptr::null(),
            buf.as_ptr().wrapping_add(1 << 40),
            usize::MAX as *const f32,
        ] {
            line(p, false);
            line(p, true);
        }
    }
}
