//! Software prefetch hints for the fused firing loop.
//!
//! The fused executor knows the *next* firing's input views while the
//! current firing is still running — a one-firing lookahead that is
//! long enough to hide an L2 hit but short enough that the line is not
//! evicted again before use. An input is a line of a ring window or of
//! the segment arena; the hint pays where a period walks more of them
//! than stay in L1 from one repetition to the next, and is dispatch
//! overhead where it does not (both measured: `docs/HOTPATH.md`). It
//! targets the innermost cache (`T0` / `pldl1keep`); on architectures
//! without an exposed prefetch instruction it compiles to nothing, and
//! it is *always* semantically a no-op: issuing or skipping it cannot
//! change any result.

/// Hint the CPU to pull the cache line holding `*ptr` toward L1.
///
/// Safe to call with any pointer, valid or not — prefetch instructions
/// never fault; the address is only a hint.
#[inline(always)]
pub fn prefetch_read(ptr: *const f32) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch does not dereference; it cannot fault.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(ptr as *const i8);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM is architecturally a hint; it cannot fault.
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{0}]",
            in(reg) ptr,
            options(nostack, preserves_flags)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = ptr;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_a_semantic_noop() {
        // A hint must not observable-change anything: data before ==
        // data after, for in-bounds, boundary, and dangling addresses.
        let data = vec![1.0f32, 2.0, 3.0, 4.0];
        prefetch_read(data.as_ptr());
        prefetch_read(unsafe { data.as_ptr().add(data.len()) });
        prefetch_read(std::ptr::null());
        assert_eq!(data, [1.0, 2.0, 3.0, 4.0]);
    }
}
