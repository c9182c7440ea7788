//! # ccs-runtime — kernels, rings and the reference interpreter
//!
//! Where `ccs-sched` *simulates* schedules in the DAM model, this crate
//! *runs* them on real memory: module kernels stream through real `f32`
//! state arrays and channels are real ring buffers, so wall-clock
//! measurements reflect genuine cache behavior on the host.
//!
//! * [`kernel`] — the [`kernel::Kernel`] trait plus deterministic kernels
//!   (source generator, digesting sink, FIR filters, synthetic
//!   state-streamers). SDF determinism means every legal schedule
//!   produces a bit-identical output stream — the test suite checks
//!   digests across schedulers and thread counts.
//! * [`instance::Instance`] — a graph bound to kernels.
//! * [`serial`] — the reference interpreter: executes any firing
//!   sequence ([`ccs_sched::SchedRun`]) one firing at a time, every
//!   edge a ring. The executors that ship (`ccs-exec`) are tested
//!   against its sink digests.
//! * [`ring`] — serial and lock-free SPSC ring buffers, and
//!   [`ring::RingSet`]: all the rings of one run over one slab.

pub mod instance;
pub mod kernel;
pub mod ring;
pub mod serial;

pub use instance::Instance;
pub use kernel::Kernel;
pub use ring::{Ring, RingSet, SpscRing};
pub use serial::{execute, ObsConfig, RunStats};
