//! The GPUReplay replayer — the paper's core contribution (§5).
//!
//! A drop-in replacement for the whole GPU stack: a few K SLoC that
//! statically verifies recordings ([`verify`]), rebuilds GPU page tables
//! and loads memory dumps through a ~600-line-scale nano driver
//! ([`nano`]), and interprets the replay actions with §4.5 pacing,
//! §5.4 failure detection + re-execution recovery, §5.3 GPU handoff /
//! preemption and optional checkpointing, in any of four deployment
//! environments (user, kernel, TEE, baremetal — [`env`](mod@env), §6.3). The §6.4
//! cross-SKU recording patcher lives in [`patch`].
//!
//! # Example
//!
//! ```no_run
//! use gr_gpu::{Machine, sku};
//! use gr_replayer::{Environment, EnvKind, Replayer, ReplayIo};
//!
//! # fn demo(bytes: &[u8], input: &[f32]) -> Result<(), gr_replayer::ReplayError> {
//! let machine = Machine::new(&sku::MALI_G71, 1);
//! let env = Environment::new(EnvKind::UserLevel, machine)?;
//! let mut replayer = Replayer::new(env);
//! let id = replayer.load_bytes(bytes)?;
//! let mut io = ReplayIo::for_recording(replayer.recording(id));
//! io.set_input_f32(0, input)?;
//! let report = replayer.replay(id, &mut io)?;
//! println!("replayed {} actions in {}", report.actions, report.wall);
//! # Ok(()) }
//! ```

pub mod costs;
pub mod env;
pub mod error;
pub mod handoff;
pub mod iface;
pub mod nano;
pub mod patch;
pub mod replayer;
pub mod verify;

pub use env::{EnvKind, Environment};
pub use error::ReplayError;
pub use handoff::{preempt_gpu, GpuLease};
pub use iface::NanoIface;
pub use patch::{patch_recording, PatchOptions};
pub use replayer::{BatchReport, IsolatedBatchReport, ReplayIo, ReplayReport, Replayer};
pub use verify::{PrologueRange, VerifyReport};
