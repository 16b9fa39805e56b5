//! Simulation substrate for the GPUReplay reproduction.
//!
//! Everything in this workspace runs against *virtual time*: a [`SimClock`]
//! shared by the CPU-side software stack and the simulated GPU hardware.
//! Components charge modeled costs (JIT compilation, ioctl crossings, GPU
//! busy time, cache-flush delays, ...) to the clock instead of burning wall
//! clock, which makes every experiment deterministic and fast while
//! preserving the delay *shapes* the paper reports.
//!
//! The crate also provides:
//!
//! * [`SimRng`] — deterministic, fork-able randomness (timing jitter, magic
//!   input generation, interference schedules);
//! * [`EventQueue`] — the pending-event structure device models use to
//!   schedule job completions and IRQs;
//! * [`MemAccount`] — modeled CPU heap accounting for the §7.3 memory
//!   comparison.
//!
//! # Example
//!
//! ```
//! use gr_sim::{SimClock, SimDuration};
//!
//! let clock = SimClock::new();
//! clock.advance(SimDuration::from_millis(3));
//! assert_eq!(clock.now().as_nanos(), 3_000_000);
//! ```

pub mod clock;
pub mod event;
pub mod mem;
pub mod rng;
pub mod time;

pub use clock::SimClock;
pub use event::EventQueue;
pub use mem::MemAccount;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
