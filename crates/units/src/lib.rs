//! Foundational quantity and identifier newtypes for the `gms-subpages`
//! workspace.
//!
//! Every other crate in the reproduction of *"Reducing Network Latency
//! Using Subpages in a Global Memory Environment"* (ASPLOS '96) expresses
//! time, sizes, rates and node identity through these types rather than
//! bare integers, so that a nanosecond can never be added to a byte count
//! by accident.
//!
//! # Examples
//!
//! ```
//! use gms_units::{Bytes, BytesPerSec, Duration};
//!
//! // How long does an 8 KB page spend on a 155 Mb/s ATM wire?
//! let page = Bytes::new(8192);
//! let atm = BytesPerSec::from_bits_per_sec(155_000_000);
//! let wire = atm.time_for(page);
//! assert!(wire > Duration::from_micros(400) && wire < Duration::from_micros(440));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod addr;
mod bytes;
mod cycles;
mod hash;
mod ids;
mod rate;
mod time;

pub use addr::VirtAddr;
pub use bytes::Bytes;
pub use cycles::{ClockRate, Cycles};
pub use hash::{FastHasher, FastMap, FastSet};
pub use ids::{NetResource, NodeId};
pub use rate::BytesPerSec;
pub use time::{Duration, SimTime};
