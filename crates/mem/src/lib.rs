//! Memory-management substrate for the `gms-subpages` reproduction:
//! pages, subpage valid-bit masks, page tables, a TLB model, replacement
//! policies, and the PALcode emulation cost model of Table 1.
//!
//! The paper's prototype keeps "32 subpage valid bits for each page, one
//! bit for each 256-byte block" and traps accesses to incomplete pages
//! into PALcode, which emulates loads and stores to valid subpages. This
//! crate models all of that machinery:
//!
//! * [`Geometry`] — page/subpage address decomposition.
//! * [`SubpageMask`] — the per-page valid-bit set.
//! * [`PageTable`] / [`PageState`] — which pages are resident with which
//!   subpages, and which are dirty.
//! * [`PageMap`] — a map keyed by one node's own page ids: an array over
//!   the node's footprint, a hash map outside it.
//! * [`FramePool`] — physical-frame accounting.
//! * [`ReplacementPolicy`] — LRU (the paper's default) plus FIFO, Clock
//!   and 2-random-choices for ablations.
//! * [`Tlb`] — a set-associative TLB for the small-pages comparison of
//!   §2.1.
//! * [`PalEmulator`] — the Table 1 load/store emulation cost model, with
//!   the prototype's "fast when the valid bits are already cached"
//!   behaviour.
//!
//! # Examples
//!
//! ```
//! use gms_mem::{Geometry, PageSize, SubpageSize};
//! use gms_units::VirtAddr;
//!
//! let geom = Geometry::new(PageSize::P8K, SubpageSize::S1K);
//! assert_eq!(geom.subpages_per_page(), 8);
//! let addr = VirtAddr::new(0x1_0000_0000 + 3 * 1024 + 17);
//! assert_eq!(geom.subpage_of(addr).get(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod frames;
mod layout;
mod pagemap;
mod pagetable;
mod palcode;
mod replacement;
mod subpage;
mod tlb;

pub use frames::FramePool;
pub use layout::{Geometry, PageId, PageSize, SubpageIndex, SubpageSize};
pub use pagemap::PageMap;
pub use pagetable::{PageState, PageTable};
pub use palcode::{PalCosts, PalEmulator, PalStats};
pub use replacement::{Clock, Fifo, Lru, Random2, ReplacementPolicy};
pub use subpage::SubpageMask;
pub use tlb::{Tlb, TlbStats};
