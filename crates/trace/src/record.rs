//! Individual memory references.

use core::fmt;

use gms_units::VirtAddr;

/// Whether a memory reference reads or writes.
///
/// Writes matter to the global memory system because evicting a dirty page
/// requires pushing its contents to another node, while a clean page can
/// simply be dropped (the remote copy is still valid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// True for [`AccessKind::Write`].
    #[must_use]
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("R"),
            AccessKind::Write => f.write_str("W"),
        }
    }
}

/// A single memory reference: one address, one direction.
///
/// # Examples
///
/// ```
/// use gms_trace::{Access, AccessKind};
/// use gms_units::VirtAddr;
/// let a = Access::read(VirtAddr::new(0x1000));
/// assert!(!a.kind.is_write());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// The referenced address.
    pub addr: VirtAddr,
    /// Load or store.
    pub kind: AccessKind,
}

impl Access {
    /// A read of `addr`.
    #[must_use]
    pub const fn read(addr: VirtAddr) -> Self {
        Access {
            addr,
            kind: AccessKind::Read,
        }
    }

    /// A write of `addr`.
    #[must_use]
    pub const fn write(addr: VirtAddr) -> Self {
        Access {
            addr,
            kind: AccessKind::Write,
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let r = Access::read(VirtAddr::new(8));
        let w = Access::write(VirtAddr::new(8));
        assert_eq!(r.kind, AccessKind::Read);
        assert_eq!(w.kind, AccessKind::Write);
        assert!(w.kind.is_write());
        assert!(!r.kind.is_write());
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Access::read(VirtAddr::new(0x10))), "R 0x10");
        assert_eq!(format!("{}", Access::write(VirtAddr::new(0x10))), "W 0x10");
    }
}
