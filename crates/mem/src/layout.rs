//! Page and subpage address decomposition.

use core::fmt;

use gms_units::{Bytes, VirtAddr};

/// A virtual-memory page size.
///
/// Power-of-two, between 512 B and 64 MB (the paper's machines range from
/// 4 KB pages to 16 MB superpages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageSize(Bytes);

impl PageSize {
    /// The DEC Alpha's 8 KB page: the paper's page size.
    pub const P8K: PageSize = PageSize(Bytes::new(8192));
    /// A 4 KB page (MIPS/x86 base page).
    pub const P4K: PageSize = PageSize(Bytes::new(4096));
    /// A 16 KB page.
    pub const P16K: PageSize = PageSize(Bytes::new(16384));
    /// A 64 KB page (a small superpage).
    pub const P64K: PageSize = PageSize(Bytes::new(65536));

    /// Creates a page size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two in `[512 B, 64 MB]`.
    #[must_use]
    pub fn new(size: Bytes) -> Self {
        assert!(
            size.is_power_of_two() && (512..=64 * 1024 * 1024).contains(&size.get()),
            "invalid page size {size}"
        );
        PageSize(size)
    }

    /// The size in bytes.
    #[must_use]
    pub const fn bytes(self) -> Bytes {
        self.0
    }

    /// log2 of the size: the page shift.
    #[must_use]
    pub fn shift(self) -> u32 {
        self.0.get().trailing_zeros()
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A subpage size: the paper's transfer granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubpageSize(Bytes);

impl SubpageSize {
    /// 256-byte subpages (the prototype's valid-bit granularity).
    pub const S256: SubpageSize = SubpageSize(Bytes::new(256));
    /// 512-byte subpages.
    pub const S512: SubpageSize = SubpageSize(Bytes::new(512));
    /// 1 KB subpages.
    pub const S1K: SubpageSize = SubpageSize(Bytes::new(1024));
    /// 2 KB subpages (the paper's sweet spot for current hardware).
    pub const S2K: SubpageSize = SubpageSize(Bytes::new(2048));
    /// 4 KB subpages.
    pub const S4K: SubpageSize = SubpageSize(Bytes::new(4096));

    /// The subpage sizes evaluated throughout the paper, ascending.
    pub const PAPER_SIZES: [SubpageSize; 5] = [
        SubpageSize::S256,
        SubpageSize::S512,
        SubpageSize::S1K,
        SubpageSize::S2K,
        SubpageSize::S4K,
    ];

    /// Creates a subpage size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two of at least 64 bytes.
    #[must_use]
    pub fn new(size: Bytes) -> Self {
        assert!(
            size.is_power_of_two() && size.get() >= 64,
            "invalid subpage size {size}"
        );
        SubpageSize(size)
    }

    /// The size in bytes.
    #[must_use]
    pub const fn bytes(self) -> Bytes {
        self.0
    }
}

impl fmt::Display for SubpageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifies a virtual page: the address divided by the page size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(u64);

impl PageId {
    /// Creates a page id from its raw page number.
    #[must_use]
    pub const fn new(n: u64) -> Self {
        PageId(n)
    }

    /// The raw page number.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// The index of a subpage within its page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubpageIndex(u8);

impl SubpageIndex {
    /// Creates a subpage index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is 64 or more (masks hold at most 64 subpages).
    #[must_use]
    pub fn new(i: u8) -> Self {
        assert!(i < 64, "subpage index {i} out of range");
        SubpageIndex(i)
    }

    /// The raw index.
    #[must_use]
    pub const fn get(self) -> u8 {
        self.0
    }

    /// Signed distance from `other` to `self`, in subpages — the
    /// quantity histogrammed in Figure 7.
    #[must_use]
    pub fn distance_from(self, other: SubpageIndex) -> i8 {
        self.0 as i8 - other.0 as i8
    }
}

impl fmt::Display for SubpageIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sp{}", self.0)
    }
}

/// A page size paired with a subpage size: everything needed to decompose
/// an address.
///
/// # Examples
///
/// ```
/// use gms_mem::{Geometry, PageSize, SubpageSize};
/// use gms_units::VirtAddr;
///
/// let geom = Geometry::new(PageSize::P8K, SubpageSize::S2K);
/// let addr = VirtAddr::new(0x4321_0abc);
/// let (page, sub) = geom.decompose(addr);
/// assert_eq!(geom.addr_of(page, sub).get() & !0x7ff, addr.get() & !0x7ff);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    page: PageSize,
    subpage: SubpageSize,
}

impl Geometry {
    /// Combines a page and subpage size.
    ///
    /// # Panics
    ///
    /// Panics if the subpage does not divide the page into between 1 and
    /// 64 pieces.
    #[must_use]
    pub fn new(page: PageSize, subpage: SubpageSize) -> Self {
        let n = page.bytes() / subpage.bytes();
        assert!(
            (1..=64).contains(&n) && subpage.bytes() * n == page.bytes(),
            "page {page} not divisible into at most 64 subpages of {subpage}"
        );
        Geometry { page, subpage }
    }

    /// The paper's default: 8 KB pages, whole-page transfer granularity.
    #[must_use]
    pub fn fullpage_8k() -> Self {
        Geometry::new(PageSize::P8K, SubpageSize::new(Bytes::new(8192)))
    }

    /// The page size.
    #[must_use]
    pub const fn page_size(self) -> PageSize {
        self.page
    }

    /// The subpage size.
    #[must_use]
    pub const fn subpage_size(self) -> SubpageSize {
        self.subpage
    }

    /// How many subpages make up a page.
    #[must_use]
    pub fn subpages_per_page(self) -> u32 {
        (self.page.bytes() / self.subpage.bytes()) as u32
    }

    /// The page containing `addr`.
    #[must_use]
    pub fn page_of(self, addr: VirtAddr) -> PageId {
        PageId(addr.get() >> self.page.shift())
    }

    /// The subpage (within its page) containing `addr`.
    #[must_use]
    pub fn subpage_of(self, addr: VirtAddr) -> SubpageIndex {
        let offset = addr.offset_in(self.page.bytes());
        // Subpage sizes are powers of two, so a shift divides exactly
        // (the engine calls this once per subpage a reference visits).
        SubpageIndex((offset.get() >> self.subpage.bytes().get().trailing_zeros()) as u8)
    }

    /// Both halves at once.
    #[must_use]
    pub fn decompose(self, addr: VirtAddr) -> (PageId, SubpageIndex) {
        (self.page_of(addr), self.subpage_of(addr))
    }

    /// The first address of subpage `sub` of page `page`.
    #[must_use]
    pub fn addr_of(self, page: PageId, sub: SubpageIndex) -> VirtAddr {
        VirtAddr::new(
            (page.get() << self.page.shift()) + sub.get() as u64 * self.subpage.bytes().get(),
        )
    }

    /// The first address of `page`.
    #[must_use]
    pub fn page_base(self, page: PageId) -> VirtAddr {
        VirtAddr::new(page.get() << self.page.shift())
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} pages / {} subpages", self.page, self.subpage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_has_8_subpages_at_1k() {
        let g = Geometry::new(PageSize::P8K, SubpageSize::S1K);
        assert_eq!(g.subpages_per_page(), 8);
        let g = Geometry::new(PageSize::P8K, SubpageSize::S256);
        assert_eq!(g.subpages_per_page(), 32); // the prototype's 32 valid bits
    }

    #[test]
    fn decompose_and_recompose() {
        let g = Geometry::new(PageSize::P8K, SubpageSize::S2K);
        let addr = VirtAddr::new(5 * 8192 + 3 * 2048 + 123);
        let (page, sub) = g.decompose(addr);
        assert_eq!(page, PageId::new(5));
        assert_eq!(sub, SubpageIndex::new(3));
        assert_eq!(g.addr_of(page, sub), VirtAddr::new(5 * 8192 + 3 * 2048));
        assert_eq!(g.page_base(page), VirtAddr::new(5 * 8192));
    }

    #[test]
    fn fullpage_geometry_has_one_subpage() {
        let g = Geometry::fullpage_8k();
        assert_eq!(g.subpages_per_page(), 1);
        assert_eq!(g.subpage_of(VirtAddr::new(8191)).get(), 0);
    }

    #[test]
    fn subpage_distance_is_signed() {
        let a = SubpageIndex::new(3);
        let b = SubpageIndex::new(5);
        assert_eq!(b.distance_from(a), 2);
        assert_eq!(a.distance_from(b), -2);
        assert_eq!(a.distance_from(a), 0);
    }

    #[test]
    fn paper_sizes_are_ascending() {
        let sizes = SubpageSize::PAPER_SIZES;
        for w in sizes.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(sizes[0].bytes().get(), 256);
        assert_eq!(sizes[4].bytes().get(), 4096);
    }

    #[test]
    #[should_panic(expected = "invalid page size")]
    fn non_power_of_two_page_panics() {
        let _ = PageSize::new(Bytes::new(3000));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn subpage_larger_than_page_panics() {
        let _ = Geometry::new(PageSize::P4K, SubpageSize::new(Bytes::kib(8)));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn more_than_64_subpages_panics() {
        let _ = Geometry::new(PageSize::P64K, SubpageSize::new(Bytes::new(64)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn subpage_index_64_panics() {
        let _ = SubpageIndex::new(64);
    }

    #[test]
    fn displays() {
        assert_eq!(format!("{}", PageSize::P8K), "8KiB");
        assert_eq!(format!("{}", SubpageSize::S1K), "1KiB");
        assert_eq!(format!("{}", PageId::new(7)), "page#7");
        assert_eq!(format!("{}", SubpageIndex::new(2)), "sp2");
        let g = Geometry::new(PageSize::P8K, SubpageSize::S1K);
        assert_eq!(format!("{g}"), "8KiB pages / 1KiB subpages");
    }
}
