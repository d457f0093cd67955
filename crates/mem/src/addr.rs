//! Address decomposition for sectored caches and partitioned memory.

use swiftsim_config::CacheConfig;

/// Pre-computed address math for one cache level plus the global partition
/// hash.
///
/// All fields are derived from a [`CacheConfig`]; powers of two are
/// exploited with shifts and masks because this sits on the hottest path of
/// the cycle-accurate simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    line_shift: u32,
    sector_shift: u32,
    sectors_per_line: u32,
    set_mask: u64,
    banks: u64,
}

impl AddressMapping {
    /// Build the mapping for a cache configuration.
    ///
    /// # Panics
    ///
    /// Panics if line or sector sizes are not powers of two or the set count
    /// is zero; [`CacheConfig::validate`] rejects such configurations before
    /// simulation starts.
    pub fn new(cfg: &CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            cfg.sector_bytes.is_power_of_two(),
            "sector size must be a power of two"
        );
        assert!(cfg.sets > 0, "cache must have at least one set");
        AddressMapping {
            line_shift: cfg.line_bytes.trailing_zeros(),
            sector_shift: cfg.sector_bytes.trailing_zeros(),
            sectors_per_line: cfg.sectors_per_line(),
            set_mask: u64::from(cfg.sets - 1),
            banks: u64::from(cfg.banks),
        }
    }

    /// Line-aligned address (the tag + index bits).
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    /// Set index of a byte or line address.
    pub fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    /// Sector index of a byte address within its line.
    pub fn sector_index(&self, addr: u64) -> u32 {
        ((addr >> self.sector_shift) as u32) & (self.sectors_per_line - 1)
    }

    /// One-hot sector mask covering `width` bytes starting at `addr`,
    /// clipped to this line.
    ///
    /// The mask is a `u8`, one bit per sector, so it can only represent
    /// lines with at most 8 sectors; `CacheConfig::validate` rejects larger
    /// geometries (e.g. 256 B lines with 16 B sectors) before a mapping is
    /// ever built, keeping the `1 << s` shifts below in range.
    pub fn sector_mask(&self, addr: u64, width: u32) -> u8 {
        let first = self.sector_index(addr);
        let last_byte = addr + u64::from(width.max(1)) - 1;
        let last = if self.line_addr(last_byte) == self.line_addr(addr) {
            self.sector_index(last_byte)
        } else {
            self.sectors_per_line - 1
        };
        Self::sector_span(first, last)
    }

    /// Mask of sectors `first..=last` of a line (`first <= last <= 7`).
    pub(crate) fn sector_span(first: u32, last: u32) -> u8 {
        ((2u32 << last) - (1u32 << first)) as u8
    }

    /// Line size in bytes.
    pub(crate) fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Sector size in bytes.
    pub(crate) fn sector_bytes(&self) -> u64 {
        1 << self.sector_shift
    }

    /// Bank serving this address. Sector-granularity interleaving, matching
    /// the banked L1 of Table II.
    pub fn bank_index(&self, addr: u64) -> usize {
        ((addr >> self.sector_shift) % self.banks) as usize
    }

    /// Sectors per line.
    pub fn sectors_per_line(&self) -> u32 {
        self.sectors_per_line
    }

    /// Memory partition owning a line address, for `partitions` partitions.
    ///
    /// Uses an xor-folded hash of the line address, the standard trick to
    /// spread strided traffic across partitions (22 of them on the 2080 Ti,
    /// which is not a power of two).
    pub fn partition_index(addr: u64, line_bytes: u32, partitions: u32) -> usize {
        let line = addr >> line_bytes.trailing_zeros();
        let folded = line ^ (line >> 11) ^ (line >> 23);
        (folded % u64::from(partitions)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_config::presets;

    fn l1_mapping() -> AddressMapping {
        AddressMapping::new(&presets::rtx2080ti().sm.l1d)
    }

    #[test]
    fn line_alignment() {
        let m = l1_mapping();
        assert_eq!(m.line_addr(0x1234), 0x1200);
        assert_eq!(m.line_addr(0x1280), 0x1280);
        assert_eq!(m.line_addr(0), 0);
    }

    #[test]
    fn set_index_wraps() {
        let m = l1_mapping();
        // 128 sets, 128 B lines: addresses 128*128 bytes apart share a set.
        assert_eq!(m.set_index(0x80), m.set_index(0x80 + 128 * 128));
        assert_ne!(m.set_index(0x80), m.set_index(0x100));
        assert!(m.set_index(u64::MAX) < 128);
    }

    #[test]
    fn sector_index_and_mask() {
        let m = l1_mapping();
        assert_eq!(m.sector_index(0x00), 0);
        assert_eq!(m.sector_index(0x20), 1);
        assert_eq!(m.sector_index(0x7f), 3);
        // A 4-byte access touches one sector.
        assert_eq!(m.sector_mask(0x00, 4), 0b0001);
        assert_eq!(m.sector_mask(0x20, 4), 0b0010);
        // A 16-byte access crossing a sector boundary touches two.
        assert_eq!(m.sector_mask(0x1c, 16), 0b0011);
        // An access that would run past the line is clipped to its end.
        assert_eq!(m.sector_mask(0x7c, 16), 0b1000);
    }

    #[test]
    fn sector_mask_zero_width_is_one_sector() {
        let m = l1_mapping();
        assert_eq!(m.sector_mask(0x40, 0), 0b0100);
    }

    fn mapping_with(line_bytes: u32, sector_bytes: u32) -> AddressMapping {
        let mut cfg = presets::rtx2080ti().sm.l1d;
        cfg.line_bytes = line_bytes;
        cfg.sector_bytes = sector_bytes;
        cfg.validate("test-l1").expect("geometry must validate");
        AddressMapping::new(&cfg)
    }

    #[test]
    fn sector_mask_64b_lines_32b_sectors() {
        // 2 sectors per line.
        let m = mapping_with(64, 32);
        assert_eq!(m.sectors_per_line(), 2);
        assert_eq!(m.sector_mask(0x00, 4), 0b01);
        assert_eq!(m.sector_mask(0x20, 4), 0b10);
        // Crossing the sector boundary inside the line.
        assert_eq!(m.sector_mask(0x1e, 8), 0b11);
        // Running past the line end clips to the last sector.
        assert_eq!(m.sector_mask(0x3c, 16), 0b10);
        // Whole line.
        assert_eq!(m.sector_mask(0x00, 64), 0b11);
    }

    #[test]
    fn sector_mask_128b_lines_16b_sectors() {
        // 8 sectors per line: the u8 mask's upper limit. The top sector
        // exercises `1 << 7`, the widest shift a u8 mask allows.
        let m = mapping_with(128, 16);
        assert_eq!(m.sectors_per_line(), 8);
        assert_eq!(m.sector_mask(0x00, 1), 0b0000_0001);
        assert_eq!(m.sector_mask(0x70, 4), 0b1000_0000);
        // Width spanning several sectors.
        assert_eq!(m.sector_mask(0x10, 48), 0b0000_1110);
        // Crossing into the next line clips to the end of this one.
        assert_eq!(m.sector_mask(0x78, 32), 0b1000_0000);
        // Whole line lights every bit.
        assert_eq!(m.sector_mask(0x00, 128), 0xff);
    }

    #[test]
    fn sector_mask_64b_lines_16b_sectors() {
        // 4 sectors per line with a smaller line: boundary positions shift.
        let m = mapping_with(64, 16);
        assert_eq!(m.sectors_per_line(), 4);
        // Access crossing a sector boundary.
        assert_eq!(m.sector_mask(0x0c, 8), 0b0011);
        // Access starting mid-line and running past the line end.
        assert_eq!(m.sector_mask(0x34, 32), 0b1000);
        // Full line coverage from an unaligned start is clipped, not wrapped.
        assert_eq!(m.sector_mask(0x04, 64), 0b1111);
    }

    #[test]
    fn bank_interleaves_by_sector() {
        let m = l1_mapping();
        // 4 banks, 32 B sectors: consecutive sectors hit consecutive banks.
        assert_eq!(m.bank_index(0x00), 0);
        assert_eq!(m.bank_index(0x20), 1);
        assert_eq!(m.bank_index(0x40), 2);
        assert_eq!(m.bank_index(0x60), 3);
        assert_eq!(m.bank_index(0x80), 0);
    }

    #[test]
    fn partition_index_in_range_and_spread() {
        let partitions = 22;
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            let p = AddressMapping::partition_index(i * 128, 128, partitions);
            assert!(p < partitions as usize);
            seen.insert(p);
        }
        // Strided traffic should reach every partition.
        assert_eq!(seen.len(), partitions as usize);
    }

    #[test]
    fn same_line_same_partition() {
        for addr in [0x1000u64, 0x1004, 0x107f] {
            assert_eq!(
                AddressMapping::partition_index(addr, 128, 22),
                AddressMapping::partition_index(0x1000, 128, 22)
            );
        }
    }
}
