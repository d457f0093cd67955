//! Per-warp memory-access coalescing.
//!
//! When a warp executes a load or store, the LD/ST unit merges the 32 lane
//! addresses into the minimal set of line-granularity transactions, each
//! carrying a sector mask (32 B sectors within 128 B lines on the modeled
//! GPUs). A fully coalesced warp access touches one line (4 sectors); a
//! fully divergent one touches up to 32 distinct lines — this transaction
//! count is what drives cache pressure, NoC traffic, and DRAM bandwidth in
//! both the cycle-accurate and the analytical memory models.

use crate::addr::AddressMapping;

/// One line-granularity memory transaction produced by the coalescer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemTxn {
    /// Line-aligned address.
    pub line_addr: u64,
    /// Sectors of the line touched (bit per sector).
    pub sector_mask: u8,
    /// Whether this is a store.
    pub write: bool,
}

impl MemTxn {
    /// Number of sectors this transaction moves.
    pub fn num_sectors(&self) -> u32 {
        self.sector_mask.count_ones()
    }
}

/// Coalesce per-lane addresses into line transactions.
///
/// `addresses` holds one byte address per active lane; `width` is the
/// per-lane access width in bytes. Transactions are returned in ascending
/// line-address order so downstream behavior is deterministic.
///
/// # Examples
///
/// ```
/// use swiftsim_config::presets;
/// use swiftsim_mem::{coalesce_accesses, AddressMapping};
///
/// let mapping = AddressMapping::new(&presets::rtx2080ti().sm.l1d);
/// // 32 consecutive 4-byte words: one 128 B line, all four sectors.
/// let addrs: Vec<u64> = (0..32).map(|i| 0x1000 + i * 4).collect();
/// let txns = coalesce_accesses(&mapping, &addrs, 4, false);
/// assert_eq!(txns.len(), 1);
/// assert_eq!(txns[0].num_sectors(), 4);
/// ```
pub fn coalesce_accesses(
    mapping: &AddressMapping,
    addresses: &[u64],
    width: u8,
    write: bool,
) -> Vec<MemTxn> {
    let mut txns = Vec::with_capacity(4);
    coalesce_accesses_into(mapping, addresses, width, write, &mut txns);
    txns
}

/// [`coalesce_accesses`] into a caller-owned buffer, which is cleared
/// first: the LD/ST issue path and the analytical pre-passes coalesce
/// every memory instruction of a trace and reuse one allocation for all of
/// them.
pub fn coalesce_accesses_into(
    mapping: &AddressMapping,
    addresses: &[u64],
    width: u8,
    write: bool,
    txns: &mut Vec<MemTxn>,
) {
    // The transaction list is kept sorted by line address so each lane
    // costs one binary search instead of a linear scan over every
    // transaction accumulated so far; a fully divergent warp is
    // O(lanes log lanes) rather than O(lanes^2), and the ascending output
    // order falls out for free.
    txns.clear();
    let upsert = |txns: &mut Vec<MemTxn>, line_addr: u64, mask: u8| {
        let pos = txns.partition_point(|t| t.line_addr < line_addr);
        match txns.get_mut(pos) {
            Some(txn) if txn.line_addr == line_addr => txn.sector_mask |= mask,
            _ => txns.insert(
                pos,
                MemTxn {
                    line_addr,
                    sector_mask: mask,
                    write,
                },
            ),
        }
    };
    for &addr in addresses {
        let line_addr = mapping.line_addr(addr);
        let mask = mapping.sector_mask(addr, u32::from(width));
        upsert(txns, line_addr, mask);
        // Accesses wider than the distance to the line end spill into the
        // next line's first sector(s).
        let end = addr + u64::from(width.max(1)) - 1;
        let end_line = mapping.line_addr(end);
        if end_line != line_addr {
            let spill_mask = mapping.sector_mask(end_line, (end - end_line + 1) as u32);
            upsert(txns, end_line, spill_mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_config::presets;

    fn mapping() -> AddressMapping {
        AddressMapping::new(&presets::rtx2080ti().sm.l1d)
    }

    #[test]
    fn fully_coalesced_warp_is_one_txn() {
        let addrs: Vec<u64> = (0..32).map(|i| 0x2000 + i * 4).collect();
        let txns = coalesce_accesses(&mapping(), &addrs, 4, false);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].line_addr, 0x2000);
        assert_eq!(txns[0].sector_mask, 0b1111);
        assert!(!txns[0].write);
    }

    #[test]
    fn single_sector_access() {
        // 8 lanes in one 32 B sector.
        let addrs: Vec<u64> = (0..8).map(|i| 0x2000 + i * 4).collect();
        let txns = coalesce_accesses(&mapping(), &addrs, 4, false);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].sector_mask, 0b0001);
        assert_eq!(txns[0].num_sectors(), 1);
    }

    #[test]
    fn strided_access_fans_out() {
        // Stride of one line: every lane its own line, one sector each.
        let addrs: Vec<u64> = (0..32).map(|i| 0x4000 + i * 128).collect();
        let txns = coalesce_accesses(&mapping(), &addrs, 4, false);
        assert_eq!(txns.len(), 32);
        assert!(txns.iter().all(|t| t.sector_mask == 0b0001));
        // Sorted by line address.
        assert!(txns.windows(2).all(|w| w[0].line_addr < w[1].line_addr));
    }

    #[test]
    fn duplicate_addresses_merge() {
        let addrs = vec![0x1000u64; 32];
        let txns = coalesce_accesses(&mapping(), &addrs, 4, true);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].sector_mask, 0b0001);
        assert!(txns[0].write);
    }

    #[test]
    fn wide_access_crossing_line_boundary_spills() {
        // A 16-byte access starting 8 bytes before the line end.
        let txns = coalesce_accesses(&mapping(), &[0x1078], 16, false);
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[0].line_addr, 0x1000);
        assert_eq!(txns[0].sector_mask, 0b1000);
        assert_eq!(txns[1].line_addr, 0x1080);
        assert_eq!(txns[1].sector_mask, 0b0001);
    }

    #[test]
    fn empty_input_yields_no_txns() {
        assert!(coalesce_accesses(&mapping(), &[], 4, false).is_empty());
    }

    #[test]
    fn random_access_txn_count_bounded_by_lanes() {
        let addrs: Vec<u64> = (0..32).map(|i| (i * 7919 + 13) * 64).collect();
        let txns = coalesce_accesses(&mapping(), &addrs, 4, false);
        assert!(txns.len() <= 32);
        assert!(!txns.is_empty());
    }

    fn mapping_with(line_bytes: u32, sector_bytes: u32) -> AddressMapping {
        let mut cfg = presets::rtx2080ti().sm.l1d;
        cfg.line_bytes = line_bytes;
        cfg.sector_bytes = sector_bytes;
        cfg.validate("test-l1").expect("geometry must validate");
        AddressMapping::new(&cfg)
    }

    /// The straightforward linear-scan coalescer the optimized version must
    /// match exactly (modulo its final sort).
    fn naive_coalesce(
        mapping: &AddressMapping,
        addresses: &[u64],
        width: u8,
        write: bool,
    ) -> Vec<MemTxn> {
        let mut txns: Vec<MemTxn> = Vec::new();
        let merge = |txns: &mut Vec<MemTxn>, line_addr: u64, sector_mask: u8| match txns
            .iter_mut()
            .find(|t| t.line_addr == line_addr)
        {
            Some(t) => t.sector_mask |= sector_mask,
            None => txns.push(MemTxn {
                line_addr,
                sector_mask,
                write,
            }),
        };
        for &addr in addresses {
            let line_addr = mapping.line_addr(addr);
            merge(
                &mut txns,
                line_addr,
                mapping.sector_mask(addr, u32::from(width)),
            );
            let end = addr + u64::from(width.max(1)) - 1;
            let end_line = mapping.line_addr(end);
            if end_line != line_addr {
                let spill = mapping.sector_mask(end_line, (end - end_line + 1) as u32);
                merge(&mut txns, end_line, spill);
            }
        }
        txns.sort_by_key(|t| t.line_addr);
        txns
    }

    #[test]
    fn coalesce_64b_lines_32b_sectors() {
        let m = mapping_with(64, 32);
        // 32 consecutive 4-byte words span two 64 B lines.
        let addrs: Vec<u64> = (0..32).map(|i| 0x2000 + i * 4).collect();
        let txns = coalesce_accesses(&m, &addrs, 4, false);
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[0].line_addr, 0x2000);
        assert_eq!(txns[0].sector_mask, 0b11);
        assert_eq!(txns[1].line_addr, 0x2040);
        assert_eq!(txns[1].sector_mask, 0b11);
    }

    #[test]
    fn coalesce_128b_lines_16b_sectors_width_crosses_sector() {
        let m = mapping_with(128, 16);
        // An 8-byte access straddling the sector boundary at 0x10.
        let txns = coalesce_accesses(&m, &[0x100c], 8, false);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].sector_mask, 0b0000_0011);
        // And one straddling the top sector boundary, lighting bit 7.
        let txns = coalesce_accesses(&m, &[0x106c], 8, false);
        assert_eq!(txns[0].sector_mask, 0b1100_0000);
    }

    #[test]
    fn coalesce_64b_lines_16b_sectors_width_crosses_line() {
        let m = mapping_with(64, 16);
        // A 16-byte access starting 8 bytes before the line end spills into
        // the next line's first sector.
        let txns = coalesce_accesses(&m, &[0x1038], 16, false);
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[0].line_addr, 0x1000);
        assert_eq!(txns[0].sector_mask, 0b1000);
        assert_eq!(txns[1].line_addr, 0x1040);
        assert_eq!(txns[1].sector_mask, 0b0001);
        // A second lane in the spill line merges with the spilled sector.
        let txns = coalesce_accesses(&m, &[0x1038, 0x1048], 16, true);
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[0].sector_mask, 0b1000);
        assert_eq!(txns[1].sector_mask, 0b0011);
        assert!(txns.iter().all(|t| t.write));
    }

    #[test]
    fn coalesce_matches_naive_reference_across_geometries() {
        for (line, sector) in [(128, 32), (64, 32), (64, 16), (128, 16)] {
            let m = mapping_with(line, sector);
            for width in [1u8, 4, 8, 16, 32] {
                // Deterministic pseudo-random lane addresses, including
                // duplicates and descending runs.
                let addrs: Vec<u64> = (0..32u64)
                    .map(|i| (i.wrapping_mul(2654435761) % 4096) ^ ((i % 3) * 8))
                    .collect();
                let fast = coalesce_accesses(&m, &addrs, width, false);
                let slow = naive_coalesce(&m, &addrs, width, false);
                assert_eq!(fast, slow, "line={line} sector={sector} width={width}");
                // Output must be strictly ascending by line address.
                assert!(fast.windows(2).all(|w| w[0].line_addr < w[1].line_addr));
            }
        }
    }
}
