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
    txns.clear();
    coalesce_lanes(mapping, addresses.iter().copied(), width, write, txns);
}

/// [`coalesce_accesses_into`] for the addresses `base + i * stride`
/// (wrapping) of lanes `i` in `0..lanes`, without materializing them.
///
/// When consecutive lanes start no more than a sector apart — every
/// unit-stride access — the lanes leave no sector untouched between the
/// first byte and the last, so the transactions are written down line by
/// line instead of lane by lane.
pub fn coalesce_strided_into(
    mapping: &AddressMapping,
    base: u64,
    stride: u64,
    lanes: u32,
    width: u8,
    write: bool,
    txns: &mut Vec<MemTxn>,
) {
    txns.clear();
    let bytes = u64::from(width.max(1));
    let last_byte = u64::from(lanes)
        .checked_sub(1)
        .and_then(|n| n.checked_mul(stride))
        .and_then(|span| span.checked_add(bytes - 1))
        .and_then(|span| base.checked_add(span));
    match last_byte {
        Some(last_byte) if stride <= mapping.sector_bytes() && bytes <= mapping.line_bytes() => {
            let (first_line, last_line) = (mapping.line_addr(base), mapping.line_addr(last_byte));
            for line_addr in (first_line..=last_line).step_by(mapping.line_bytes() as usize) {
                let first = if line_addr == first_line {
                    mapping.sector_index(base)
                } else {
                    0
                };
                let last = if line_addr == last_line {
                    mapping.sector_index(last_byte)
                } else {
                    mapping.sectors_per_line() - 1
                };
                txns.push(MemTxn {
                    line_addr,
                    sector_mask: AddressMapping::sector_span(first, last),
                    write,
                });
            }
        }
        _ => coalesce_lanes(
            mapping,
            (0..u64::from(lanes)).map(|i| base.wrapping_add(i.wrapping_mul(stride))),
            width,
            write,
            txns,
        ),
    }
}

/// Merge the lanes' accesses into `txns`, which holds the transactions of
/// the lanes seen so far in ascending line order.
fn coalesce_lanes(
    mapping: &AddressMapping,
    addresses: impl Iterator<Item = u64>,
    width: u8,
    write: bool,
    txns: &mut Vec<MemTxn>,
) {
    // The transaction list is kept sorted by line address, so the
    // ascending output order falls out for free. Lanes mostly arrive in
    // ascending address order themselves (every strided access does), and
    // then each one either lands in the last transaction or opens a new
    // last one: no search, no shifting. Only a lane that steps back below
    // the last line pays a binary search and an insert, which keeps a
    // fully divergent, unordered warp at O(lanes log lanes) comparisons.
    let upsert = |txns: &mut Vec<MemTxn>, line_addr: u64, mask: u8| {
        let new = MemTxn {
            line_addr,
            sector_mask: mask,
            write,
        };
        match txns.last_mut() {
            Some(last) if last.line_addr == line_addr => last.sector_mask |= mask,
            Some(last) if last.line_addr > line_addr => {
                let pos = txns.partition_point(|t| t.line_addr < line_addr);
                match &mut txns[pos] {
                    txn if txn.line_addr == line_addr => txn.sector_mask |= mask,
                    _ => txns.insert(pos, new),
                }
            }
            _ => txns.push(new),
        }
    };
    let last_sector = mapping.sectors_per_line() - 1;
    for addr in addresses {
        let line_addr = mapping.line_addr(addr);
        let first = mapping.sector_index(addr);
        let end = addr + u64::from(width.max(1)) - 1;
        let end_line = mapping.line_addr(end);
        // An access wider than the distance to the line end spills into
        // the next line's first sector(s).
        let spills = end_line != line_addr;
        let last = if spills {
            last_sector
        } else {
            mapping.sector_index(end)
        };
        upsert(txns, line_addr, AddressMapping::sector_span(first, last));
        if spills {
            let spilled = AddressMapping::sector_span(0, mapping.sector_index(end));
            upsert(txns, end_line, spilled);
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

    /// Lane orders that between them take every branch of the upsert: the
    /// append path (ascending), the search-and-insert fallback (descending,
    /// shuffled), merges into the last and into an earlier transaction
    /// (duplicates, interleaved), and accesses that straddle a line end so
    /// a lane's spill lands above a line a later lane still adds to.
    fn lane_orders() -> Vec<(&'static str, Vec<u64>)> {
        let ascending: Vec<u64> = (0..32u64).map(|i| 0x4000 + i * 36).collect();
        let mut descending = ascending.clone();
        descending.reverse();
        let mut rng = swiftsim_rng::SmallRng::seed_from_u64(0xc0a1);
        let mut shuffled = ascending.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..i + 1));
        }
        let duplicates: Vec<u64> = (0..32u64).map(|i| 0x4000 + (i % 5) * 200).collect();
        let straddling: Vec<u64> = (0..32u64).map(|i| 0x4000 + (i % 8) * 128 + 120).collect();
        let interleaved: Vec<u64> = (0..32u64)
            .map(|i| 0x4000 + (i % 2) * 0x1000 + (i / 2) * 40)
            .collect();
        // Deterministic pseudo-random lane addresses, including duplicates
        // and descending runs.
        let scattered: Vec<u64> = (0..32u64)
            .map(|i| (i.wrapping_mul(2654435761) % 4096) ^ ((i % 3) * 8))
            .collect();
        vec![
            ("ascending", ascending),
            ("descending", descending),
            ("shuffled", shuffled),
            ("duplicates", duplicates),
            ("straddling", straddling),
            ("interleaved", interleaved),
            ("scattered", scattered),
        ]
    }

    #[test]
    fn coalesce_matches_naive_reference_across_geometries() {
        for (line, sector) in [(128, 32), (64, 32), (64, 16), (128, 16)] {
            let m = mapping_with(line, sector);
            for width in [1u8, 4, 8, 16, 32] {
                for (order, addrs) in lane_orders() {
                    let fast = coalesce_accesses(&m, &addrs, width, false);
                    let slow = naive_coalesce(&m, &addrs, width, false);
                    assert_eq!(
                        fast, slow,
                        "line={line} sector={sector} width={width} {order}"
                    );
                    // Output must be strictly ascending by line address.
                    assert!(fast.windows(2).all(|w| w[0].line_addr < w[1].line_addr));
                }
            }
        }
    }

    #[test]
    fn strided_matches_expanded_lanes() {
        let mut rng = swiftsim_rng::SmallRng::seed_from_u64(0x571d);
        let mut txns = vec![MemTxn {
            line_addr: 1,
            sector_mask: 1,
            write: true,
        }];
        let mut dense = 0;
        for (line, sector) in [(128, 32), (64, 32), (64, 16), (128, 16)] {
            let m = mapping_with(line, sector);
            for case in 0..2000u32 {
                let width = [0u8, 1, 2, 4, 8, 16, 32][rng.gen_range(0usize..7)];
                let lanes = rng.gen_range(0u32..33);
                // Strides below, at and above the sector size, zero, and
                // "negative" ones that wrap; bases at the very top of the
                // address space only with strides that step down from there.
                let stride = match case % 5 {
                    0 => 0,
                    1 => rng.gen_range(1..u64::from(sector) + 1),
                    2 => rng.gen_range(u64::from(sector)..1024),
                    3 => u64::from(width),
                    _ => rng.gen_range(1u64..300).wrapping_neg(),
                };
                let base = if case % 5 == 4 {
                    rng.gen_range(0x10_0000u64..0x20_0000)
                } else {
                    rng.gen_range(0u64..0x10_0000)
                };
                let write = case % 2 == 0;
                let addrs: Vec<u64> = (0..u64::from(lanes))
                    .map(|i| base.wrapping_add(i.wrapping_mul(stride)))
                    .collect();
                coalesce_strided_into(&m, base, stride, lanes, width, write, &mut txns);
                assert_eq!(
                    txns,
                    naive_coalesce(&m, &addrs, width, write),
                    "line={line} sector={sector} base={base:#x} stride={stride} lanes={lanes} width={width}"
                );
                dense += u32::from(lanes > 0 && stride <= u64::from(sector));
            }
        }
        assert!(dense > 1000, "the line-by-line path ran {dense} times");
    }

    #[test]
    fn strided_wrapping_past_the_address_space_takes_the_lane_path() {
        let m = mapping();
        // Lane 1 wraps to a low address: the result is not ascending in
        // lane order and must still come out sorted.
        let base = u64::MAX - 0xfff;
        let stride = 0x1800;
        let mut txns = Vec::new();
        coalesce_strided_into(&m, base, stride, 2, 4, false, &mut txns);
        let expect = coalesce_accesses(&m, &[base, base.wrapping_add(stride)], 4, false);
        assert_eq!(txns, expect);
        assert_eq!(txns[0].line_addr, 0x800);
    }
}
