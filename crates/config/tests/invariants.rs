//! Configuration invariants over random valid configurations drawn from a
//! seeded `swiftsim-rng` stream: reproducible, and run in every build.

use swiftsim_config::{presets, ExecUnitKind, GpuConfig, ReplacementPolicy, SchedulerPolicy};
use swiftsim_rng::SmallRng;

/// Random configurations per property.
const CASES: u64 = 64;

/// A random valid configuration: the RTX 2080 Ti with its SM count,
/// sub-cores, L1 geometry and policies, partitions and DRAM latency redrawn.
fn random_config(rng: &mut SmallRng) -> GpuConfig {
    let pick = |rng: &mut SmallRng, values: &[u32]| values[rng.gen_range(0..values.len())];
    let mut cfg = presets::rtx2080ti();
    cfg.num_sms = rng.gen_range(1..128);
    cfg.sm.sub_cores = pick(rng, &[1, 2, 4, 8]);
    cfg.sm.l1d.sets = pick(rng, &[32, 64, 128, 256, 512]);
    cfg.sm.l1d.ways = rng.gen_range(1..17);
    cfg.sm.scheduler = [
        SchedulerPolicy::Gto,
        SchedulerPolicy::Lrr,
        SchedulerPolicy::TwoLevel,
    ][rng.gen_range(0..3)];
    cfg.sm.l1d.replacement = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ][rng.gen_range(0..3)];
    cfg.memory.partitions = rng.gen_range(1..33);
    cfg.memory.dram_latency = rng.gen_range(1..512);
    cfg.name = format!("random-gpu-{}-{}", cfg.num_sms, cfg.sm.l1d.sets);
    cfg
}

/// Run `check` on `CASES` random configurations from `seed`.
fn for_random_configs(seed: u64, mut check: impl FnMut(u64, &GpuConfig)) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for case in 0..CASES {
        check(case, &random_config(&mut rng));
    }
}

#[test]
fn valid_configs_round_trip() {
    for_random_configs(0xc0f1_0001, |case, cfg| {
        assert!(cfg.validate().is_ok(), "case {case}: {cfg:?}");
        let back = GpuConfig::parse(&cfg.to_config_text()).expect("round trip");
        assert_eq!(&back, cfg, "case {case}");
    });
}

#[test]
fn cuda_cores_scale_with_sms() {
    for_random_configs(0xc0f1_0002, |case, cfg| {
        // CUDA cores = SP lanes × sub-cores × SMs, always.
        let per_sm = cfg.sm.exec_unit(ExecUnitKind::Sp).lanes * cfg.sm.sub_cores;
        assert_eq!(cfg.cuda_cores(), per_sm * cfg.num_sms, "case {case}");
    });
}

#[test]
fn capacity_math_is_consistent() {
    for_random_configs(0xc0f1_0003, |case, cfg| {
        let l1 = &cfg.sm.l1d;
        assert_eq!(
            l1.capacity_bytes(),
            u64::from(l1.sets) * u64::from(l1.ways) * u64::from(l1.line_bytes),
            "case {case}"
        );
        assert_eq!(
            cfg.memory.l2_capacity_bytes(),
            cfg.memory.l2.capacity_bytes() * u64::from(cfg.memory.partitions),
            "case {case}"
        );
        assert_eq!(
            l1.sectors_per_line(),
            l1.line_bytes / l1.sector_bytes,
            "case {case}"
        );
    });
}

/// Corrupting any single numeric value to zero is caught by validation
/// or the parser (no silent acceptance of nonsense configs).
#[test]
fn zeroed_fields_are_rejected() {
    for which in 0..6 {
        let mut cfg = presets::rtx3060();
        match which {
            0 => cfg.num_sms = 0,
            1 => cfg.sm.sub_cores = 0,
            2 => cfg.sm.l1d.ways = 0,
            3 => cfg.memory.partitions = 0,
            4 => cfg.memory.dram_latency = 0,
            _ => cfg.noc.latency = 0,
        }
        assert!(cfg.validate().is_err(), "field {which}");
        assert!(
            GpuConfig::parse(&cfg.to_config_text()).is_err(),
            "field {which}"
        );
    }
}
