//! GPGPU-Sim-style `-key value` configuration file format.
//!
//! Each non-empty line is `-key value`; `#` starts a comment. Keys use a
//! `section:field` naming scheme (`-sm:max_warps 32`, `-l1:sets 128`, ...)
//! and execution units are written `lanes:latency` (`-sm:exec:int 16:4`).
//! [`GpuConfig::to_config_text`] emits every key, and [`GpuConfig::parse`]
//! requires every key, so files round-trip exactly and stale configs fail
//! loudly rather than silently picking defaults.

use crate::arch::{
    CacheConfig, ExecUnitConfig, ExecUnitKind, GpuConfig, MemoryConfig, NocConfig, SmConfig,
};
use crate::error::ConfigError;
use std::collections::HashMap;
use std::fmt::Write as _;

impl GpuConfig {
    /// Serialize to the `-key value` text format.
    ///
    /// # Examples
    ///
    /// ```
    /// use swiftsim_config::{presets, GpuConfig};
    /// # fn main() -> Result<(), swiftsim_config::ConfigError> {
    /// let cfg = presets::rtx3060();
    /// let text = cfg.to_config_text();
    /// assert_eq!(GpuConfig::parse(&text)?, cfg);
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_config_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Swift-Sim hardware configuration");
        let _ = writeln!(out, "-name {}", self.name);
        let _ = writeln!(out, "-architecture {}", self.architecture);
        let _ = writeln!(out, "-num_sms {}", self.num_sms);
        let sm = &self.sm;
        let _ = writeln!(out, "-sm:sub_cores {}", sm.sub_cores);
        let _ = writeln!(out, "-sm:warp_size {}", sm.warp_size);
        let _ = writeln!(out, "-sm:max_warps {}", sm.max_warps);
        let _ = writeln!(out, "-sm:max_blocks {}", sm.max_blocks);
        let _ = writeln!(out, "-sm:max_threads {}", sm.max_threads);
        let _ = writeln!(out, "-sm:registers {}", sm.registers);
        let _ = writeln!(out, "-sm:shared_mem_bytes {}", sm.shared_mem_bytes);
        let _ = writeln!(out, "-sm:shared_mem_banks {}", sm.shared_mem_banks);
        let _ = writeln!(out, "-sm:shared_mem_latency {}", sm.shared_mem_latency);
        let _ = writeln!(
            out,
            "-sm:schedulers_per_sub_core {}",
            sm.schedulers_per_sub_core
        );
        let _ = writeln!(out, "-sm:scheduler {}", sm.scheduler);
        for kind in ExecUnitKind::ALL {
            let u = sm.exec_unit(kind);
            let _ = writeln!(out, "-sm:exec:{kind} {}:{}", u.lanes, u.latency);
        }
        write_cache(&mut out, "l1", &sm.l1d);
        let mem = &self.memory;
        let _ = writeln!(out, "-mem:partitions {}", mem.partitions);
        write_cache(&mut out, "l2", &mem.l2);
        let _ = writeln!(out, "-mem:dram_latency {}", mem.dram_latency);
        let _ = writeln!(out, "-mem:dram_cycles_per_txn {}", mem.dram_cycles_per_txn);
        let _ = writeln!(out, "-mem:dram_queue_depth {}", mem.dram_queue_depth);
        let noc = &self.noc;
        let _ = writeln!(out, "-noc:topology {}", noc.topology);
        let _ = writeln!(out, "-noc:latency {}", noc.latency);
        let _ = writeln!(out, "-noc:flit_bytes {}", noc.flit_bytes);
        let _ = writeln!(out, "-noc:queue_depth {}", noc.queue_depth);
        let _ = writeln!(out, "-noc:flits_per_cycle {}", noc.flits_per_cycle);
        out
    }

    /// Parse a configuration from the `-key value` text format.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Parse`] for malformed lines,
    /// [`ConfigError::MissingKey`] when a required key is absent,
    /// [`ConfigError::InvalidValue`] for out-of-domain values, and any
    /// [`ConfigError::Constraint`] raised by final validation.
    pub fn parse(text: &str) -> Result<GpuConfig, ConfigError> {
        let mut map: HashMap<String, String> = HashMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let Some(rest) = line.strip_prefix('-') else {
                return Err(ConfigError::parse(
                    line_no,
                    "expected line to start with '-'",
                ));
            };
            let Some((key, value)) = rest.split_once(char::is_whitespace) else {
                return Err(ConfigError::parse(
                    line_no,
                    format!("key {rest:?} has no value"),
                ));
            };
            if map
                .insert(key.to_owned(), value.trim().to_owned())
                .is_some()
            {
                return Err(ConfigError::parse(line_no, format!("duplicate key -{key}")));
            }
        }
        let mut p = Params { map };

        let cfg = GpuConfig {
            name: p.take("name")?,
            architecture: p.take("architecture")?,
            num_sms: p.num("num_sms")?,
            sm: SmConfig {
                sub_cores: p.num("sm:sub_cores")?,
                warp_size: p.num("sm:warp_size")?,
                max_warps: p.num("sm:max_warps")?,
                max_blocks: p.num("sm:max_blocks")?,
                max_threads: p.num("sm:max_threads")?,
                registers: p.num("sm:registers")?,
                shared_mem_bytes: p.num("sm:shared_mem_bytes")?,
                shared_mem_banks: p.num("sm:shared_mem_banks")?,
                shared_mem_latency: p.num("sm:shared_mem_latency")?,
                schedulers_per_sub_core: p.num("sm:schedulers_per_sub_core")?,
                scheduler: p.parse("sm:scheduler")?,
                exec_units: {
                    let mut units = [ExecUnitConfig::new(1, 1); 6];
                    for kind in ExecUnitKind::ALL {
                        units[kind.index()] = p.exec_unit(&format!("sm:exec:{kind}"))?;
                    }
                    units
                },
                l1d: p.cache("l1")?,
            },
            memory: MemoryConfig {
                partitions: p.num("mem:partitions")?,
                l2: p.cache("l2")?,
                dram_latency: p.num("mem:dram_latency")?,
                dram_cycles_per_txn: p.num("mem:dram_cycles_per_txn")?,
                dram_queue_depth: p.num("mem:dram_queue_depth")?,
            },
            noc: NocConfig {
                topology: p.parse("noc:topology")?,
                latency: p.num("noc:latency")?,
                flit_bytes: p.num("noc:flit_bytes")?,
                queue_depth: p.num("noc:queue_depth")?,
                flits_per_cycle: p.num("noc:flits_per_cycle")?,
            },
        };
        if let Some(key) = p.map.keys().next() {
            return Err(ConfigError::invalid_value(
                "unknown config key",
                format!("-{key}"),
            ));
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

fn write_cache(out: &mut String, prefix: &str, c: &CacheConfig) {
    let _ = writeln!(out, "-{prefix}:sets {}", c.sets);
    let _ = writeln!(out, "-{prefix}:ways {}", c.ways);
    let _ = writeln!(out, "-{prefix}:line_bytes {}", c.line_bytes);
    let _ = writeln!(out, "-{prefix}:sector_bytes {}", c.sector_bytes);
    let _ = writeln!(out, "-{prefix}:banks {}", c.banks);
    let _ = writeln!(out, "-{prefix}:mshr_entries {}", c.mshr_entries);
    let _ = writeln!(out, "-{prefix}:mshr_max_merge {}", c.mshr_max_merge);
    let _ = writeln!(out, "-{prefix}:replacement {}", c.replacement);
    let _ = writeln!(out, "-{prefix}:write_policy {}", c.write_policy);
    let _ = writeln!(out, "-{prefix}:write_allocate {}", c.write_allocate);
    let _ = writeln!(out, "-{prefix}:alloc {}", c.alloc);
    let _ = writeln!(out, "-{prefix}:latency {}", c.latency);
}

struct Params {
    map: HashMap<String, String>,
}

impl Params {
    fn take(&mut self, key: &str) -> Result<String, ConfigError> {
        self.map
            .remove(key)
            .ok_or_else(|| ConfigError::missing_key(format!("-{key}")))
    }

    fn num(&mut self, key: &str) -> Result<u32, ConfigError> {
        let v = self.take(key)?;
        v.parse()
            .map_err(|_| ConfigError::invalid_value(format!("-{key}"), v))
    }

    fn parse<T>(&mut self, key: &str) -> Result<T, ConfigError>
    where
        T: std::str::FromStr<Err = ConfigError>,
    {
        self.take(key)?.parse()
    }

    fn exec_unit(&mut self, key: &str) -> Result<ExecUnitConfig, ConfigError> {
        let v = self.take(key)?;
        let Some((lanes, latency)) = v.split_once(':') else {
            return Err(ConfigError::invalid_value(format!("-{key}"), v));
        };
        let lanes = lanes
            .parse()
            .map_err(|_| ConfigError::invalid_value(format!("-{key} lanes"), lanes))?;
        let latency = latency
            .parse()
            .map_err(|_| ConfigError::invalid_value(format!("-{key} latency"), latency))?;
        Ok(ExecUnitConfig::new(lanes, latency))
    }

    fn cache(&mut self, prefix: &str) -> Result<CacheConfig, ConfigError> {
        Ok(CacheConfig {
            sets: self.num(&format!("{prefix}:sets"))?,
            ways: self.num(&format!("{prefix}:ways"))?,
            line_bytes: self.num(&format!("{prefix}:line_bytes"))?,
            sector_bytes: self.num(&format!("{prefix}:sector_bytes"))?,
            banks: self.num(&format!("{prefix}:banks"))?,
            mshr_entries: self.num(&format!("{prefix}:mshr_entries"))?,
            mshr_max_merge: self.num(&format!("{prefix}:mshr_max_merge"))?,
            replacement: self.parse(&format!("{prefix}:replacement"))?,
            write_policy: self.parse(&format!("{prefix}:write_policy"))?,
            write_allocate: self.parse(&format!("{prefix}:write_allocate"))?,
            alloc: self.parse(&format!("{prefix}:alloc"))?,
            latency: self.num(&format!("{prefix}:latency"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn round_trip_all_presets() {
        for cfg in presets::all() {
            let text = cfg.to_config_text();
            let parsed = GpuConfig::parse(&text).expect("round trip parse");
            assert_eq!(parsed, cfg);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let mut text = String::from("\n# leading comment\n\n");
        text.push_str(&presets::rtx2080ti().to_config_text());
        text.push_str("\n   # trailing comment\n");
        assert_eq!(GpuConfig::parse(&text).unwrap(), presets::rtx2080ti());
    }

    #[test]
    fn inline_comment_stripped() {
        let text = presets::rtx2080ti()
            .to_config_text()
            .replace("-num_sms 68", "-num_sms 68   # Table I");
        assert_eq!(GpuConfig::parse(&text).unwrap().num_sms, 68);
    }

    #[test]
    fn missing_key_reported() {
        let text = presets::rtx2080ti()
            .to_config_text()
            .lines()
            .filter(|l| !l.starts_with("-mem:partitions"))
            .collect::<Vec<_>>()
            .join("\n");
        let err = GpuConfig::parse(&text).unwrap_err();
        assert_eq!(err, ConfigError::MissingKey("-mem:partitions".to_owned()));
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut text = presets::rtx2080ti().to_config_text();
        text.push_str("-num_sms 10\n");
        assert!(matches!(
            GpuConfig::parse(&text),
            Err(ConfigError::Parse { .. })
        ));
    }

    #[test]
    fn unknown_key_rejected() {
        let mut text = presets::rtx2080ti().to_config_text();
        text.push_str("-sm:frobnicate 3\n");
        assert!(matches!(
            GpuConfig::parse(&text),
            Err(ConfigError::InvalidValue { .. })
        ));
    }

    #[test]
    fn malformed_line_rejected() {
        let mut text = presets::rtx2080ti().to_config_text();
        text.push_str("num_sms 10\n");
        assert!(matches!(
            GpuConfig::parse(&text),
            Err(ConfigError::Parse { .. })
        ));
    }

    #[test]
    fn bad_number_rejected() {
        let text = presets::rtx2080ti()
            .to_config_text()
            .replace("-num_sms 68", "-num_sms sixty-eight");
        assert!(matches!(
            GpuConfig::parse(&text),
            Err(ConfigError::InvalidValue { .. })
        ));
    }

    #[test]
    fn bad_exec_unit_rejected() {
        let text = presets::rtx2080ti()
            .to_config_text()
            .replace("-sm:exec:int 16:4", "-sm:exec:int 16x4");
        assert!(matches!(
            GpuConfig::parse(&text),
            Err(ConfigError::InvalidValue { .. })
        ));
    }

    #[test]
    fn parse_validates_constraints() {
        let text = presets::rtx2080ti()
            .to_config_text()
            .replace("-l1:sets 128", "-l1:sets 100");
        assert!(matches!(
            GpuConfig::parse(&text),
            Err(ConfigError::Constraint(_))
        ));
    }

    #[test]
    fn parse_rejects_more_warps_than_a_mask_holds() {
        let cfg = presets::rtx2080ti();
        let text = cfg.to_config_text().replace(
            &format!("-sm:max_warps {}", cfg.sm.max_warps),
            "-sm:max_warps 65",
        );
        assert!(text.contains("-sm:max_warps 65"));
        assert!(matches!(
            GpuConfig::parse(&text),
            Err(ConfigError::Constraint(_))
        ));
    }
}
