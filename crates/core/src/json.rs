//! JSON serialization of simulation results.
//!
//! One schema is shared by every product surface that emits results: the
//! `swiftsim --json` flag, the campaign engine's JSON-lines output, and the
//! campaign result cache (which also reads it back). The schema is
//! versioned by `RESULT_SCHEMA_VERSION`; bump it when a field changes
//! meaning so stale cache entries are not misread.

use crate::fidelity::FidelityConfig;
use crate::result::{KernelResult, SimulationResult};
use swiftsim_metrics::{Json, MetricsCollector};

/// Version tag embedded in every serialized result.
///
/// v2: added the resolved `fidelity` object; swift presets now accrue
/// stall/active-cycle statistics during formerly skipped idle cycles (the
/// event-driven engine accounts them exactly), so v1 counters are not
/// comparable.
///
/// v3: the fidelity object gained `sync_quantum` (shard-synchronization
/// quantum of the two-phase parallel engine). Multi-threaded runs now use
/// the shared-memory two-phase engine by default instead of decoupled
/// per-shard memory slices, so v2 multi-threaded counters are not
/// comparable. The key has since gone: shards always commit every cycle,
/// and loading ignores it.
///
/// v4: the fidelity object gained `sampling` (kernel-launch sampling
/// policy) and results gained an optional `confidence` block carrying the
/// per-kernel and whole-app error bounds of a sampled run. Pre-v4 cache
/// entries have no way to state whether they were sampled, so they are
/// re-run rather than misread.
///
/// v5: results gained a `stats` block — the typed stat-catalog view
/// ([`crate::StatId`], [`SimulationResult::stats`]) with stable snake_case
/// names; unknown stat names are now load-time errors instead of silent
/// zeros. The analytical memory model also started reporting estimated
/// `mem.l1.*` / `mem.l2.*` / `mem.dram.*` statistics, so v4 swift-memory
/// metric sets are incomplete by comparison.
pub const RESULT_SCHEMA_VERSION: u64 = 5;

impl KernelResult {
    /// Serialize to the shared JSON schema.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("cycles", Json::int(self.cycles)),
            ("instructions", Json::int(self.instructions)),
            ("blocks", Json::int(self.blocks)),
            ("ipc", Json::Num(self.ipc())),
        ])
    }

    fn from_json(json: &Json) -> Result<KernelResult, String> {
        Ok(KernelResult {
            name: json
                .get("name")
                .and_then(Json::as_str)
                .ok_or("kernel: missing name")?
                .to_owned(),
            cycles: json
                .get("cycles")
                .and_then(Json::as_u64)
                .ok_or("kernel: missing cycles")?,
            instructions: json
                .get("instructions")
                .and_then(Json::as_u64)
                .ok_or("kernel: missing instructions")?,
            blocks: json
                .get("blocks")
                .and_then(Json::as_u64)
                .ok_or("kernel: missing blocks")?,
        })
    }
}

impl FidelityConfig {
    /// Serialize the resolved fidelity (stable tokens, see the `token`
    /// methods of each kind).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("alu", Json::str(self.alu.token())),
            ("memory", Json::str(self.memory.token())),
            ("frontend", Json::str(self.frontend.token())),
            ("sampling", Json::str(self.sampling.token())),
        ])
    }

    fn from_json(json: &Json) -> Result<FidelityConfig, String> {
        fn field<T: std::str::FromStr<Err = crate::error::SimError>>(
            json: &Json,
            key: &str,
        ) -> Result<T, String> {
            json.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("fidelity: missing {key}"))?
                .parse()
                .map_err(|e: crate::error::SimError| e.to_string())
        }
        Ok(FidelityConfig {
            alu: field(json, "alu")?,
            memory: field(json, "memory")?,
            frontend: field(json, "frontend")?,
            // v5 documents written before the clock left the fidelity plan
            // carry a `skip_policy` key; like `sync_quantum`, it is ignored.
            // Absent in pre-v4 documents; such documents could only have run
            // unsampled.
            sampling: match json.get("sampling").and_then(Json::as_str) {
                Some(tok) => tok
                    .parse()
                    .map_err(|e: crate::error::SimError| e.to_string())?,
                None => crate::fidelity::SamplingPolicy::Off,
            },
        })
    }
}

impl crate::result::Confidence {
    /// Serialize to the shared JSON schema.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("clusters", Json::int(self.clusters)),
            ("sampled_kernels", Json::int(self.sampled_kernels)),
            ("replayed_kernels", Json::int(self.replayed_kernels)),
            ("replayed_cycles", Json::int(self.replayed_cycles)),
            (
                "kernel_error_bounds",
                Json::Arr(
                    self.kernel_error_bounds
                        .iter()
                        .map(|&b| Json::Num(b))
                        .collect(),
                ),
            ),
            ("app_error_bound", Json::Num(self.app_error_bound)),
        ])
    }

    fn from_json(json: &Json) -> Result<crate::result::Confidence, String> {
        Ok(crate::result::Confidence {
            clusters: json
                .get("clusters")
                .and_then(Json::as_u64)
                .ok_or("confidence: missing clusters")?,
            sampled_kernels: json
                .get("sampled_kernels")
                .and_then(Json::as_u64)
                .ok_or("confidence: missing sampled_kernels")?,
            replayed_kernels: json
                .get("replayed_kernels")
                .and_then(Json::as_u64)
                .ok_or("confidence: missing replayed_kernels")?,
            replayed_cycles: json
                .get("replayed_cycles")
                .and_then(Json::as_u64)
                .ok_or("confidence: missing replayed_cycles")?,
            kernel_error_bounds: json
                .get("kernel_error_bounds")
                .and_then(Json::as_arr)
                .ok_or("confidence: missing kernel_error_bounds")?
                .iter()
                .map(|b| Json::as_f64(b).ok_or("confidence: non-numeric bound".to_owned()))
                .collect::<Result<Vec<_>, _>>()?,
            app_error_bound: json
                .get("app_error_bound")
                .and_then(Json::as_f64)
                .ok_or("confidence: missing app_error_bound")?,
        })
    }
}

impl SimulationResult {
    /// Serialize to the shared JSON schema (single-line, deterministic
    /// field order).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::int(RESULT_SCHEMA_VERSION)),
            ("app", Json::str(&self.app)),
            ("simulator", Json::str(&self.simulator)),
            ("fidelity", self.fidelity.to_json()),
            ("cycles", Json::int(self.cycles)),
            ("instructions", Json::int(self.instructions())),
            ("ipc", Json::Num(self.ipc())),
            ("wall_time_us", Json::int(self.wall_time.as_micros() as u64)),
            (
                "kernels",
                Json::Arr(self.kernels.iter().map(KernelResult::to_json).collect()),
            ),
            ("metrics", self.metrics.to_json()),
            (
                "stats",
                Json::Obj(
                    self.stats()
                        .iter()
                        .map(|&(id, v)| (id.name().to_owned(), Json::Num(v)))
                        .collect(),
                ),
            ),
            (
                "confidence",
                match &self.confidence {
                    Some(c) => c.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Rebuild a result from [`SimulationResult::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field, or a schema
    /// version mismatch.
    pub fn from_json(json: &Json) -> Result<SimulationResult, String> {
        let schema = json.get("schema").and_then(Json::as_u64).unwrap_or(0);
        if schema != RESULT_SCHEMA_VERSION {
            return Err(format!(
                "result schema {schema} (this build reads {RESULT_SCHEMA_VERSION})"
            ));
        }
        let kernels = json
            .get("kernels")
            .and_then(Json::as_arr)
            .ok_or("result: missing kernels")?
            .iter()
            .map(KernelResult::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        // The stats block is derived (rebuilt on demand by `stats()`), but
        // its names are validated so a renamed stat is a load-time error
        // here rather than a silent zero downstream.
        if let Some(Json::Obj(pairs)) = json.get("stats") {
            for (name, _) in pairs {
                crate::stats::StatId::from_name(name).map_err(|e| e.to_string())?;
            }
        }
        Ok(SimulationResult {
            app: json
                .get("app")
                .and_then(Json::as_str)
                .ok_or("result: missing app")?
                .to_owned(),
            simulator: json
                .get("simulator")
                .and_then(Json::as_str)
                .ok_or("result: missing simulator")?
                .to_owned(),
            fidelity: FidelityConfig::from_json(
                json.get("fidelity").ok_or("result: missing fidelity")?,
            )?,
            cycles: json
                .get("cycles")
                .and_then(Json::as_u64)
                .ok_or("result: missing cycles")?,
            kernels,
            metrics: json
                .get("metrics")
                .map(MetricsCollector::from_json)
                .transpose()?
                .unwrap_or_default(),
            wall_time: std::time::Duration::from_micros(
                json.get("wall_time_us").and_then(Json::as_u64).unwrap_or(0),
            ),
            confidence: match json.get("confidence") {
                None | Some(Json::Null) => None,
                Some(c) => Some(crate::result::Confidence::from_json(c)?),
            },
            // Self-profiling attribution is a live-run artifact and is not
            // part of the result document schema.
            profile: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::{AluModelKind, FrontendModelKind, MemoryModelKind, SamplingPolicy};
    use crate::result::Confidence;
    use swiftsim_metrics::Value;

    fn sample() -> SimulationResult {
        let mut metrics = MetricsCollector::new();
        metrics.set("gpu.cycles", Value::Cycles(1000));
        metrics.set("mem.l1.miss_rate", Value::Ratio(0.25));
        metrics.set("core.mem_insts", Value::Count(42));
        let fidelity = FidelityConfig {
            alu: AluModelKind::Analytical,
            memory: MemoryModelKind::CycleAccurate,
            frontend: FrontendModelKind::Simplified,
            sampling: SamplingPolicy::Off,
        };
        SimulationResult {
            app: "bfs".into(),
            simulator: fidelity.describe(),
            fidelity,
            cycles: 1000,
            kernels: vec![KernelResult {
                name: "k\"quoted\"".into(),
                cycles: 1000,
                instructions: 2500,
                blocks: 16,
            }],
            metrics,
            wall_time: std::time::Duration::from_micros(1234),
            confidence: None,
            profile: None,
        }
    }

    #[test]
    fn result_round_trips() {
        let r = sample();
        let json = r.to_json().dump();
        let back = SimulationResult::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut json = sample().to_json();
        if let Json::Obj(pairs) = &mut json {
            pairs[0].1 = Json::int(RESULT_SCHEMA_VERSION + 1);
        }
        let err = SimulationResult::from_json(&json).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn top_level_fields_present() {
        let json = sample().to_json();
        assert_eq!(json.get("app").and_then(Json::as_str), Some("bfs"));
        assert_eq!(json.get("cycles").and_then(Json::as_u64), Some(1000));
        assert_eq!(json.get("instructions").and_then(Json::as_u64), Some(2500));
        assert_eq!(json.get("wall_time_us").and_then(Json::as_u64), Some(1234));
        let metrics = json.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("mem.l1.miss_rate")
                .and_then(|e| e.get("value"))
                .and_then(Json::as_f64),
            Some(0.25)
        );
    }

    #[test]
    fn fidelity_lands_verbatim_in_json() {
        let json = sample().to_json();
        let fid = json.get("fidelity").expect("fidelity object present");
        assert_eq!(fid.get("alu").and_then(Json::as_str), Some("analytical"));
        assert_eq!(
            fid.get("memory").and_then(Json::as_str),
            Some("cycle_accurate")
        );
        assert_eq!(
            fid.get("frontend").and_then(Json::as_str),
            Some("simplified")
        );
        assert_eq!(fid.get("sampling").and_then(Json::as_str), Some("off"));
        // A malformed fidelity is rejected, not defaulted.
        let mut bad = sample().to_json();
        if let Json::Obj(pairs) = &mut bad {
            pairs[3].1 = Json::obj(vec![("alu", Json::str("quantum"))]);
        }
        assert!(SimulationResult::from_json(&bad).is_err());
    }

    #[test]
    fn stats_block_uses_catalog_names() {
        let json = sample().to_json();
        let stats = json.get("stats").expect("stats block present");
        assert_eq!(stats.get("cycles").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(
            stats.get("instructions").and_then(Json::as_f64),
            Some(2500.0)
        );
        assert_eq!(stats.get("ipc").and_then(Json::as_f64), Some(2.5));
        assert_eq!(stats.get("l1_miss_rate").and_then(Json::as_f64), Some(0.25));
        assert_eq!(stats.get("mem_insts").and_then(Json::as_f64), Some(42.0));
        // Stats the run did not produce are absent, not zero.
        assert!(stats.get("dram_reads").is_none());
    }

    #[test]
    fn unknown_stat_name_is_a_load_time_error() {
        let mut json = sample().to_json();
        if let Json::Obj(pairs) = &mut json {
            for (k, v) in pairs.iter_mut() {
                if k == "stats" {
                    if let Json::Obj(stats) = v {
                        stats.push(("l1_missrate".to_owned(), Json::Num(0.5)));
                    }
                }
            }
        }
        let err = SimulationResult::from_json(&json).unwrap_err();
        assert!(err.contains("l1_missrate"), "{err}");
        assert!(err.contains("catalog"), "{err}");
    }

    #[test]
    fn confidence_round_trips() {
        let mut r = sample();
        r.fidelity.sampling = SamplingPolicy::KernelCluster { reps: 2 };
        r.confidence = Some(Confidence {
            clusters: 3,
            sampled_kernels: 6,
            replayed_kernels: 94,
            replayed_cycles: 123_456,
            kernel_error_bounds: vec![0.0, 0.031_25],
            app_error_bound: 0.028,
        });
        let json = r.to_json().dump();
        let back = SimulationResult::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, r);
        // Sampling token lands in the fidelity object.
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(
            parsed
                .get("fidelity")
                .and_then(|f| f.get("sampling"))
                .and_then(Json::as_str),
            Some("cluster:2")
        );
    }

    #[test]
    fn missing_sampling_defaults_to_off() {
        // Documents written before the field existed could only have run
        // unsampled; reading one must not fail.
        let mut json = sample().to_json();
        if let Json::Obj(pairs) = &mut json {
            if let Json::Obj(fid) = &mut pairs[3].1 {
                fid.retain(|(k, _)| *k != "sampling");
            }
        }
        let back = SimulationResult::from_json(&json).unwrap();
        assert_eq!(back.fidelity.sampling, SamplingPolicy::Off);
        assert_eq!(back.confidence, None);
    }

    #[test]
    fn parent_v5_fidelity_with_a_quantum_key_still_loads() {
        // v5 documents written before shards always committed per cycle,
        // and before the clock left the fidelity plan, carry two more
        // fidelity keys; they are ignored on load, and the result
        // serializes back in the current shape.
        let current = sample().to_json().dump();
        let mut old = sample().to_json();
        if let Json::Obj(pairs) = &mut old {
            if let Json::Obj(fid) = &mut pairs[3].1 {
                fid.insert(3, ("skip_policy".to_owned(), Json::str("dense")));
                fid.insert(4, ("sync_quantum".to_owned(), Json::str("per_cycle")));
                let keys: Vec<&str> = fid.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(
                    keys,
                    [
                        "alu",
                        "memory",
                        "frontend",
                        "skip_policy",
                        "sync_quantum",
                        "sampling"
                    ]
                );
            }
        }
        let old = old.dump();
        assert_ne!(old, current);
        let back = SimulationResult::from_json(&Json::parse(&old).unwrap()).unwrap();
        assert_eq!(back, sample());
        assert_eq!(back.to_json().dump(), current);
    }
}
