//! Shared decoded-kernel cache: a process-wide warm cache of decoded
//! [`KernelTrace`] bodies, keyed by `(trace content hash, kernel index)`.
//!
//! A one-shot simulation decodes each kernel exactly once, so it needs no
//! cache. A long-running *service* runs the same applications over and over
//! — every sweep axis re-simulates the same trace — and for file-backed
//! sources the per-kernel decode (disk read + parse + hash verify) is the
//! dominant setup cost. [`DecodedKernelCache`] memoizes decoded bodies
//! under an LRU byte budget; [`CachedTraceSource`] wraps any
//! [`TraceSource`] so the simulator transparently reads through the cache.
//!
//! Keys are *content* hashes ([`TraceSource::content_hash`]), not paths or
//! workload names: two jobs over different representations of the same
//! application (text file, chunked binary, in-memory) share entries, and a
//! file changed on disk can never serve stale kernels because its hash
//! moves.

use crate::error::TraceError;
use crate::inst::MemInstRef;
use crate::kernel::KernelTrace;
use crate::source::{KernelMeta, TraceSource};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Heap footprint of a decoded kernel, for the cache's byte budget.
///
/// Counts what the kernel actually holds: every `Vec` at its *capacity*
/// (block array, warp arrays, and per warp its 16-byte instruction
/// records, memory payloads, explicit-address arena and spilled source
/// table), plus the allocator's overhead on each of those heap blocks.
/// `tests/footprint.rs` holds it to within 10% of the allocator's own
/// count for decoded kernels.
pub fn kernel_approx_bytes(kernel: &KernelTrace) -> usize {
    std::mem::size_of::<KernelTrace>() + kernel.heap_bytes()
}

#[derive(Debug)]
struct Entry {
    kernel: Arc<KernelTrace>,
    bytes: usize,
    /// Monotonic last-use tick for LRU eviction.
    tick: u64,
}

#[derive(Debug, Default)]
struct CacheState {
    map: HashMap<(u64, usize), Entry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Cache hit/size statistics, snapshot at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to decode.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Decoded kernels currently held.
    pub entries: usize,
    /// Estimated bytes currently held.
    pub bytes: usize,
}

/// A shared LRU cache of decoded kernel bodies with a byte budget.
///
/// Clone the [`Arc`] handle freely across threads; all users share one
/// budget. Kernels larger than the whole budget are decoded but not
/// retained.
#[derive(Debug)]
pub struct DecodedKernelCache {
    budget: usize,
    state: Mutex<CacheState>,
}

impl DecodedKernelCache {
    /// A cache bounded to roughly `budget_bytes` of decoded kernels.
    pub fn new(budget_bytes: usize) -> Arc<Self> {
        Arc::new(DecodedKernelCache {
            budget: budget_bytes,
            state: Mutex::new(CacheState::default()),
        })
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Fetch kernel `index` of the source identified by `source_hash`,
    /// decoding through `source` on a miss.
    ///
    /// # Errors
    ///
    /// Propagates the source's decode error on a miss; cached entries never
    /// error.
    pub fn get_or_decode(
        &self,
        source_hash: u64,
        index: usize,
        source: &dyn TraceSource,
    ) -> Result<Arc<KernelTrace>, TraceError> {
        let key = (source_hash, index);
        {
            let mut state = self.lock();
            state.tick += 1;
            let tick = state.tick;
            if let Some(entry) = state.map.get_mut(&key) {
                entry.tick = tick;
                let kernel = Arc::clone(&entry.kernel);
                state.hits += 1;
                return Ok(kernel);
            }
            state.misses += 1;
        }

        // Decode outside the lock: a slow disk read must not serialize
        // every other thread's cache hits. Two threads may race to decode
        // the same kernel; both get correct results and the second insert
        // simply replaces the first.
        let kernel = Arc::new(source.decode_kernel(index)?.into_owned());
        let bytes = kernel_approx_bytes(&kernel);
        if bytes <= self.budget {
            let mut state = self.lock();
            state.tick += 1;
            let tick = state.tick;
            let old = state.map.insert(
                key,
                Entry {
                    kernel: Arc::clone(&kernel),
                    bytes,
                    tick,
                },
            );
            state.bytes += bytes;
            if let Some(old) = old {
                state.bytes -= old.bytes;
            }
            // Evict least-recently-used entries until under budget.
            while state.bytes > self.budget {
                let Some((&victim, _)) = state
                    .map
                    .iter()
                    .filter(|(&k, _)| k != key)
                    .min_by_key(|(_, e)| e.tick)
                else {
                    break;
                };
                let removed = state.map.remove(&victim).expect("victim exists");
                state.bytes -= removed.bytes;
                state.evictions += 1;
            }
        }
        Ok(kernel)
    }

    /// Kernel `index` of the source identified by `source_hash` if it is
    /// resident. A peek is neither a hit nor a miss, and leaves the LRU
    /// order alone: only decodes count.
    fn peek(&self, source_hash: u64, index: usize) -> Option<Arc<KernelTrace>> {
        let state = self.lock();
        state
            .map
            .get(&(source_hash, index))
            .map(|entry| Arc::clone(&entry.kernel))
    }

    /// Current statistics.
    pub fn stats(&self) -> KernelCacheStats {
        let state = self.lock();
        KernelCacheStats {
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            entries: state.map.len(),
            bytes: state.bytes,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A [`TraceSource`] that reads kernel bodies through a shared
/// [`DecodedKernelCache`].
///
/// Metadata queries pass straight through; [`TraceSource::decode_kernel`]
/// consults the cache first. Cache hits clone the kernel out of the shared
/// [`Arc`] — a memcpy of the instruction vectors, which is still far
/// cheaper than a disk read + parse + verify for file-backed sources.
/// [`TraceSource::for_each_mem_inst`] walks a resident kernel in place and
/// otherwise forwards to the inner source's skim, filling nothing: the
/// simulation's own decode fills the cache.
pub struct CachedTraceSource {
    inner: Arc<dyn TraceSource>,
    cache: Arc<DecodedKernelCache>,
    hash: u64,
}

impl CachedTraceSource {
    /// Wrap `inner` so its kernel decodes go through `cache`.
    ///
    /// # Errors
    ///
    /// Returns the inner source's [`TraceSource::content_hash`] error (the
    /// hash is the cache key, so it is computed eagerly).
    pub fn new(
        inner: Arc<dyn TraceSource>,
        cache: Arc<DecodedKernelCache>,
    ) -> Result<Self, TraceError> {
        let hash = inner.content_hash()?;
        Ok(CachedTraceSource { inner, cache, hash })
    }

    /// The wrapped source.
    pub fn inner(&self) -> &Arc<dyn TraceSource> {
        &self.inner
    }
}

impl TraceSource for CachedTraceSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_kernels(&self) -> usize {
        self.inner.num_kernels()
    }

    fn kernel_meta(&self, index: usize) -> KernelMeta {
        self.inner.kernel_meta(index)
    }

    fn decode_kernel(&self, index: usize) -> Result<Cow<'_, KernelTrace>, TraceError> {
        let kernel = self
            .cache
            .get_or_decode(self.hash, index, self.inner.as_ref())?;
        Ok(Cow::Owned(kernel.as_ref().clone()))
    }

    fn for_each_mem_inst(
        &self,
        index: usize,
        f: &mut dyn FnMut(&MemInstRef<'_>),
    ) -> Result<(), TraceError> {
        match self.cache.peek(self.hash, index) {
            Some(kernel) => {
                kernel.for_each_mem_inst(f);
                Ok(())
            }
            None => self.inner.for_each_mem_inst(index, f),
        }
    }

    fn content_hash(&self) -> Result<u64, TraceError> {
        Ok(self.hash)
    }

    fn prefers_prefetch(&self) -> bool {
        // A warm cache makes decode cheap, but a cold one still pays the
        // inner source's cost; keep the inner source's preference.
        self.inner.prefers_prefetch()
    }

    fn total_insts(&self) -> u64 {
        self.inner.total_insts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::InstBuilder;
    use crate::isa::Opcode;
    use crate::kernel::ApplicationTrace;

    fn app(name: &str, kernels: usize, insts_per_kernel: usize) -> ApplicationTrace {
        let mut ks = Vec::new();
        for k in 0..kernels {
            let mut kernel = KernelTrace::new(format!("k{k}"), (1, 1, 1), (32, 1, 1));
            let block = kernel.push_block();
            let warp = block.push_warp();
            for i in 0..insts_per_kernel.saturating_sub(1) {
                warp.push(
                    InstBuilder::new(Opcode::Iadd)
                        .pc(16 * i as u32)
                        .dst(1)
                        .src(1),
                );
            }
            warp.push(InstBuilder::new(Opcode::Exit).pc(16 * insts_per_kernel as u32));
            ks.push(kernel);
        }
        ApplicationTrace::new(name, ks)
    }

    #[test]
    fn hits_after_first_decode() {
        let a: Arc<dyn TraceSource> = Arc::new(app("a", 2, 8));
        let cache = DecodedKernelCache::new(1 << 20);
        let src = CachedTraceSource::new(Arc::clone(&a), Arc::clone(&cache)).unwrap();

        let k0 = src.decode_kernel(0).unwrap().into_owned();
        let again = src.decode_kernel(0).unwrap().into_owned();
        assert_eq!(k0, again);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);

        // The cached decode equals the direct decode.
        assert_eq!(&k0, &*a.decode_kernel(0).unwrap());
    }

    #[test]
    fn sources_with_equal_content_share_entries() {
        let a: Arc<dyn TraceSource> = Arc::new(app("same", 1, 8));
        let b: Arc<dyn TraceSource> = Arc::new(
            crate::source::TextTraceSource::from_text(app("same", 1, 8).to_trace_text()).unwrap(),
        );
        let cache = DecodedKernelCache::new(1 << 20);
        let sa = CachedTraceSource::new(a, Arc::clone(&cache)).unwrap();
        let sb = CachedTraceSource::new(b, Arc::clone(&cache)).unwrap();
        assert_eq!(sa.content_hash().unwrap(), sb.content_hash().unwrap());

        sa.decode_kernel(0).unwrap();
        sb.decode_kernel(0).unwrap();
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (1, 1),
            "text representation hits the in-memory source's entry"
        );
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let a: Arc<dyn TraceSource> = Arc::new(app("a", 4, 64));
        // What the cache holds: an owned copy, with no growth slack.
        let owned: KernelTrace = a.decode_kernel(0).unwrap().into_owned();
        let one_kernel = kernel_approx_bytes(&owned);
        // Room for about two kernels.
        let cache = DecodedKernelCache::new(one_kernel * 2 + one_kernel / 2);
        let src = CachedTraceSource::new(Arc::clone(&a), Arc::clone(&cache)).unwrap();

        for i in 0..4 {
            src.decode_kernel(i).unwrap();
        }
        let stats = cache.stats();
        assert!(stats.bytes <= cache.budget_bytes(), "{stats:?}");
        assert!(stats.entries <= 2, "{stats:?}");
        assert!(stats.evictions >= 2, "{stats:?}");

        // Most-recently-used kernel 3 must still be resident.
        src.decode_kernel(3).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn oversized_kernels_pass_through_without_residency() {
        let a: Arc<dyn TraceSource> = Arc::new(app("big", 1, 128));
        let cache = DecodedKernelCache::new(16); // smaller than any kernel
        let src = CachedTraceSource::new(Arc::clone(&a), Arc::clone(&cache)).unwrap();
        let k = src.decode_kernel(0).unwrap();
        assert_eq!(k.num_insts(), 128);
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
    }

    #[test]
    fn concurrent_readers_agree() {
        let a: Arc<dyn TraceSource> = Arc::new(app("c", 3, 16));
        let cache = DecodedKernelCache::new(1 << 20);
        let src = Arc::new(CachedTraceSource::new(Arc::clone(&a), cache).unwrap());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let src = Arc::clone(&src);
                let a = Arc::clone(&a);
                s.spawn(move || {
                    for i in 0..3 {
                        let got = src.decode_kernel(i).unwrap().into_owned();
                        assert_eq!(got, *a.decode_kernel(i).unwrap());
                    }
                });
            }
        });
    }
}
