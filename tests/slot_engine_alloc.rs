//! Pins the slot engine's zero-allocation claim with a counting global
//! allocator: once the scratch arena, the receiver's decode scratch and
//! its front-end design cache are warm, a cache-hit exchange's bracketed
//! stage (arena take → AWGN → burst noise → pressure-to-volts scaling →
//! the full coherent `decode_uplink_verdict` pipeline) performs no heap
//! allocations at all.
//!
//! The counting allocator feeds `pab_core::scratch::ALLOC_PROBE`, which
//! `LinkSimulator::slot_exchange` brackets around the engine+decode
//! stage and reports through `SlotEngineStats::engine_allocs_last`. The
//! network runs untraced here: the bracket now spans the decode, and a
//! telemetry recorder legitimately grows its own tables. This file
//! holds exactly one test so no sibling test thread can bump the global
//! probe mid-bracket, and the network runs its slots serially for the
//! same reason.
//!
// The global-allocator shim is the one place the workspace needs
// `unsafe`: `GlobalAlloc` is an unsafe trait by definition. The impl
// delegates straight to `System` and only increments an atomic.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering;

use pab_core::faultnet::{FaultNetConfig, FaultNetSimulator};
use pab_core::scratch::ALLOC_PROBE;
use pab_net::mac::MacPolicy;

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_PROBE.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_PROBE.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_PROBE.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_slots_allocate_nothing_in_the_engine_stage() {
    // Sanity: the counting allocator is actually installed.
    let before = ALLOC_PROBE.load(Ordering::Relaxed);
    drop(vec![0u8; 4096]);
    assert!(
        ALLOC_PROBE.load(Ordering::Relaxed) > before,
        "counting allocator not wired up"
    );

    // A healthy 2-node inventory round with several packets per node:
    // the first exchange per (node, rate) key misses the cache and fills
    // the arena; every later one is a steady-state hit.
    let mut cfg = FaultNetConfig::with_nodes(2).expect("valid node count");
    cfg.per_node_packets = 4;
    cfg.max_slots = 40;
    cfg.fs_hz = 96_000.0;
    cfg.seed = 17;
    cfg.parallel_slots = false;
    // Fixed retries, no adaptive rate ladder: every exchange of a node
    // shares one cache key, so each node's *last* exchange is guaranteed
    // to be a steady-state hit (a rate step would make it a fresh miss,
    // which legitimately allocates while filling the cache).
    cfg.policy = MacPolicy::FixedRetry { max_retries: 2 };
    let mut sim = FaultNetSimulator::new(cfg).expect("valid config");
    let report = sim.run_with_recorder(None).expect("run succeeds");
    assert!(report.completed, "healthy round must complete: {report:?}");

    let stats = sim.slot_stats();
    assert!(
        stats.exchange_hits >= 4,
        "round too short to reach steady state: {stats:?}"
    );
    // The claim under test: the most recent engine+decode stage of every
    // simulator in the network — including the entire coherent decode
    // pipeline, mix→filter→decimate through slicing and CRC — ran
    // allocation-free (`merge` folds per-node values with max, so one
    // allocating node would show).
    assert_eq!(
        stats.engine_allocs_last, 0,
        "steady-state engine+decode stage allocated: {stats:?}"
    );
    // The decode really happened inside the bracket: the front-end did
    // work and, after the first decode per rate, hit its design cache.
    let fe = sim.frontend_stats();
    assert!(fe.decodes > 0, "no decodes counted: {fe:?}");
    assert!(
        fe.design_hits > fe.design_misses,
        "front-end designs not reused: {fe:?}"
    );
    // At this config's rate the decimation factor is 1 (96 kHz, 2731
    // bps), so the stream passes through unshrunk — but never grows.
    assert!(
        fe.samples_in >= fe.samples_out,
        "decimator emitted more than it read: {fe:?}"
    );
    // And the arena really is warm: far more takes than cold growths.
    assert!(
        stats.scratch_takes > stats.scratch_pool_misses,
        "arena never recycled a buffer: {stats:?}"
    );
}
