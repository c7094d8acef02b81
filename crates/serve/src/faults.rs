//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] is a seeded schedule of internal faults — handler
//! panics, artificial handler latency, forced short reads/writes, dropped
//! or throttled connections, and reactor-level worker kills — threaded
//! through the event loops via [`crate::ServerConfig::faults`].  Production
//! servers run without a plan (every hook is a cheap `Option` check);
//! the chaos integration tests install one to prove the fault-tolerance
//! invariants: no worker death
//! from a handler panic, exact `panics_caught`/`deadline_exceeded`/`shed`
//! accounting, and bit-exact responses for every non-faulted request.
//!
//! ## Determinism
//!
//! Every injection site draws from its own counter-indexed hash stream
//! (`splitmix64(seed ^ site ^ sequence)`), so the decision for the *n*-th
//! event at a site depends only on the seed — not on thread interleaving,
//! wall time, or what other sites drew.  A single-connection test therefore
//! sees a fully reproducible fault schedule, and a concurrent run sees the
//! same *number* of faults for the same event count.  The plan counts every
//! fault it injects ([`FaultPlan::counters`]); tests assert the server's
//! stats match those counts exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use l2r_core::splitmix64;

/// Which injection site a decision belongs to; each site has an independent
/// deterministic draw stream.
#[derive(Debug, Clone, Copy)]
#[repr(usize)]
enum Site {
    HandlerPanic = 0,
    HandlerLatency = 1,
    ShortRead = 2,
    ShortWrite = 3,
    DropConn = 4,
}

const NUM_SITES: usize = 5;

/// Tunables of a [`FaultPlan`].  All rates are per-mille (‰): out of 1000
/// events at the site, roughly that many are faulted, deterministically
/// chosen by the seed.  The default injects nothing.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed of every decision stream.
    pub seed: u64,
    /// Rate of injected handler panics per route execution (caught by the
    /// reactor's panic isolation and answered as request-scoped errors).
    pub handler_panic_per_mille: u32,
    /// Rate of artificial handler latency per route execution.
    pub handler_latency_per_mille: u32,
    /// How long an injected latency stalls the handler.
    pub handler_latency: Duration,
    /// Rate of forced short reads (a read delivers only a few bytes, so
    /// frames and lines arrive in fragments).
    pub short_read_per_mille: u32,
    /// Rate of forced short writes (a write flushes only a few bytes).
    pub short_write_per_mille: u32,
    /// Rate of connections dropped right after accept.
    pub drop_conn_per_mille: u32,
    /// Total reactor-level panics to inject (outside the handler's panic
    /// isolation — each one kills an event-loop thread, which the watchdog
    /// must respawn).  Triggered at accept time, one per connection, until
    /// the budget is spent.
    pub worker_kills: u32,
    /// Shrink each accepted connection's kernel send buffer to this many
    /// bytes (via `SO_SNDBUF`), so write-stall detection is testable
    /// without megabytes of traffic.
    pub sndbuf: Option<u32>,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0xFA17_5EED,
            handler_panic_per_mille: 0,
            handler_latency_per_mille: 0,
            handler_latency: Duration::from_millis(2),
            short_read_per_mille: 0,
            short_write_per_mille: 0,
            drop_conn_per_mille: 0,
            worker_kills: 0,
            sndbuf: None,
        }
    }
}

/// Counts of every fault a plan has injected so far (all monotonic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultCounters {
    /// Handler panics injected (each must surface as exactly one caught
    /// panic in the server's `panics_caught` stat).
    pub panics_injected: u64,
    /// Artificial handler latencies injected.
    pub latencies_injected: u64,
    /// Reads forced short.
    pub short_reads: u64,
    /// Writes forced short.
    pub short_writes: u64,
    /// Connections dropped right after accept.
    pub conns_dropped: u64,
    /// Reactor-level worker kills injected (each must surface as exactly
    /// one `workers_respawned` in the server's stats).
    pub worker_kills_injected: u64,
}

/// A seeded, deterministic fault-injection schedule (see the module docs).
/// Shared by all event loops of a server via `Arc`.
#[derive(Debug, Default)]
pub struct FaultPlan {
    cfg: FaultConfig,
    draws: [AtomicU64; NUM_SITES],
    panics_injected: AtomicU64,
    latencies_injected: AtomicU64,
    short_reads: AtomicU64,
    short_writes: AtomicU64,
    conns_dropped: AtomicU64,
    worker_kills_injected: AtomicU64,
}

impl FaultPlan {
    /// Wraps a [`FaultConfig`] into an injectable plan.
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            cfg,
            ..FaultPlan::default()
        }
    }

    /// The configuration this plan injects from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Draws the next decision of `site`: the `seq`-th event at a site is
    /// faulted iff `splitmix64(seed ^ site ^ seq)` lands under the rate.
    fn decide(&self, site: Site, per_mille: u32) -> Option<u64> {
        if per_mille == 0 {
            return None;
        }
        let seq = self.draws[site as usize].fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(self.cfg.seed ^ ((site as u64) << 56) ^ seq);
        (h % 1000 < per_mille as u64).then_some(h)
    }

    /// Should this route execution panic?  Counts the injection.
    pub(crate) fn inject_handler_panic(&self) -> bool {
        let hit = self
            .decide(Site::HandlerPanic, self.cfg.handler_panic_per_mille)
            .is_some();
        if hit {
            self.panics_injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Artificial latency to stall this route execution with, if any.
    pub(crate) fn inject_handler_latency(&self) -> Option<Duration> {
        self.decide(Site::HandlerLatency, self.cfg.handler_latency_per_mille)
            .map(|_| {
                self.latencies_injected.fetch_add(1, Ordering::Relaxed);
                self.cfg.handler_latency
            })
    }

    /// Byte cap to force on this read, if it should come up short.
    pub(crate) fn short_read_cap(&self) -> Option<usize> {
        self.decide(Site::ShortRead, self.cfg.short_read_per_mille)
            .map(|h| {
                self.short_reads.fetch_add(1, Ordering::Relaxed);
                1 + (h >> 10) as usize % 7
            })
    }

    /// Byte cap to force on this write, if it should come up short.
    pub(crate) fn short_write_cap(&self) -> Option<usize> {
        self.decide(Site::ShortWrite, self.cfg.short_write_per_mille)
            .map(|h| {
                self.short_writes.fetch_add(1, Ordering::Relaxed);
                1 + (h >> 10) as usize % 7
            })
    }

    /// Should this freshly accepted connection be dropped on the floor?
    pub(crate) fn inject_conn_drop(&self) -> bool {
        let hit = self
            .decide(Site::DropConn, self.cfg.drop_conn_per_mille)
            .is_some();
        if hit {
            self.conns_dropped.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Should this accept kill the whole event loop?  One-shot budget:
    /// returns `true` exactly [`FaultConfig::worker_kills`] times.
    pub(crate) fn inject_worker_kill(&self) -> bool {
        if self.cfg.worker_kills == 0 {
            return false;
        }
        self.worker_kills_injected
            // ordering: AcqRel/Acquire — a budget, not a statistic: each
            // claim must see every earlier claim or more loops could die
            // than the configured kill count.
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.cfg.worker_kills as u64).then_some(n + 1)
            })
            .is_ok()
    }

    /// Everything injected so far.
    pub fn counters(&self) -> FaultCounters {
        FaultCounters {
            panics_injected: self.panics_injected.load(Ordering::Relaxed),
            latencies_injected: self.latencies_injected.load(Ordering::Relaxed),
            short_reads: self.short_reads.load(Ordering::Relaxed),
            short_writes: self.short_writes.load(Ordering::Relaxed),
            conns_dropped: self.conns_dropped.load(Ordering::Relaxed),
            worker_kills_injected: self.worker_kills_injected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_streams_are_deterministic_per_seed() {
        let cfg = FaultConfig {
            seed: 42,
            handler_panic_per_mille: 100,
            ..FaultConfig::default()
        };
        let a = FaultPlan::new(cfg.clone());
        let b = FaultPlan::new(cfg);
        let xs: Vec<bool> = (0..2000).map(|_| a.inject_handler_panic()).collect();
        let ys: Vec<bool> = (0..2000).map(|_| b.inject_handler_panic()).collect();
        assert_eq!(xs, ys);
        let hits = xs.iter().filter(|&&h| h).count();
        // 10% nominal rate over 2000 draws: the deterministic stream must
        // land in a sane band (it is a fixed sequence, not a real RNG).
        assert!((100..=300).contains(&hits), "{hits} hits");
        assert_eq!(a.counters().panics_injected, hits as u64);
    }

    #[test]
    fn sites_draw_independently() {
        let cfg = FaultConfig {
            seed: 7,
            handler_panic_per_mille: 500,
            short_read_per_mille: 500,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(cfg);
        let panics: Vec<bool> = (0..64).map(|_| plan.inject_handler_panic()).collect();
        let reads: Vec<bool> = (0..64).map(|_| plan.short_read_cap().is_some()).collect();
        // Same rate, same seed, but different sites: the streams differ.
        assert_ne!(panics, reads);
        let c = plan.counters();
        assert_eq!(
            c.panics_injected,
            panics.iter().filter(|&&h| h).count() as u64
        );
        assert_eq!(c.short_reads, reads.iter().filter(|&&h| h).count() as u64);
    }

    #[test]
    fn worker_kills_respect_their_budget() {
        let plan = FaultPlan::new(FaultConfig {
            worker_kills: 2,
            ..FaultConfig::default()
        });
        let kills = (0..100).filter(|_| plan.inject_worker_kill()).count();
        assert_eq!(kills, 2);
        assert_eq!(plan.counters().worker_kills_injected, 2);
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let plan = FaultPlan::new(FaultConfig::default());
        for _ in 0..100 {
            assert!(!plan.inject_handler_panic());
            assert!(plan.inject_handler_latency().is_none());
            assert!(plan.short_read_cap().is_none());
            assert!(plan.short_write_cap().is_none());
            assert!(!plan.inject_conn_drop());
            assert!(!plan.inject_worker_kill());
        }
        assert_eq!(
            plan.counters(),
            FaultCounters {
                panics_injected: 0,
                latencies_injected: 0,
                short_reads: 0,
                short_writes: 0,
                conns_dropped: 0,
                worker_kills_injected: 0,
            }
        );
    }
}
