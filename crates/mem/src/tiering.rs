//! Online page migration between a fast and a slow tier.
//!
//! [`TieredDevice`] wraps two built devices — fast (local DRAM) and slow
//! (CXL) — behind one address space, tracks page residency at a
//! configurable granularity, and at fixed simulated-time epochs lets a
//! [`PolicyKind`] promote hot pages into the fast tier (and demote
//! victims back). Every page move is costed on the simulated devices as
//! a stream of real 64 B read requests on the source and write requests
//! on the destination, issued through the ordinary [`MemoryDevice::access`]
//! path — so migration traffic competes with demand traffic in the same
//! `ServerPool`/`CreditPool` queues and shows up in fabric telemetry.
//!
//! Pages start on the slow tier (the CXL-heavy placement the paper's
//! §5.7 tuning case starts from); a page that is promoted is served by
//! the fast device from the promoting epoch onward. Residency flips at
//! the epoch boundary, but the copy traffic is *paced*: page copies are
//! queued and issued across the epoch at the configured migration
//! bandwidth (one page every `page_bytes / migrate_budget_gbps` ns),
//! the way a DMA engine drains a migration queue — a boundary-instant
//! burst would stack thousands of requests into the link queues and
//! stall demand traffic behind them, which is exactly the behaviour the
//! budget exists to prevent.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use melody_telemetry as tel;

use crate::device::{AccessBreakdown, DeviceStats, MemoryDevice};
use crate::policy::{PolicyKind, TieringConfig};
use crate::request::{MemRequest, RequestKind, CACHELINE};

/// Lifetime migration counters a [`TieredDevice`] maintains, exposed for
/// property tests and folded into telemetry when metrics are on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Pages moved between tiers (promotions + demotions).
    pub migrations: u64,
    /// Bytes moved — always `migrations × page_bytes`.
    pub migrated_bytes: u64,
    /// Promotions (slow → fast) among `migrations`.
    pub promoted: u64,
    /// Demotions (fast → slow) among `migrations`.
    pub demoted: u64,
    /// Simulated ps migration copies spent in flight on the devices
    /// (sum over issued page copies of completion − issue).
    pub stall_ps: u64,
    /// Largest number of bytes any single epoch migrated (the budget
    /// invariant: never exceeds the epoch's allowance).
    pub max_epoch_bytes: u64,
    /// Epoch boundaries crossed.
    pub epochs: u64,
}

/// Per-page residency metadata for pages in the fast tier.
#[derive(Debug, Clone, Copy)]
struct FastMeta {
    /// Epoch of the page's most recent touch (LRU victim ordering).
    last_touch_epoch: u64,
    /// CLOCK reference bit, set on touch, cleared by the sweeping hand.
    referenced: bool,
}

/// A page copy decided at an epoch boundary whose traffic has not been
/// issued yet. Residency flips at decision time; the copy itself is
/// paced onto the link at its scheduled time (see module docs).
#[derive(Debug, Clone, Copy)]
struct PendingCopy {
    page: u64,
    promote: bool,
    /// Scheduled issue time (ps); copies are queued in nondecreasing
    /// `at` order, one `page_gap_ps` apart.
    at: u64,
}

/// A two-tier device with online page migration (see module docs).
pub struct TieredDevice {
    cfg: TieringConfig,
    fast: Box<dyn MemoryDevice>,
    slow: Box<dyn MemoryDevice>,
    name: String,
    page_shift: u32,
    epoch_ps: u64,
    next_epoch_ps: u64,
    epoch: u64,
    /// Pages resident in the fast tier (everything else is slow).
    fast_pages: BTreeMap<u64, FastMeta>,
    /// CLOCK ring over fast pages, in promotion order, plus the hand.
    clock_ring: Vec<u64>,
    clock_hand: usize,
    /// Touch counts accumulated in the open epoch (both tiers).
    epoch_touches: BTreeMap<u64, u64>,
    /// Pages touched in the previous epoch (CLOCK promotion filter).
    prev_touched: BTreeSet<u64>,
    /// Every page ever observed (residency conservation oracle).
    known_pages: BTreeSet<u64>,
    /// Slow-tier request count at the last epoch boundary, for the
    /// bandwidth-aware utilization estimate.
    slow_reqs_at_epoch: u64,
    /// Slow tier's sustainable bandwidth in GB/s (from the spec's
    /// analytic profile), the denominator of the utilization estimate.
    slow_gbps: f64,
    /// Decided-but-unissued page copies, in scheduled-time order.
    pending: VecDeque<PendingCopy>,
    /// Scheduled time of the last enqueued copy (next epoch's copies
    /// queue behind it, never alongside).
    pending_tail_ps: u64,
    /// Latest issue time handed to either inner device — copies issue at
    /// `max(scheduled, last_issue_ps)` to keep inner issues monotone.
    last_issue_ps: u64,
    /// Pacing interval between page copies: the simulated time one page
    /// takes at `migrate_budget_gbps`.
    page_gap_ps: u64,
    counters: TierCounters,
}

impl TieredDevice {
    /// Wraps `fast` and `slow` under `cfg`. `slow_gbps` is the slow
    /// tier's sustainable bandwidth (the bandwidth-aware policy's
    /// utilization denominator); pass the spec's
    /// [`crate::AnalyticProfile::total_gbps`].
    pub fn new(
        cfg: TieringConfig,
        fast: Box<dyn MemoryDevice>,
        slow: Box<dyn MemoryDevice>,
        slow_gbps: f64,
    ) -> Self {
        let name = format!("{}>{}[{}]", fast.name(), slow.name(), cfg.policy.name());
        let page_shift = cfg.page_bytes.trailing_zeros();
        let epoch_ps = cfg.epoch_ns.max(1) * 1_000;
        // page_bytes / (GB/s) is ns; ×1000 is ps.
        let page_gap_ps =
            ((cfg.page_bytes as f64 / cfg.migrate_budget_gbps.max(1e-9)) * 1_000.0) as u64;
        Self {
            fast,
            slow,
            name,
            page_shift,
            epoch_ps,
            next_epoch_ps: epoch_ps,
            epoch: 0,
            fast_pages: BTreeMap::new(),
            clock_ring: Vec::new(),
            clock_hand: 0,
            epoch_touches: BTreeMap::new(),
            prev_touched: BTreeSet::new(),
            known_pages: BTreeSet::new(),
            slow_reqs_at_epoch: 0,
            slow_gbps: slow_gbps.max(1e-9),
            pending: VecDeque::new(),
            pending_tail_ps: 0,
            last_issue_ps: 0,
            page_gap_ps: page_gap_ps.max(1),
            counters: TierCounters::default(),
            cfg,
        }
    }

    /// Lifetime migration counters.
    pub fn counters(&self) -> TierCounters {
        self.counters
    }

    /// Number of pages currently resident in the fast tier.
    pub fn fast_resident_pages(&self) -> u64 {
        self.fast_pages.len() as u64
    }

    /// Number of distinct pages ever observed.
    pub fn known_pages(&self) -> u64 {
        self.known_pages.len() as u64
    }

    /// True when `page` currently resides in the fast tier.
    pub fn is_fast_resident(&self, page: u64) -> bool {
        self.fast_pages.contains_key(&page)
    }

    /// The active configuration.
    pub fn config(&self) -> &TieringConfig {
        &self.cfg
    }

    fn page_of(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    fn touch(&mut self, page: u64) {
        self.known_pages.insert(page);
        *self.epoch_touches.entry(page).or_insert(0) += 1;
        if let Some(meta) = self.fast_pages.get_mut(&page) {
            meta.last_touch_epoch = self.epoch;
            meta.referenced = true;
        }
    }

    /// Crosses every epoch boundary at or before `now`, running the
    /// policy once per boundary. Observation and access times are
    /// nondecreasing (the `MemoryDevice` contract), so boundaries are
    /// detected in order.
    fn maybe_epoch(&mut self, now: u64) {
        while now >= self.next_epoch_ps {
            let boundary = self.next_epoch_ps;
            self.run_epoch(boundary);
            self.next_epoch_ps += self.epoch_ps;
            self.epoch += 1;
            self.counters.epochs += 1;
            self.prev_touched = self.epoch_touches.keys().copied().collect();
            self.epoch_touches.clear();
        }
    }

    /// The slow link's utilization over the epoch ending at `now`:
    /// bytes served / (sustainable bandwidth × epoch length), clamped
    /// to `[0, 1]`.
    fn slow_util(&mut self) -> f64 {
        let reqs = self.slow.stats().requests();
        let delta = reqs.saturating_sub(self.slow_reqs_at_epoch);
        self.slow_reqs_at_epoch = reqs;
        let bytes = delta as f64 * CACHELINE as f64;
        // GB/s == bytes/ns; epoch_ps/1000 == epoch ns.
        let capacity_bytes = self.slow_gbps * (self.epoch_ps as f64 / 1_000.0);
        (bytes / capacity_bytes).clamp(0.0, 1.0)
    }

    /// Runs one epoch's migration decision at simulated time `now`.
    fn run_epoch(&mut self, now: u64) {
        let mut budget = self.cfg.budget_bytes_per_epoch();
        match self.cfg.policy {
            PolicyKind::Static => return,
            PolicyKind::LruHotness | PolicyKind::Clock => {}
            PolicyKind::BandwidthAware => {
                let util = self.slow_util();
                if tel::metrics_on() {
                    tel::gauge("tier.link_util", now, util);
                }
                budget = (budget as f64 * (1.0 - util)) as u64;
                if budget < self.cfg.page_bytes {
                    return;
                }
            }
            PolicyKind::SpaGuided => {
                // The guide window covering `now` decides whether this
                // epoch migrates at all; an empty guide means "always"
                // (the schedule is injected by the runner layer).
                let score = self
                    .cfg
                    .guide
                    .iter()
                    .take_while(|w| w.start_ps <= now)
                    .last()
                    .map_or(1.0, |w| w.mem_score);
                if score < 0.5 {
                    return;
                }
            }
        }

        // Promotion candidates: slow pages hot enough this epoch.
        let mut hot: Vec<(u64, u64)> = self
            .epoch_touches
            .iter()
            .filter(|(p, t)| **t >= self.cfg.hot_touches && !self.fast_pages.contains_key(*p))
            .map(|(p, t)| (*p, *t))
            .collect();
        if self.cfg.policy == PolicyKind::Clock {
            // CLOCK favours sustained reuse: pages touched in this epoch
            // *and* the previous one get first claim on the budget;
            // single-epoch pages fill whatever remains.
            hot.sort_by(|a, b| {
                let (sa, sb) = (
                    self.prev_touched.contains(&a.0),
                    self.prev_touched.contains(&b.0),
                );
                sb.cmp(&sa).then(b.1.cmp(&a.1)).then(a.0.cmp(&b.0))
            });
        } else {
            // Hottest first; page index breaks ties deterministically.
            hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        }

        let fast_capacity_pages = self.cfg.fast_bytes >> self.page_shift;
        let mut moved_bytes = 0u64;
        let mut at = self.pending_tail_ps.max(now);
        for (page, _) in hot {
            // A promotion may force a demotion; both count against the
            // budget, so stop while the worst case still fits.
            let worst = if self.fast_pages.len() as u64 >= fast_capacity_pages {
                2 * self.cfg.page_bytes
            } else {
                self.cfg.page_bytes
            };
            if moved_bytes + worst > budget {
                break;
            }
            if self.fast_pages.len() as u64 >= fast_capacity_pages {
                if let Some(victim) = self.pick_victim() {
                    self.move_page(victim, false);
                    self.pending.push_back(PendingCopy {
                        page: victim,
                        promote: false,
                        at,
                    });
                    at += self.page_gap_ps;
                    moved_bytes += self.cfg.page_bytes;
                } else {
                    break;
                }
            }
            self.move_page(page, true);
            self.pending.push_back(PendingCopy {
                page,
                promote: true,
                at,
            });
            at += self.page_gap_ps;
            moved_bytes += self.cfg.page_bytes;
        }

        if moved_bytes > 0 {
            self.pending_tail_ps = at;
            self.counters.max_epoch_bytes = self.counters.max_epoch_bytes.max(moved_bytes);
            if tel::metrics_on() {
                tel::count("tier.migrations_total", moved_bytes / self.cfg.page_bytes);
                tel::count("tier.migrated_bytes", moved_bytes);
            }
        }
    }

    /// Picks the fast-tier page to demote: LRU for the hotness policies,
    /// a second-chance hand sweep for CLOCK.
    fn pick_victim(&mut self) -> Option<u64> {
        if self.cfg.policy == PolicyKind::Clock {
            // Sweep: clear reference bits until an unreferenced page is
            // found. Bounded by 2× the ring (every bit cleared once).
            for _ in 0..self.clock_ring.len() * 2 {
                if self.clock_ring.is_empty() {
                    return None;
                }
                self.clock_hand %= self.clock_ring.len();
                let page = self.clock_ring[self.clock_hand];
                let meta = self.fast_pages.get_mut(&page).expect("ring page resident");
                if meta.referenced {
                    meta.referenced = false;
                    self.clock_hand += 1;
                } else {
                    return Some(page);
                }
            }
            let page = self.clock_ring.get(self.clock_hand % self.clock_ring.len());
            return page.copied();
        }
        // LRU: oldest last-touch epoch, page index breaking ties.
        self.fast_pages
            .iter()
            .min_by_key(|(p, m)| (m.last_touch_epoch, **p))
            .map(|(p, _)| *p)
    }

    /// Flips one page's residency (the decision-time half of a
    /// migration) and updates the counters. The copy traffic is queued
    /// separately and issued by [`Self::drain`].
    fn move_page(&mut self, page: u64, promote: bool) {
        if promote {
            self.fast_pages.insert(
                page,
                FastMeta {
                    last_touch_epoch: self.epoch,
                    referenced: true,
                },
            );
            self.clock_ring.push(page);
            self.counters.promoted += 1;
        } else {
            self.fast_pages.remove(&page);
            if let Some(pos) = self.clock_ring.iter().position(|&p| p == page) {
                self.clock_ring.remove(pos);
                if pos < self.clock_hand {
                    self.clock_hand -= 1;
                }
            }
            self.counters.demoted += 1;
        }
        self.counters.migrations += 1;
        self.counters.migrated_bytes += self.cfg.page_bytes;
    }

    /// Issues the due pending copies: every copy scheduled at or before
    /// `now` puts its page-sized read stream on the source tier and
    /// write stream on the destination. A copy issues at
    /// `max(scheduled, last issue handed to the inner devices)` — never
    /// past `now` — so inner issue times stay nondecreasing. One page
    /// is a single DMA burst; pacing happens page-to-page.
    fn drain(&mut self, now: u64) {
        let lines = self.cfg.page_bytes / CACHELINE;
        while self.pending.front().is_some_and(|m| m.at <= now) {
            let mv = self.pending.pop_front().expect("front checked");
            let issue = mv.at.max(self.last_issue_ps);
            let base = mv.page << self.page_shift;
            let mut last = issue;
            for i in 0..lines {
                let addr = base + i * CACHELINE;
                let (src, dst) = if mv.promote {
                    (&mut self.slow, &mut self.fast)
                } else {
                    (&mut self.fast, &mut self.slow)
                };
                let r = src.access(&MemRequest::new(addr, RequestKind::DemandRead, issue));
                let w = dst.access(&MemRequest::new(addr, RequestKind::WriteBack, issue));
                last = last.max(r.completion).max(w.completion);
            }
            self.last_issue_ps = self.last_issue_ps.max(issue);
            let stall = last.saturating_sub(issue);
            self.counters.stall_ps += stall;
            if tel::metrics_on() {
                tel::count("tier.migration_stall_ns", stall / 1_000);
            }
        }
    }
}

impl MemoryDevice for TieredDevice {
    fn access(&mut self, req: &MemRequest) -> AccessBreakdown {
        self.maybe_epoch(req.issue);
        self.drain(req.issue);
        let page = self.page_of(req.addr);
        self.touch(page);
        self.last_issue_ps = self.last_issue_ps.max(req.issue);
        if self.fast_pages.contains_key(&page) {
            self.fast.access(req)
        } else {
            self.slow.access(req)
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn nominal_latency_ns(&self) -> f64 {
        // Report the slow tier: pages start there, and it is the
        // deployment-relevant worst case (same convention as a split).
        self.slow.nominal_latency_ns()
    }

    fn stats(&self) -> DeviceStats {
        let mut s = DeviceStats::default();
        s.merge(&self.fast.stats());
        s.merge(&self.slow.stats());
        s
    }

    fn fast_forward(&mut self, now: melody_sim::SimTime) {
        // Copies scheduled inside the skipped window are part of what
        // sampling extrapolates away: drop their traffic (residency and
        // migration counters were already settled at decision time).
        while self.pending.front().is_some_and(|m| m.at <= now) {
            self.pending.pop_front();
        }
        self.fast.fast_forward(now);
        self.slow.fast_forward(now);
        // Epochs inside a sampled-tier skip saw no observations; they
        // elapse without migration decisions, keeping the boundary
        // schedule monotone.
        while now >= self.next_epoch_ps {
            self.next_epoch_ps += self.epoch_ps;
            self.epoch += 1;
            self.counters.epochs += 1;
            self.prev_touched = self.epoch_touches.keys().copied().collect();
            self.epoch_touches.clear();
        }
    }

    fn wants_slot_observations(&self) -> bool {
        true
    }

    fn observe_slot(&mut self, addr: u64, _is_store: bool, now: melody_sim::SimTime) {
        self.maybe_epoch(now);
        self.drain(now);
        let page = self.page_of(addr);
        self.touch(page);
    }
}

impl std::fmt::Debug for TieredDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredDevice")
            .field("name", &self.name)
            .field("policy", &self.cfg.policy)
            .field("fast_pages", &self.fast_pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::spec::DeviceSpec;

    fn tiered(policy: PolicyKind) -> TieredDevice {
        let mut cfg = TieringConfig::new(policy);
        cfg.fast_bytes = 16 * 4096; // 16 pages
        cfg.migrate_budget_gbps = 100.0;
        let slow = presets::cxl_b();
        TieredDevice::new(
            cfg,
            presets::local_emr().build(1),
            slow.build(2),
            slow.analytic_profile().total_gbps,
        )
    }

    fn drive_hot_page(dev: &mut TieredDevice, page: u64, from_ps: u64, epochs: u64) -> u64 {
        let mut t = from_ps;
        for _ in 0..epochs {
            for i in 0..8u64 {
                dev.observe_slot(page * 4096 + i * 64, false, t);
                dev.access(&MemRequest::new(
                    page * 4096 + i * 64,
                    RequestKind::DemandRead,
                    t,
                ));
                t += 400_000; // 400 ns between touches
            }
            // Jump to past the next epoch boundary.
            t = (t / 20_000_000 + 1) * 20_000_000;
        }
        t
    }

    #[test]
    fn hot_page_is_promoted_and_served_fast() {
        let mut dev = tiered(PolicyKind::LruHotness);
        assert!(!dev.is_fast_resident(7));
        let t = drive_hot_page(&mut dev, 7, 0, 3);
        assert!(dev.is_fast_resident(7), "{:?}", dev.counters());
        let c = dev.counters();
        assert!(c.promoted >= 1);
        assert_eq!(c.migrated_bytes, c.migrations * 4096);
        // A fast-resident access completes at DRAM latency.
        let a = dev.access(&MemRequest::new(7 * 4096, RequestKind::DemandRead, t));
        assert!(
            (a.completion - t) < 200_000,
            "fast tier latency {} ps",
            a.completion - t
        );
    }

    #[test]
    fn static_policy_never_migrates() {
        let mut dev = tiered(PolicyKind::Static);
        drive_hot_page(&mut dev, 3, 0, 4);
        assert_eq!(dev.counters().migrations, 0);
        assert_eq!(dev.fast_resident_pages(), 0);
    }

    #[test]
    fn capacity_pressure_demotes_via_lru_and_clock() {
        for policy in [PolicyKind::LruHotness, PolicyKind::Clock] {
            let mut dev = tiered(policy);
            let mut t = 0;
            // 24 hot pages through a 16-page fast tier forces demotions.
            for page in 0..24u64 {
                t = drive_hot_page(&mut dev, page, t, 3);
            }
            let c = dev.counters();
            assert!(c.demoted > 0, "{policy:?}: {c:?}");
            assert!(dev.fast_resident_pages() <= 16, "{policy:?}");
            assert_eq!(c.migrated_bytes, c.migrations * 4096, "{policy:?}");
        }
    }

    #[test]
    fn spa_guide_gates_migration() {
        let mut cfg = TieringConfig::new(PolicyKind::SpaGuided);
        cfg.fast_bytes = 16 * 4096;
        cfg.guide = vec![crate::policy::GuideWindow {
            start_ps: 0,
            mem_score: 0.0,
        }];
        let slow = presets::cxl_b();
        let mut dev = TieredDevice::new(
            cfg,
            presets::local_emr().build(1),
            slow.build(2),
            slow.analytic_profile().total_gbps,
        );
        drive_hot_page(&mut dev, 5, 0, 4);
        assert_eq!(dev.counters().migrations, 0, "cold guide blocks migration");
    }

    #[test]
    fn tiered_spec_builds_and_composes() {
        let spec = DeviceSpec::Tiered {
            tiering: TieringConfig::new(PolicyKind::Clock),
            fast: Box::new(presets::local_emr()),
            slow: Box::new(presets::cxl_b()),
        };
        let dev = spec.build(3);
        assert!(dev.name().contains("clock"), "{}", dev.name());
        // Nominal latency reports the slow tier (cxl-b: 271 ns).
        assert!(dev.nominal_latency_ns() > 250.0);
        let json = serde_json::to_string(&spec).expect("serializes");
        let back: DeviceSpec = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(spec, back);
    }
}
