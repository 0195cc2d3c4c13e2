//! Differential test of lazy functional warming.
//!
//! [`Cache::warm`] only records a warmed run of lines; a set's lines are
//! placed when an access first reaches it. [`EagerCache`] is the reference
//! it must match: the per-line LRU cache with warming done as one
//! `fill(line, false)` per line. Both get the same random geometry, warm
//! ranges and access sequence, and every return value, every evicted
//! `(line, dirty)` and the hit/miss stats must agree.

use melody_cpu::Cache;
use melody_sim::SimRng;

/// Per-test iteration count: `MELODY_PROP_ITERS` when set, else the
/// test's own default.
fn iters(default: u64) -> u64 {
    std::env::var("MELODY_PROP_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Eager set-associative true-LRU cache: every slot allocated up front,
/// every warmed line filled one at a time.
struct EagerCache {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl EagerCache {
    fn new(capacity_bytes: usize, ways: usize) -> Self {
        let raw = capacity_bytes / 64 / ways;
        let sets = (1usize << (usize::BITS - 1 - raw.leading_zeros())).max(1);
        Self {
            sets,
            ways,
            tags: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            dirty: vec![false; sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn warm(&mut self, first_line: u64, count: u64) {
        for line in first_line..first_line + count {
            self.fill(line, false);
        }
    }

    fn slot_range(&self, line: u64) -> (usize, u64) {
        let set = (line as usize) & (self.sets - 1);
        let tag = (line / self.sets as u64) + 1;
        (set * self.ways, tag)
    }

    fn contains(&self, line: u64) -> bool {
        let (base, tag) = self.slot_range(line);
        self.tags[base..base + self.ways].contains(&tag)
    }

    fn probe(&mut self, line: u64) -> bool {
        let (base, tag) = self.slot_range(line);
        self.tick += 1;
        for i in base..base + self.ways {
            if self.tags[i] == tag {
                self.stamps[i] = self.tick;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    fn mark_dirty(&mut self, line: u64) -> bool {
        let (base, tag) = self.slot_range(line);
        for i in base..base + self.ways {
            if self.tags[i] == tag {
                self.dirty[i] = true;
                return true;
            }
        }
        false
    }

    fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        let (base, tag) = self.slot_range(line);
        self.tick += 1;
        for i in base..base + self.ways {
            if self.tags[i] == tag {
                self.stamps[i] = self.tick;
                self.dirty[i] |= dirty;
                return None;
            }
        }
        let mut victim = base;
        let mut oldest = u64::MAX;
        for i in base..base + self.ways {
            if self.tags[i] == 0 {
                victim = i;
                break;
            }
            if self.stamps[i] < oldest {
                oldest = self.stamps[i];
                victim = i;
            }
        }
        let evicted = if self.tags[victim] != 0 {
            let set = base / self.ways;
            let old_line = (self.tags[victim] - 1) * self.sets as u64 + set as u64;
            Some((old_line, self.dirty[victim]))
        } else {
            None
        };
        self.tags[victim] = tag;
        self.stamps[victim] = self.tick;
        self.dirty[victim] = dirty;
        evicted
    }
}

/// Random geometry whose capacity usually rounds the set count down.
fn geometry(rng: &mut SimRng) -> (usize, usize) {
    let ways = 1 + rng.below(16) as usize;
    let max_sets = 1 << rng.below(10);
    let raw_sets = 1 + rng.below(max_sets) as usize;
    // Up to twice the lines of `raw_sets` full sets, plus a partial line,
    // so the set count is usually rounded down.
    let lines = ways * raw_sets + rng.below((ways * raw_sets) as u64) as usize;
    (lines * 64 + rng.below(64) as usize, ways)
}

/// The lines of one [`differential`] case of `cap_lines` capacity,
/// relative to its base, are all below this.
fn reach(cap_lines: u64) -> u64 {
    9 * cap_lines + 64
}

/// One random differential case: 1-3 warm ranges, 400 mixed accesses,
/// then the stats and the final contents of every line the case can
/// reach, on a new `Cache` and a new `EagerCache` of the same geometry.
/// Every line is `base` plus an offset below [`reach`].
fn differential(ctx: &str, rng: &mut SimRng, capacity: usize, ways: usize, base: u64) {
    let mut lazy = Cache::new(capacity, ways);
    let mut eager = EagerCache::new(capacity, ways);
    assert_eq!(lazy.sets(), eager.sets, "{ctx}: set rounding");
    let cap_lines = (lazy.sets() * ways) as u64;
    let universe = 4 * cap_lines + 64;
    let reach = reach(cap_lines);
    let at = |line: u64| {
        assert!(line < reach, "{ctx}: line {line} beyond the case's reach");
        base + line
    };

    // 1-3 warm ranges: random starts (mid-set), overlapping the
    // previous range half the time, up to twice the capacity long.
    let mut start = rng.below(universe);
    for _ in 0..1 + rng.below(3) {
        if rng.chance(0.5) {
            start = rng.below(universe);
        } else {
            start += rng.below(cap_lines + 1);
        }
        let count = match rng.below(4) {
            0 => rng.below(2 * cap_lines + 1),
            1 => cap_lines,
            _ => rng.below(cap_lines + 1),
        };
        if count > 0 {
            at(start + count - 1);
        }
        lazy.warm(at(start), count);
        eager.warm(at(start), count);
    }

    for step in 0..400 {
        // Mostly near the warmed region, so hits and evictions of
        // warmed lines both happen.
        let line = at(if rng.chance(0.7) {
            start.saturating_sub(cap_lines) + rng.below(3 * cap_lines + 1)
        } else {
            rng.below(universe)
        });
        let ctx = format!("{ctx} step {step} line {line}");
        match rng.below(4) {
            0 => assert_eq!(lazy.probe(line), eager.probe(line), "probe, {ctx}"),
            1 => {
                let dirty = rng.chance(0.3);
                assert_eq!(
                    lazy.fill(line, dirty),
                    eager.fill(line, dirty),
                    "fill, {ctx}"
                );
            }
            2 => assert_eq!(
                lazy.mark_dirty(line),
                eager.mark_dirty(line),
                "mark_dirty, {ctx}"
            ),
            _ => assert_eq!(lazy.contains(line), eager.contains(line), "contains, {ctx}"),
        }
    }
    assert_eq!(lazy.stats(), (eager.hits, eager.misses), "{ctx}: stats");
    // Final contents, including sets the sequence never reached.
    for line in (0..universe).map(at) {
        assert_eq!(
            lazy.contains(line),
            eager.contains(line),
            "{ctx}: final line {line}"
        );
    }
}

#[test]
fn lazy_warming_matches_eager_fill() {
    for case in 0..iters(300) {
        let mut rng = SimRng::seed_from(0xCAC4E ^ case);
        let (capacity, ways) = geometry(&mut rng);
        differential(&format!("case {case}"), &mut rng, capacity, ways, 0);
    }
}

/// Fixed (sets, ways) geometries: one set of every associativity from 1
/// to 16, a 48 KiB L1d, a 2 MiB L2 and an 8 MiB LLC-like cache.
fn geometries() -> Vec<(usize, usize)> {
    let large = [(64, 12), (2048, 16), (8192, 16)];
    (1..=16).map(|ways| (1, ways)).chain(large).collect()
}

/// The first line whose tag does not fit a cache of `sets` sets: a slot
/// keeps the tag `(line >> log2 sets) + 1` in 31 bits.
fn line_limit(sets: usize) -> u64 {
    ((1 << 31) - 1) << sets.trailing_zeros()
}

#[test]
fn reused_storage_matches_a_fresh_cache() {
    // Each case first leaves a used cache of its geometry behind on this
    // thread: warmed, every slot of every set then refilled with a dirty
    // line of the highest tags, and dropped. A new cache of the same
    // geometry must still match a new eager one, whatever storage it
    // gets: no stale tag or dirty bit may show through.
    let geometries = geometries();
    for case in 0..iters(38) {
        let (sets, ways) = geometries[case as usize % geometries.len()];
        let capacity = sets * ways * 64;
        let lines = (sets * ways) as u64;
        let mut rng = SimRng::seed_from(0x5EC ^ case);
        let mut used = Cache::new(capacity, ways);
        used.warm(rng.below(4 * lines), lines);
        for line in line_limit(sets) - lines..line_limit(sets) {
            used.fill(line, true);
        }
        drop(used);
        let ctx = format!("case {case} ({sets}x{ways})");
        differential(&ctx, &mut rng, capacity, ways, 0);
    }
}

#[test]
fn high_tags_match_eager_fill() {
    // The same sequences with every line just below the tag limit.
    let geometries = geometries();
    for case in 0..iters(38) {
        let (sets, ways) = geometries[case as usize % geometries.len()];
        let capacity = sets * ways * 64;
        let base = line_limit(sets) - reach((sets * ways) as u64);
        let mut rng = SimRng::seed_from(0x7A6 ^ case);
        let ctx = format!("case {case} ({sets}x{ways}) from line {base}");
        differential(&ctx, &mut rng, capacity, ways, base);
    }
}

#[test]
fn hot_sets_match_eager_fill() {
    // One or two sets of every associativity, hammered over about three
    // times their lines: hits move lines to the front, refills refresh
    // the last slot, and dirty bits must survive every move and come
    // back with the eviction that takes them.
    for case in 0..iters(64) {
        let mut rng = SimRng::seed_from(0x407 ^ case);
        let ways = 1 + (case % 16) as usize;
        let sets = 1 + (case / 16 % 2) as usize;
        let capacity = sets * ways * 64 + rng.below(64) as usize;
        let mut lazy = Cache::new(capacity, ways);
        let mut eager = EagerCache::new(capacity, ways);
        assert_eq!(lazy.sets(), sets, "case {case}: set count");
        let universe = 3 * (sets * ways) as u64;

        // 1-3 warm runs, each starting inside the previous one.
        let (mut start, mut count) = (rng.below(universe), 0);
        for _ in 0..1 + rng.below(3) {
            start += rng.below(count + 1);
            count = rng.below(universe + 1);
            lazy.warm(start, count);
            eager.warm(start, count);
        }

        for step in 0..2_000 {
            let line = rng.below(universe);
            let ctx = format!("case {case} ({sets}x{ways}) step {step} line {line}");
            match rng.below(4) {
                0 => assert_eq!(lazy.probe(line), eager.probe(line), "probe, {ctx}"),
                1 => {
                    let dirty = rng.chance(0.3);
                    assert_eq!(
                        lazy.fill(line, dirty),
                        eager.fill(line, dirty),
                        "fill, {ctx}"
                    );
                }
                2 => assert_eq!(
                    lazy.mark_dirty(line),
                    eager.mark_dirty(line),
                    "mark_dirty, {ctx}"
                ),
                _ => assert_eq!(lazy.contains(line), eager.contains(line), "contains, {ctx}"),
            }
        }
        assert_eq!(
            lazy.stats(),
            (eager.hits, eager.misses),
            "case {case}: stats"
        );
    }
}

#[test]
fn full_capacity_warm_of_a_large_cache_matches_eager_fill() {
    // An LLC-sized geometry warmed the way the core warms it: a range
    // clamped to capacity from an unaligned base, then a smaller hot
    // region at 0.
    let (capacity, ways) = (2 << 20, 16);
    let mut lazy = Cache::new(capacity, ways);
    let mut eager = EagerCache::new(capacity, ways);
    let cap_lines = (capacity / 64) as u64;
    for (start, count) in [(12_345, cap_lines), (0, cap_lines / 3)] {
        lazy.warm(start, count);
        eager.warm(start, count);
    }
    let mut rng = SimRng::seed_from(0x11C);
    for _ in 0..20_000 {
        let line = rng.below(3 * cap_lines);
        if !lazy.probe(line) {
            assert!(!eager.probe(line), "line {line}");
            let dirty = rng.chance(0.2);
            assert_eq!(
                lazy.fill(line, dirty),
                eager.fill(line, dirty),
                "line {line}"
            );
        } else {
            assert!(eager.probe(line), "line {line}");
            assert_eq!(lazy.mark_dirty(line), eager.mark_dirty(line));
        }
    }
    assert_eq!(lazy.stats(), (eager.hits, eager.misses));
}

#[test]
#[should_panic(expected = "cache warmed after its first access")]
fn warming_after_the_first_access_panics() {
    let mut cache = Cache::new(32 * 1024, 8);
    cache.warm(0, 64);
    assert!(cache.probe(3));
    cache.warm(64, 64);
}

#[test]
#[should_panic(
    expected = "line 137438953408 has no tag in this cache: its lines must stay below 137438953408"
)]
fn a_fill_past_the_tag_range_panics() {
    // 48 KiB, 12 ways: 64 sets.
    let mut cache = Cache::new(48 * 1024, 12);
    assert_eq!(line_limit(cache.sets()), 137_438_953_408);
    assert_eq!(cache.fill(137_438_953_407, true), None);
    cache.fill(137_438_953_408, false);
}

#[test]
#[should_panic(
    expected = "line 4294967294 has no tag in this cache: its lines must stay below 4294967294"
)]
fn a_probe_past_the_tag_range_panics() {
    // 2 sets of 4 ways.
    let mut cache = Cache::new(8 * 64, 4);
    assert_eq!(line_limit(cache.sets()), 4_294_967_294);
    assert!(!cache.probe(4_294_967_293));
    cache.probe(4_294_967_294);
}

#[test]
#[should_panic(
    expected = "line 2147483647 has no tag in this cache: its lines must stay below 2147483647"
)]
fn a_warm_range_past_the_tag_range_panics() {
    // One set: the range's last line is the first without a tag.
    let mut cache = Cache::new(4 * 64, 4);
    cache.warm(0, 2_147_483_647);
    cache.warm(2_147_483_640, 8);
}
