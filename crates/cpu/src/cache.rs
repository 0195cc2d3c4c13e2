//! Set-associative LRU cache model with lazy functional warming.

/// log2 of the rows per storage chunk (capped at the set count).
const CHUNK_SHIFT: u32 = 8;

/// Dirty flag of a row slot. Tags of lines of 64-bit byte addresses stay
/// below 2^58, so the bit is free.
const DIRTY: u64 = 1 << 63;

/// A set-associative cache over 64 B lines with true-LRU replacement.
///
/// Stores line numbers (address / 64). Lookups and fills are O(ways).
/// Each set keeps its ways in recency order, so a hit moves its line to
/// the front and a miss evicts the last one.
///
/// Functional warming is lazy: [`Cache::warm`] only records the warmed
/// run of lines, and a set's storage is materialized by the first access
/// that reaches it, replaying the recorded lines of that set in order. A
/// set only ever holds its own lines, so the replay leaves exactly the
/// tags, LRU order and dirty bits of an eager per-line fill, while a run
/// pays only for the sets it touches rather than for the whole capacity.
///
/// # Example
///
/// ```
/// use melody_cpu::Cache;
/// let mut l1 = Cache::new(48 * 1024, 12);
/// l1.warm(100, 4); // lines 100..104, as if filled one by one
/// assert!(!l1.contains(3));
/// l1.fill(3, false);
/// assert!(l1.probe(3));
/// assert!(l1.probe(101));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    // log2(sets): a line's set is `line & (sets - 1)`, its tag base
    // `line >> shift`.
    shift: u32,
    // Per set: 1 + its row, 0 = not yet materialized.
    rows: Vec<u32>,
    // Rows in materialization order, `1 << chunk_shift` per chunk. Chunks
    // never move, so growth copies nothing, and there are at most `sets`
    // rows. A row is `ways` slots, most recently used first; a slot is a
    // tag ((line >> shift) + 1, 0 = free) with the `DIRTY` bit. Nothing
    // invalidates, so a row's free slots are always a suffix.
    chunks: Vec<Box<[u64]>>,
    chunk_shift: u32,
    used_rows: usize,
    // Warmed runs of lines: (first line, line count).
    warmed: Vec<(u64, u64)>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with `ways` associativity.
    ///
    /// The set count is rounded down to a power of two (at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or the capacity is smaller than one way of
    /// lines.
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        let lines = capacity_bytes / 64;
        assert!(lines >= ways, "capacity below one set");
        // Round the set count down to a power of two for cheap indexing.
        let shift = (lines / ways).ilog2();
        let sets = 1usize << shift;
        Self {
            sets,
            ways,
            shift,
            rows: vec![0; sets],
            chunks: Vec::new(),
            chunk_shift: CHUNK_SHIFT.min(shift),
            used_rows: 0,
            warmed: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * 64
    }

    /// Functionally warms the cache with `count` clean lines starting at
    /// `first_line`: the cache then behaves exactly as if each line had
    /// been passed to [`Cache::fill`] in order. O(1): the lines of a set
    /// are placed when an access first reaches that set.
    ///
    /// # Panics
    ///
    /// Panics if the cache has already been accessed; warming comes
    /// before the first `probe`, `fill`, `contains` or `mark_dirty`.
    pub fn warm(&mut self, first_line: u64, count: u64) {
        // Every access materializes a row, so no rows means no accesses.
        assert!(self.used_rows == 0, "cache warmed after its first access");
        if count > 0 {
            self.warmed.push((first_line, count));
        }
    }

    /// `line`'s set and tag, and that set's row, materialized on first
    /// touch.
    #[inline]
    fn locate(&mut self, line: u64) -> (usize, u64, &mut [u64]) {
        let set = line as usize & (self.sets - 1);
        let row = match self.rows[set] {
            0 => self.materialize(set),
            r => r as usize - 1,
        };
        let tag = (line >> self.shift) + 1;
        debug_assert!(tag & DIRTY == 0, "line {line} collides with the dirty bit");
        (set, tag, self.row_mut(row))
    }

    #[inline]
    fn row_mut(&mut self, row: usize) -> &mut [u64] {
        let ways = self.ways;
        let base = (row & ((1 << self.chunk_shift) - 1)) * ways;
        &mut self.chunks[row >> self.chunk_shift][base..base + ways]
    }

    /// Allocates `set`'s row and replays, in order, the warmed lines that
    /// map to it.
    #[cold]
    fn materialize(&mut self, set: usize) -> usize {
        let row = self.used_rows;
        self.used_rows += 1;
        self.rows[set] = row as u32 + 1;
        if row >> self.chunk_shift == self.chunks.len() {
            let chunk = vec![0; self.ways << self.chunk_shift];
            self.chunks.push(chunk.into_boxed_slice());
        }
        let (ways, sets, shift) = (self.ways as u64, self.sets as u64, self.shift);
        let mut empty = true;
        for k in 0..self.warmed.len() {
            let (first, count) = self.warmed[k];
            // Offset of the run's first line in this set; the rest follow
            // every `sets` lines.
            let first_off = (set as u64).wrapping_sub(first) & (sets - 1);
            if first_off >= count {
                continue;
            }
            let n = (count - first_off - 1) / sets + 1;
            let tag = |j: u64| ((first + first_off + j * sets) >> shift) + 1;
            let slots = self.row_mut(row);
            if empty || n >= ways {
                // Distinct clean lines filled into an empty row, or
                // `ways` or more of them into any warmed row: the last
                // `ways` remain, the most recent first.
                for (i, slot) in slots.iter_mut().take(n as usize).enumerate() {
                    *slot = tag(n - 1 - i as u64);
                }
                empty = false;
            } else {
                for j in 0..n {
                    insert(slots, tag(j), 0);
                }
            }
        }
        row
    }

    /// Checks for presence without touching LRU state or stats.
    pub fn contains(&mut self, line: u64) -> bool {
        let (_, tag, row) = self.locate(line);
        find(row, tag).is_some()
    }

    /// Looks up `line`, updating LRU and hit/miss stats. Returns true on
    /// hit.
    pub fn probe(&mut self, line: u64) -> bool {
        let (_, tag, row) = self.locate(line);
        let hit = match find(row, tag) {
            Some(i) => {
                to_front(row, i, row[i]);
                true
            }
            None => false,
        };
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Marks a present line dirty (no-op if absent). Returns whether the
    /// line was present.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let (_, tag, row) = self.locate(line);
        match find(row, tag) {
            Some(i) => {
                row[i] |= DIRTY;
                true
            }
            None => false,
        }
    }

    /// Inserts `line`, evicting the LRU victim of its set if needed.
    /// Returns the evicted line and its dirty bit, if any.
    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        let shift = self.shift;
        let (set, tag, row) = self.locate(line);
        let dirty = if dirty { DIRTY } else { 0 };
        insert(row, tag, dirty).map(|old| {
            let old_line = ((old & !DIRTY) - 1) << shift | set as u64;
            (old_line, old & DIRTY != 0)
        })
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Slot of `tag` in `row`, if present.
#[inline]
fn find(row: &[u64], tag: u64) -> Option<usize> {
    row.iter().position(|&s| s & !DIRTY == tag)
}

/// Moves slot `i` of `row` to the front as `slot`, shifting the more
/// recent ones back by one.
#[inline]
fn to_front(row: &mut [u64], i: usize, slot: u64) {
    row.copy_within(..i, 1);
    row[0] = slot;
}

/// Fills `tag` into `row` as its most recent line in one pass over the
/// ways: ORs `dirty` into it if present, else takes the first free slot
/// or evicts the last one. Returns the evicted slot.
#[inline]
fn insert(row: &mut [u64], tag: u64, dirty: u64) -> Option<u64> {
    for i in 0..row.len() {
        let s = row[i];
        if s & !DIRTY == tag {
            to_front(row, i, s | dirty);
            return None;
        }
        if s == 0 {
            // Free slots are a suffix: the tag cannot appear later.
            to_front(row, i, tag | dirty);
            return None;
        }
    }
    let last = row.len() - 1;
    let old = row[last];
    to_front(row, last, tag | dirty);
    Some(old)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new(4096, 4);
        assert!(!c.probe(10));
        c.fill(10, false);
        assert!(c.probe(10));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = Cache::new(64 * 4, 4); // 1 set, 4 ways
        assert_eq!(c.sets(), 1);
        for line in 0..4 {
            c.fill(line, false);
        }
        c.probe(0); // 0 is now MRU; 1 is LRU
        let evicted = c.fill(100, false);
        assert_eq!(evicted, Some((1, false)));
        assert!(c.contains(0));
        assert!(!c.contains(1));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = Cache::new(64 * 2, 2); // 1 set, 2 ways
        c.fill(1, false);
        c.mark_dirty(1);
        c.fill(2, false);
        let evicted = c.fill(3, false);
        assert_eq!(evicted, Some((1, true)));
    }

    #[test]
    fn mark_dirty_absent_line() {
        let mut c = Cache::new(4096, 4);
        assert!(!c.mark_dirty(42));
    }

    #[test]
    fn refill_refreshes_without_evicting() {
        let mut c = Cache::new(64 * 2, 2);
        c.fill(1, false);
        c.fill(2, false);
        assert_eq!(c.fill(1, true), None);
        // 2 is now LRU.
        assert_eq!(c.fill(3, false), Some((2, false)));
        // 1 kept its dirty bit from the refresh.
        assert_eq!(c.fill(4, false), Some((1, true)));
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = Cache::new(64 * 8, 2); // 4 sets, 2 ways
        assert_eq!(c.sets(), 4);
        // Lines 0..4 land in distinct sets.
        for line in 0..4 {
            c.fill(line, false);
        }
        for line in 0..4 {
            assert!(c.contains(line), "line {line} evicted unexpectedly");
        }
    }

    #[test]
    fn warm_keeps_the_most_recent_lines_in_lru_order() {
        let mut c = Cache::new(64 * 8, 2); // 4 sets, 2 ways
        c.warm(0, 12); // set 0 sees lines 0, 4, 8: only 4 and 8 survive
        assert!(!c.contains(0));
        // 4 is the LRU line of set 0, so the next fill evicts it.
        assert_eq!(c.fill(12, false), Some((4, false)));
        assert!(c.probe(8));
        assert_eq!(c.stats(), (1, 0));
    }

    #[test]
    #[should_panic(expected = "cache warmed after its first access")]
    fn warm_after_access_panics() {
        let mut c = Cache::new(4096, 4);
        c.contains(1);
        c.warm(0, 8);
    }

    #[test]
    fn working_set_larger_than_cache_mostly_misses() {
        let mut c = Cache::new(64 * 1024, 8); // 64 KiB
                                              // Stream a 1 MiB working set twice.
        for pass in 0..2 {
            for line in 0..16_384u64 {
                let hit = c.probe(line);
                if pass == 1 {
                    assert!(!hit, "line {line} cannot survive a 16x overflow");
                }
                if !hit {
                    c.fill(line, false);
                }
            }
        }
    }

    #[test]
    fn working_set_smaller_than_cache_all_hits_second_pass() {
        let mut c = Cache::new(1024 * 1024, 16);
        for line in 0..1_000u64 {
            c.fill(line, false);
        }
        for line in 0..1_000u64 {
            assert!(c.probe(line));
        }
    }

    proptest! {
        #[test]
        fn contains_agrees_with_probe(lines in proptest::collection::vec(0u64..10_000, 1..500)) {
            let mut c = Cache::new(32 * 1024, 8);
            for &l in &lines {
                if !c.probe(l) {
                    c.fill(l, false);
                }
                prop_assert!(c.contains(l));
            }
        }

        #[test]
        fn eviction_returns_lines_from_same_set(lines in proptest::collection::vec(0u64..100_000, 1..500)) {
            let mut c = Cache::new(8 * 1024, 4);
            let sets = c.sets() as u64;
            for &l in &lines {
                if let Some((victim, _)) = c.fill(l, false) {
                    prop_assert_eq!(victim % sets, l % sets, "victim from wrong set");
                }
            }
        }
    }
}
