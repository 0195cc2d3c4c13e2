//! k-server queueing primitive.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::SimTime;

/// A pool of `k` identical servers with per-request service times.
///
/// This is the workhorse for bandwidth modelling: a memory channel, a CXL
/// link direction, or an MC scheduler slot is a server; the service time of
/// one 64 B transfer is `64 / bandwidth`. Requests are started on the
/// earliest-free server at `max(arrival, server_free)`, so queueing delay
/// emerges naturally as load approaches capacity — which is exactly the
/// "vertical part at the right end of each line" in the paper's Figure 3a.
///
/// # Example
///
/// ```
/// use melody_sim::ServerPool;
/// let mut p = ServerPool::new(1);
/// // Two back-to-back requests on one server: second waits for the first.
/// assert_eq!(p.submit(0, 10), (0, 10));
/// assert_eq!(p.submit(0, 10), (10, 20));
/// ```
#[derive(Debug, Clone)]
pub struct ServerPool {
    free_at: BinaryHeap<Reverse<SimTime>>,
    servers: usize,
    busy_accum: u128,
    last_observed: SimTime,
}

impl ServerPool {
    /// Creates a pool with `servers` servers, all free at time 0.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a server pool needs at least one server");
        let mut free_at = BinaryHeap::with_capacity(servers);
        for _ in 0..servers {
            free_at.push(Reverse(0));
        }
        Self {
            free_at,
            servers,
            busy_accum: 0,
            last_observed: 0,
        }
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Submits a request arriving at `arrival` needing `service` time.
    /// Returns `(start, completion)`.
    pub fn submit(&mut self, arrival: SimTime, service: SimTime) -> (SimTime, SimTime) {
        // Equal free times cannot be told apart, so giving the earliest
        // one its new time in place is exactly a pop and a push.
        let mut earliest = self.free_at.peek_mut().expect("pool always has servers");
        let start = earliest.0.max(arrival);
        let done = start + service;
        earliest.0 = done;
        drop(earliest);
        self.busy_accum += service as u128;
        self.last_observed = self.last_observed.max(done);
        if melody_telemetry::metrics_on() {
            melody_telemetry::count("sim.pool.submits", 1);
            melody_telemetry::record_ns("sim.pool.wait_ns", (start - arrival) / 1_000);
        }
        (start, done)
    }

    /// Earliest time any server is free.
    pub fn next_free(&self) -> SimTime {
        self.free_at.peek().map(|Reverse(t)| *t).unwrap_or(0)
    }

    /// Time when all current work drains.
    pub fn drained_at(&self) -> SimTime {
        self.free_at.iter().map(|Reverse(t)| *t).max().unwrap_or(0)
    }

    /// Queueing delay a request arriving at `arrival` would experience
    /// before starting service (0 if a server is free).
    pub fn wait_for(&self, arrival: SimTime) -> SimTime {
        self.next_free().saturating_sub(arrival)
    }

    /// Mean utilization over `[0, horizon]`: total busy time across servers
    /// divided by `servers * horizon`. Values can exceed 1.0 if work has
    /// been scheduled past the horizon.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == 0 {
            return 0.0;
        }
        self.busy_accum as f64 / (self.servers as f64 * horizon as f64)
    }
}

/// Closed-form mean queueing wait for a `k`-server station at utilization
/// `rho` with mean service time `service` (same time unit as the return
/// value): Sakasegawa's M/M/k approximation,
///
/// ```text
/// Wq ≈ service · rho^(√(2(k+1)) − 1) / (k · (1 − rho))
/// ```
///
/// This is the analytical counterpart of [`ServerPool`]: where the event
/// loop discovers queueing delay by simulating arrivals, the `fast`
/// fidelity tier prices it in closed form. `rho` is clamped to `[0, 0.97]`
/// so saturated inputs return a large-but-finite wait instead of
/// diverging (the event loop saturates the same way: backlogs grow with
/// the horizon, not to infinity within one run).
pub fn queue_wait_estimate(rho: f64, service: f64, servers: usize) -> f64 {
    let k = servers.max(1) as f64;
    let rho = rho.clamp(0.0, 0.97);
    if rho <= 0.0 || service <= 0.0 {
        return 0.0;
    }
    service * rho.powf((2.0 * (k + 1.0)).sqrt() - 1.0) / (k * (1.0 - rho))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parallel_servers_overlap() {
        let mut p = ServerPool::new(2);
        assert_eq!(p.submit(0, 10), (0, 10));
        assert_eq!(p.submit(0, 10), (0, 10));
        // Third request queues behind the earliest finisher.
        assert_eq!(p.submit(0, 10), (10, 20));
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut p = ServerPool::new(1);
        p.submit(0, 10);
        // Arrives long after the first finished: no wait.
        assert_eq!(p.submit(100, 5), (100, 105));
    }

    #[test]
    fn wait_for_reports_backlog() {
        let mut p = ServerPool::new(1);
        p.submit(0, 50);
        assert_eq!(p.wait_for(10), 40);
        assert_eq!(p.wait_for(60), 0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = ServerPool::new(0);
    }

    #[test]
    fn utilization_accumulates() {
        let mut p = ServerPool::new(2);
        p.submit(0, 10);
        p.submit(0, 10);
        assert!((p.utilization(10) - 1.0).abs() < 1e-12);
        assert!((p.utilization(20) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn queue_wait_estimate_tracks_simulated_pool() {
        // Poisson-ish arrivals at 70 % load on 4 servers: the closed form
        // must land within a small factor of the event-driven wait.
        let servers = 4usize;
        let service = 100u64;
        let mut rng = crate::SimRng::seed_from(33);
        let mut p = ServerPool::new(servers);
        let mean_ia = service as f64 / (servers as f64 * 0.7);
        let (mut t, mut waited, mut n) = (0u64, 0u64, 0u64);
        for _ in 0..200_000 {
            t += (crate::Dist::Exp { mean: mean_ia }.sample(&mut rng)).max(0.0) as u64;
            let (start, _) = p.submit(t, service);
            waited += start - t;
            n += 1;
        }
        let sim_wait = waited as f64 / n as f64;
        let est = queue_wait_estimate(0.7, service as f64, servers);
        assert!(
            est > sim_wait * 0.3 && est < sim_wait * 3.0,
            "estimate {est:.1} vs simulated {sim_wait:.1}"
        );
    }

    #[test]
    fn queue_wait_estimate_shape() {
        // Monotone in rho, zero at idle, finite at saturation.
        assert_eq!(queue_wait_estimate(0.0, 100.0, 4), 0.0);
        let mut prev = 0.0;
        for i in 1..=9 {
            let w = queue_wait_estimate(i as f64 * 0.1, 100.0, 4);
            assert!(w > prev, "wait must grow with load");
            prev = w;
        }
        let sat = queue_wait_estimate(1.5, 100.0, 4);
        assert!(sat.is_finite() && sat > prev);
        // More servers at the same rho wait less.
        assert!(queue_wait_estimate(0.8, 100.0, 8) < queue_wait_estimate(0.8, 100.0, 2));
    }

    /// Reference pool: takes the earliest free time off the heap and
    /// pushes the request's completion back.
    struct PopPushPool(BinaryHeap<Reverse<SimTime>>);

    impl PopPushPool {
        fn submit(&mut self, arrival: SimTime, service: SimTime) -> (SimTime, SimTime) {
            let Reverse(free) = self.0.pop().unwrap();
            let start = free.max(arrival);
            self.0.push(Reverse(start + service));
            (start, start + service)
        }
    }

    proptest! {
        #[test]
        fn in_place_submit_matches_pop_and_push(
            reqs in proptest::collection::vec((0u64..1000, 0u64..50), 1..200),
            servers in 1usize..8,
        ) {
            let mut p = ServerPool::new(servers);
            let mut reference = PopPushPool((0..servers).map(|_| Reverse(0)).collect());
            for &(arrival, service) in &reqs {
                prop_assert_eq!(p.submit(arrival, service), reference.submit(arrival, service));
                prop_assert_eq!(p.next_free(), reference.0.peek().unwrap().0);
            }
            let mut free: Vec<_> = p.free_at.iter().map(|r| r.0).collect();
            let mut expected: Vec<_> = reference.0.iter().map(|r| r.0).collect();
            free.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(free, expected);
        }

        #[test]
        fn completions_after_arrivals(
            reqs in proptest::collection::vec((0u64..1000, 1u64..50), 1..100),
            servers in 1usize..8,
        ) {
            let mut p = ServerPool::new(servers);
            let mut reqs = reqs;
            reqs.sort_by_key(|r| r.0);
            for &(arrival, service) in &reqs {
                let (start, done) = p.submit(arrival, service);
                prop_assert!(start >= arrival);
                prop_assert_eq!(done, start + service);
            }
        }

        #[test]
        fn single_server_serializes(
            reqs in proptest::collection::vec((0u64..1000, 1u64..50), 1..100),
        ) {
            let mut p = ServerPool::new(1);
            let mut reqs = reqs;
            reqs.sort_by_key(|r| r.0);
            let mut last_done = 0;
            for &(arrival, service) in &reqs {
                let (start, done) = p.submit(arrival, service);
                prop_assert!(start >= last_done, "server double-booked");
                last_done = done;
            }
            // Total busy time equals sum of service times.
            let total: u64 = reqs.iter().map(|r| r.1).sum();
            prop_assert!(p.utilization(total) >= 1.0 - 1e-9);
        }
    }
}
