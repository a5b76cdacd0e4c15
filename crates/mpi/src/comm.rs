//! Communicators: per-rank virtual clocks and the α–β-priced collectives.

use crate::collectives as coll;
use crate::network::Network;
use exa_machine::SimTime;
use exa_telemetry::{
    MetricSource, MetricsRegistry, SpanCat, TelemetryCollector, TrackId, TrackKind,
};
use serde::Serialize;
use std::fmt::Write;
use std::sync::Arc;

/// Aggregate communication statistics for a communicator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct CommStats {
    /// Point-to-point messages sent. The communicator prices collectives
    /// only, so this stays 0; the field keeps the recorded metric schema.
    pub messages: u64,
    /// Total payload bytes across all operations (logical, per-rank sums).
    pub bytes: u64,
    /// Collective operations executed.
    pub collectives: u64,
    /// Total time ranks spent blocked waiting for peers to arrive at
    /// communication operations (summed over ranks) — the imbalance the
    /// critical-path analysis attributes.
    pub wait: SimTime,
    /// Nonblocking (split-phase) operations completed via `wait`.
    pub nonblocking: u64,
    /// Total in-flight time of nonblocking operations (cost × participating
    /// ranks, like `wait` a per-rank sum). A split-phase collective
    /// completed in lockstep (every rank on one clock) adds `value × ranks`
    /// to `wait`, `hidden` and `inflight`; otherwise each rank adds its own.
    pub inflight: SimTime,
    /// The portion of `inflight` that ranks spent computing instead of
    /// blocked — the communication the overlap engine actually hid.
    pub hidden: SimTime,
}

impl CommStats {
    /// Fraction of nonblocking communication time hidden behind compute
    /// (hidden / in-flight), in `[0, 1]`. Zero when no split-phase
    /// operation completed.
    pub fn overlap_efficiency(&self) -> f64 {
        if self.inflight.is_zero() {
            0.0
        } else {
            (self.hidden / self.inflight).clamp(0.0, 1.0)
        }
    }
}

impl MetricSource for CommStats {
    fn export_metrics(&self, m: &mut MetricsRegistry) {
        m.counter_add("mpi.messages", self.messages);
        m.counter_add("mpi.bytes", self.bytes);
        m.counter_add("mpi.collectives", self.collectives);
        m.time_add("mpi.wait", self.wait);
        m.counter_add("mpi.nonblocking", self.nonblocking);
        m.time_add("mpi.inflight", self.inflight);
        m.time_add("mpi.hidden", self.hidden);
    }
}

/// Seeded multiplicative network jitter: each operation's cost is scaled
/// by `1 + amp·u`, `u ∈ [0, 1)` the next draw of a hash sequence — the
/// scenario engine's model of a noisy shared fabric. No wall-clock
/// randomness: same seed, same operation order, same costs.
#[derive(Debug, Clone, Copy)]
struct Jitter {
    amp: f64,
    seed: u64,
    seq: u64,
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A communicator's attachment to a shared [`TelemetryCollector`]: one
/// comm-rank track per rank.
#[derive(Debug)]
pub(crate) struct CommTelemetry {
    pub(crate) collector: Arc<TelemetryCollector>,
    pub(crate) tracks: Vec<TrackId>,
}

/// One [`SimTime`] per rank, stored as a single value while every rank
/// holds the same one ("lockstep") and per rank only once an operation
/// charges ranks differently. A costed run never leaves lockstep, so its
/// collectives cost O(1) whatever the rank count.
#[derive(Debug)]
pub(crate) enum RankTimes {
    /// Every rank holds this value.
    Lockstep(SimTime),
    /// Rank `r` holds entry `r`.
    PerRank(Vec<SimTime>),
}

impl RankTimes {
    pub(crate) fn get(&self, rank: usize) -> SimTime {
        match self {
            RankTimes::Lockstep(t) => *t,
            RankTimes::PerRank(v) => v[rank],
        }
    }

    pub(crate) fn max(&self) -> SimTime {
        match self {
            RankTimes::Lockstep(t) => *t,
            RankTimes::PerRank(v) => v.iter().copied().max().unwrap_or(SimTime::ZERO),
        }
    }

    /// The value every rank holds, if they all hold the same one.
    pub(crate) fn uniform(&self) -> Option<SimTime> {
        match self {
            RankTimes::Lockstep(t) => Some(*t),
            RankTimes::PerRank(v) => v.iter().all(|&x| x == v[0]).then(|| v[0]),
        }
    }

    /// The per-rank values of `size` ranks, leaving lockstep if needed.
    pub(crate) fn per_rank(&mut self, size: usize) -> &mut [SimTime] {
        if let RankTimes::Lockstep(t) = *self {
            *self = RankTimes::PerRank(vec![t; size]);
        }
        match self {
            RankTimes::PerRank(v) => v,
            RankTimes::Lockstep(_) => unreachable!("just left lockstep"),
        }
    }

    /// Add `dt` to one rank (adding zero keeps lockstep).
    pub(crate) fn add(&mut self, rank: usize, dt: SimTime, size: usize) {
        if !dt.is_zero() {
            self.per_rank(size)[rank] += dt;
        }
    }

    /// Add `dt` to every rank.
    pub(crate) fn add_all(&mut self, dt: SimTime) {
        match self {
            RankTimes::Lockstep(t) => *t += dt,
            RankTimes::PerRank(v) => v.iter_mut().for_each(|x| *x += dt),
        }
    }

    /// Set one rank's value (setting the lockstep value keeps lockstep).
    pub(crate) fn set(&mut self, rank: usize, t: SimTime, size: usize) {
        if self.get(rank) != t {
            self.per_rank(size)[rank] = t;
        }
    }
}

/// A simulated communicator over `size` ranks.
///
/// Every rank owns a virtual clock. Local compute is charged with
/// [`Comm::advance`]; communication operations synchronise and advance the
/// clocks of the ranks involved using the α–β formulas in
/// [`crate::collectives`]. [`Comm::allreduce_sum_f64`] also performs the
/// real reduction on host memory, so numerical code built on it stays
/// exactly testable.
///
/// Clocks and waits are `RankTimes`: one value while the ranks are in
/// lockstep, so balanced phases, blocking collectives and split-phase
/// operations on all ranks cost O(1); a per-rank vector only after
/// [`Comm::advance`] or skew charges ranks differently. Every
/// blocking collective returns the clocks to lockstep.
#[derive(Debug)]
pub struct Comm {
    pub(crate) net: Network,
    size: usize,
    pub(crate) clocks: RankTimes,
    pub(crate) stats: CommStats,
    pub(crate) waits: RankTimes,
    pub(crate) telemetry: Option<CommTelemetry>,
    /// The time the fabric finishes its last accepted operation: in-flight
    /// nonblocking traffic serialises here, and later operations cannot
    /// start before it (one injection pipe per communicator).
    pub(crate) net_free: SimTime,
    /// Optional seeded network jitter on blocking operation costs.
    jitter: Option<Jitter>,
    /// When set, every blocking collective records `straggler-wait/<op>`
    /// spans ([`SpanCat::Fault`]) on the ranks that arrived early. Off by
    /// default so clean-run traces are unchanged.
    straggler_spans: bool,
}

impl Comm {
    /// A communicator of `size` ranks over `net`.
    pub fn new(size: usize, net: Network) -> Self {
        assert!(size >= 1, "communicator needs at least one rank");
        Comm {
            net,
            size,
            clocks: RankTimes::Lockstep(SimTime::ZERO),
            stats: CommStats::default(),
            waits: RankTimes::Lockstep(SimTime::ZERO),
            telemetry: None,
            net_free: SimTime::ZERO,
            jitter: None,
            straggler_spans: false,
        }
    }

    /// Enable deterministic network jitter: every blocking collective cost
    /// is scaled by `1 + amp·u`, `u ∈ [0, 1)` drawn
    /// from a seeded hash sequence in operation order. `amp = 0` disables.
    /// (Nonblocking operations are shaped by [`Network::with_contention`]
    /// instead: their posted costs come straight from the α–β models.)
    pub fn set_jitter(&mut self, amp: f64, seed: u64) {
        assert!(
            (0.0..1.0).contains(&amp),
            "jitter amplitude must be in [0, 1)"
        );
        self.jitter = (amp > 0.0).then_some(Jitter { amp, seed, seq: 0 });
    }

    /// Toggle `straggler-wait/<op>` span recording on blocking collectives
    /// (needs attached telemetry). Off by default.
    pub fn record_straggler_spans(&mut self, on: bool) {
        self.straggler_spans = on;
    }

    /// Next jittered cost (identity when jitter is off).
    fn perturb(&mut self, cost: SimTime) -> SimTime {
        match self.jitter.as_mut() {
            Some(j) => {
                let u = unit(splitmix64(j.seed ^ j.seq.wrapping_mul(0x9e3779b97f4a7c15)));
                j.seq += 1;
                cost * (1.0 + j.amp * u)
            }
            None => cost,
        }
    }

    /// Attach a shared telemetry collector: every rank gets a comm-rank
    /// track named `<name>/rank<r>`, and every collective is recorded as a
    /// span on each rank's track.
    pub fn attach_telemetry(&mut self, collector: &Arc<TelemetryCollector>, name: &str) {
        let mut track = String::new();
        let tracks = (0..self.size())
            .map(|r| {
                track.clear();
                write!(track, "{name}/rank{r}").expect("a String takes any write");
                collector.track(&track, TrackKind::CommRank)
            })
            .collect();
        self.telemetry = Some(CommTelemetry {
            collector: Arc::clone(collector),
            tracks,
        });
    }

    /// Pour this communicator's [`CommStats`] into the attached collector's
    /// metrics, plus the per-rank wait attribution as gauges
    /// (`mpi.wait_max_s` — the straggler signal — and `mpi.wait_mean_s`).
    /// Counters add, so call it once at the end of an instrumented run.
    pub fn absorb_telemetry(&self) {
        if let Some(t) = self.telemetry.as_ref() {
            t.collector.absorb(&self.stats);
            let max = self.max_wait().secs();
            let mean = self.stats.wait.secs() / self.size() as f64;
            let overlap = (!self.stats.inflight.is_zero()).then(|| self.stats.overlap_efficiency());
            t.collector.metrics(|m| {
                m.gauge_max("mpi.wait_max_s", max);
                m.gauge_max("mpi.wait_mean_s", mean);
                if let Some(eff) = overlap {
                    m.gauge_max("mpi.overlap_efficiency", eff);
                }
            });
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Statistics so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Current virtual time of `rank`.
    pub fn now(&self, rank: usize) -> SimTime {
        assert!(rank < self.size, "rank {rank} out of {}", self.size);
        self.clocks.get(rank)
    }

    /// Latest clock across ranks — the job's wall time.
    pub fn elapsed(&self) -> SimTime {
        self.clocks.max()
    }

    /// Charge local (compute) time to one rank.
    pub fn advance(&mut self, rank: usize, dt: SimTime) {
        assert!(rank < self.size, "rank {rank} out of {}", self.size);
        self.clocks.add(rank, dt, self.size);
    }

    /// Charge the same local time to every rank (perfectly balanced phase).
    pub fn advance_all(&mut self, dt: SimTime) {
        self.clocks.add_all(dt);
    }

    /// The worst per-rank wait — the straggler's victims.
    pub fn max_wait(&self) -> SimTime {
        self.waits.max()
    }

    /// Bring every rank to the latest clock, charging each its wait, and
    /// return to lockstep.
    fn sync_all(&mut self) -> SimTime {
        let t = self.elapsed();
        if let RankTimes::PerRank(clocks) = &self.clocks {
            let mut total = SimTime::ZERO;
            for (r, &c) in clocks.iter().enumerate() {
                let dt = t - c;
                self.waits.add(r, dt, self.size);
                total += dt;
            }
            self.stats.wait += total;
            self.clocks = RankTimes::Lockstep(t);
        }
        t
    }

    fn collective(&mut self, name: &'static str, cost: SimTime, bytes: u64) -> SimTime {
        let cost = self.perturb(cost);
        // Straggler attribution: the ranks already at the collective wait
        // for the last arrival — record that wait per early rank before the
        // clocks are synchronised away. Ranks in lockstep never wait.
        if self.straggler_spans {
            if let (Some(tel), RankTimes::PerRank(clocks)) = (self.telemetry.as_ref(), &self.clocks)
            {
                let last = self.elapsed();
                for (r, &c) in clocks.iter().enumerate() {
                    if c < last {
                        tel.collector.complete(
                            tel.tracks[r],
                            format!("straggler-wait/{name}"),
                            SpanCat::Fault,
                            c,
                            last,
                        );
                    }
                }
            }
        }
        let arrived = self.sync_all();
        // In-flight nonblocking traffic holds the injection pipe: a blocking
        // operation posted behind it stalls (and the stall is a wait).
        let start = arrived.max(self.net_free);
        if start > arrived {
            let dt = start - arrived;
            self.waits.add_all(dt);
            self.stats.wait += dt * self.size as f64;
        }
        let t = start + cost;
        self.clocks = RankTimes::Lockstep(t);
        self.stats.collectives += 1;
        self.stats.bytes += bytes;
        if let Some(tel) = self.telemetry.as_ref() {
            // Every rank sees the operation over the same (post-skew)
            // interval, so per-track spans stay non-overlapping.
            tel.collector
                .complete_on_tracks(&tel.tracks, name, SpanCat::Collective, start, t);
        }
        self.net_free = t;
        t
    }

    /// Cost-only allreduce of `bytes` per rank.
    pub fn allreduce(&mut self, bytes: u64) -> SimTime {
        let cost = coll::allreduce_time(&self.net, self.size(), bytes);
        self.collective("allreduce", cost, bytes)
    }

    /// Cost-only broadcast.
    pub fn bcast(&mut self, bytes: u64) -> SimTime {
        let cost = coll::bcast_time(&self.net, self.size(), bytes);
        self.collective("bcast", cost, bytes)
    }

    /// Cost-only all-to-all with variable per-pair payloads, running
    /// concurrently inside disjoint groups of `group` ranks: the whole
    /// communicator (`group == size`), or the row/column communicators of a
    /// 2-D pencil grid. One rank exchanges `bytes` in total with `peers`
    /// remote partners (exclude the resident share). Every rank runs the
    /// same schedule and all groups proceed in parallel, so the charge is
    /// one rank's sum of rounds and the volume is `bytes × size`.
    pub fn alltoallv(&mut self, group: usize, peers: usize, bytes: u64) -> SimTime {
        let names = ["alltoallv", "alltoallv_grouped"];
        let (name, cost, vol) = self.alltoallv_parts(names, group, peers, bytes);
        self.collective(name, cost, vol)
    }

    /// Span name (`names[0]` for the whole communicator, `names[1]` for
    /// groups), cost and volume of [`Comm::alltoallv`] and its split-phase
    /// twin.
    pub(crate) fn alltoallv_parts(
        &self,
        names: [&'static str; 2],
        group: usize,
        peers: usize,
        bytes: u64,
    ) -> (&'static str, SimTime, u64) {
        assert!(group >= 1 && group <= self.size());
        assert!(peers < group, "more peers than remote group members");
        let cost = coll::alltoallv_time(&self.net, peers, bytes);
        let vol = bytes * self.size() as u64;
        (names[usize::from(group < self.size())], cost, vol)
    }

    // ---- data-carrying collective ---------------------------------------

    /// Elementwise sum-allreduce across per-rank vectors (all must share a
    /// length). After the call every rank holds the sum. Charges the α–β
    /// allreduce cost for the payload.
    pub fn allreduce_sum_f64(&mut self, per_rank: &mut [Vec<f64>]) {
        assert_eq!(per_rank.len(), self.size());
        let n = per_rank[0].len();
        assert!(per_rank.iter().all(|v| v.len() == n), "ragged allreduce");
        let mut acc = vec![0.0f64; n];
        for v in per_rank.iter() {
            for (a, x) in acc.iter_mut().zip(v) {
                *a += *x;
            }
        }
        for v in per_rank.iter_mut() {
            v.copy_from_slice(&acc);
        }
        self.allreduce((n * 8) as u64);
    }

    /// Reset all clocks and statistics (between experiment repetitions).
    pub fn reset(&mut self) {
        self.clocks = RankTimes::Lockstep(SimTime::ZERO);
        self.waits = RankTimes::Lockstep(SimTime::ZERO);
        self.stats = CommStats::default();
        self.net_free = SimTime::ZERO;
        // Restart the jitter draw sequence so repetitions replay the same
        // perturbations.
        if let Some(j) = self.jitter.as_mut() {
            j.seq = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_machine::MachineModel;

    fn comm(p: usize) -> Comm {
        Comm::new(p, Network::from_machine(&MachineModel::frontier()))
    }

    #[test]
    fn collectives_synchronise_stragglers() {
        let mut c = comm(8);
        c.advance(3, SimTime::from_micros(5e3)); // straggler
        c.allreduce(1 << 10);
        let t = c.now(0);
        assert!(t > SimTime::from_micros(5e3));
        for r in 0..8 {
            assert_eq!(c.now(r), t, "rank {r} out of sync");
        }
    }

    #[test]
    fn allreduce_sum_produces_global_sum_everywhere() {
        let mut c = comm(4);
        let mut data: Vec<Vec<f64>> = (0..4).map(|r| vec![r as f64, 10.0 * r as f64]).collect();
        c.allreduce_sum_f64(&mut data);
        for v in &data {
            assert_eq!(v, &vec![6.0, 60.0]);
        }
    }

    #[test]
    fn grouped_alltoall_cheaper_than_global() {
        let mut a = comm(64);
        let mut b = comm(64);
        a.alltoallv(64, 63, 63 << 16);
        b.alltoallv(8, 7, 7 << 16);
        assert!(b.elapsed() < a.elapsed());
    }

    #[test]
    fn gpu_aware_comm_is_faster() {
        let net = Network::from_machine(&MachineModel::frontier());
        let mut aware = Comm::new(16, net.clone().with_gpu_aware(true));
        let mut staged = Comm::new(16, net.with_gpu_aware(false));
        aware.alltoallv(16, 15, 15 << 20);
        staged.alltoallv(16, 15, 15 << 20);
        assert!(staged.elapsed() > aware.elapsed() * 1.5);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = comm(4);
        c.allreduce(1 << 20);
        c.reset();
        assert_eq!(c.elapsed(), SimTime::ZERO);
        assert_eq!(c.stats().collectives, 0);
    }

    #[test]
    fn telemetry_records_per_rank_spans_and_matching_counters() {
        let collector = TelemetryCollector::shared();
        let mut c = comm(4);
        c.attach_telemetry(&collector, "world");
        c.advance(1, SimTime::from_micros(50.0)); // skew one rank
        c.allreduce(1 << 12);
        c.bcast(1 << 10);
        c.absorb_telemetry();

        let snap = collector.snapshot();
        let stats = c.stats();
        assert_eq!(snap.counter("mpi.collectives"), stats.collectives);
        assert_eq!(snap.counter("mpi.bytes"), stats.bytes);
        // Collectives land on every rank track.
        assert_eq!(snap.tracks.len(), 4);
        for t in &snap.tracks {
            assert_eq!(t.spans, 2, "track {}", t.name);
        }
        // Per-track spans must be well-formed Chrome trace material.
        let trace = collector.chrome_trace();
        exa_telemetry::validate_chrome_trace(&trace).expect("valid chrome trace");
    }

    #[test]
    fn wait_attribution_charges_the_punctual_ranks() {
        let collector = TelemetryCollector::shared();
        let mut c = comm(4);
        c.attach_telemetry(&collector, "world");
        let skew = SimTime::from_micros(5e3);
        c.advance(3, skew); // rank 3 is the straggler
        c.allreduce(1 << 10);
        // The straggler never waited; everyone else waited out the skew.
        assert_eq!(c.waits.get(3), SimTime::ZERO);
        for r in 0..3 {
            assert_eq!(c.waits.get(r), skew, "rank {r}");
        }
        assert_eq!(c.max_wait(), skew);
        assert_eq!(c.stats().wait, skew * 3.0);

        c.absorb_telemetry();
        let snap = collector.snapshot();
        assert!((snap.times_s["mpi.wait"] - c.stats().wait.secs()).abs() < 1e-12);
        assert_eq!(snap.gauges["mpi.wait_max_s"], c.max_wait().secs());
        assert!(snap.gauges["mpi.wait_mean_s"] > 0.0);

        c.reset();
        assert_eq!(c.max_wait(), SimTime::ZERO);
        assert_eq!(c.stats().wait, SimTime::ZERO);
    }

    #[test]
    fn jitter_inflates_costs_deterministically() {
        let run = |seed: u64| {
            let mut c = comm(8);
            c.set_jitter(0.3, seed);
            for _ in 0..16 {
                c.allreduce(1 << 12);
            }
            c.elapsed()
        };
        let calm = {
            let mut c = comm(8);
            for _ in 0..16 {
                c.allreduce(1 << 12);
            }
            c.elapsed()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed must replay the same jitter");
        assert_ne!(a, run(43), "different seed, different noise");
        assert!(a > calm, "jitter can only slow the fabric");
        assert!(
            a < calm * 1.3 + SimTime::from_secs(1e-12),
            "bounded by the amplitude"
        );
        // reset() restarts the draw sequence.
        let mut c = comm(8);
        c.set_jitter(0.3, 42);
        for _ in 0..16 {
            c.allreduce(1 << 12);
        }
        let first = c.elapsed();
        c.reset();
        for _ in 0..16 {
            c.allreduce(1 << 12);
        }
        assert_eq!(c.elapsed(), first);
    }

    #[test]
    fn straggler_wait_spans_record_only_when_enabled() {
        let run = |enabled: bool| {
            let collector = TelemetryCollector::shared();
            let mut c = comm(4);
            c.attach_telemetry(&collector, "w");
            c.record_straggler_spans(enabled);
            c.advance(2, SimTime::from_micros(3e3)); // straggler
            c.allreduce(1 << 10);
            c.absorb_telemetry();
            collector.snapshot()
        };
        let off = run(false);
        assert!(
            off.tracks.iter().all(|t| t.spans == 1),
            "clean traces unchanged"
        );
        let on = run(true);
        // Ranks 0, 1, 3 waited on rank 2: one extra fault-cat span each.
        for t in &on.tracks {
            let expect = if t.name == "w/rank2" { 1 } else { 2 };
            assert_eq!(t.spans, expect, "track {}", t.name);
        }
    }
}
