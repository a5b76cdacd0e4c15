//! Split-phase (nonblocking) communication: request handles and the
//! chunked-pipeline overlap scheduler.
//!
//! The blocking collectives in [`crate::comm`] model BSP programs: every
//! operation synchronises the ranks involved and charges comm + compute.
//! Frontier-era apps (GESTS' pipelined transposes) instead *post*
//! communication, compute while the fabric moves bytes, and pay only the
//! residue at `wait` — max(comm, compute). This module adds that model on
//! the same per-rank virtual clocks:
//!
//! * posting is free: the operation's start is the latest rank clock
//!   at issue (or later, if earlier traffic still holds the injection pipe —
//!   in-flight operations serialise through [`Comm`]'s `net_free` cursor);
//! * `finish = start + cost` with the same α–β cost the blocking twin uses;
//! * [`Request::wait`] charges each rank only `max(0, finish − now)`
//!   — the *remaining* in-flight time — into the per-rank wait attribution,
//!   and books the hidden portion into [`crate::CommStats`]`::hidden` so
//!   `overlap_efficiency()` reports how much communication compute absorbed.
//!   A split-phase collective completed in lockstep charges its one
//!   residue `× ranks`, so it costs O(1).

use crate::comm::{Comm, RankTimes};
use exa_machine::SimTime;
use exa_telemetry::SpanCat;

/// A posted but not yet completed split-phase operation.
///
/// Consumed by [`Request::wait`]; dropping a request without waiting leaks
/// the operation (its cost was reserved on the fabric but never charged to
/// any clock), so completion is part of the contract, as in MPI.
#[derive(Debug)]
#[must_use = "a posted request must be completed with wait()"]
pub struct Request {
    name: &'static str,
    start: SimTime,
    finish: SimTime,
    cost: SimTime,
}

impl Request {
    /// Complete the operation: each rank blocks for the *remaining*
    /// in-flight time only. Returns the completion time.
    pub fn wait(self, comm: &mut Comm) -> SimTime {
        comm.complete_request(&self);
        self.finish
    }
}

impl Comm {
    /// Post a split-phase operation on every rank: reserve the injection
    /// pipe from the latest rank clock (posting itself is free) and return
    /// the handle. All cost/volume accounting that the blocking twin does
    /// at call time happens here; the *charging* of time happens at `wait`.
    fn post(&mut self, name: &'static str, cost: SimTime, bytes: u64) -> Request {
        let start = self.elapsed().max(self.net_free);
        let finish = start + cost;
        self.net_free = finish;
        self.stats.bytes += bytes;
        self.stats.collectives += 1;
        Request {
            name,
            start,
            finish,
            cost,
        }
    }

    /// Complete a posted request: charge each rank the residue of the
    /// in-flight window, attribute the hidden remainder, and record the
    /// operation's span on every rank track.
    pub(crate) fn complete_request(&mut self, req: &Request) {
        let residue = |now: SimTime| {
            if req.finish > now {
                req.finish - now
            } else {
                SimTime::ZERO
            }
        };
        let size = self.size();
        match self.clocks.uniform() {
            // Lockstep: one residue for every rank, charged `× ranks`.
            Some(now) => {
                let (res, n) = (residue(now), size as f64);
                self.stats.wait += res * n;
                self.stats.hidden += (req.cost - res.min(req.cost)) * n;
                self.stats.inflight += req.cost * n;
                self.waits.add_all(res);
                self.clocks = RankTimes::Lockstep(now.max(req.finish));
            }
            None => {
                for r in 0..size {
                    let now = self.clocks.get(r);
                    let res = residue(now);
                    self.waits.add(r, res, size);
                    self.stats.wait += res;
                    self.stats.hidden += req.cost - res.min(req.cost);
                    self.stats.inflight += req.cost;
                    self.clocks.set(r, now.max(req.finish), size);
                }
                if let Some(t) = self.clocks.uniform() {
                    self.clocks = RankTimes::Lockstep(t);
                }
            }
        }
        self.stats.nonblocking += 1;
        if let Some(tel) = self.telemetry.as_ref() {
            if !req.cost.is_zero() {
                tel.collector.complete_on_tracks(
                    &tel.tracks,
                    req.name,
                    SpanCat::Collective,
                    req.start,
                    req.finish,
                );
            }
        }
    }

    /// Split-phase variable-size all-to-all ([`Comm::alltoallv`]).
    pub fn ialltoallv(&mut self, group: usize, peers: usize, bytes: u64) -> Request {
        let names = ["ialltoallv", "ialltoallv_grouped"];
        let (name, cost, vol) = self.alltoallv_parts(names, group, peers, bytes);
        self.post(name, cost, vol)
    }
}

/// The chunked-pipeline overlap scheduler.
///
/// [`Overlap::pipeline`] splits a transpose or exchange into `K` chunks and
/// interleaves chunk `k`'s collective with chunk `k−1`'s compute, so the
/// steady state charges `max(comm, compute)` per stage plus a fill (first
/// produce, first chunk's exposed comm) and a drain (last consume).
pub struct Overlap;

impl Overlap {
    /// Run a `chunks`-deep software pipeline over `comm`:
    ///
    /// * `produce(comm, k)` charges the compute that *creates* chunk `k`'s
    ///   payload (e.g. the FFT stage feeding a transpose);
    /// * `post(comm, k)` posts chunk `k`'s split-phase operation;
    /// * `consume(comm, k)` charges the compute that *uses* chunk `k`'s
    ///   delivered payload (the stage after the transpose).
    ///
    /// Schedule: produce(0), post(0); then for each k ≥ 1 — produce(k),
    /// post(k), wait(k−1), consume(k−1) — so chunk k's bytes fly while
    /// chunk k−1 is produced and consumed. Returns the pipeline's end time.
    pub fn pipeline<P, Q, C>(
        comm: &mut Comm,
        chunks: usize,
        mut produce: P,
        mut post: Q,
        mut consume: C,
    ) -> SimTime
    where
        P: FnMut(&mut Comm, usize),
        Q: FnMut(&mut Comm, usize) -> Request,
        C: FnMut(&mut Comm, usize),
    {
        assert!(chunks >= 1, "pipeline needs at least one chunk");
        produce(comm, 0);
        let mut pending = post(comm, 0);
        for k in 1..chunks {
            produce(comm, k);
            let next = post(comm, k);
            pending.wait(comm);
            consume(comm, k - 1);
            pending = next;
        }
        pending.wait(comm);
        consume(comm, chunks - 1);
        comm.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives as coll;
    use crate::network::Network;
    use exa_machine::MachineModel;

    fn comm(p: usize) -> Comm {
        Comm::new(p, Network::from_machine(&MachineModel::frontier()))
    }

    /// Every rank exchanges `bytes` with each of its `p − 1` peers: the
    /// partner count and one rank's total.
    fn uniform(p: usize, bytes: u64) -> (usize, u64) {
        (p - 1, (p as u64 - 1) * bytes)
    }

    #[test]
    fn immediate_wait_equals_blocking() {
        let mut nb = comm(16);
        let mut bl = comm(16);
        let (peers, vol) = uniform(16, 1 << 20);
        let req = nb.ialltoallv(16, peers, vol);
        let t_nb = req.wait(&mut nb);
        let t_bl = bl.alltoallv(16, peers, vol);
        assert_eq!(t_nb, t_bl);
        assert_eq!(nb.elapsed(), bl.elapsed());
        // Nothing was hidden: the whole cost is residue.
        assert_eq!(nb.stats().hidden, SimTime::ZERO);
        assert_eq!(nb.stats().overlap_efficiency(), 0.0);
        assert_eq!(nb.stats().nonblocking, 1);
    }

    #[test]
    fn full_overlap_hides_the_whole_cost() {
        let mut c = comm(16);
        let (peers, vol) = uniform(16, 1 << 20);
        let req = c.ialltoallv(16, peers, vol);
        let cost = req.cost;
        assert!(cost > SimTime::ZERO);
        c.advance_all(cost * 2.0); // compute longer than the flight time
        let before_wait = c.elapsed();
        req.wait(&mut c);
        assert_eq!(c.elapsed(), before_wait, "wait was free");
        assert_eq!(c.stats().wait, SimTime::ZERO);
        assert_eq!(c.stats().hidden, cost * 16.0);
        assert!((c.stats().overlap_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_charges_only_the_residue() {
        let mut c = comm(8);
        let (peers, vol) = uniform(8, 8 << 20);
        let req = c.ialltoallv(8, peers, vol);
        let cost = req.cost;
        let compute = cost * 0.25;
        c.advance_all(compute);
        req.wait(&mut c);
        let residue = cost - compute;
        assert!((c.elapsed() - cost).secs().abs() < 1e-15);
        assert!((c.waits.get(0) - residue).secs().abs() < 1e-15);
        let eff = c.stats().overlap_efficiency();
        assert!((eff - 0.25).abs() < 1e-9, "eff {eff}");
    }

    #[test]
    fn inflight_operations_serialise_on_the_fabric() {
        let mut c = comm(8);
        let (peers, vol) = uniform(8, 1 << 18);
        let r1 = c.ialltoallv(8, peers, vol);
        let r2 = c.ialltoallv(8, peers, vol);
        assert_eq!(r2.start, r1.finish, "one injection pipe");
        r1.wait(&mut c);
        let done = r2.wait(&mut c);
        assert_eq!(done, c.elapsed());
    }

    #[test]
    fn blocking_collective_stalls_behind_inflight_traffic() {
        let mut c = comm(8);
        let (peers, vol) = uniform(8, 1 << 20);
        let req = c.ialltoallv(8, peers, vol);
        let t_allreduce = c.allreduce(8); // must queue behind the alltoallv
        assert!(t_allreduce > req.finish);
        assert!(c.stats().wait > SimTime::ZERO);
        let cost = req.cost;
        req.wait(&mut c); // residue is zero: the allreduce already out-waited it
        assert!((c.stats().hidden - cost * 8.0).secs().abs() < 1e-15);
    }

    #[test]
    fn skewed_ranks_each_pay_their_own_residue() {
        let mut c = comm(4);
        let (peers, vol) = uniform(4, 1 << 20);
        let req = c.ialltoallv(4, peers, vol);
        let cost = req.cost;
        c.advance(1, cost * 0.5);
        req.wait(&mut c);
        assert_eq!(c.waits.get(0), cost);
        assert_eq!(c.waits.get(1), cost * 0.5);
        assert_eq!(c.elapsed(), cost);
        assert!(
            matches!(c.clocks, RankTimes::Lockstep(_)),
            "all ranks end at finish"
        );
        assert_eq!(c.stats().hidden, cost * 0.5);
    }

    #[test]
    fn pipeline_beats_serial_and_respects_the_floor() {
        let p = 8;
        let chunks = 4;
        let work = SimTime::from_micros(400.0);
        let (peers, vol) = uniform(p, 4 << 20);

        let mut serial = comm(p);
        for _ in 0..chunks {
            serial.advance_all(work);
            serial.alltoallv(p, peers, vol);
        }
        let t_serial = serial.elapsed();

        let mut over = comm(p);
        let t_over = Overlap::pipeline(
            &mut over,
            chunks,
            |c, _| c.advance_all(work),
            |c, _| c.ialltoallv(p, peers, vol),
            |_, _| {},
        );
        assert!(t_over < t_serial, "overlap {t_over} vs serial {t_serial}");

        // No free lunch: the pipeline can't beat comm-only or compute-only.
        let comm_only = coll::alltoallv_time(&serial.net, peers, vol) * chunks as f64;
        let compute_only = work * chunks as f64;
        assert!(t_over >= comm_only.max(compute_only));
        let eff = over.stats().overlap_efficiency();
        assert!(eff > 0.0 && eff <= 1.0, "eff {eff}");
    }

    #[test]
    fn single_chunk_pipeline_degenerates_to_blocking_order() {
        let work = SimTime::from_micros(50.0);
        let (peers, vol) = uniform(4, 1 << 16);
        let mut c = comm(4);
        let t = Overlap::pipeline(
            &mut c,
            1,
            |c, _| c.advance_all(work),
            |c, _| c.ialltoallv(4, peers, vol),
            |c, _| c.advance_all(work),
        );
        let mut b = comm(4);
        b.advance_all(work);
        b.alltoallv(4, peers, vol);
        b.advance_all(work);
        assert_eq!(t, b.elapsed());
    }

    #[test]
    fn overlap_spans_land_on_every_rank_track() {
        let collector = exa_telemetry::TelemetryCollector::shared();
        let mut c = comm(4);
        c.attach_telemetry(&collector, "nb");
        let (peers, vol) = uniform(4, 1 << 16);
        let req = c.ialltoallv(4, peers, vol);
        c.advance_all(SimTime::from_micros(200.0));
        req.wait(&mut c);
        c.absorb_telemetry();
        let snap = collector.snapshot();
        assert_eq!(snap.tracks.len(), 4);
        for t in &snap.tracks {
            assert_eq!(t.spans, 1, "track {}", t.name);
        }
        assert_eq!(snap.counter("mpi.nonblocking"), 1);
        assert!(snap.gauges["mpi.overlap_efficiency"] > 0.0);
        let trace = collector.chrome_trace();
        exa_telemetry::validate_chrome_trace(&trace).expect("valid chrome trace");
    }
}
