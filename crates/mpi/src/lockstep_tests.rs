//! Lockstep clock storage against a per-rank reference.
//!
//! [`Reference`] keeps one clock and one wait per rank and charges them
//! with plain loops, the way a communicator did before lockstep storage.
//! Random operation sequences run through both; clocks, waits, `elapsed`,
//! `max_wait`, the statistics and the recorded span count must agree
//! bitwise. The one intended difference is the split-phase rule: a
//! collective completed while every rank holds one clock adds
//! `value × ranks` to `wait`, `hidden` and `inflight`, which the reference
//! applies too.

use crate::collectives as coll;
use crate::comm::{splitmix64, unit, Comm, CommStats, RankTimes};
use crate::network::Network;
use crate::nonblocking::Overlap;
use crate::sched::RankScheduler;
use exa_machine::{MachineModel, SimTime};
use exa_telemetry::{SpanCat, TelemetryCollector};
use proptest::prelude::*;

const RANKS: usize = 6;

/// One step of a random sequence.
#[derive(Debug, Clone, Copy)]
enum Op {
    Advance(usize, SimTime),
    AdvanceAll(SimTime),
    /// One blocking collective of `bytes`.
    Blocking(Coll, u64),
    /// `ialltoallv`, every rank computes `dt`, rank `r` computes `extra`
    /// more, then the wait.
    Ialltoallv(u64, SimTime, usize, SimTime),
    /// `Overlap::pipeline` of `ialltoallv` over `chunks` chunks.
    Pipeline(usize, SimTime, SimTime, u64),
    Jitter(f64, u64),
    StragglerSpans(bool),
    /// A scheduler phase where rank `r` records a `dt × (1 + r % 3)` span,
    /// rank `slow` stretched by `skew`.
    SkewPhase(SimTime, usize, f64),
    Reset,
}

/// The blocking collectives of [`Comm`].
#[derive(Debug, Clone, Copy)]
enum Coll {
    Allreduce,
    AllreduceSum,
    Bcast,
    Alltoallv,
}

const COLLS: [Coll; 4] = [
    Coll::Allreduce,
    Coll::AllreduceSum,
    Coll::Bcast,
    Coll::Alltoallv,
];

/// Elements per rank of the data-carrying allreduce drawn with `bytes`.
fn sum_len(bytes: u64) -> usize {
    1 + (bytes % 64) as usize
}

fn us(x: f64) -> SimTime {
    SimTime::from_micros(x)
}

/// Decode one drawn tuple. Lockstep-keeping operations are drawn more
/// often than diverging ones, so sequences spend time in both regimes.
fn op((kind, a, b, x, y): (u8, usize, usize, f64, u64)) -> Op {
    let (a, b) = (a % RANKS, b % RANKS);
    let bytes = 1 + y % (1 << 20);
    match kind {
        0 => Op::Advance(a, us(x)),
        1 | 2 => Op::AdvanceAll(us(x)),
        3..=7 => Op::Blocking(COLLS[(a + b) % COLLS.len()], bytes),
        8 | 9 => Op::Ialltoallv(bytes, us(x), b, us(x * (y % 3) as f64)),
        10 | 11 => Op::Pipeline(1 + a % 4, us(x), us(x / 2.0), bytes),
        12 => Op::Jitter(if y % 3 == 0 { 0.0 } else { 0.3 }, y),
        13 => Op::StragglerSpans(y % 2 == 0),
        14 => Op::SkewPhase(us(x), a, 1.0 + (y % 4) as f64 * 0.5),
        _ => Op::Reset,
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..16, 0usize..64, 0usize..64, 0.0f64..50.0, 0u64..1 << 40),
        1..60,
    )
    .prop_map(|v| v.into_iter().map(op).collect())
}

fn net() -> Network {
    Network::from_machine(&MachineModel::frontier())
}

fn pair_bytes(bytes: u64) -> Vec<u64> {
    (1..RANKS as u64).map(|k| bytes / k).collect()
}

/// A posted split-phase operation of the reference.
struct Posted {
    finish: SimTime,
    cost: SimTime,
}

/// Cost and volume of one blocking collective, from the α–β formulas.
fn priced(net: &Network, coll: Coll, bytes: u64) -> (SimTime, u64) {
    let r = RANKS as u64;
    match coll {
        Coll::Allreduce => (coll::allreduce_time(net, RANKS, bytes), bytes),
        Coll::AllreduceSum => {
            let b = (sum_len(bytes) * 8) as u64;
            (coll::allreduce_time(net, RANKS, b), b)
        }
        Coll::Bcast => (coll::bcast_time(net, RANKS, bytes), bytes),
        Coll::Alltoallv => {
            let pairs = pair_bytes(bytes);
            let total = pairs.iter().sum::<u64>();
            (coll::alltoallv_time(net, pairs.len(), total), total * r)
        }
    }
}

/// Per-rank clocks and waits, charged rank by rank.
struct Reference {
    net: Network,
    clocks: Vec<SimTime>,
    waits: Vec<SimTime>,
    stats: CommStats,
    net_free: SimTime,
    jitter: Option<(f64, u64, u64)>,
    straggler_spans: bool,
    spans: u64,
}

impl Reference {
    fn new() -> Self {
        Reference {
            net: net(),
            clocks: vec![SimTime::ZERO; RANKS],
            waits: vec![SimTime::ZERO; RANKS],
            stats: CommStats::default(),
            net_free: SimTime::ZERO,
            jitter: None,
            straggler_spans: false,
            spans: 0,
        }
    }

    fn elapsed(&self) -> SimTime {
        self.clocks.iter().copied().max().unwrap()
    }

    fn perturb(&mut self, cost: SimTime) -> SimTime {
        match self.jitter.as_mut() {
            Some((amp, seed, seq)) => {
                let u = unit(splitmix64(*seed ^ seq.wrapping_mul(0x9e3779b97f4a7c15)));
                *seq += 1;
                cost * (1.0 + *amp * u)
            }
            None => cost,
        }
    }

    fn collective(&mut self, cost: SimTime, bytes: u64) {
        let cost = self.perturb(cost);
        let last = self.elapsed();
        if self.straggler_spans {
            self.spans += self.clocks.iter().filter(|&&c| c < last).count() as u64;
        }
        let mut total = SimTime::ZERO;
        for (c, w) in self.clocks.iter_mut().zip(self.waits.iter_mut()) {
            let dt = last - *c;
            *w += dt;
            total += dt;
            *c = last;
        }
        self.stats.wait += total;
        let start = last.max(self.net_free);
        if start > last {
            let dt = start - last;
            for (c, w) in self.clocks.iter_mut().zip(self.waits.iter_mut()) {
                *w += dt;
                *c = start;
            }
            self.stats.wait += dt * RANKS as f64;
        }
        let t = start + cost;
        self.clocks.iter_mut().for_each(|c| *c = (*c).max(t));
        self.stats.collectives += 1;
        self.stats.bytes += bytes;
        self.spans += RANKS as u64;
        self.net_free = t;
    }

    fn post(&mut self, cost: SimTime, bytes: u64) -> Posted {
        let start = self.elapsed().max(self.net_free);
        let finish = start + cost;
        self.net_free = finish;
        self.stats.bytes += bytes;
        self.stats.collectives += 1;
        Posted { finish, cost }
    }

    fn complete(&mut self, req: Posted) {
        let residue = |now: SimTime| {
            if req.finish > now {
                req.finish - now
            } else {
                SimTime::ZERO
            }
        };
        let first = self.clocks[0];
        if self.clocks.iter().all(|&c| c == first) {
            let n = RANKS as f64;
            let res = residue(first);
            self.stats.wait += res * n;
            self.stats.hidden += (req.cost - res.min(req.cost)) * n;
            self.stats.inflight += req.cost * n;
            for r in 0..RANKS {
                self.waits[r] += res;
                self.clocks[r] = first.max(req.finish);
            }
        } else {
            for r in 0..RANKS {
                let now = self.clocks[r];
                let res = residue(now);
                self.waits[r] += res;
                self.stats.wait += res;
                self.stats.hidden += req.cost - res.min(req.cost);
                self.stats.inflight += req.cost;
                self.clocks[r] = now.max(req.finish);
            }
        }
        self.stats.nonblocking += 1;
        if !req.cost.is_zero() {
            self.spans += RANKS as u64;
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Advance(r, dt) => self.clocks[r] += dt,
            Op::AdvanceAll(dt) => self.clocks.iter_mut().for_each(|c| *c += dt),
            Op::Blocking(coll, bytes) => {
                let (cost, vol) = priced(&self.net, coll, bytes);
                self.collective(cost, vol);
            }
            Op::Ialltoallv(bytes, dt, r, extra) => {
                let (cost, vol) = priced(&self.net, Coll::Alltoallv, bytes);
                let req = self.post(cost, vol);
                self.clocks.iter_mut().for_each(|c| *c += dt);
                self.clocks[r] += extra;
                self.complete(req);
            }
            Op::Pipeline(chunks, produce, consume, bytes) => {
                let pairs = pair_bytes(bytes);
                let m = pairs.len();
                let post = |me: &mut Self, j: usize| {
                    let chunk = &pairs[j * m / chunks..(j + 1) * m / chunks];
                    let total = chunk.iter().sum::<u64>();
                    let cost = coll::alltoallv_time(&me.net, chunk.len(), total);
                    me.post(cost, total * RANKS as u64)
                };
                let charge =
                    |me: &mut Self, dt: SimTime| me.clocks.iter_mut().for_each(|c| *c += dt);
                charge(self, produce);
                let mut pending = post(self, 0);
                for k in 1..chunks {
                    charge(self, produce);
                    let next = post(self, k);
                    self.complete(pending);
                    charge(self, consume);
                    pending = next;
                }
                self.complete(pending);
                charge(self, consume);
            }
            Op::Jitter(amp, seed) => self.jitter = (amp > 0.0).then_some((amp, seed, 0)),
            Op::StragglerSpans(on) => self.straggler_spans = on,
            Op::SkewPhase(dt, slow, skew) => {
                for r in 0..RANKS {
                    let start = self.clocks[r];
                    let mut elapsed = (start + dt * (1 + r % 3) as f64) - start;
                    if r == slow && skew != 1.0 {
                        elapsed = elapsed * skew;
                    }
                    self.clocks[r] += elapsed;
                }
                self.spans += RANKS as u64;
            }
            Op::Reset => {
                self.clocks.fill(SimTime::ZERO);
                self.waits.fill(SimTime::ZERO);
                self.stats = CommStats::default();
                self.net_free = SimTime::ZERO;
                if let Some(j) = self.jitter.as_mut() {
                    j.2 = 0;
                }
            }
        }
    }
}

fn apply(comm: &mut Comm, sched: &RankScheduler, op: Op) {
    match op {
        Op::Advance(r, dt) => comm.advance(r, dt),
        Op::AdvanceAll(dt) => comm.advance_all(dt),
        Op::Blocking(coll, bytes) => {
            match coll {
                Coll::Allreduce => comm.allreduce(bytes),
                Coll::AllreduceSum => {
                    let mut data = vec![vec![1.0; sum_len(bytes)]; RANKS];
                    comm.allreduce_sum_f64(&mut data);
                    assert!(data.iter().flatten().all(|&x| x == RANKS as f64));
                    comm.elapsed()
                }
                Coll::Bcast => comm.bcast(bytes),
                Coll::Alltoallv => {
                    let pairs = pair_bytes(bytes);
                    comm.alltoallv(RANKS, pairs.len(), pairs.iter().sum())
                }
            };
        }
        Op::Ialltoallv(bytes, dt, r, extra) => {
            let pairs = pair_bytes(bytes);
            let req = comm.ialltoallv(RANKS, pairs.len(), pairs.iter().sum());
            comm.advance_all(dt);
            comm.advance(r, extra);
            req.wait(comm);
        }
        Op::Pipeline(chunks, produce, consume, bytes) => {
            let pairs = pair_bytes(bytes);
            let m = pairs.len();
            Overlap::pipeline(
                comm,
                chunks,
                |c, _| c.advance_all(produce),
                |c, j| {
                    let chunk = &pairs[j * m / chunks..(j + 1) * m / chunks];
                    c.ialltoallv(RANKS, chunk.len(), chunk.iter().sum())
                },
                |c, _| c.advance_all(consume),
            );
        }
        Op::Jitter(amp, seed) => comm.set_jitter(amp, seed),
        Op::StragglerSpans(on) => comm.record_straggler_spans(on),
        Op::SkewPhase(dt, slow, skew) => {
            let skews: Vec<f64> = (0..RANKS)
                .map(|r| if r == slow { skew } else { 1.0 })
                .collect();
            let mut states = vec![(); RANKS];
            sched.compute_phase_skewed(comm, &mut states, Some(&skews), |ctx, _| {
                ctx.span("work", SpanCat::Kernel, dt * (1 + ctx.rank() % 3) as f64);
            });
        }
        Op::Reset => comm.reset(),
    }
}

fn stats_bits(s: &CommStats) -> [u64; 7] {
    [
        s.messages,
        s.bytes,
        s.collectives,
        s.wait.secs().to_bits(),
        s.nonblocking,
        s.inflight.secs().to_bits(),
        s.hidden.secs().to_bits(),
    ]
}

fn clock_bits(c: &Comm) -> Vec<(u64, u64)> {
    (0..c.size())
        .map(|r| (c.now(r).secs().to_bits(), c.waits.get(r).secs().to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lockstep_comm_matches_the_per_rank_reference(seq in ops()) {
        let sched = RankScheduler::with_threads(1);
        let collector = TelemetryCollector::shared();
        let mut comm = Comm::new(RANKS, net());
        comm.attach_telemetry(&collector, "w");
        let mut reference = Reference::new();
        for (i, &o) in seq.iter().enumerate() {
            apply(&mut comm, &sched, o);
            reference.apply(o);
            let want: Vec<(u64, u64)> = reference
                .clocks
                .iter()
                .zip(&reference.waits)
                .map(|(c, w)| (c.secs().to_bits(), w.secs().to_bits()))
                .collect();
            prop_assert_eq!(clock_bits(&comm), want, "step {} {:?}", i, o);
            prop_assert_eq!(comm.elapsed(), reference.elapsed());
            prop_assert_eq!(comm.max_wait(), reference.waits.iter().copied().max().unwrap());
            prop_assert_eq!(stats_bits(&comm.stats()), stats_bits(&reference.stats), "step {} {:?}", i, o);
            prop_assert_eq!(collector.snapshot().spans_total, reference.spans, "step {} {:?}", i, o);
        }
    }

    #[test]
    fn stats_depend_on_clock_values_not_their_storage(seq in ops()) {
        let sched = RankScheduler::with_threads(1);
        let mut lockstep = Comm::new(RANKS, net());
        let mut per_rank = Comm::new(RANKS, net());
        for &o in &seq {
            apply(&mut lockstep, &sched, o);
            apply(&mut per_rank, &sched, o);
            prop_assert_eq!(clock_bits(&lockstep), clock_bits(&per_rank));
            prop_assert_eq!(stats_bits(&lockstep.stats()), stats_bits(&per_rank.stats()), "{:?}", o);
            // Equal values, stored rank by rank from here on.
            per_rank.clocks.per_rank(RANKS);
            per_rank.waits.per_rank(RANKS);
        }
    }
}

#[test]
fn costed_runs_hold_no_per_rank_state() {
    let mut comm = Comm::new(1 << 15, net());
    comm.advance_all(us(3.0));
    comm.allreduce(1 << 10);
    comm.alltoallv(181, 180, 180 << 12);
    let req = comm.ialltoallv(181, 90, 90 << 12);
    comm.advance_all(us(1.0));
    req.wait(&mut comm);
    Overlap::pipeline(
        &mut comm,
        8,
        |c, _| c.advance_all(us(2.0)),
        |c, _| c.ialltoallv(181, 90, 90 << 6),
        |c, _| c.advance_all(us(2.0)),
    );
    assert!(matches!(comm.clocks, RankTimes::Lockstep(_)));
    assert!(matches!(comm.waits, RankTimes::Lockstep(_)));
    // A per-rank charge leaves lockstep; the next collective returns.
    comm.advance(7, us(1.0));
    assert!(matches!(comm.clocks, RankTimes::PerRank(_)));
    comm.allreduce(8);
    assert!(matches!(comm.clocks, RankTimes::Lockstep(_)));
    assert!(
        comm.waits.get(0) > comm.waits.get(7),
        "the others waited for rank 7"
    );
}
