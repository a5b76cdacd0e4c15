//! Bit-identity oracle for `CampaignService::run_batch` across pool sizes:
//! a fixed batch sequence with cold misses, repeats that hit, in-batch
//! duplicates that coalesce, malformed queries, a GPU application on a
//! CPU-only machine and an SLO drill, replayed on a 1-, 2- and 4-thread
//! service with one small shard and again with four. Everything the
//! service reports that does not read a wall clock is folded into one
//! FNV-1a digest per cache shape: every outcome, `ServeStats` after each
//! batch, the Chrome trace bytes, every counter and gauge, each
//! histogram's name and count, the bucket keys of the virtual-time
//! `fom.eval_s` histograms, and the per-app epoch histograms' names and
//! counts. Latency histograms hold wall-clock samples, so only their
//! counts enter the digest.

use exa_serve::{CampaignService, ServeConfig, SloDrill};

/// The replayed batches; `Some(app)` drills that app's evaluations.
fn batches() -> Vec<(Option<&'static str>, Vec<&'static str>)> {
    vec![
        (
            None,
            vec![
                "app=CoMet machine=Frontier",
                "app=LSMS machine=Summit nodes=64",
                "app=CoMet machine=Frontier", // coalesces with the first
                "app=GESTS machine=Cori",     // GPU application, CPU-only machine
                "app=Pele machine=Cori nodes=16",
                "app=Nope machine=Frontier", // unknown application
                "app=GAMESS machine=Summit knob:comm=1.25",
                "app=COAST machine=Frontier scenario=sweep",
                "app=LSMS machine=Summit nodes=64", // coalesces
                "machine=Frontier",                 // missing app
                "app=NuCCOR machine=Spock nodes=4",
                "app=GESTS machine=Frontier nodes=1024 knob:transform=1.5",
            ],
        ),
        (
            None,
            vec![
                "app=CoMet machine=Frontier",                 // evicted: misses again
                "app=gamess machine=Summit knob:comm=1.25",   // miss: the key keeps the casing
                "app=GAMESS machine=Summit knob:comm=1.25",   // hit
                "app=LAMMPS machine=Frontier nodes=128",      // miss
                "app=LAMMPS machine=Frontier nodes=128",      // coalesces
                "app=GESTS machine=Cori",                     // evaluation fails again
                "app=Pele machine=Frontier knob:chemistry=2", // miss
                "app=ExaSky machine=Summit nodes=fifty",      // malformed number
                "app=E3SM machine=Crusher",                   // miss
            ],
        ),
        (
            Some("LSMS"),
            vec![
                "app=LSMS machine=Frontier nodes=32 scenario=drill",
                "app=LSMS machine=Frontier nodes=32 scenario=drill", // coalesces
                "app=LSMS machine=Summit nodes=64",                  // evicted: a drilled miss
                "app=CoMet machine=Summit nodes=8 scenario=drill",
                "app=Pele machine=Frontier knob:chemistry=2", // hit
                "app=LSMS machine=Birch knob:kernel=0.8",
            ],
        ),
        (
            None,
            vec![
                "app=LSMS machine=Frontier nodes=32 scenario=drill", // hit
                "app=ExaSky machine=Summit nodes=50",
                "app=Pele machine=Theta",
                "app=GESTS machine=Frontier nodes=1024 knob:transform=1.5", // evicted
                "",
                "app=COAST machine=Tulip nodes=2 knob:block=1.5 scenario=sweep",
            ],
        ),
        // More misses than a shard holds, each duplicated: their inserts
        // evict keys this batch probed earlier (hits included), so a key
        // probed again after them must still hit, because every probe
        // precedes every insert. On four shards the duplicates land in
        // every shard and shard 2 alone takes four misses.
        (
            None,
            vec![
                "app=ExaSky machine=Summit nodes=50", // hit
                "app=COAST machine=Tulip nodes=2 knob:block=1.5 scenario=sweep", // hit
                "app=Pele machine=Theta",             // hit
                "app=LSMS machine=Spock nodes=8",
                "app=CoMet machine=Crusher nodes=16",
                "app=LSMS machine=Spock nodes=8", // coalesces
                "app=GAMESS machine=Frontier nodes=24",
                "app=CoMet machine=Summit nodes=12",
                "app=LSMS machine=Eagle", // GPU application, CPU-only machine
                "app=E3SM machine=Summit nodes=64",
                "app=CoMet machine=Crusher nodes=16", // coalesces
                "app=NuCCOR machine=Frontier nodes=32 knob:comm=0.5",
                "app=LAMMPS machine=Birch",
                "app=LSMS machine=Eagle", // a failed evaluation coalesces
                "app=GAMESS machine=Frontier nodes=24", // coalesces
                "app=LAMMPS machine=Birch", // coalesces
                "app=CoMet machine=Summit nodes=12", // coalesces
                "app=NuCCOR machine=Frontier nodes=32 knob:comm=0.5", // coalesces
                "app=ExaSky machine=Summit nodes=50", // hit again: probed before any insert
                "app=COAST machine=Tulip nodes=2 knob:block=1.5 scenario=sweep",
                "app=GESTS machine=Frontier nodes=1024 knob:transform=1.5",
            ],
        ),
    ]
}

struct Fnv(u64);

impl Fnv {
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn str(&mut self, s: &str) {
        self.feed(&(s.len() as u64).to_le_bytes());
        self.feed(s.as_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.feed(&v.to_le_bytes());
    }
}

/// Digest of the batch sequence replayed on a `threads`-thread service
/// whose cache has `shards` shards of `capacity` entries. The shape is
/// fixed, not derived from the pool size: batches evict, so which answers
/// stay depends on the order of every insert and lookup.
fn digest(threads: usize, shards: usize, capacity: usize) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut svc = CampaignService::new(ServeConfig {
        threads,
        shards,
        capacity_per_shard: capacity,
        ..ServeConfig::default()
    });
    for (drill, texts) in batches() {
        svc.set_drill(drill.map(|app| SloDrill {
            app: app.to_string(),
            extra_evals: 2,
        }));
        let texts: Vec<String> = texts.into_iter().map(String::from).collect();
        let outcomes = svc.run_batch(&texts);
        assert_eq!(outcomes.len(), texts.len());
        for o in &outcomes {
            h.str(o.status.label());
            h.str(o.error.as_deref().unwrap_or("-"));
            match &o.answer {
                None => h.u64(0),
                Some(a) => {
                    h.str(a.app);
                    h.str(a.machine);
                    h.u64(a.nodes.into());
                    h.u64(a.fom_value.to_bits());
                    h.str(a.units);
                    h.u64(a.higher_is_better.into());
                    h.u64(a.wall_s.to_bits());
                    h.u64(a.spans);
                }
            }
        }
        let s = svc.stats();
        for v in [s.requests, s.errors, s.hits, s.misses, s.coalesced] {
            h.u64(v);
        }
        h.u64(s.cache_len as u64);
        h.u64(s.cache_capacity as u64);
    }
    h.str(&svc.chrome_trace());
    let snap = svc.collector().snapshot();
    for (name, v) in &snap.counters {
        h.str(name);
        h.u64(*v);
    }
    for (name, v) in &snap.gauges {
        h.str(name);
        h.u64(v.to_bits());
    }
    for (name, hist) in &snap.hists {
        h.str(name);
        h.u64(hist.count());
        if name.starts_with("fom.eval_s") {
            for (edge, n) in hist.buckets() {
                h.u64(edge.to_bits());
                h.u64(n);
            }
        }
    }
    for (app, hist) in svc.take_epoch() {
        h.str(&app);
        h.u64(hist.count());
    }
    h.0
}

/// `(shards, capacity per shard, digest)`, recorded from the service that
/// probed and merged every batch serially on the calling thread.
const GOLDEN: [(usize, usize, u64); 2] = [(1, 4, 0x17f0f663f4739b1e), (4, 2, 0x9b09714b56db4be5)];

#[test]
fn pipelined_batches_keep_their_digest_at_every_pool_size() {
    for (shards, capacity, want) in GOLDEN {
        for threads in [1, 2, 4] {
            let got = digest(threads, shards, capacity);
            assert_eq!(
                got, want,
                "{shards} x {capacity} cache, threads = {threads}: digest {got:#018x}, want {want:#018x}"
            );
        }
    }
}
