//! The five closed-loop workloads and the round loop every PE's main thread
//! runs. Each round is: barrier, issue this PE's share, drain, barrier,
//! barrier, verify. Only issue..barrier is timed; verification and the traced
//! phase's probes sit outside the timed window and outside the stats window.

use crate::trace::Tracer;
use crate::util::Usage;
use bale_suite::common::SplitMix64;
use bale_suite::histo::{HistoBufAm, ShardSumAm};
use bale_suite::index_gather::table_value;
use lamellar_array::{AtomicArray, Distribution, ReadOnlyArray, UnsafeArray};
use lamellar_core::darc::Darc;
use lamellar_core::world::LamellarWorld;
use lamellar_metrics::RuntimeStats;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// PEs in the world: one load-generating main thread per core of the
/// 2-core machine the benchmark was sized on.
pub const PES: usize = 2;
/// Distributed-table elements per PE (the paper's parameter).
pub const TABLE_PER_PE: usize = 1_000;
/// Ops per AM / array sub-batch (the paper's parameter).
pub const BATCH: usize = 10_000;
/// Updates or gathered indices each PE issues per round. Large enough that
/// the two barriers per round cost under 1% of a round.
pub const OPS_PER_ROUND: usize = 500_000;
/// Sequential round trips PE 0 makes per ping-pong round.
pub const PINGS_PER_ROUND: usize = 1_000;
/// Indices per `batch_load` call of the small gather: a few per PE, so
/// every call plans one sub-batch per PE and stays latency-bound.
pub const SMALL_BATCH: usize = 16;
/// Sequential `batch_load` calls PE 0 makes per small-gather round.
pub const CALLS_PER_ROUND: usize = 1_000;
/// Local-AM and spawned-task probes each PE makes after a traced round.
const PROBES_PER_ROUND: usize = 16;
/// Distinct ping-pong payloads, cycled.
const PING_VALUES: usize = 4_096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HistoAm,
    HistoArray,
    GatherRo,
    GatherSmall,
    AmPingpong,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::HistoAm,
        Workload::HistoArray,
        Workload::GatherRo,
        Workload::GatherSmall,
        Workload::AmPingpong,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HistoAm => "histo_am",
            Workload::HistoArray => "histo_array",
            Workload::GatherRo => "gather_ro",
            Workload::GatherSmall => "gather_small",
            Workload::AmPingpong => "am_pingpong",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Ops the whole world completes per round.
    pub fn global_ops_per_round(self) -> u64 {
        match self {
            Workload::AmPingpong => PINGS_PER_ROUND as u64,
            Workload::GatherSmall => (CALLS_PER_ROUND * SMALL_BATCH) as u64,
            _ => (OPS_PER_ROUND * PES) as u64,
        }
    }
}

lamellar_core::am! {
    /// The ping-pong request: one 8-byte value, answered with `x + 1`.
    pub struct PingAm { pub x: u64 }
    exec(am, _ctx) -> u64 {
        am.x.wrapping_add(1)
    }
}

/// This PE's seeded global table indices for one round (empty for the
/// ping-pong, and on PE 1 for the small gather, where only PE 0 issues).
/// The same seed gives the same inputs.
pub fn index_stream(w: Workload, seed: u64, pe: usize) -> Vec<usize> {
    let n = match w {
        Workload::AmPingpong => 0,
        Workload::GatherSmall if pe != 0 => 0,
        Workload::GatherSmall => CALLS_PER_ROUND * SMALL_BATCH,
        _ => OPS_PER_ROUND,
    };
    let mut rng = SplitMix64::new(seed, pe);
    (0..n).map(|_| rng.below(TABLE_PER_PE * PES)).collect()
}

pub fn ping_values(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed, usize::MAX);
    (0..PING_VALUES).map(|_| rng.next_u64()).collect()
}

/// Measurement phases, decided by PE 0 and published before each round's
/// opening barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    Warmup = 0,
    Measure = 1,
    Stop = 2,
}

impl Phase {
    fn from_u8(v: u8) -> Phase {
        match v {
            0 => Phase::Warmup,
            1 => Phase::Measure,
            _ => Phase::Stop,
        }
    }
}

/// What the run asks of every PE.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub warmup: Duration,
    pub measure: Duration,
    /// Trace every other measured round. Traced and untraced rounds then
    /// share the same stretch of time, so their throughput ratio is not
    /// skewed by the machine speeding up or slowing down.
    pub trace: bool,
    /// Perturb one result per round before verification, to show the
    /// verifier counts it.
    pub corrupt: bool,
}

/// State shared by the PE main threads of one world (they run in one
/// process). PE 0 writes `phase` between a round's closing barrier and the
/// next round's opening barrier; every PE reads it after the opening
/// barrier, so all PEs agree on each round's phase.
pub struct Shared {
    /// When this world's launch began (set-up time is measured from here).
    pub launch: Instant,
    /// Start of the whole run: the time origin of every span.
    pub epoch: Instant,
    phase: AtomicU8,
}

impl Shared {
    pub fn new(epoch: Instant) -> Self {
        Shared { launch: Instant::now(), epoch, phase: AtomicU8::new(Phase::Warmup as u8) }
    }
}

/// Stats-delta counters a layer metric needs, summed over rounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub flushes: u64,
    pub wire_parks: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    /// Fabric counters are fabric-global (every PE's traffic).
    pub puts: u64,
    pub bytes_put: u64,
    pub spawned: u64,
    pub stolen: u64,
    pub inline_execs: u64,
    pub spilled_execs: u64,
    pub replies_sent: u64,
    pub acks_received: u64,
    pub sub_batches: u64,
}

impl Counts {
    fn of(d: &RuntimeStats) -> Counts {
        Counts {
            msgs_sent: d.lamellae.msgs_sent,
            bytes_sent: d.lamellae.bytes_sent,
            flushes: d.lamellae.flushes,
            wire_parks: d.lamellae.wire_parks,
            pool_hits: d.lamellae.pool_hits,
            pool_misses: d.lamellae.pool_misses,
            puts: d.fabric.puts,
            bytes_put: d.fabric.bytes_put,
            spawned: d.executor.spawned,
            stolen: d.executor.stolen,
            inline_execs: d.am.inline_execs,
            spilled_execs: d.am.spilled_execs,
            replies_sent: d.am.replies_sent,
            acks_received: d.am.acks_received,
            sub_batches: d.am.batch_sub_batches,
        }
    }

    /// Add `o`; fabric counters only when `with_fabric` (they are global,
    /// so only one PE's copy may be summed).
    pub fn add(&mut self, o: &Counts, with_fabric: bool) {
        self.msgs_sent += o.msgs_sent;
        self.bytes_sent += o.bytes_sent;
        self.flushes += o.flushes;
        self.wire_parks += o.wire_parks;
        self.pool_hits += o.pool_hits;
        self.pool_misses += o.pool_misses;
        if with_fabric {
            self.puts += o.puts;
            self.bytes_put += o.bytes_put;
        }
        self.spawned += o.spawned;
        self.stolen += o.stolen;
        self.inline_execs += o.inline_execs;
        self.spilled_execs += o.spilled_execs;
        self.replies_sent += o.replies_sent;
        self.acks_received += o.acks_received;
        self.sub_batches += o.sub_batches;
    }
}

/// One measured phase as one PE saw it.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    pub rounds: u64,
    /// Ops the whole world completed in this phase's rounds.
    pub global_ops: u64,
    /// Timed window (opening barrier exit to closing barrier exit), summed.
    pub round_time: Duration,
    /// The same window, per round.
    pub round_ns: Vec<u64>,
    /// Ops this PE issued, and the time spent inside the issuing calls.
    pub issued_ops: u64,
    pub issue_time: Duration,
    /// Per-round time in `wait_all` / the final `block_on`.
    pub drain_ns: Vec<u64>,
    /// Per-call issue-to-reply time (ping-pong and small gather only).
    pub latency_ns: Vec<u64>,
    pub counts: Counts,
}

/// Everything one PE's main thread hands back.
#[derive(Debug, Default)]
pub struct PeReport {
    /// Launch to first warm-up op (PE 0 only).
    pub setup: Option<Duration>,
    /// Untraced and traced measured rounds.
    pub measured: PhaseStats,
    pub traced: PhaseStats,
    /// Wall time and process CPU over the measured phase (PE 0 only).
    pub wall: Duration,
    pub usage: Usage,
    pub attempted: u64,
    pub failed: u64,
    pub local_rtt_ns: Vec<u64>,
    pub queue_wait_ns: Vec<u64>,
    pub spans: Vec<crate::trace::Span>,
}

enum Table {
    Darc(Darc<Vec<AtomicUsize>>),
    Atomic(AtomicArray<usize>),
    ReadOnly(ReadOnlyArray<u64>),
    Pingpong,
}

/// One PE's table handle, inputs, and the results awaiting verification.
struct Kernel {
    workload: Workload,
    me: usize,
    stream: Vec<usize>,
    /// The owned copy of `stream` the next array call consumes, made by
    /// `prepare` outside the timed window.
    idxs: Vec<usize>,
    /// The same for the small gather: one owned index batch per call.
    calls: Vec<Vec<usize>>,
    pings: Vec<u64>,
    table: Table,
    /// Global table sum after the last verified round (histograms): the
    /// table is long-lived and verified by delta, never assumed zero.
    last_sum: usize,
    gathered: Vec<u64>,
    /// (sent, received) ping values of the last round.
    replies: Vec<(u64, Option<u64>)>,
    /// Ops of the last round whose completion reported an error.
    errored: u64,
}

#[derive(Default)]
struct RoundOut {
    issued: u64,
    issue: Duration,
    drain: Duration,
    /// Issue-to-reply time of each ping or small-gather call.
    latency_ns: Vec<u64>,
}

impl Kernel {
    /// Table allocation and fill, and input generation: everything between
    /// launch and the first warm-up op besides the world build.
    fn setup(world: &LamellarWorld, opts: &Opts) -> Kernel {
        let me = world.my_pe();
        let glen = TABLE_PER_PE * PES;
        let (table, stream, pings) = match opts.workload {
            Workload::HistoAm => {
                let shard = (0..TABLE_PER_PE).map(|_| AtomicUsize::new(0)).collect();
                let stream = index_stream(opts.workload, opts.seed, me);
                (Table::Darc(Darc::new(&world.team(), shard)), stream, vec![])
            }
            Workload::HistoArray => {
                let mut t = AtomicArray::<usize>::new(world, glen, Distribution::Block);
                t.set_batch_limit(BATCH);
                (Table::Atomic(t), index_stream(opts.workload, opts.seed, me), vec![])
            }
            Workload::GatherRo | Workload::GatherSmall => {
                let arr = UnsafeArray::<u64>::new(world, glen, Distribution::Block);
                world.barrier();
                if me == 0 {
                    let vals: Vec<u64> = (0..glen).map(table_value).collect();
                    // SAFETY: PE 0 is the only writer, and no PE reads the
                    // array before the conversion's barrier below.
                    unsafe { arr.put_unchecked(0, &vals) };
                }
                world.barrier();
                let mut t = arr.into_read_only();
                t.set_batch_limit(BATCH);
                (Table::ReadOnly(t), index_stream(opts.workload, opts.seed, me), vec![])
            }
            Workload::AmPingpong => (Table::Pingpong, vec![], ping_values(opts.seed)),
        };
        let mut k = Kernel {
            workload: opts.workload,
            me,
            stream,
            idxs: Vec::new(),
            calls: Vec::new(),
            pings,
            table,
            last_sum: 0,
            gathered: Vec::new(),
            replies: Vec::new(),
            errored: 0,
        };
        world.barrier();
        if me == 0 {
            k.last_sum = k.table_sum(world);
        }
        k
    }

    fn table_sum(&self, world: &LamellarWorld) -> usize {
        match &self.table {
            Table::Darc(t) => {
                world.block_on(world.exec_am_all(ShardSumAm { table: t.clone() })).into_iter().sum()
            }
            Table::Atomic(t) => world.block_on(t.sum()),
            _ => 0,
        }
    }

    /// The benchmark's own per-round work, done before the timed and stats
    /// windows: copy the stream for the array calls, which take their
    /// indices by value, and free the last round's gathered values.
    fn prepare(&mut self) {
        match self.workload {
            Workload::HistoArray | Workload::GatherRo => self.idxs.clone_from(&self.stream),
            Workload::GatherSmall => {
                self.calls = self.stream.chunks(SMALL_BATCH).map(<[usize]>::to_vec).collect();
            }
            _ => {}
        }
        self.gathered = Vec::with_capacity(match self.workload {
            Workload::GatherSmall => self.stream.len(),
            _ => 0,
        });
    }

    fn round(&mut self, world: &LamellarWorld, tr: &mut Tracer, round: u64) -> RoundOut {
        let mut out = RoundOut::default();
        self.errored = 0;
        match &self.table {
            Table::Darc(table) => {
                tr.span("issue", round, || {
                    let mut bins: Vec<Vec<u32>> =
                        (0..PES).map(|_| Vec::with_capacity(BATCH)).collect();
                    let mut send = |dst: usize, idxs: Vec<u32>| {
                        let t = Instant::now();
                        world.exec_unit_am_pe(dst, HistoBufAm { table: table.clone(), idxs });
                        out.issue += t.elapsed();
                    };
                    for &g in &self.stream {
                        let dst = g / TABLE_PER_PE;
                        bins[dst].push((g % TABLE_PER_PE) as u32);
                        if bins[dst].len() == BATCH {
                            send(dst, std::mem::replace(&mut bins[dst], Vec::with_capacity(BATCH)));
                        }
                    }
                    for (dst, idxs) in bins.into_iter().enumerate() {
                        if !idxs.is_empty() {
                            send(dst, idxs);
                        }
                    }
                });
                out.issued = self.stream.len() as u64;
                let t = Instant::now();
                let waited = tr.span("drain", round, || world.try_wait_all());
                out.drain = t.elapsed();
                if waited.is_err() {
                    self.errored = out.issued;
                }
            }
            Table::Atomic(table) => {
                let idxs = std::mem::take(&mut self.idxs);
                tr.span("issue", round, || {
                    let t = Instant::now();
                    table.batch_add_ff(idxs, 1);
                    out.issue = t.elapsed();
                });
                out.issued = self.stream.len() as u64;
                let t = Instant::now();
                let waited = tr.span("drain", round, || world.try_wait_all());
                out.drain = t.elapsed();
                if waited.is_err() {
                    self.errored = out.issued;
                }
            }
            Table::ReadOnly(table) if self.workload == Workload::GatherSmall => {
                let calls = std::mem::take(&mut self.calls);
                tr.span("gather", round, || {
                    for idxs in calls {
                        let t = Instant::now();
                        let h = table.batch_load(idxs);
                        let t_issued = Instant::now();
                        let values = world.block_on(h);
                        let t_done = Instant::now();
                        out.issue += t_issued - t;
                        out.drain += t_done - t_issued;
                        out.latency_ns.push((t_done - t).as_nanos() as u64);
                        self.gathered.extend(values);
                    }
                });
                out.issued = self.stream.len() as u64;
            }
            Table::ReadOnly(table) => {
                let idxs = std::mem::take(&mut self.idxs);
                let handle = tr.span("issue", round, || {
                    let t = Instant::now();
                    let h = table.batch_load(idxs);
                    out.issue = t.elapsed();
                    h
                });
                out.issued = self.stream.len() as u64;
                let t = Instant::now();
                self.gathered = tr.span("drain", round, || world.block_on(handle));
                out.drain = t.elapsed();
            }
            Table::Pingpong if self.me == 0 => {
                self.replies.clear();
                tr.span("pingpong", round, || {
                    for i in 0..PINGS_PER_ROUND {
                        let x = self.pings[(round as usize * PINGS_PER_ROUND + i) % PING_VALUES];
                        let t = Instant::now();
                        let h = world.exec_am_pe(1, PingAm { x });
                        let t_issued = Instant::now();
                        let reply = world.block_on(h.fallible()).ok();
                        let t_done = Instant::now();
                        out.issue += t_issued - t;
                        out.drain += t_done - t_issued;
                        out.latency_ns.push((t_done - t).as_nanos() as u64);
                        self.replies.push((x, reply));
                    }
                });
                out.issued = PINGS_PER_ROUND as u64;
            }
            // PE 1 only serves the pings.
            Table::Pingpong => {}
        }
        out
    }

    /// Check the last round's results exactly; returns the ops that failed.
    /// Histograms: the global table-sum delta equals the updates issued
    /// (checked by PE 0 for the world). Gather: every value equals
    /// `table_value(g)`. Ping-pong: every reply equals `x + 1`.
    fn verify(&mut self, world: &LamellarWorld, corrupt: bool) -> u64 {
        let mut failed = self.errored;
        match self.table {
            Table::Darc(_) | Table::Atomic(_) if self.me == 0 => {
                if corrupt {
                    self.add_unaccounted_update(world);
                }
                failed += self.sum_mismatch(world);
            }
            Table::ReadOnly(_) => {
                if corrupt && !self.gathered.is_empty() {
                    self.gathered[0] ^= 1;
                }
                let wrong = self
                    .stream
                    .iter()
                    .zip(&self.gathered)
                    .filter(|&(&g, &v)| v != table_value(g))
                    .count();
                let missing = self.stream.len().saturating_sub(self.gathered.len());
                failed += (wrong + missing) as u64;
            }
            Table::Pingpong => {
                if let (true, Some((_, Some(r)))) = (corrupt, self.replies.first_mut()) {
                    *r ^= 1;
                }
                failed += self.replies.iter().filter(|(x, r)| *r != Some(x.wrapping_add(1))).count()
                    as u64;
            }
            _ => {}
        }
        failed.min(self.workload.global_ops_per_round())
    }

    /// The corruption a histogram verifier must catch: one increment the
    /// round did not issue.
    fn add_unaccounted_update(&self, world: &LamellarWorld) {
        match &self.table {
            Table::Darc(t) => {
                t[0].fetch_add(1, Ordering::Relaxed);
            }
            Table::Atomic(t) => world.block_on(t.add(0, 1)),
            _ => {}
        }
    }

    /// |observed sum delta - expected| for the round just finished.
    fn sum_mismatch(&mut self, world: &LamellarWorld) -> u64 {
        let sum = self.table_sum(world);
        let expected = (OPS_PER_ROUND * PES) as i128;
        let delta = sum as i128 - self.last_sum as i128;
        self.last_sum = sum;
        (delta - expected).unsigned_abs() as u64
    }
}

/// Probes made between traced rounds, outside the timed and stats windows:
/// a local tracked AM round trip, and the wait of a spawned task for a pool
/// worker.
fn probe(world: &LamellarWorld, tr: &mut Tracer, round: u64, rep: &mut PeReport) {
    let me = world.my_pe();
    tr.span("probe", round, || {
        for i in 0..PROBES_PER_ROUND {
            let x = round.wrapping_mul(31).wrapping_add(i as u64);
            let t = Instant::now();
            let reply = world.block_on(world.exec_am_pe(me, PingAm { x }).fallible()).ok();
            rep.local_rtt_ns.push(t.elapsed().as_nanos() as u64);
            rep.attempted += 1;
            if reply != Some(x + 1) {
                rep.failed += 1;
            }
        }
        for _ in 0..PROBES_PER_ROUND {
            let t = Instant::now();
            let waited = world.block_on(world.spawn(async move { t.elapsed() }));
            rep.queue_wait_ns.push(waited.as_nanos() as u64);
        }
    });
}

/// Build this PE's table and inputs and wait at the first barrier; returns
/// the launch-to-first-op time on PE 0. Used for the extra set-up
/// repetitions, whose worlds are torn down right after.
pub fn setup_only(world: LamellarWorld, opts: &Opts, shared: &Shared) -> Option<Duration> {
    let _kernel = Kernel::setup(&world, opts);
    let setup = shared.launch.elapsed();
    world.barrier();
    (world.my_pe() == 0).then_some(setup)
}

/// One PE's main thread: set up, then run rounds until PE 0 says stop.
pub fn pe_main(world: LamellarWorld, opts: &Opts, shared: &Shared) -> PeReport {
    let me = world.my_pe();
    let mut kernel = Kernel::setup(&world, opts);
    let mut rep =
        PeReport { setup: (me == 0).then(|| shared.launch.elapsed()), ..Default::default() };
    let mut tr = Tracer::new(shared.epoch, me);
    let mut phase_start = Instant::now();
    let mut phase_usage = Usage::now();
    let mut rounds_in_phase = 0u64;
    let mut round = 0u64;
    loop {
        tr.span("barrier", round, || world.barrier());
        let phase = Phase::from_u8(shared.phase.load(Ordering::Acquire));
        if phase == Phase::Stop {
            break;
        }
        let traced = phase == Phase::Measure && opts.trace && round % 2 == 1;
        tr.set_enabled(traced);
        kernel.prepare();
        let s0 = world.stats();
        let t0 = Instant::now();
        let out = kernel.round(&world, &mut tr, round);
        tr.span("barrier", round, || world.barrier());
        let dt = t0.elapsed();
        let delta = world.stats().delta(&s0);
        // Verification sends AMs; no PE may serve one before every PE has
        // closed its stats window.
        tr.span("barrier", round, || world.barrier());
        rep.failed += tr.span("verify", round, || kernel.verify(&world, opts.corrupt));
        rep.attempted += out.issued;

        if phase == Phase::Measure {
            let ps = if traced { &mut rep.traced } else { &mut rep.measured };
            ps.rounds += 1;
            ps.global_ops += opts.workload.global_ops_per_round();
            ps.round_time += dt;
            ps.round_ns.push(dt.as_nanos() as u64);
            ps.issued_ops += out.issued;
            ps.issue_time += out.issue;
            ps.drain_ns.push(out.drain.as_nanos() as u64);
            ps.counts.add(&Counts::of(&delta), true);
            ps.latency_ns.extend(out.latency_ns);
        }
        if traced {
            probe(&world, &mut tr, round, &mut rep);
        }

        rounds_in_phase += 1;
        round += 1;
        if me == 0 {
            let elapsed = phase_start.elapsed();
            let next = match phase {
                Phase::Warmup if elapsed >= opts.warmup && rounds_in_phase >= 2 => Phase::Measure,
                // An even count of measured rounds, so a traced run has as
                // many traced rounds as untraced ones.
                Phase::Measure
                    if elapsed >= opts.measure
                        && (!opts.trace || rounds_in_phase.is_multiple_of(2)) =>
                {
                    Phase::Stop
                }
                p => p,
            };
            if next != phase {
                let now = Usage::now();
                if phase == Phase::Measure {
                    rep.wall = elapsed;
                    rep.usage = now.since(&phase_usage);
                }
                phase_usage = now;
                phase_start = Instant::now();
                rounds_in_phase = 0;
                shared.phase.store(next as u8, Ordering::Release);
            }
        }
    }
    world.barrier();
    rep.spans = std::mem::take(&mut tr.spans);
    rep
}
