//! Host-time benchmark of the simulator's two paper campaigns: the crawl
//! campaign behind Figs 3–8 (at 1 and 2 shards) and the generative request
//! replay behind the content-path figures. See `README.md` for the
//! workloads, metrics and how to run it.

pub mod pins;
pub mod procstat;
pub mod report;
pub mod trace;
pub mod workloads;

use experiments::Scale;
use report::{median, Metrics, END_TO_END, PER_LAYER};
use trace::{rollup, Span};
use workloads::{CrawlSetup, EpochSplit, Outcome, Recorder, ReplaySetup};

/// Which campaign sequence a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sequence {
    Crawl,
    Replay,
}

/// One named workload: a sequence at a scale, pinned to a shard count.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub sequence: Sequence,
    pub scale: Scale,
    pub shards: usize,
    /// Host seconds one campaign run took when the benchmark was defined
    /// (2 vCPUs); sizes a run without making its work depend on host speed.
    pub nominal_s: f64,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "crawl-small-1shard",
        sequence: Sequence::Crawl,
        scale: Scale::Small,
        shards: 1,
        nominal_s: 9.5,
    },
    Workload {
        name: "replay-tiny-1shard",
        sequence: Sequence::Replay,
        scale: Scale::Tiny,
        shards: 1,
        nominal_s: 11.0,
    },
];

/// A campaign that is set up and ready to run. One exists at a time, so
/// the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    Crawl(CrawlSetup),
    Replay(ReplaySetup),
}

impl Prepared {
    pub fn setup_s(&self) -> f64 {
        match self {
            Prepared::Crawl(s) => s.setup_s,
            Prepared::Replay(s) => s.setup_s,
        }
    }
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// `netgen::build` + `Campaign::new` for the `repro` seed `seed`.
    pub fn setup(&self, rec: &mut Recorder, seed: u64) -> Prepared {
        match self.sequence {
            Sequence::Crawl => {
                Prepared::Crawl(workloads::crawl_setup(rec, self.scale, seed, self.shards))
            }
            Sequence::Replay => {
                Prepared::Replay(workloads::replay_setup(rec, self.scale, seed, self.shards))
            }
        }
    }

    /// Campaign runs a measurement of about `seconds` makes (at least one).
    /// The count depends on `seconds` only, so every run of a commit does
    /// the same work whatever else loads the host.
    pub fn iterations(&self, seconds: f64) -> usize {
        ((seconds / self.nominal_s).round() as usize).max(1)
    }

    /// Everything after set-up, up to the last renderer or phase.
    pub fn run(&self, rec: &mut Recorder, prepared: Prepared) -> Outcome {
        match prepared {
            Prepared::Crawl(s) => workloads::crawl_run(rec, s, self.scale.crawls()),
            Prepared::Replay(s) => workloads::replay_run(rec, s),
        }
    }

    /// Compare an outcome with what `repro` prints for the same scale and
    /// seed (`repro budget` / `repro workload-replay`).
    pub fn check(&self, pin: &pins::Pin, o: &Outcome) -> Result<(), String> {
        match self.sequence {
            Sequence::Crawl if o.digest != pin.crawl => Err(format!(
                "crawl digest {:#018x}, repro budget prints {:#018x}",
                o.digest, pin.crawl
            )),
            Sequence::Replay if o.phase_digests != pin.replay || o.digest != pin.replay[3] => {
                Err(format!(
                    "replay phase digests {:#018x?}, repro workload-replay prints {:#018x?}",
                    o.phase_digests, pin.replay
                ))
            }
            _ => Ok(()),
        }
    }
}

/// One campaign iteration: its set-up seconds, outcome, process counters
/// over the run (set-up excluded) and the gate's verdict.
pub struct Iteration {
    pub setup_s: f64,
    pub outcome: Outcome,
    pub usage: procstat::Usage,
    pub gate: Result<(), String>,
}

/// Set up and run one campaign iteration; spans are tagged `run`.
pub fn iterate(
    w: &Workload,
    rec: &mut Recorder,
    seed: u64,
    pin: &pins::Pin,
    run: u32,
) -> Iteration {
    rec.tracer.set_run(run);
    let prepared = w.setup(rec, seed);
    let setup_s = prepared.setup_s();
    let before = procstat::usage();
    let outcome = w.run(rec, prepared);
    let usage = procstat::usage().since(&before);
    let gate = w.check(pin, &outcome);
    Iteration {
        setup_s,
        outcome,
        usage,
        gate,
    }
}

/// Extra set-up samples a run takes at least, and the host seconds they
/// must cover at least; each builds and drops a campaign without running
/// it. Set-up takes milliseconds, so its median needs many samples.
pub const MIN_SETUPS: usize = 15;
pub const MIN_SETUP_S: f64 = 4.0;

/// An untraced measurement: [`Workload::iterations`] campaign runs, with
/// the extra set-ups split into equal blocks before, between and after
/// them. Host speed drifts over seconds, so one block would time set-up in
/// a single host state; and a set-up after a campaign runs on a used heap,
/// so the blocks keep the share of fresh-heap samples the same in every
/// run.
pub struct Measured {
    pub iterations: Vec<Iteration>,
    /// Every set-up: the extra ones and the campaign runs' own.
    pub setups: Vec<f64>,
}

pub fn measure(w: &Workload, seed: u64, pin: &pins::Pin, seconds: f64) -> Measured {
    let mut rec = Recorder::default();
    let runs = w.iterations(seconds);
    let blocks = runs + 1;
    let (mut iterations, mut setups) = (Vec::new(), Vec::new());
    for block in 0..blocks {
        let (mut n, mut secs) = (0, 0.0);
        while n < MIN_SETUPS.div_ceil(blocks) || secs < MIN_SETUP_S / blocks as f64 {
            let s = w.setup(&mut rec, seed).setup_s();
            setups.push(s);
            (n, secs) = (n + 1, secs + s);
        }
        if block < runs {
            let it = iterate(w, &mut rec, seed, pin, block as u32);
            setups.push(it.setup_s);
            iterations.push(it);
        }
    }
    Measured { iterations, setups }
}

impl Measured {
    /// Operations attempted and failed, and whether every run's output
    /// was correct: it passed the digest gate and repeated the first run.
    /// A failed operation is a crawl that hit its max wait, or any
    /// operation of an incorrect run.
    pub fn accounting(&self) -> (u64, u64, bool) {
        let first = &self.iterations[0].outcome;
        let (mut attempted, mut failed, mut correct) = (0, 0, true);
        for it in &self.iterations {
            let o = &it.outcome;
            attempted += o.attempted;
            let ok = it.gate.is_ok()
                && o.digest == first.digest
                && o.stats.events == first.stats.events
                && o.attempted == first.attempted
                && o.unserved == first.unserved;
            correct &= ok;
            failed += if ok { o.failed } else { o.attempted };
        }
        (attempted, failed, correct)
    }

    pub fn end_to_end(&self) -> Metrics {
        let its = &self.iterations;
        let per = |f: &dyn Fn(&Iteration) -> f64| median(&its.iter().map(f).collect::<Vec<_>>());
        let mut m = Metrics::new(END_TO_END);
        m.set("wall_s", per(&|i| i.outcome.wall_s));
        m.set("setup_s", median(&self.setups));
        m.set(
            "events_per_s",
            per(&|i| i.outcome.stats.events as f64 / i.outcome.wall_s),
        );
        m.set(
            "requests_per_s",
            per(&|i| i.outcome.requests as f64 / i.outcome.window_s),
        );
        m.set("peak_rss_mb", procstat::usage().max_rss_mb);
        let (attempted, failed, _) = self.accounting();
        let unserved: u64 = its.iter().map(|i| i.outcome.unserved).sum();
        m.set(
            "ops_ok_share",
            1.0 - (failed + unserved).min(attempted) as f64 / attempted as f64,
        );
        m
    }
}

fn total_s(spans: &[Span], name: &str) -> f64 {
    rollup(spans, false)
        .get(name)
        .map_or(0.0, |r| r.total_ns as f64 / 1e9)
}

fn counter(snap: &telemetry::Snapshot, name: &str) -> f64 {
    workloads::counter(snap, name) as f64
}

/// A traced run: passes over the same inputs, each with its own spans.
pub struct Traced {
    /// Telemetry off: span times and process counters.
    pub plain: (Iteration, Recorder),
    /// Registry and epoch profiler on: registry counters, epoch split.
    pub traced: (Iteration, Recorder),
    /// Crawl only: the same inputs on 2 shards, traced, for the executor
    /// sync layer that a 1-shard campaign never exercises.
    pub shards2: Option<(Iteration, Recorder)>,
}

impl Traced {
    pub fn passes(&self) -> impl Iterator<Item = (&'static str, &(Iteration, Recorder))> {
        [
            ("plain", Some(&self.plain)),
            ("traced", Some(&self.traced)),
            ("2-shard", self.shards2.as_ref()),
        ]
        .into_iter()
        .filter_map(|(name, pass)| Some((name, pass?)))
    }

    /// Every pass passed the digest gate (they then agree with each other).
    pub fn correct(&self) -> bool {
        self.passes().all(|(_, (it, _))| it.gate.is_ok())
    }
}

/// Run the passes of a traced run. Run ids in the spans: 0 plain,
/// 1 traced, 2 the 2-shard pass. The plain pass keeps the registry off on
/// the replay too, so that the traced pass's overhead is measured against
/// a pass without telemetry; the digest does not depend on it.
pub fn trace(w: &Workload, pin: &pins::Pin) -> Traced {
    let mut plain_rec = Recorder {
        registry_off: true,
        ..Default::default()
    };
    let plain = iterate(w, &mut plain_rec, pin.seed, pin, 0);
    let traced_pass = |w: &Workload, run: u32| {
        telemetry::reset();
        telemetry::set_enabled(true);
        let mut rec = Recorder {
            epochs: Some(EpochSplit::default()),
            ..Default::default()
        };
        let it = iterate(w, &mut rec, pin.seed, pin, run);
        telemetry::set_enabled(false);
        (it, rec)
    };
    let traced = traced_pass(w, 1);
    let shards2 = (w.sequence == Sequence::Crawl && w.shards == 1)
        .then(|| traced_pass(&Workload { shards: 2, ..*w }, 2));
    Traced {
        plain: (plain, plain_rec),
        traced,
        shards2,
    }
}

/// Executor-sync metrics, for the workload's own shard count and for the
/// 2-shard pass, in the order [`sync_values`] returns them.
const SYNC: [&str; 12] = [
    "simnet.epochs",
    "simnet.barrier_waits",
    "simnet.events_per_epoch",
    "simnet.mailbox_events",
    "simnet.mailbox_bytes",
    "simnet.dispatch_ratio",
    "simnet.epoch_work_s",
    "simnet.epoch_wait_s",
    "simnet.epoch_samples_dropped",
    "proc.sys_cpu_s",
    "proc.vol_ctx_switches",
    "proc.cpu_util",
];
const SYNC_2SHARD: [&str; 12] = [
    "simnet.shards2.epochs",
    "simnet.shards2.barrier_waits",
    "simnet.shards2.events_per_epoch",
    "simnet.shards2.mailbox_events",
    "simnet.shards2.mailbox_bytes",
    "simnet.shards2.dispatch_ratio",
    "simnet.shards2.epoch_work_s",
    "simnet.shards2.epoch_wait_s",
    "simnet.shards2.epoch_samples_dropped",
    "proc.shards2.sys_cpu_s",
    "proc.shards2.vol_ctx_switches",
    "proc.shards2.cpu_util",
];

/// Sync counters of `it` (epochs are per engine, the max over shards; the
/// rest sum), the epoch work/wait split and the process counters.
fn sync_values(it: &Iteration, epochs: Option<&EpochSplit>) -> [f64; 12] {
    let o = &it.outcome;
    let mut sync = simnet::SyncCounters::default();
    for l in &o.loads {
        sync.add(&l.sync);
    }
    let dispatched: u64 = o.loads.iter().map(|l| l.dispatched).sum();
    let heaviest = o.loads.iter().map(|l| l.dispatched).max().unwrap_or(0);
    let e = epochs.copied().unwrap_or_default();
    let u = &it.usage;
    [
        sync.epochs as f64,
        sync.barrier_waits as f64,
        o.stats.events as f64 / sync.epochs as f64,
        sync.mailbox_events_out as f64,
        sync.mailbox_bytes_out as f64,
        heaviest as f64 / dispatched as f64,
        e.work_us as f64 / 1e6,
        e.total_us.saturating_sub(e.work_us) as f64 / 1e6,
        e.dropped as f64,
        u.sys_s,
        u.vol_ctx_switches as f64,
        (u.user_s + u.sys_s) / o.wall_s,
    ]
}

/// Per-layer metrics of a traced run.
pub fn per_layer(w: &Workload, t: &Traced) -> Metrics {
    let mut m = Metrics::new(PER_LAYER);
    let (plain, plain_rec) = &t.plain;
    let (traced, traced_rec) = &t.traced;
    let plain_spans = plain_rec.tracer.spans();
    let o = &plain.outcome;
    let s = &o.stats;

    // Executor sync at the workload's shard count, then on 2 shards.
    let own = sync_values(plain, traced_rec.epochs.as_ref());
    for (name, v) in SYNC.into_iter().zip(own) {
        m.set(name, v);
    }
    let two = t
        .shards2
        .as_ref()
        .map_or([0.0; 12], |(it, rec)| sync_values(it, rec.epochs.as_ref()));
    for (name, v) in SYNC_2SHARD.into_iter().zip(two) {
        m.set(name, v);
    }
    let (wall_ratio, placement_s) = t.shards2.as_ref().map_or((0.0, 0.0), |(it, rec)| {
        (
            it.outcome.wall_s / traced.outcome.wall_s,
            total_s(rec.tracer.spans(), "core.campaign_new"),
        )
    });
    m.set("simnet.shards2.wall_ratio", wall_ratio);
    m.set("core.shards2.campaign_new_s", placement_s);

    // Scheduler and dispatch: host time of the engine-advancing calls.
    let engine_s: f64 = ["core.warmup", "core.crawl", "core.gap", "simnet.run_until"]
        .iter()
        .map(|n| total_s(plain_spans, n))
        .sum();
    m.set("simnet.events", s.events as f64);
    m.set("simnet.ns_per_event", engine_s * 1e9 / s.events as f64);
    let k = &s.kinds;
    for (name, v) in [
        ("simnet.kind.deliver", k.deliver),
        ("simnet.kind.dial_arrive", k.dial_arrive),
        ("simnet.kind.handshake", k.handshake),
        ("simnet.kind.relay_hop", k.relay_hop),
        ("simnet.kind.dial_outcome", k.dial_outcome),
        ("simnet.kind.timer", k.timer),
        ("simnet.kind.command", k.command),
        ("simnet.kind.command_batch", k.command_batch),
        ("simnet.kind.node_up", k.node_up),
        ("simnet.kind.node_down", k.node_down),
        ("simnet.kind.conn_closed", k.conn_closed),
        ("simnet.kind.fault", k.fault),
    ] {
        m.set(name, v as f64);
    }
    m.set("simnet.peak_queue_len", s.peak_queue_len as f64);
    m.set("simnet.dials_ok", s.dials_ok as f64);
    m.set("simnet.dials_failed", s.dials_failed as f64);
    let requests = match w.sequence {
        Sequence::Crawl => 0,
        Sequence::Replay => o.attempted,
    };
    m.set(
        "simnet.events_per_request",
        s.events as f64 / requests as f64,
    );

    // Process counters over the plain pass's run.
    m.set("proc.user_cpu_s", plain.usage.user_s);
    m.set(
        "proc.invol_ctx_switches",
        plain.usage.invol_ctx_switches as f64,
    );
    for (i, name) in [
        "proc.rss_mb.bootstrap",
        "proc.rss_mb.preflash",
        "proc.rss_mb.flash",
        "proc.rss_mb.cooldown",
    ]
    .into_iter()
    .enumerate()
    {
        m.set(name, o.phase_rss_mb.get(i).copied().unwrap_or(0.0));
    }

    // Harness, crawler, analysis, replay, forks: span totals.
    let sp = plain_spans;
    m.set("netgen.build_s", total_s(sp, "netgen.build"));
    m.set("core.campaign_new_s", total_s(sp, "core.campaign_new"));
    m.set("core.warmup_s", total_s(sp, "core.warmup"));
    m.set("core.gap_s", total_s(sp, "core.gap"));
    m.set("core.crawl_s", total_s(sp, "core.crawl"));
    m.set("core.crawl_peers", o.crawl_peers);
    m.set("core.collect_s", total_s(sp, "core.collect"));
    m.set("core.analysis_s", total_s(sp, "core.analysis"));
    m.set(
        "core.replay.bootstrap_s",
        total_s(sp, "core.replay.bootstrap"),
    );
    m.set(
        "core.replay.preflash_s",
        total_s(sp, "core.replay.preflash"),
    );
    m.set("core.replay.flash_s", total_s(sp, "core.replay.flash"));
    m.set(
        "core.replay.cooldown_s",
        total_s(sp, "core.replay.cooldown"),
    );
    let fork = rollup(sp, false)
        .get("core.fork_probe")
        .copied()
        .unwrap_or_default();
    m.set("core.fork_probe_s", fork.total_ns as f64 / 1e9);
    m.set("core.fork_self_s", fork.self_ns as f64 / 1e9);
    m.set(
        "kademlia.resolve_providers_s",
        total_s(sp, "kademlia.resolve_providers"),
    );

    // Registry counters, from the pass that had the registry on.
    let snap = &traced.outcome.snap;
    m.set(
        "kademlia.lookups_completed",
        counter(snap, "lookups_completed"),
    );
    m.set(
        "kademlia.lookup_peer_failures",
        counter(snap, "lookup_peer_failures"),
    );
    let contacted = snap
        .hists
        .iter()
        .find(|(n, _)| *n == "lookup_contacted")
        .map_or(0.0, |(_, h)| h.mean());
    m.set("kademlia.lookup_contacted_mean", contacted);
    m.set("kademlia.providers_live", o.providers.0 as f64);
    m.set("kademlia.providers_raw", o.providers.1 as f64);
    m.set(
        "ipfs_node.fetches_started",
        counter(snap, "fetches_started"),
    );
    m.set(
        "ipfs_node.want_coalesce_hits",
        counter(snap, "want_coalesce_hits"),
    );
    let cache = counter(snap, "requests_served_cache");
    m.set("ipfs_node.served_cache", cache);
    m.set(
        "ipfs_node.served_bitswap",
        counter(snap, "requests_served_bitswap"),
    );
    m.set("ipfs_node.served_dht", counter(snap, "requests_served_dht"));
    m.set("ipfs_node.cache_hit_share", cache / requests as f64);
    m.set(
        "bitswap.fetches_resolved",
        counter(snap, "bitswap_fetches_resolved"),
    );

    m.set(
        "telemetry.trace_overhead_share",
        traced.outcome.wall_s / o.wall_s - 1.0,
    );
    m
}
