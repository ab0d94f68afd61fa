//! The two campaign sequences the benchmark times, written against the
//! public API in the same order `repro budget` (plus the crawl-group
//! renderers) and `repro workload-replay` call it, with a span around
//! every call into a layer.

use crate::trace::Tracer;
use experiments::crawl_exp::{self, CrawlData};
use experiments::{workload_replay_exp, Scale};
use netgen::WorkloadSpec;
use simnet::{Dur, ShardLoad, SimStats, SimTime};
use tcsb_core::{Campaign, CampaignOptions, EcoActor};

/// Per-crawl bound, as in `crawl_exp::collect`.
pub const CRAWL_MAX_WAIT: Dur = Dur(40 * 60 * 1_000_000_000);

/// Seed derivation `repro workload-replay` applies to its `--seed`.
pub const REPLAY_SEED_XOR: u64 = 0xF00D;

/// Splits each shard's epochs into processing and barrier wait, from the
/// telemetry epoch profiler. Drained after every engine call so the
/// profiler's bounded sample buffer rarely overflows; overflow is counted.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochSplit {
    pub samples: u64,
    pub dropped: u64,
    pub total_us: u64,
    pub work_us: u64,
}

impl EpochSplit {
    pub fn drain(&mut self) {
        let (_, dropped) = telemetry::profile::len();
        self.dropped += dropped;
        let trace = telemetry::profile::export_chrome_trace();
        telemetry::profile::reset();
        self.add_chrome_trace(&trace);
    }

    /// Fold one `telemetry::profile::export_chrome_trace` document in.
    pub fn add_chrome_trace(&mut self, trace: &str) {
        for ev in trace.split("{\"name\":\"").skip(1) {
            let dur = ev
                .split("\"dur\":")
                .nth(1)
                .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|d| d.parse::<u64>().ok())
                .unwrap_or(0);
            if ev.starts_with("epoch\"") {
                self.samples += 1;
                self.total_us += dur;
            } else if ev.starts_with("work\"") {
                self.work_us += dur;
            }
        }
    }
}

/// Span recorder plus, in traced runs, the epoch split.
#[derive(Default)]
pub struct Recorder {
    pub tracer: Tracer,
    pub epochs: Option<EpochSplit>,
    /// Keep the telemetry registry off where `repro workload-replay`
    /// switches it on: the traced run's plain pass, the baseline that
    /// `telemetry.trace_overhead_share` compares against.
    pub registry_off: bool,
}

impl Recorder {
    /// Time one engine-advancing call; drain the profiler after it (outside
    /// the span) when tracing.
    fn engine<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let r = self.tracer.time(name, f);
        if let Some(e) = self.epochs.as_mut() {
            e.drain();
        }
        r
    }
}

/// What every campaign iteration reports, whichever sequence ran.
pub struct Outcome {
    /// Final trace digest.
    pub digest: u64,
    /// Replay phase digests (empty for the crawl).
    pub phase_digests: Vec<u64>,
    pub stats: SimStats,
    pub loads: Vec<ShardLoad>,
    /// Operations attempted: crawls, or requests issued.
    pub attempted: u64,
    /// What `requests_per_s` counts: the requests issued (replay), or the
    /// peers the crawls found, each of which the crawler queried (crawl).
    pub requests: u64,
    /// Crawls that hit `CRAWL_MAX_WAIT` (0 for the replay).
    pub failed: u64,
    /// Requests not counted as served by the end of the run (0 for the
    /// crawl). The request accounting does not close yet, so these are
    /// not known failures; they lower `ops_ok_share` only.
    pub unserved: u64,
    /// Host seconds from the end of set-up to the end of the last call.
    pub wall_s: f64,
    /// Host seconds of the engine calls that serve `requests`: the
    /// `run_until` calls after bootstrap (replay), or the `Campaign::crawl`
    /// calls without the gaps between them (crawl).
    pub window_s: f64,
    /// Registry snapshot at the end (all zero unless telemetry was on).
    pub snap: telemetry::Snapshot,
    /// Live and raw provider records over scenario nodes at the end.
    pub providers: (usize, usize),
    /// Mean peers found per crawl (crawl only).
    pub crawl_peers: f64,
    /// Current RSS (MB) at each replay phase end (replay only).
    pub phase_rss_mb: Vec<f64>,
}

/// Build the scenario and the campaign under two spans; returns the
/// campaign and the set-up seconds. `before_new` runs between the two
/// calls, where `repro workload-replay` switches the registry on.
fn setup(
    rec: &mut Recorder,
    cfg: netgen::ScenarioConfig,
    opts: CampaignOptions,
    before_new: impl FnOnce(),
) -> (Campaign, f64) {
    let t = rec.tracer.enter("netgen.build");
    let scenario = netgen::build(cfg);
    let mut secs = rec.tracer.exit(t);
    before_new();
    let t = rec.tracer.enter("core.campaign_new");
    let campaign = Campaign::new(scenario, opts);
    secs += rec.tracer.exit(t);
    (campaign, secs)
}

fn provider_records(c: &Campaign) -> (usize, usize) {
    let now = c.now();
    let (mut live, mut raw) = (0usize, 0usize);
    for &id in &c.node_ids {
        if let EcoActor::Node(n) = c.sim.actor(id) {
            live += n.dht().providers().record_count(now);
            raw += n.dht().providers().raw_record_count();
        }
    }
    (live, raw)
}

/// A crawl campaign that has been set up but not run.
pub struct CrawlSetup {
    campaign: Campaign,
    n_cloud: usize,
    pub setup_s: f64,
}

/// `Scale::Small` crawl campaign on `shards` shards, as `crawl_exp::collect`
/// builds it.
pub fn crawl_setup(rec: &mut Recorder, scale: Scale, seed: u64, shards: usize) -> CrawlSetup {
    let cfg = scale.config(seed).with_shards(shards);
    let n_cloud = cfg.n_cloud;
    let opts = CampaignOptions {
        with_workload: false,
        ..Default::default()
    };
    let (campaign, setup_s) = setup(rec, cfg, opts, || ());
    CrawlSetup {
        campaign,
        n_cloud,
        setup_s,
    }
}

type Renderer = fn(&CrawlData) -> experiments::Report;

/// The crawl-group artefacts rendered after the campaign.
const CRAWL_RENDERERS: [(&str, Renderer); 7] = [
    ("core.analysis.stats", crawl_exp::stats),
    ("core.analysis.fig03", crawl_exp::fig03),
    ("core.analysis.fig04", crawl_exp::fig04),
    ("core.analysis.fig05", crawl_exp::fig05),
    ("core.analysis.fig06", crawl_exp::fig06),
    ("core.analysis.fig07", crawl_exp::fig07),
    ("core.analysis.fig08", crawl_exp::fig08),
];

/// Warm-up, `n_crawls` crawls each followed by a gap, then the renderers.
pub fn crawl_run(rec: &mut Recorder, s: CrawlSetup, n_crawls: usize) -> Outcome {
    let CrawlSetup {
        mut campaign,
        n_cloud,
        ..
    } = s;
    let started = std::time::Instant::now();
    let c = &mut campaign;
    rec.engine("core.warmup", || c.run_for(Dur::from_hours(6)));
    let total = c.scenario.cfg.duration;
    let gap = Dur(total.0.saturating_sub(Dur::from_hours(8).0) / n_crawls as u64);
    let mut window_s = 0.0;
    let mut timed_out = 0u64;
    for _ in 0..n_crawls {
        let t0 = std::time::Instant::now();
        rec.engine("core.crawl", || c.crawl(CRAWL_MAX_WAIT));
        window_s += t0.elapsed().as_secs_f64();
        if c.sim.actor(c.crawler).crawler().is_active() {
            timed_out += 1;
        }
        rec.engine("core.gap", || c.run_for(gap));
    }

    let t = rec.tracer.enter("core.collect");
    let snaps = c.snapshots().to_vec();
    let dbs = std::mem::take(&mut c.scenario.dbs);
    let lookahead = if c.shards() > 1 {
        c.sim.lookahead_matrix().to_vec()
    } else {
        Vec::new()
    };
    let providers = rec
        .tracer
        .time("kademlia.provider_records", || provider_records(c));
    let data = CrawlData {
        snaps,
        dbs,
        n_cloud_planted: n_cloud,
        engine: c.sim.stats(),
        loads: c.sim.shard_loads(),
        digest: c.sim.trace_digest(),
        wall_secs: 0.0,
        shards: c.shards(),
        placement: c.placement.clone(),
        lookahead,
        providers_live: providers.0,
        providers_raw: providers.1,
    };
    rec.tracer.exit(t);

    let t = rec.tracer.enter("core.analysis");
    let mut rendered = 0usize;
    for (name, render) in CRAWL_RENDERERS {
        rendered += rec.tracer.time(name, || render(&data).to_string().len());
    }
    std::hint::black_box(rendered);
    rec.tracer.exit(t);

    let wall_s = started.elapsed().as_secs_f64();
    let peers: usize = data.snaps.iter().map(|s| s.peer_count()).sum();
    Outcome {
        digest: data.digest,
        phase_digests: Vec::new(),
        stats: data.engine,
        loads: data.loads,
        attempted: n_crawls as u64,
        requests: peers as u64,
        failed: timed_out,
        unserved: 0,
        wall_s,
        window_s,
        snap: telemetry::snapshot(),
        providers,
        crawl_peers: peers as f64 / data.snaps.len().max(1) as f64,
        phase_rss_mb: Vec::new(),
    }
}

/// Replay phases in the order `workload_replay_exp::run` closes them.
const PHASE_SPANS: [&str; 4] = [
    "core.replay.bootstrap",
    "core.replay.preflash",
    "core.replay.flash",
    "core.replay.cooldown",
];

/// A replay campaign that has been set up but not run.
pub struct ReplaySetup {
    campaign: Campaign,
    spec: WorkloadSpec,
    telemetry_was_on: bool,
    pub setup_s: f64,
}

/// The `repro workload-replay` campaign for `repro_seed` (the seed `repro`
/// takes on its command line). The registry is reset and switched on
/// before `Campaign::new`, as the artefact does, unless `rec.registry_off`.
pub fn replay_setup(
    rec: &mut Recorder,
    scale: Scale,
    repro_seed: u64,
    shards: usize,
) -> ReplaySetup {
    let seed = repro_seed ^ REPLAY_SEED_XOR;
    let spec = workload_replay_exp::replay_spec(scale, seed);
    let cfg = scale.config(seed).with_shards(shards);
    let opts = CampaignOptions {
        with_workload: true,
        with_requests: false,
        live_workload: Some(spec.clone()),
        ..Default::default()
    };
    let telemetry_was_on = telemetry::enabled();
    let registry = !rec.registry_off;
    let (campaign, setup_s) = setup(rec, cfg, opts, || {
        telemetry::metrics::reset();
        telemetry::set_enabled(registry);
    });
    ReplaySetup {
        campaign,
        spec,
        telemetry_was_on,
        setup_s,
    }
}

/// A registry counter by name (0 if absent).
pub fn counter(snap: &telemetry::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| *v)
}

/// Requests the registry counts as served, by any path.
pub fn served(snap: &telemetry::Snapshot) -> u64 {
    counter(snap, "requests_served_cache")
        + counter(snap, "requests_served_bitswap")
        + counter(snap, "requests_served_dht")
}

/// One forked provider probe of `cid`, as the artefact samples it.
fn probe(rec: &mut Recorder, c: &mut Campaign, cid: ipfs_types::Cid) -> usize {
    let t = rec.tracer.enter("core.fork_probe");
    let n = c.with_fork(|f| {
        let resolved = rec.engine("kademlia.resolve_providers", || {
            f.resolve_providers(&[cid], true, Dur::from_secs(2))
        });
        let records = resolved
            .into_iter()
            .next()
            .map(|(_, recs, _)| recs)
            .unwrap_or_default();
        records.iter().filter(|r| f.record_reachable(r)).count() + records.len()
    });
    rec.tracer.exit(t);
    n
}

/// Bootstrap, pre-flash, flash and cooldown, with the six fork probes of
/// the flash CID at the artefact's sample points.
pub fn replay_run(rec: &mut Recorder, s: ReplaySetup) -> Outcome {
    let ReplaySetup {
        mut campaign,
        spec,
        telemetry_was_on,
        ..
    } = s;
    let started = std::time::Instant::now();
    let c = &mut campaign;
    let flash = spec.flash.expect("replay_spec always configures a flash");
    let span = spec.window.1 .0 - spec.window.0 .0;
    let samples = [
        SimTime(flash.window.0 .0.saturating_sub(span / 10)),
        SimTime(flash.window.0 .0),
        SimTime((flash.window.0 .0 + flash.window.1 .0) / 2),
        SimTime(flash.window.1 .0),
        SimTime(flash.window.1 .0 + span / 10),
        SimTime(flash.window.1 .0 + span / 5),
    ];
    let phase_ends = [spec.window.0, flash.window.0, flash.window.1, spec.window.1];
    let mut breakpoints: Vec<(SimTime, bool)> = phase_ends
        .iter()
        .map(|&t| (t, true))
        .chain(samples.iter().map(|&t| (t, false)))
        .collect();
    breakpoints.sort_by_key(|&(t, phase_end)| (t, phase_end));

    let flash_cid = c
        .sim
        .actor(c.webuser)
        .webuser()
        .replay
        .as_ref()
        .expect("campaign runs in replay mode")
        .flash_cid()
        .expect("flash rank within catalog");

    let mut phase_digests = Vec::new();
    let mut phase_rss_mb = Vec::new();
    let mut window_s = 0.0;
    let mut probed = 0usize;
    let mut open = None;
    for (t, phase_end) in breakpoints {
        if open.is_none() {
            open = Some(rec.tracer.enter(PHASE_SPANS[phase_digests.len()]));
        }
        let t0 = std::time::Instant::now();
        rec.engine("simnet.run_until", || c.sim.run_until(t.max(c.now())));
        if !phase_digests.is_empty() {
            window_s += t0.elapsed().as_secs_f64();
        }
        if phase_end {
            phase_digests.push(c.sim.trace_digest());
            phase_rss_mb.push(crate::procstat::rss_mb());
            rec.tracer.exit(open.take().expect("a phase span is open"));
        } else {
            probed += probe(rec, c, flash_cid);
        }
    }
    std::hint::black_box(probed);

    let issued = c
        .sim
        .actor(c.webuser)
        .webuser()
        .replay
        .as_ref()
        .expect("replay driver survives the run")
        .issued;
    let providers = rec
        .tracer
        .time("kademlia.provider_records", || provider_records(c));
    let snap = telemetry::snapshot();
    telemetry::set_enabled(telemetry_was_on);
    let attempted = issued.0 + issued.1;
    Outcome {
        digest: c.sim.trace_digest(),
        phase_digests,
        stats: c.sim.stats(),
        loads: c.sim.shard_loads(),
        attempted,
        requests: attempted,
        failed: 0,
        unserved: attempted.saturating_sub(served(&snap)),
        wall_s: started.elapsed().as_secs_f64(),
        window_s,
        snap,
        providers,
        crawl_peers: 0.0,
        phase_rss_mb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_split_parses_the_profiler_export() {
        let doc = concat!(
            "{\"traceEvents\":[",
            "{\"name\":\"epoch\",\"ph\":\"X\",\"ts\":5,\"dur\":40,\"pid\":0,\"tid\":0,",
            "\"args\":{\"events\":3,\"mailbox_events\":1,\"mailbox_bytes\":200,\"queue_len\":9}},",
            "{\"name\":\"work\",\"ph\":\"X\",\"ts\":7,\"dur\":25,\"pid\":0,\"tid\":0},",
            "{\"name\":\"epoch\",\"ph\":\"X\",\"ts\":5,\"dur\":38,\"pid\":0,\"tid\":1,",
            "\"args\":{\"events\":0,\"mailbox_events\":0,\"mailbox_bytes\":0,\"queue_len\":0}}",
            "],\"displayTimeUnit\":\"ms\"}"
        );
        let mut e = EpochSplit::default();
        e.add_chrome_trace(doc);
        assert_eq!((e.samples, e.total_us, e.work_us), (2, 78, 25));
    }
}
