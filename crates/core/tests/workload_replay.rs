//! Live workload replay: the generative request stream (Zipf sampling,
//! diurnal curves, flash crowds) must replay byte-identically across
//! engine shard counts, and a configured flash crowd must actually change
//! the trace relative to the same spec without one.

use netgen::{FlashCrowdSpec, ScenarioConfig, WorkloadSpec};
use simnet::{Dur, SimTime};
use tcsb_core::{Campaign, CampaignOptions};

const HOUR: u64 = 3_600_000_000_000;

fn replay_spec(seed: u64, with_flash: bool) -> WorkloadSpec {
    let window = (SimTime(6 * HOUR), SimTime(12 * HOUR));
    let mut spec = WorkloadSpec::preset(3_000, window, seed ^ 0xF00D);
    if with_flash {
        spec.flash = Some(FlashCrowdSpec {
            rank: 2,
            boost: 100,
            extra_requests: 400,
            window: (SimTime(8 * HOUR), SimTime(9 * HOUR)),
        });
    }
    spec
}

/// Trace digest + request accounting after the replay window closes.
fn replay_fingerprint(seed: u64, shards: usize, with_flash: bool) -> (u64, u64, u64, u64) {
    let scenario = netgen::build(ScenarioConfig::tiny(seed).with_shards(shards));
    let mut c = Campaign::new(
        scenario,
        CampaignOptions {
            with_workload: true,
            with_requests: false,
            live_workload: Some(replay_spec(seed, with_flash)),
            ..Default::default()
        },
    );
    c.run_for(Dur::from_hours(13));
    assert_queue_memory_bounded(&c, shards);
    let (http, fetch) = c
        .sim
        .actor(c.webuser)
        .webuser()
        .replay
        .as_ref()
        .expect("campaign runs in replay mode")
        .issued;
    (c.sim.trace_digest(), c.sim.stats().events, http, fetch)
}

/// The event queues hold memory for live events only: their heap bytes
/// stay within `K` entries per event of the peak queue length, plus each
/// shard's fixed bucket headers (`peak_queue_len` is the largest shard's
/// peak, so both terms scale with the shard count). Every key and payload
/// slot sits in a buffer grown by doubling; these replays end at 0.9–1.7
/// entries per peak event, and `K = 4` leaves room for one slack-heavy
/// buffer. A wheel whose drained buckets keep their capacity ends the
/// 1-shard replay about 12 times above this bound.
fn assert_queue_memory_bounded(c: &Campaign, shards: usize) {
    const K: usize = 4;
    let peak = c.sim.stats().peak_queue_len as usize;
    let bound = shards
        * (K * peak * simnet::Sim::<tcsb_core::EcoActor>::QUEUE_ENTRY_BYTES
            + simnet::wheel::BUCKET_HEADER_BYTES);
    let bytes = c.sim.queue_bytes();
    assert!(
        bytes <= bound,
        "{shards}-shard queues hold {bytes} heap bytes for a peak of {peak} events (bound {bound})"
    );
}

#[test]
fn flash_replay_matches_across_shard_counts() {
    let one = replay_fingerprint(42, 1, true);
    // The full configured stream was issued: 3 000 organic requests plus
    // the 400-request flash crowd, split between HTTP and direct fetches.
    assert_eq!(one.2 + one.3, 3_400, "request accounting: {one:?}");
    assert!(one.2 > 0 && one.3 > 0, "both routes exercised: {one:?}");
    for shards in [2usize, 4] {
        let many = replay_fingerprint(42, shards, true);
        assert_eq!(one, many, "{shards}-shard flash replay diverged");
    }
}

#[test]
fn flash_crowd_changes_the_trace() {
    let on = replay_fingerprint(42, 1, true);
    let off = replay_fingerprint(42, 1, false);
    assert_eq!(off.2 + off.3, 3_000, "organic-only accounting: {off:?}");
    assert_ne!(
        on.0, off.0,
        "flash crowd must leave a mark on the trace digest"
    );
}
