//! Deterministic sharding regression oracle on the stress preset: one
//! bootstrap hour at 4 shards replays the 1-shard history, and its epoch
//! schedule and per-shard dispatch are pinned exactly. Counters, not wall
//! clock: every asserted number is deterministic, so this holds on any
//! host (including the 1-CPU CI runner). A change to the placement, the
//! lookahead matrix or the executor moves the pins; re-record them with
//! the new numbers and their reason.

use simnet::{Dur, ShardLoad};
use tcsb_core::{Campaign, CampaignOptions};

/// One bootstrap hour of the stress preset: dense enough to exercise every
/// shard pair continuously, small enough for a debug run.
fn stress_hour(shards: usize) -> (u64, Vec<ShardLoad>) {
    let scenario = netgen::build(netgen::ScenarioConfig::stress(7).with_shards(shards));
    let mut campaign = Campaign::new(
        scenario,
        CampaignOptions {
            with_workload: true,
            with_requests: false,
            ..Default::default()
        },
    );
    campaign.run_for(Dur::from_hours(1));
    (campaign.sim.trace_digest(), campaign.sim.shard_loads())
}

/// Epochs every shard runs, and events each shard dispatches, over the
/// slice. The region-3 shard takes almost no bootstrap-hour traffic.
const EPOCHS: u64 = 13_133;
const DISPATCHED: [u64; 4] = [409_383, 347_167, 231_040, 954];

#[test]
fn stress_hour_on_4_shards_pins_history_and_sync_counters() {
    let (one, _) = stress_hour(1);
    let (four, loads) = stress_hour(4);
    assert_eq!(four, one, "4-shard run changed history");

    // Every shard runs the same epoch schedule.
    let epochs: Vec<u64> = loads.iter().map(|l| l.sync.epochs).collect();
    assert_eq!(epochs, vec![EPOCHS; 4]);
    let dispatched: Vec<u64> = loads.iter().map(|l| l.dispatched).collect();
    assert_eq!(dispatched, DISPATCHED);
}
