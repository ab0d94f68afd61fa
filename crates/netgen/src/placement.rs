//! Node→shard placement: whole regions per shard.
//!
//! Every node goes to [`shard_for`]`(region, shards)` (`region % shards`),
//! so regions never split: every cross-shard pair talks only over
//! inter-region links and keeps the wide channel lookahead that the
//! engine's per-pair matrix (`Sim::lookahead_matrix`) turns into wide
//! epoch horizons. Placement only decides which thread owns a node, never
//! the simulation's results: the engine replays byte-identical history
//! under any assignment.

use crate::shard_for;

/// A campaign's node→shard assignment.
#[derive(Clone, Debug)]
pub struct Placement {
    /// Shard per node, in the order the regions were given.
    pub shard_of: Vec<u16>,
}

impl Placement {
    /// Place nodes of the given regions (in add order) over `shards`.
    pub fn new(regions: impl IntoIterator<Item = u16>, shards: usize) -> Placement {
        Placement {
            shard_of: regions.into_iter().map(|r| shard_for(r, shards)).collect(),
        }
    }
}
