// Debug: do provides land on resolvers, and can the searcher find them?
use ipfs_types::Cid;
use netgen::ScenarioConfig;
use simnet::Dur;
use tcsb_core::{Campaign, CampaignOptions, EcoActor, EcoCmd};

fn main() {
    let mut cfg = ScenarioConfig::small(7);
    cfg.duration = Dur::from_hours(3 * 24); // shorter for debug
    let scenario = netgen::build(cfg);
    let mut c = Campaign::new(scenario, CampaignOptions::default());
    c.run_for(Dur::from_hours(3 * 24));

    // Publish fresh content from the monitor.
    let cid = Cid::from_seed(0xDEB6);
    c.sim.schedule_command(
        c.now(),
        c.monitor,
        EcoCmd::Node(ipfs_node::NodeCmd::Publish { cid, size: 100 }),
    );
    c.run_for(Dur::from_mins(5));

    // Oracle: which nodes hold a record for it?
    let mut holders = 0;
    for (i, &id) in c.node_ids.iter().enumerate() {
        if let EcoActor::Node(n) = c.sim.actor(id) {
            if n.dht()
                .providers()
                .has_provider(&cid, &c.sim.actor(c.monitor).node().peer_id())
            {
                holders += 1;
            }
            let _ = i;
        }
    }
    println!("record holders after publish: {holders}");
    // Also check table sizes.
    let mut sizes = vec![];
    for &id in c.node_ids.iter().take(400) {
        if let EcoActor::Node(n) = c.sim.actor(id) {
            if c.sim.is_online(id) {
                sizes.push(n.dht().table().len());
            }
        }
    }
    sizes.sort();
    println!(
        "online table sizes: min {} median {} max {}",
        sizes[0],
        sizes[sizes.len() / 2],
        sizes[sizes.len() - 1]
    );
    // Searcher resolution.
    let res = c.resolve_providers(&[cid], true, Dur::from_secs(5));
    for (c_, recs, contacted) in &res {
        println!(
            "resolved {:?}: {} records, contacted {}",
            c_,
            recs.len(),
            contacted
        );
    }
    // And one platform item.
    let plat = c
        .scenario
        .content
        .iter()
        .rev()
        .find(|i| i.window == (0, 3))
        .map(|i| i.cid);
    println!("platform cid present: {}", plat.is_some());
    // monitor event check
    let ev = &c.sim.actor(c.monitor).node().events;
    println!(
        "monitor events (record_events={}): {}",
        c.sim.actor(c.monitor).node().cfg.record_events,
        ev.len()
    );
}
