// Debug: composition of crawl snapshots vs planted ground truth.
use netgen::ScenarioConfig;
use simnet::Dur;
use tcsb_core::{Campaign, CampaignOptions};

fn main() {
    let scenario = netgen::build(ScenarioConfig::tiny(42));
    let mut c = Campaign::new(
        scenario,
        CampaignOptions {
            with_workload: false,
            ..Default::default()
        },
    );
    c.run_for(Dur::from_hours(6));
    let idx = c.crawl(Dur::from_mins(40));
    let snap = &c.snapshots()[idx].clone();
    // Ground truth composition of online dialable nodes.
    let mut online = std::collections::HashMap::new();
    for (i, n) in c.scenario.nodes.iter().enumerate() {
        let id = c.node_ids[i];
        if c.sim.is_online(id) && c.sim.is_dialable(id) {
            *online.entry(format!("{:?}", n.segment)).or_insert(0) += 1;
        }
    }
    println!("online+dialable ground truth: {online:?}");
    // Crawled peers attributed by identity → segment.
    let mut by_seg = std::collections::HashMap::new();
    let mut unknown = 0;
    let id_of: std::collections::HashMap<_, _> = c
        .scenario
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (ipfs_types::Keypair::from_seed(n.identity_seed).peer_id(), i))
        .collect();
    for p in &snap.peers {
        if let Some(&i) = id_of.get(&p.peer) {
            *by_seg
                .entry(format!("{:?}", c.scenario.nodes[i].segment))
                .or_insert(0) += 1;
        } else {
            unknown += 1;
        }
    }
    println!("crawled peers by segment: {by_seg:?}, unknown identity: {unknown}");
    println!(
        "crawl size {} crawlable {}",
        snap.peer_count(),
        snap.crawlable_count()
    );
    // Cloud attribution of crawled peers.
    let mut cloud = 0;
    let mut non = 0;
    for p in &snap.peers {
        let c1 = p
            .ips
            .iter()
            .filter(|ip| c.scenario.dbs.cloud.lookup(**ip).is_some())
            .count();
        if c1 == p.ips.len() && !p.ips.is_empty() {
            cloud += 1
        } else {
            non += 1
        }
    }
    println!("crawled cloud {cloud} non {non}");
}
