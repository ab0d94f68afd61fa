//! NAT-ed providers and circuit relays (§6 of the paper): a NAT-ed client
//! publishes through a relay, the exhaustive provider search retrieves the
//! circuit record, and the classification pipeline labels it — including
//! the "80% of NAT-ed peers use a cloud relay" analysis.
//!
//! ```sh
//! cargo run --release --example nat_relay_providers
//! ```

use ipfs_types::Cid;
use netgen::{ScenarioConfig, Segment};
use simnet::Dur;
use tcsb_core::{classify_provider, Campaign, CampaignOptions, EcoCmd, ProviderClass};

fn main() {
    let scenario = netgen::build(ScenarioConfig::tiny(33));
    let mut campaign = Campaign::new(
        scenario,
        CampaignOptions {
            with_workload: false,
            ..Default::default()
        },
    );
    campaign.run_for(Dur::from_hours(8));

    // Pick NAT-ed clients that are online right now and make them publish.
    let mut publishers = Vec::new();
    for (i, spec) in campaign.scenario.nodes.iter().enumerate() {
        if spec.segment == Segment::NatClient && campaign.sim.is_online(campaign.node_ids[i]) {
            publishers.push(i);
        }
        if publishers.len() == 12 {
            break;
        }
    }
    println!(
        "publishing from {} NAT-ed clients via their relays…",
        publishers.len()
    );
    let mut cids = Vec::new();
    for (n, &i) in publishers.iter().enumerate() {
        let cid = Cid::from_seed(0x4A70_0000 + n as u64);
        cids.push(cid);
        campaign.sim.schedule_command(
            campaign.now(),
            campaign.node_ids[i],
            EcoCmd::Node(ipfs_node::NodeCmd::Publish { cid, size: 512 }),
        );
    }
    campaign.run_for(Dur::from_mins(10));

    // Exhaustive provider search (the paper's modified FindProviders).
    let resolved = campaign.resolve_providers(&cids, true, Dur::from_secs(10));
    let dbs = &campaign.scenario.dbs;
    let is_cloud = |ip: std::net::Ipv4Addr| dbs.cloud.lookup(ip).is_some();

    let mut nat_records = 0;
    let mut cloud_relays = 0;
    for (cid, recs, _) in &resolved {
        for rec in recs {
            let class = classify_provider(&[rec], is_cloud);
            if class == ProviderClass::Nat {
                nat_records += 1;
                for addr in rec.addrs.iter() {
                    if addr.is_circuit() {
                        let relay_ip = addr.ip4().expect("circuit has relay ip");
                        if is_cloud(relay_ip) {
                            cloud_relays += 1;
                        }
                        println!(
                            "{}…  NAT-ed provider via relay {} ({})",
                            &cid.to_string_canonical()[..16],
                            relay_ip,
                            if is_cloud(relay_ip) {
                                "cloud"
                            } else {
                                "non-cloud"
                            }
                        );
                    }
                }
            }
        }
    }
    println!();
    println!("NAT-ed provider records found: {nat_records}");
    if nat_records > 0 {
        println!(
            "relays hosted in the cloud: {:.0}%  (paper: ≈80%)",
            100.0 * cloud_relays as f64 / nat_records as f64
        );
    }
    println!("The record's visible IP is the *relay's*, not the provider's —");
    println!("exactly the subtlety that makes NAT-ed hosting lean on cloud nodes.");
}
