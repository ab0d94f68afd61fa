//! End-to-end protocol tests on small simulated networks.

use ipfs_node::{IpfsNode, NodeActor, NodeCmd, NodeConfig, NodeEvent};
use ipfs_types::Cid;
use simnet::{Dur, LatencyModel, NodeId, NodeSetup, Sim, SimConfig};
use std::net::Ipv4Addr;

fn ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0x0a00_0000u32 + i + 1) // 10.x.y.z
}

/// Build a network of `n` public nodes (node 0 is the bootstrap), all
/// started and bootstrapped, with events recorded.
fn build_network(n: u32, seed: u64) -> (Sim<NodeActor>, Vec<NodeId>) {
    let cfg = SimConfig {
        dial_timeout: Dur::from_secs(5),
        ..Default::default()
    };
    let mut sim: Sim<NodeActor> =
        Sim::new(cfg, LatencyModel::uniform(Dur::from_millis(30), 0.3), seed);
    let mut ids = Vec::new();
    let boot_identity = 1_000_000u64;
    let boot_peer = ipfs_types::Keypair::from_seed(boot_identity).peer_id();
    for i in 0..n {
        let mut nc = NodeConfig::regular(if i == 0 { boot_identity } else { i as u64 });
        nc.record_events = true;
        nc.refresh_interval = Dur::from_mins(30);
        if i > 0 {
            nc.bootstrap = vec![(boot_peer, NodeId(0))];
        }
        let node = IpfsNode::new(nc);
        let id = sim.add_node(NodeActor(node), NodeSetup::public(ip(i)));
        ids.push(id);
    }
    (sim, ids)
}

#[test]
fn nodes_bootstrap_and_fill_tables() {
    let (mut sim, ids) = build_network(30, 1);
    sim.run_for(Dur::from_mins(10));
    let mut sizes = Vec::new();
    for &id in &ids[1..] {
        let table = sim.actor(id).0.dht().table();
        sizes.push(table.len());
    }
    let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    assert!(avg > 15.0, "tables too sparse after bootstrap: avg {avg}");
    // Everyone bootstrapped.
    for &id in &ids[1..] {
        assert!(
            sim.actor(id).0.events.contains(&NodeEvent::Bootstrapped),
            "node {id:?} failed to bootstrap"
        );
    }
}

#[test]
fn publish_then_fetch_via_dht() {
    let (mut sim, ids) = build_network(25, 2);
    sim.run_for(Dur::from_mins(5));
    let cid = Cid::from_seed(777);
    // Node 5 publishes; node 17 fetches (no prior Bitswap relationship —
    // must go through DHT provider records).
    sim.schedule_command(sim.now(), ids[5], NodeCmd::Publish { cid, size: 4096 });
    sim.run_for(Dur::from_mins(2));
    // The publisher registered records at resolvers.
    let provided = sim.actor(ids[5]).0.events.iter().any(
        |e| matches!(e, NodeEvent::Provided { cid: c, resolvers } if *c == cid && *resolvers > 0),
    );
    assert!(
        provided,
        "publish did not complete: {:?}",
        sim.actor(ids[5]).0.events
    );

    sim.schedule_command(sim.now(), ids[17], NodeCmd::Fetch { cid });
    sim.run_for(Dur::from_mins(3));
    let fetched = sim
        .actor(ids[17])
        .0
        .events
        .iter()
        .find(|e| matches!(e, NodeEvent::FetchCompleted { cid: c, .. } if *c == cid));
    assert!(
        fetched.is_some(),
        "fetch failed: {:?}",
        sim.actor(ids[17]).0.events
    );
    assert!(sim.actor(ids[17]).0.store().has(&cid));
}

#[test]
fn fetch_via_bitswap_neighbors_skips_dht() {
    let (mut sim, ids) = build_network(10, 3);
    sim.run_for(Dur::from_mins(5));
    let cid = Cid::from_seed(42);
    sim.schedule_command(sim.now(), ids[3], NodeCmd::Publish { cid, size: 100 });
    sim.run_for(Dur::from_mins(1));
    // In a 10-node network everyone is connected to everyone after
    // bootstrap, so the 1-hop broadcast finds the block.
    sim.schedule_command(sim.now(), ids[7], NodeCmd::Fetch { cid });
    sim.run_for(Dur::from_mins(1));
    let ev = sim.actor(ids[7]).0.events.iter().find_map(|e| match e {
        NodeEvent::FetchCompleted {
            cid: c, via_dht, ..
        } if *c == cid => Some(*via_dht),
        _ => None,
    });
    assert_eq!(
        ev,
        Some(false),
        "expected bitswap-only fetch: {:?}",
        sim.actor(ids[7]).0.events
    );
}

#[test]
fn fetch_missing_content_fails_cleanly() {
    let (mut sim, ids) = build_network(15, 4);
    sim.run_for(Dur::from_mins(5));
    let cid = Cid::from_seed(31337); // never published
    sim.schedule_command(sim.now(), ids[2], NodeCmd::Fetch { cid });
    sim.run_for(Dur::from_mins(5));
    let failed = sim
        .actor(ids[2])
        .0
        .events
        .iter()
        .any(|e| matches!(e, NodeEvent::FetchFailed { cid: c } if *c == cid));
    assert!(
        failed,
        "expected clean failure: {:?}",
        sim.actor(ids[2]).0.events
    );
}

#[test]
fn nat_node_acquires_relay_and_serves_content() {
    let cfg = SimConfig {
        dial_timeout: Dur::from_secs(5),
        ..Default::default()
    };
    let mut sim: Sim<NodeActor> =
        Sim::new(cfg, LatencyModel::uniform(Dur::from_millis(20), 0.2), 5);
    let boot_peer = ipfs_types::Keypair::from_seed(1_000_000).peer_id();
    let mut ids = Vec::new();
    for i in 0..20u32 {
        let mut nc = NodeConfig::regular(if i == 0 { 1_000_000 } else { i as u64 });
        nc.record_events = true;
        if i > 0 {
            nc.bootstrap = vec![(boot_peer, NodeId(0))];
        }
        let setup = if i == 19 {
            NodeSetup::nat(ip(i)) // the last node is NAT-ed
        } else {
            NodeSetup::public(ip(i))
        };
        ids.push(sim.add_node(NodeActor(IpfsNode::new(nc)), setup));
    }
    sim.run_for(Dur::from_mins(10));
    let nat = &sim.actor(ids[19]).0;
    assert!(!nat.dht().is_server(), "NAT-ed node must be a DHT client");
    assert!(
        nat.relay().is_some(),
        "NAT-ed node failed to acquire a relay: {:?}",
        nat.events
    );
    // NAT-ed node publishes; a public node fetches through the relay.
    let cid = Cid::from_seed(2024);
    sim.schedule_command(sim.now(), ids[19], NodeCmd::Publish { cid, size: 512 });
    sim.run_for(Dur::from_mins(2));
    sim.schedule_command(sim.now(), ids[4], NodeCmd::Fetch { cid });
    sim.run_for(Dur::from_mins(3));
    let got = sim
        .actor(ids[4])
        .0
        .events
        .iter()
        .any(|e| matches!(e, NodeEvent::FetchCompleted { cid: c, .. } if *c == cid));
    assert!(
        got,
        "fetch through relay failed: {:?}",
        sim.actor(ids[4]).0.events
    );
}

#[test]
fn provider_records_carry_relay_circuit_addrs() {
    // Direct inspection: a NAT-ed provider's records must embed the relay.
    let cfg = SimConfig {
        dial_timeout: Dur::from_secs(5),
        ..Default::default()
    };
    let mut sim: Sim<NodeActor> =
        Sim::new(cfg, LatencyModel::uniform(Dur::from_millis(20), 0.2), 6);
    let boot_peer = ipfs_types::Keypair::from_seed(1_000_000).peer_id();
    let mut ids = Vec::new();
    for i in 0..15u32 {
        let mut nc = NodeConfig::regular(if i == 0 { 1_000_000 } else { i as u64 });
        nc.record_events = true;
        if i > 0 {
            nc.bootstrap = vec![(boot_peer, NodeId(0))];
        }
        let setup = if i == 14 {
            NodeSetup::nat(ip(i))
        } else {
            NodeSetup::public(ip(i))
        };
        ids.push(sim.add_node(NodeActor(IpfsNode::new(nc)), setup));
    }
    sim.run_for(Dur::from_mins(10));
    let cid = Cid::from_seed(99);
    sim.schedule_command(sim.now(), ids[14], NodeCmd::Publish { cid, size: 64 });
    sim.run_for(Dur::from_mins(2));
    // Find the record on some resolver.
    let mut found_circuit = false;
    for &id in &ids[..14] {
        let node = &sim.actor(id).0;
        if node
            .dht()
            .providers()
            .has_provider(&cid, &sim.actor(ids[14]).0.peer_id())
        {
            found_circuit = true;
        }
    }
    assert!(
        found_circuit,
        "no resolver holds the NAT-ed provider's record"
    );
    // And the NAT-ed node's own advertised record is a circuit address.
    let nat = &sim.actor(ids[14]).0;
    assert!(nat.relay().is_some());
}

#[test]
fn gateway_serves_http_and_caches() {
    let (mut sim, ids) = build_network(20, 7);
    // Make node 1 a gateway.
    sim.actor_mut(ids[1]).0.cfg.is_gateway = true;
    sim.run_for(Dur::from_mins(5));
    let cid = Cid::from_seed(555);
    sim.schedule_command(sim.now(), ids[9], NodeCmd::Publish { cid, size: 2048 });
    sim.run_for(Dur::from_mins(2));
    // Node 15 acts as HTTP client hitting the gateway.
    sim.schedule_command(
        sim.now(),
        ids[15],
        NodeCmd::HttpGet {
            frontend: ids[1],
            cid,
        },
    );
    sim.run_for(Dur::from_mins(3));
    let gw = &sim.actor(ids[1]).0;
    let served: Vec<&NodeEvent> = gw
        .events
        .iter()
        .filter(|e| matches!(e, NodeEvent::HttpServed { .. }))
        .collect();
    assert!(
        !served.is_empty(),
        "gateway served nothing: {:?}",
        gw.events
    );
    assert!(
        matches!(served[0], NodeEvent::HttpServed { found: true, .. }),
        "gateway 404: {served:?}"
    );
    // Gateway now caches the content (it fetched it).
    assert!(gw.store().has(&cid));
    // Second request: cache hit.
    sim.schedule_command(
        sim.now(),
        ids[16],
        NodeCmd::HttpGet {
            frontend: ids[1],
            cid,
        },
    );
    sim.run_for(Dur::from_mins(1));
    let gw = &sim.actor(ids[1]).0;
    let cache_hits = gw
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                NodeEvent::HttpServed {
                    cache_hit: true,
                    ..
                }
            )
        })
        .count();
    assert_eq!(cache_hits, 1, "expected a cache hit: {:?}", gw.events);
}

#[test]
fn concurrent_gateway_requests_for_same_cid_coalesce() {
    // Regression: a second HTTP request arriving while the gateway was
    // already fetching the same CID used to be dropped on the floor —
    // the client hung until its own timeout and the gateway never
    // answered. Both requests must now share the in-flight fetch.
    let (mut sim, ids) = build_network(20, 9);
    sim.actor_mut(ids[1]).0.cfg.is_gateway = true;
    sim.run_for(Dur::from_mins(5));
    let cid = Cid::from_seed(808);
    sim.schedule_command(sim.now(), ids[9], NodeCmd::Publish { cid, size: 2048 });
    sim.run_for(Dur::from_mins(2));
    // Two clients race for the same CID; the gateway sees the second
    // request while the first fetch is still in flight.
    for &client in &[ids[15], ids[16]] {
        sim.schedule_command(
            sim.now(),
            client,
            NodeCmd::HttpGet {
                frontend: ids[1],
                cid,
            },
        );
    }
    sim.run_for(Dur::from_mins(3));
    let gw = &sim.actor(ids[1]).0;
    let served_ok = gw
        .events
        .iter()
        .filter(|e| matches!(e, NodeEvent::HttpServed { found: true, .. }))
        .count();
    assert_eq!(
        served_ok, 2,
        "both coalesced requests must be answered: {:?}",
        gw.events
    );
    // Only one fetch pipeline ran for the pair.
    let fetches = gw
        .events
        .iter()
        .filter(|e| matches!(e, NodeEvent::FetchCompleted { cid: c, .. } if *c == cid))
        .count();
    assert_eq!(fetches, 1, "requests must share one fetch: {:?}", gw.events);
}

#[test]
fn resolve_providers_exhaustive_collects_records() {
    let (mut sim, ids) = build_network(25, 8);
    sim.run_for(Dur::from_mins(5));
    let cid = Cid::from_seed(1234);
    // Multiple providers.
    for &p in &[3usize, 6, 9] {
        sim.schedule_command(sim.now(), ids[p], NodeCmd::Publish { cid, size: 128 });
    }
    sim.run_for(Dur::from_mins(3));
    sim.schedule_command(
        sim.now(),
        ids[20],
        NodeCmd::ResolveProviders {
            cid,
            exhaustive: true,
        },
    );
    sim.run_for(Dur::from_mins(2));
    let resolved = sim.actor(ids[20]).0.events.iter().find_map(|e| match e {
        NodeEvent::ProvidersResolved {
            cid: c,
            records,
            contacted,
            ..
        } if *c == cid => Some((records.len(), *contacted)),
        _ => None,
    });
    let (n_records, contacted) = resolved.expect("resolution never finished");
    assert!(
        n_records >= 3,
        "expected ≥3 provider records, got {n_records}"
    );
    assert!(contacted > 0);
}

#[test]
fn churn_and_rejoin_with_new_ip() {
    let (mut sim, ids) = build_network(20, 9);
    sim.run_for(Dur::from_mins(5));
    let victim = ids[10];
    sim.schedule_down(sim.now() + Dur::from_secs(1), victim);
    sim.run_for(Dur::from_mins(1));
    assert!(!sim.is_online(victim));
    // Rejoin with a rotated IP.
    let new_addr = std::net::SocketAddrV4::new(ip(10_000), 4001);
    sim.schedule_up(sim.now() + Dur::from_secs(5), victim, Some(new_addr));
    sim.run_for(Dur::from_mins(5));
    assert!(sim.is_online(victim));
    assert_eq!(sim.addr(victim), new_addr);
    // It re-bootstrapped into the network.
    let table_len = sim.actor(victim).0.dht().table().len();
    assert!(table_len > 5, "rejoined node has empty table: {table_len}");
}

#[test]
fn deterministic_runs_same_seed() {
    let run = |seed: u64| {
        let (mut sim, ids) = build_network(15, seed);
        sim.run_for(Dur::from_mins(3));
        let cid = Cid::from_seed(1);
        sim.schedule_command(sim.now(), ids[2], NodeCmd::Publish { cid, size: 10 });
        sim.run_for(Dur::from_mins(2));
        sim.schedule_command(sim.now(), ids[7], NodeCmd::Fetch { cid });
        sim.run_for(Dur::from_mins(2));
        (
            sim.stats().events,
            sim.stats().msgs_delivered,
            sim.actor(ids[7]).0.events.clone(),
        )
    };
    assert_eq!(run(42), run(42), "same seed must give identical traces");
}

#[test]
fn identity_adoption_resets_peer_id() {
    let (mut sim, ids) = build_network(10, 11);
    sim.run_for(Dur::from_mins(3));
    let old = sim.actor(ids[4]).0.peer_id();
    sim.schedule_command(sim.now(), ids[4], NodeCmd::AdoptIdentity { seed: 999_999 });
    sim.run_for(Dur::from_mins(3));
    let new = sim.actor(ids[4]).0.peer_id();
    assert_ne!(old, new);
    assert_eq!(new, ipfs_types::Keypair::from_seed(999_999).peer_id());
    // Re-bootstrapped under the new identity.
    assert!(sim.actor(ids[4]).0.dht().table().len() > 3);
}

#[test]
fn connection_manager_trims_to_watermarks() {
    let cfg = SimConfig {
        dial_timeout: Dur::from_secs(5),
        ..Default::default()
    };
    let mut sim: Sim<NodeActor> =
        Sim::new(cfg, LatencyModel::uniform(Dur::from_millis(10), 0.1), 12);
    let boot_peer = ipfs_types::Keypair::from_seed(1_000_000).peer_id();
    let mut ids = Vec::new();
    for i in 0..40u32 {
        let mut nc = NodeConfig::regular(if i == 0 { 1_000_000 } else { i as u64 });
        // Tiny watermarks to force trimming.
        nc.conn_low = 5;
        nc.conn_high = 10;
        nc.connmgr_interval = Dur::from_mins(1);
        if i > 0 {
            nc.bootstrap = vec![(boot_peer, NodeId(0))];
        }
        ids.push(sim.add_node(NodeActor(IpfsNode::new(nc)), NodeSetup::public(ip(i))));
    }
    sim.run_for(Dur::from_mins(20));
    // After the dust settles, no node should sit far above its high mark.
    let max_conns = ids
        .iter()
        .map(|&id| sim.connection_count(id))
        .max()
        .unwrap();
    assert!(
        max_conns <= 14,
        "connection manager not trimming: {max_conns}"
    );
}
