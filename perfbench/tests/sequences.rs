//! Tiny-scale smoke runs of the benchmark's two call sequences against the
//! digests `repro` pins, plus the metric sets they produce.

use experiments::Scale;
use perfbench::report::{valid_name, END_TO_END, PER_LAYER};
use perfbench::workloads::Recorder;
use perfbench::{iterate, per_layer, pins, trace, Iteration, Measured, Sequence, Workload};
use std::sync::Mutex;

/// The telemetry registry is process-global; run one campaign at a time.
static CAMPAIGN: Mutex<()> = Mutex::new(());

/// `repro budget --scale tiny --seed 42`, pinned by CI for every shard count.
const TINY_CRAWL_DIGEST: u64 = 0x0cf5_aa2e_25ca_c8d1;

fn span_count(rec: &Recorder, name: &str) -> usize {
    rec.tracer.spans().iter().filter(|s| s.name == name).count()
}

#[test]
fn tiny_crawl_sequence_reproduces_the_ci_digest_at_1_and_2_shards() {
    let _one = CAMPAIGN.lock().unwrap_or_else(|e| e.into_inner());
    let pin = pins::Pin {
        seed: 42,
        crawl: TINY_CRAWL_DIGEST,
        replay: [0; 4],
    };
    for shards in [1, 2] {
        let w = Workload {
            name: "crawl-tiny",
            sequence: Sequence::Crawl,
            scale: Scale::Tiny,
            shards,
            nominal_s: 1.0,
        };
        let mut rec = Recorder::default();
        let it = iterate(&w, &mut rec, pin.seed, &pin, 0);
        assert_eq!(it.gate, Ok(()), "shards={shards}");
        let o = &it.outcome;
        assert_eq!((o.attempted, o.failed, o.unserved), (6, 0, 0));
        assert!(o.requests > 0 && (o.crawl_peers * 6.0 - o.requests as f64).abs() < 1e-6);
        assert_eq!(o.loads.len(), shards);
        for (name, n) in [
            ("netgen.build", 1),
            ("core.campaign_new", 1),
            ("core.warmup", 1),
            ("core.crawl", 6),
            ("core.gap", 6),
            ("core.analysis", 1),
            ("core.analysis.fig08", 1),
        ] {
            assert_eq!(span_count(&rec, name), n, "{name} at shards={shards}");
        }
        assert!(o.window_s > 0.0 && o.wall_s >= o.window_s);

        // A digest other than the pinned one fails every operation.
        let wrong = pins::Pin {
            crawl: TINY_CRAWL_DIGEST ^ 1,
            ..pin
        };
        let m = Measured {
            iterations: vec![Iteration {
                gate: w.check(&wrong, o),
                ..it
            }],
            setups: vec![0.1],
        };
        assert_eq!(m.accounting(), (6, 6, false));
        assert_eq!(m.end_to_end().get("ops_ok_share"), Some(0.0));
    }
}

#[test]
fn traced_tiny_crawl_adds_a_2_shard_pass_for_the_sync_layer() {
    let _one = CAMPAIGN.lock().unwrap_or_else(|e| e.into_inner());
    let pin = pins::Pin {
        seed: 42,
        crawl: TINY_CRAWL_DIGEST,
        replay: [0; 4],
    };
    let w = Workload {
        name: "crawl-tiny",
        sequence: Sequence::Crawl,
        scale: Scale::Tiny,
        shards: 1,
        nominal_s: 1.0,
    };
    let t = trace(&w, &pin);
    assert!(t.correct());
    assert_eq!(t.passes().count(), 3);
    let (two, _) = t.shards2.as_ref().expect("crawl has a 2-shard pass");
    assert_eq!(two.outcome.loads.len(), 2);
    let m = per_layer(&w, &t);
    assert!(m.missing().is_empty(), "{:?}", m.missing());
    // 1 shard is the control: no sync work. 2 shards do it.
    assert_eq!(m.get("simnet.epochs"), Some(0.0));
    assert!(m.get("simnet.shards2.epochs").is_some_and(|e| e > 0.0));
    assert!(m
        .get("simnet.shards2.epoch_work_s")
        .is_some_and(|s| s > 0.0));
    assert_eq!(m.get("simnet.shards2.epoch_samples_dropped"), Some(0.0));
    assert!(m.get("kademlia.lookups_completed").is_some_and(|n| n > 0.0));
}

#[test]
fn tiny_replay_sequence_reproduces_the_phase_digests() {
    let _one = CAMPAIGN.lock().unwrap_or_else(|e| e.into_inner());
    let w = Workload::by_name("replay-tiny-1shard").expect("declared workload");
    assert_eq!(
        (w.sequence, w.scale, w.shards),
        (Sequence::Replay, Scale::Tiny, 1)
    );
    let pin = pins::for_seed(42);
    assert_eq!(pin.seed, 42);
    let t = trace(&w, &pin);
    assert!(t.correct() && t.shards2.is_none());
    let layers = per_layer(&w, &t);
    // The plain pass runs without the registry, the traced pass with it.
    assert_eq!(perfbench::workloads::served(&t.plain.0.outcome.snap), 0);
    let (it, rec) = t.traced;
    assert_eq!(it.gate, Ok(()));
    assert_eq!(
        it.outcome.phase_digests,
        [
            0x2d09_332c_a748_dc65,
            0xcc71_deb8_8cc6_37d4,
            0xd1c4_1e2e_698c_b1be,
            0xee9d_a969_ba7c_1961
        ]
    );
    // `repro workload-replay --scale tiny --seed 42`: 67 500 requests
    // issued, 46 763 + 7 916 + 58 counted as served.
    assert_eq!(
        (it.outcome.attempted, it.outcome.requests),
        (67_500, 67_500)
    );
    assert_eq!(it.outcome.unserved, 67_500 - 54_737);
    assert_eq!(it.outcome.stats.events, 7_352_004);
    assert_eq!(it.outcome.phase_rss_mb.len(), 4);
    assert_eq!(span_count(&rec, "core.fork_probe"), 6);
    assert_eq!(span_count(&rec, "kademlia.resolve_providers"), 6);
    for phase in [
        "core.replay.bootstrap",
        "core.replay.preflash",
        "core.replay.flash",
        "core.replay.cooldown",
    ] {
        assert_eq!(span_count(&rec, phase), 1, "{phase}");
    }
    // Every declared metric is emitted, and under a legal name.
    assert!(layers.missing().is_empty(), "{:?}", layers.missing());
    let served = layers.get("ipfs_node.served_cache").unwrap_or(0.0);
    assert_eq!(served, 46_763.0);
    let m = Measured {
        iterations: vec![it],
        setups: vec![0.5],
    };
    let e2e = m.end_to_end();
    assert!(e2e.missing().is_empty(), "{:?}", e2e.missing());
    assert_eq!(e2e.get("ops_ok_share"), Some(54_737.0 / 67_500.0));
    assert!(END_TO_END.iter().chain(PER_LAYER).all(|s| valid_name(s.0)));
    for name in END_TO_END.iter().map(|s| s.0) {
        assert!(
            e2e.get(name).is_some_and(|v| v > 0.0),
            "{name} must not be 0"
        );
    }
}
