//! Cross-crate end-to-end tests through the facade: the same engine code
//! on the simulator, on real threads, and under the mini-MPI layer.

use std::time::Duration;

use newmadeleine::bytes::Bytes;
use newmadeleine::core::{EngineConfig, EventKind, OverloadStats, StrategyKind};
use newmadeleine::model::platform;
use newmadeleine::mpi::{world, WorldConfig, COMM_WORLD};
use newmadeleine::sim::Xoshiro256StarStar;
use newmadeleine::transport_mem::{pair, FabricConfig};
use newmadeleine::transport_tcp::{pair_localhost, TcpConfig};

const T: Duration = Duration::from_secs(20);

fn random(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

#[test]
fn every_strategy_delivers_on_threads() {
    for kind in [
        StrategyKind::SingleRail(0),
        StrategyKind::SingleRail(1),
        StrategyKind::SingleRailAggregating(0),
        StrategyKind::Greedy,
        StrategyKind::AggregateEager,
        StrategyKind::IsoSplit,
        StrategyKind::AdaptiveSplit,
    ] {
        let (a, b) = pair(FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(kind),
        ));
        let c = a.conns()[0];
        for (i, size) in [1usize, 100, 10_000, 300_000].into_iter().enumerate() {
            let payload = random(size, i as u64);
            let r = b.recv(c);
            let s = a.send(c, vec![Bytes::from(payload.clone())]);
            assert!(s.wait(T), "{}: send {size}B", kind.label());
            let msg = r
                .wait(T)
                .unwrap_or_else(|| panic!("{}: recv {size}B", kind.label()));
            assert_eq!(
                msg.segments[0].as_ref(),
                payload.as_slice(),
                "{}: payload integrity at {size}B",
                kind.label()
            );
        }
    }
}

/// One endpoint facade serves every fabric and runtime with the same
/// contract: a round trip completes in both directions, `try_send`
/// admits on an idle endpoint, reactor telemetry shows only on the
/// reactor, a clean run counts no errors, and on the thread-per-rail
/// runtimes the worker shards join `events()` once the endpoint shut
/// down.
#[test]
fn endpoint_facade_contract_on_every_fabric() {
    for fabric in [
        "mem-serial",
        "mem-parallel",
        "tcp-serial",
        "tcp-parallel",
        "tcp-reactor",
    ] {
        let mut engine = EngineConfig::with_strategy(StrategyKind::AdaptiveSplit);
        engine.parallel = fabric.ends_with("parallel");
        engine.reactor = fabric == "tcp-reactor";
        engine.record_capacity = 4096;
        let (mut a, mut b) = if fabric.starts_with("mem") {
            pair(FabricConfig::new(platform::paper_platform(), engine))
        } else {
            pair_localhost(TcpConfig::new(platform::paper_platform(), engine))
                .expect("localhost pair")
        };
        let c = a.conns()[0];
        let ping = random(256 << 10, 70);
        let r = b.recv(c);
        let s = a
            .try_send(c, vec![Bytes::from(ping.clone())])
            .unwrap_or_else(|e| panic!("{fabric}: try_send refused: {e:?}"));
        assert!(s.wait(T), "{fabric}: send");
        let msg = r.wait(T).unwrap_or_else(|| panic!("{fabric}: recv"));
        assert_eq!(msg.segments[0].as_ref(), ping.as_slice(), "{fabric}");
        let pong = random(1000, 71);
        let r = a.recv(c);
        assert!(b.send_blocking(c, vec![Bytes::from(pong.clone())], T));
        let msg = r.wait(T).unwrap_or_else(|| panic!("{fabric}: echo"));
        assert_eq!(msg.segments[0].as_ref(), pong.as_slice(), "{fabric}");

        assert_eq!(
            a.reactor_stats().is_some(),
            fabric == "tcp-reactor",
            "{fabric}: reactor telemetry"
        );
        a.shutdown();
        b.shutdown();
        for ep in [&a, &b] {
            assert_eq!(ep.rx_errors(), 0, "{fabric}");
            assert_eq!(ep.io_errors(), 0, "{fabric}");
            assert_eq!(ep.tx_dropped(), 0, "{fabric}");
            assert_eq!(ep.pool_leaks(), 0, "{fabric}");
            assert_eq!(ep.overload_stats(), OverloadStats::default(), "{fabric}");
        }
        if fabric.ends_with("parallel") {
            let tx_events = a.events();
            let rx_events = b.events();
            assert!(
                tx_events.iter().any(|e| e.kind == EventKind::WorkerWrite),
                "{fabric}: sender shard missing WorkerWrite events"
            );
            assert!(
                tx_events.iter().any(|e| e.kind == EventKind::TxPost),
                "{fabric}: engine ring missing from the merge"
            );
            assert!(
                rx_events.iter().any(|e| e.kind == EventKind::WorkerRx),
                "{fabric}: receiver shard missing WorkerRx events"
            );
            assert!(tx_events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        }
    }
}

#[test]
fn multi_segment_messages_survive_every_strategy() {
    for kind in [
        StrategyKind::Greedy,
        StrategyKind::AggregateEager,
        StrategyKind::AdaptiveSplit,
    ] {
        let (a, b) = pair(FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(kind),
        ));
        let c = a.conns()[0];
        // Mixed segment sizes: tiny + medium + rendezvous-sized.
        let segs: Vec<Bytes> = vec![
            Bytes::from(random(10, 1)),
            Bytes::from(random(20_000, 2)),
            Bytes::from(random(200_000, 3)),
            Bytes::from(random(500, 4)),
        ];
        let r = b.recv(c);
        let s = a.send(c, segs.clone());
        assert!(s.wait(T), "{}", kind.label());
        let msg = r.wait(T).expect("recv");
        assert_eq!(msg.segments, segs, "{}", kind.label());
    }
}

#[test]
fn three_rail_platform_end_to_end() {
    let (a, b) = pair(FabricConfig::new(
        platform::three_rail_platform(),
        EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
    ));
    let c = a.conns()[0];
    let payload = random(3 << 20, 99);
    let r = b.recv(c);
    let s = a.send(c, vec![Bytes::from(payload.clone())]);
    assert!(s.wait(T));
    assert_eq!(r.wait(T).unwrap().segments[0].as_ref(), payload.as_slice());
    let st = a.stats();
    let used = st.rails.iter().filter(|r| r.payload_bytes > 0).count();
    assert!(
        used >= 2,
        "3-rail split should use several rails: {:?}",
        st.rails
    );
}

#[test]
fn mpi_pingpong_over_multirail() {
    let ranks = world(
        2,
        WorldConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        ),
    );
    std::thread::scope(|s| {
        for r in &ranks {
            s.spawn(move || {
                let peer = 1 - r.rank;
                let data = random(1 << 20, r.rank as u64);
                let got = r.sendrecv(peer, COMM_WORLD, 3, &data);
                assert_eq!(got, random(1 << 20, peer as u64));
            });
        }
    });
}
