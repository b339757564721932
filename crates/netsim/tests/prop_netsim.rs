//! Property tests for the simulated network.
//!
//! The netsim substrate carries both of Table 1's protocol classes
//! (reliable control pipe, lossy CM datagram service), so its core
//! guarantees — FIFO pipes, exact delays, loss extremes, jitter
//! bounds — are checked for arbitrary traffic patterns. The control
//! stacks get their connections from a `TransportBackend`, so the same
//! delivery contract is checked over both backends.

use netsim::{
    DatagramNet, DelayModel, LinkConfig, LossModel, LossState, Medium, NetAddr, Network, Pipe,
    SimBackend, SimDuration, SimTime, ThreadedBackend, TransportBackend,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A backend and what makes its traffic arrive.
type Settled = (Box<dyn TransportBackend>, Box<dyn Fn()>);

/// Both backends: stepping the network settles simulated pipes, and
/// channels need nothing.
fn backends() -> Vec<Settled> {
    let net = Arc::new(Network::new(7));
    let sim = SimBackend::new(&net, SimDuration::from_millis(1));
    vec![
        (Box::new(sim), Box::new(move || net.run_until_idle())),
        (Box::new(ThreadedBackend::new()), Box::new(|| {})),
    ]
}

/// Everything that has arrived at `end`, in arrival order.
fn drain(end: &dyn Medium) -> Vec<Vec<u8>> {
    std::iter::from_fn(|| end.poll()).collect()
}

/// Connections minted by one backend are independent: traffic on one
/// never shows up on another.
#[test]
fn parallel_connections_do_not_interleave_data() {
    for (backend, settle) in backends() {
        let (a1, b1) = backend.connect();
        let (a2, b2) = backend.connect();
        a1.send(b"first".to_vec());
        a2.send(b"second".to_vec());
        a1.send(b"first-again".to_vec());
        settle();
        assert_eq!(drain(&*b1), [b"first".to_vec(), b"first-again".to_vec()]);
        assert_eq!(drain(&*b2), [b"second".to_vec()]);
    }
}

/// Dropping one end of a connection is safe on every backend: what the
/// other end sends afterwards goes nowhere and panics nothing.
#[test]
fn a_dropped_peer_discards_traffic_on_every_backend() {
    for (backend, settle) in backends() {
        let (a, b) = backend.connect();
        drop(b);
        a.send(vec![1]);
        settle();
        assert!(a.poll().is_none());
    }
}

/// A threaded connection's ends live on different OS threads: an echo
/// on its own thread returns every message, in order.
#[test]
fn threaded_backend_transfers_across_real_threads() {
    let (a, b) = ThreadedBackend::new().connect();
    let echo = std::thread::spawn(move || {
        for _ in 0..50 {
            let msg = loop {
                match b.poll() {
                    Some(msg) => break msg,
                    None => std::thread::yield_now(),
                }
            };
            b.send(msg);
        }
    });
    let sent: Vec<Vec<u8>> = (0..50u32).map(|i| i.to_be_bytes().to_vec()).collect();
    sent.iter().for_each(|m| a.send(m.clone()));
    echo.join().unwrap();
    assert_eq!(drain(&*a), sent);
}

proptest! {
    /// Over every backend a connection delivers each message whole
    /// (empty and multi-kilobyte ones included), in order, both ways.
    #[test]
    fn in_order_delivery_on_every_backend(
        msgs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..3000), 0..20),
    ) {
        for (backend, settle) in backends() {
            let (a, b) = backend.connect();
            for m in &msgs {
                a.send(m.clone());
                b.send(m.clone());
            }
            settle();
            prop_assert_eq!(b.available(), msgs.len());
            prop_assert_eq!(drain(&*b), msgs.clone());
            prop_assert_eq!(drain(&*a), msgs.clone());
        }
    }

    /// A simulated backend's connections deliver exactly its delay after
    /// the send, not a microsecond sooner.
    #[test]
    fn sim_backend_delivers_after_its_delay(delay_us in 1u64..10_000, seed in 0u64..1000) {
        let net = Arc::new(Network::new(seed));
        let (a, b) = SimBackend::new(&net, SimDuration::from_micros(delay_us)).connect();
        a.send(vec![1]);
        net.run_until(SimTime::from_micros(delay_us - 1));
        prop_assert_eq!(b.available(), 0);
        net.run_until(SimTime::from_micros(delay_us));
        prop_assert_eq!(b.poll(), Some(vec![1]));
    }

    /// Everything sent on a perfect pipe arrives, in order, exactly
    /// `delay` later.
    #[test]
    fn pipe_is_fifo_and_lossless(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..40),
        delay_us in 1u64..10_000,
        seed in 0u64..1000,
    ) {
        let net = Arc::new(Network::new(seed));
        let delay = SimDuration::from_micros(delay_us);
        let (a, b) = Pipe::create(&net, delay);
        for p in &payloads {
            a.send(p.clone());
        }
        let sent_at = net.now();
        net.run_until_idle();
        let mut got = Vec::new();
        while let Some(d) = b.recv() {
            prop_assert_eq!(d.delivered_at, sent_at + delay);
            prop_assert_eq!(d.sent_at, sent_at);
            got.push(d.data);
        }
        prop_assert_eq!(got, payloads);
        prop_assert_eq!(b.pending(), 0);
    }

    /// A FIFO link with jitter still delivers in send order.
    #[test]
    fn fifo_link_preserves_order_under_jitter(
        count in 1usize..60,
        jitter_us in 1u64..5_000,
        seed in 0u64..1000,
    ) {
        let net = Arc::new(Network::new(seed));
        let mut config = LinkConfig::lossy(
            SimDuration::from_micros(2_000),
            SimDuration::from_micros(jitter_us),
            0.0,
        );
        config.fifo = true;
        let (a, b) = Pipe::create_with(&net, config);
        for i in 0..count {
            a.send(vec![i as u8]);
        }
        net.run_until_idle();
        let mut prev_delivery = SimTime::ZERO;
        for i in 0..count {
            let d = b.recv().expect("lossless link");
            prop_assert_eq!(d.data, vec![i as u8]);
            prop_assert!(d.delivered_at >= prev_delivery, "FIFO delivery order");
            prev_delivery = d.delivered_at;
        }
        prop_assert!(b.recv().is_none());
    }

    /// Loss extremes: p=0 delivers everything, p=1 nothing.
    #[test]
    fn datagram_loss_extremes(
        count in 1usize..50,
        seed in 0u64..1000,
        drop_all in any::<bool>(),
    ) {
        let net = Arc::new(Network::new(seed));
        let p = if drop_all { 1.0 } else { 0.0 };
        let dg = DatagramNet::new(
            &net,
            LinkConfig::lossy(SimDuration::from_millis(1), SimDuration::ZERO, p),
            seed,
        );
        let tx = dg.bind(NetAddr(1)).unwrap();
        let rx = dg.bind(NetAddr(2)).unwrap();
        for i in 0..count {
            tx.send_to(NetAddr(2), vec![i as u8]);
        }
        net.run_until_idle();
        let mut received = 0usize;
        while rx.recv().is_some() {
            received += 1;
        }
        prop_assert_eq!(received, if drop_all { 0 } else { count });
    }

    /// Sampled delays respect the model bounds.
    #[test]
    fn delay_model_samples_in_bounds(
        mean_us in 0u64..100_000,
        jitter_us in 0u64..50_000,
        seed in 0u64..5000,
    ) {
        let model = DelayModel::Jittered {
            mean: SimDuration::from_micros(mean_us),
            jitter: SimDuration::from_micros(jitter_us),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let d = model.sample(&mut rng);
            prop_assert!(d >= model.min_delay());
            prop_assert!(
                d.as_micros() <= mean_us + jitter_us,
                "sample {} above mean+jitter", d
            );
        }
    }

    /// Uniform delay samples stay inside [min, max].
    #[test]
    fn uniform_delay_in_range(
        lo in 0u64..10_000,
        span in 0u64..10_000,
        seed in 0u64..5000,
    ) {
        let model = DelayModel::Uniform {
            min: SimDuration::from_micros(lo),
            max: SimDuration::from_micros(lo + span),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let d = model.sample(&mut rng).as_micros();
            prop_assert!((lo..=lo + span).contains(&d));
        }
    }

    /// Bernoulli loss with probability p drops roughly p of a large
    /// sample (loose 3-sigma style bound).
    #[test]
    fn bernoulli_loss_rate_plausible(p in 0.05f64..0.95, seed in 0u64..200) {
        let model = LossModel::bernoulli(p);
        let mut state = LossState::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 4000;
        let dropped = (0..n).filter(|_| model.drops(&mut state, &mut rng)).count();
        let rate = dropped as f64 / n as f64;
        let sigma = (p * (1.0 - p) / n as f64).sqrt();
        prop_assert!(
            (rate - p).abs() < 5.0 * sigma + 0.01,
            "rate {rate} vs p {p}"
        );
    }
}
