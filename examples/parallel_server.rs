//! Parallel server: regenerates the paper's §5 measurements on the
//! simulated KSR1 — speedup vs data requests (E1), grouping (E2) and
//! the connection-vs-layer mapping (E7) — from their rows of
//! `harness::EXPERIMENTS`, at paper scale.
//!
//! Run with `cargo run --release --example parallel_server`.

use harness::Scale;

fn main() {
    let failed: Vec<String> = ["E1", "E2", "E7"]
        .iter()
        .flat_map(|id| harness::experiment(id).report(Scale::Paper))
        .collect();
    assert!(failed.is_empty(), "shapes not reproduced: {failed:#?}");
}
