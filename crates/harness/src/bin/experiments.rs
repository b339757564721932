//! Prints every row of [`harness::EXPERIMENTS`] at paper scale and
//! fails if a reproduced shape falls outside the paper's bands.

use harness::{Scale, EXPERIMENTS};

fn main() {
    println!("MCAM reproduction - experiment report\n");
    let failed: Vec<String> = EXPERIMENTS
        .iter()
        .flat_map(|row| row.report(Scale::Paper))
        .collect();
    assert!(failed.is_empty(), "shapes not reproduced: {failed:#?}");
}
