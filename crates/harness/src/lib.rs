//! `harness` — the experiment harness regenerating every table and
//! figure of the paper's evaluation (the list below is the index).
//!
//! Each experiment is a pure function returning a printable
//! [`Table`] plus the raw numbers the assertions/benches consume:
//!
//! - [`table1_experiment`] — Table 1 requirements dichotomy;
//! - [`speedup_experiment`] — §5.1 sequential vs parallel (E1);
//! - [`grouping_experiment`] — §5.2 module grouping (E2);
//! - [`dispatch_experiment`] — §5.2 transition mapping (E3);
//! - [`scheduler_experiment`] — §5.2 scheduler overhead (E4);
//! - [`generated_vs_handcoded`] — generated vs ISODE stack (E5);
//! - [`parallel_asn1_experiment`] — footnote 3 ASN.1 ablation (E6);
//! - [`conn_vs_layer_experiment`] — §3 mapping comparison (E7);
//! - [`mapping_experiment`] — ablation: the automatic mapping
//!   algorithm of ref \[7\] vs. the static policies;
//! - [`overhead_sensitivity`] — ablation: sync-cost sweep.
//!
//! The `experiments` binary prints the full report.

#![warn(missing_docs)]

mod experiments;
pub mod pstack;
mod report;

pub use experiments::{
    conn_vs_layer_experiment, dispatch_experiment, generated_vs_handcoded, grouping_experiment,
    mapping_experiment, overhead_sensitivity, parallel_asn1_experiment, scheduler_experiment,
    speedup_experiment, table1_experiment, MappingOutcome, ProtocolProfile, WideFsm16, WideFsm2,
    WideFsm32, WideFsm4, WideFsm64, WideFsm8,
};
pub use report::Table;
