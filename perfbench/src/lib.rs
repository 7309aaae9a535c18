//! Building blocks of the dial-market benchmark: order statistics, the
//! open-loop schedule, the span recorder, the metric catalogue, seeded
//! input variation and a socket client. The workloads themselves live in the `perfbench`
//! binary; see the README for what each measures and how to run it.

pub mod http;
pub mod inputs;
pub mod loadgen;
pub mod report;
pub mod stats;
pub mod trace;
