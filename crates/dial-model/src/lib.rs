//! Data model for the HACK FORUMS contract marketplace study.
//!
//! This crate defines the raw observational units the paper works with —
//! [`Contract`]s, [`Thread`]s, [`Post`]s and [`User`]s — together with the
//! [`Dataset`] container and its indexed query API. It is deliberately free
//! of any analysis logic: pipelines in `dial-core` consume a `Dataset` and
//! compute tables/figures from it, exactly as the paper's pipelines consume
//! the CrimeBB dump.
//!
//! The model mirrors the contract system described in §3 of the paper:
//!
//! * five contract types ([`ContractType`]), three one-way (Sale, Purchase,
//!   Vouch Copy) and two bidirectional (Exchange, Trade);
//! * seven terminal/reported statuses ([`ContractStatus`]), matching the
//!   columns of Table 1;
//! * public/private visibility ([`Visibility`]), where disputes force a
//!   contract public;
//! * free-text maker/taker obligation sections, which are only observable on
//!   public contracts and are the input to the text-mining pipelines;
//! * optional blockchain references ([`ChainRef`]) used for high-value
//!   verification.

pub mod contract;
pub mod dataset;
pub mod export;
pub mod fingerprint;
pub mod ids;
pub mod social;

pub use contract::{ChainRef, Contract, ContractStatus, ContractType, Visibility};
pub use dataset::Dataset;
pub use fingerprint::ContentHash;
pub use ids::{ContractId, PostId, ThreadId, UserId};
pub use social::{Post, Thread, User};
