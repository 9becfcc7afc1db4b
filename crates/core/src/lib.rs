//! # edgechain-core
//!
//! A blockchain designed for pervasive edge computing environments —
//! a from-scratch reproduction of *"Resource Allocation and Consensus on
//! Edge Blockchain in Pervasive Edge Computing Environments"*
//! (ICDCS 2019).
//!
//! Edge devices trade for-profit data through micro-payments recorded on a
//! chain, but they cannot afford a conventional blockchain: storage is too
//! small to replicate everything everywhere and batteries cannot pay for
//! Proof of Work. This crate implements the paper's answers:
//!
//! * **Metadata blocks** ([`metadata`], [`block`]) — blocks carry small
//!   signed descriptors; megabyte data items live on a few chosen nodes.
//! * **Fair & efficient storage allocation** ([`storage`], [`alloc`]) —
//!   storing nodes are picked by solving an uncapacitated facility
//!   location problem over the Fairness Degree Cost (Eq. 1) and the
//!   Range-Distance Cost (Eq. 2).
//! * **Recent-block caching** ([`storage`]) — a FIFO cache with
//!   miner-granted quotas keeps fresh blocks pervasive so mobile nodes
//!   recover quickly from disconnections.
//! * **Contribution-weighted Proof of Stake** ([`pos`]) — nodes that hold
//!   more tokens and store more data mine sooner; the amendment `B` keeps
//!   the expected block interval at `t0`. A classic PoW baseline lives in
//!   [`pow`] for the Fig. 6 comparison.
//! * **The full simulated network** ([`network`]) — every protocol above
//!   running over a discrete-event wireless multi-hop simulation with
//!   byte-accurate overhead accounting.
//!
//! # Examples
//!
//! ```
//! use edgechain_core::network::{EdgeNetwork, NetworkConfig};
//!
//! let config = NetworkConfig {
//!     nodes: 10,
//!     sim_minutes: 10,
//!     ..NetworkConfig::default()
//! };
//! let report = EdgeNetwork::new(config)?.run();
//! assert!(report.blocks_mined > 0);
//! println!("{report}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

mod access;
pub mod account;
mod admission;
pub mod alloc;
pub mod block;
mod byzantine;
mod catalogue;
pub mod chain;
pub mod codec;
pub mod invariant;
pub mod metadata;
pub mod network;
pub mod pos;
pub mod pow;
pub mod report;
pub mod slo;
mod spans;
pub mod storage;

pub use account::{AccountId, Identity, Ledger};
pub use alloc::{build_instance, select_storers, AllocationContext, Placement, RegionParams};
pub use block::{Block, BlockError};
pub use chain::verify_wire_block;
pub use chain::{Blockchain, ChainAnchor, ChainError, CheckpointPolicy, Snapshot};
pub use invariant::{ForkView, InvariantChecker, InvariantView};
pub use metadata::{DataId, DataType, Location, MetadataItem};
pub use network::{ConfigError, EdgeNetwork, NetworkConfig, RunReport};
pub use pos::{
    hit, next_pos_hash, run_round, verify_claim, Amendment, Candidate, MiningOutcome, HIT_MODULUS,
};
pub use pow::{mine, verify, Difficulty, PowSolution};
pub use slo::{LatencySummary, OverloadReport, SloAlert, SloMonitor};
pub use storage::NodeStorage;

// Open-workload configuration types, re-exported so downstream crates can
// build a `NetworkConfig` without depending on the workload crate directly.
pub use edgechain_workload::{
    ArrivalProcess, Burst, OpenArrivals, OverloadConfig, TokenBucket, WorkloadConfig, ZipfSampler,
};
