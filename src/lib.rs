//! # edgechain
//!
//! Umbrella crate for the edge-blockchain workspace — a from-scratch Rust
//! reproduction of *"Resource Allocation and Consensus on Edge Blockchain
//! in Pervasive Edge Computing Environments"* (ICDCS 2019).
//!
//! This crate re-exports the public APIs of every workspace member so that
//! applications can depend on a single crate:
//!
//! | Module | Source crate | Contents |
//! |---|---|---|
//! | [`core`] | `edgechain-core` | blocks, metadata, PoS/PoW, allocation, the full network simulation |
//! | [`crypto`] | `edgechain-crypto` | SHA-256, HMAC, Merkle trees, signatures, `U256` |
//! | [`sim`] | `edgechain-sim` | discrete-event engine, wireless topology, transport |
//! | [`facility`] | `edgechain-facility` | uncapacitated facility location solvers |
//! | [`raft`] | `edgechain-raft` | raft consensus for general information agreement |
//! | [`energy`] | `edgechain-energy` | battery and device energy models |
//!
//! [`scenario`] is this crate's own: the named runs (Fig. 4 cell, chaos,
//! Byzantine, soak, flash crowd, …) that the integration tests and the
//! examples share, each defined once.
//!
//! # Quickstart
//!
//! ```
//! use edgechain::prelude::*;
//!
//! let config = NetworkConfig {
//!     nodes: 10,
//!     sim_minutes: 10,
//!     ..NetworkConfig::default()
//! };
//! let report = EdgeNetwork::new(config)?.run();
//! assert!(report.blocks_mined > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable scenarios: `quickstart`, a sensing-data
//! marketplace, a vehicular road-information network, and a
//! disconnection-recovery walk-through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use edgechain_core as core;
pub use edgechain_crypto as crypto;
pub use edgechain_energy as energy;
pub use edgechain_facility as facility;
pub use edgechain_raft as raft;
pub use edgechain_sim as sim;
pub use edgechain_telemetry as telemetry;

pub mod scenario;

/// The most commonly used types, importable with one `use`.
pub mod prelude {
    pub use edgechain_core::{
        Amendment, ArrivalProcess, Block, Blockchain, Burst, Candidate, DataId, DataType,
        Difficulty, EdgeNetwork, Identity, Ledger, Location, MetadataItem, NetworkConfig,
        NodeStorage, OpenArrivals, OverloadConfig, OverloadReport, Placement, RunReport,
        WorkloadConfig,
    };
    pub use edgechain_crypto::{sha256, Digest, KeyPair, MerkleTree};
    pub use edgechain_energy::{Battery, DeviceProfile, EnergyMeter};
    pub use edgechain_facility::{fdc, solve, UflInstance};
    pub use edgechain_sim::{
        ChurnConfig, FaultEvent, FaultPlan, NodeId, SimTime, Topology, TopologyConfig, Transport,
        TransportConfig,
    };
    pub use edgechain_telemetry::gini;
}
