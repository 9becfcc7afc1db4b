//! Deterministic discrete-event simulation of pervasive edge environments.
//!
//! This crate is the substrate replacing the paper's Node.js + Docker
//! testbed. It provides:
//!
//! * [`EventQueue`] / [`SimTime`] — a millisecond-resolution event scheduler
//!   with FIFO tie-breaking, giving bit-for-bit reproducible runs.
//! * [`Topology`] — nodes placed in a 300 m × 300 m field with 70 m radio
//!   range and 30 m mobility discs (the paper's §VI parameters), with BFS
//!   hop counts, shortest-path routing, and the Range-Distance Cost of
//!   Eq. (2).
//! * [`Transport`] — store-and-forward unicast and flooding broadcast with
//!   propagation (10 ms/hop), transmission (`bytes / bandwidth`), and
//!   queueing delays, plus per-node byte accounting.
//!
//! # Examples
//!
//! ```
//! use edgechain_sim::{
//!     NodeId, SimTime, Topology, TopologyConfig, Transport, TransportConfig,
//! };
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let topo = Topology::random_connected(20, TopologyConfig::default(), &mut rng)?;
//! let mut transport = Transport::new(TransportConfig::default());
//! let delivery = transport.unicast(
//!     &topo, NodeId(0), NodeId(7), 1_000_000, SimTime::ZERO,
//! )?;
//! assert!(delivery.arrival > SimTime::ZERO);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod geometry;
pub mod pool;
pub mod topology;
pub mod transport;

pub use event::{EventQueue, SimTime};
pub use fault::{
    ByzantineAction, ByzantineSweepConfig, ChurnConfig, FaultAction, FaultEvent, FaultInjector,
    FaultPlan, FaultPlanError, RoleAssignment,
};
pub use geometry::{CellGrid, Field, Point};
pub use topology::{Neighbors, NodeId, Topology, TopologyConfig, TopologyError, UNREACHABLE};
pub use transport::{Delivery, Payload, TrafficStats, Transport, TransportConfig, TransportError};
