//! Network, disk and fault-timeline models for the `gms-subpages`
//! reproduction.
//!
//! The paper's prototype runs on DEC Alpha 250 workstations connected by a
//! DEC AN2 155 Mb/s ATM network, with a local disk as the baseline backing
//! store. This crate provides the latency models standing in for that
//! hardware:
//!
//! * [`LinkModel`] implementations — [`AtmLink`] (with 53/48-byte cell
//!   framing), [`EthernetLink`] (lightly and heavily loaded variants) and
//!   [`DiskModel`] (seek + rotation + transfer) — reproduce Figure 1's
//!   latency-vs-page-size curves.
//! * [`ClusterNetwork`] — the five-resource pipeline of Figure 2
//!   (requester CPU, requester DMA, wire, server DMA, server CPU) for *K*
//!   nodes, each with its own CPU share, DMA rings and switch-port
//!   directions. Scheduling a fault on a fresh two-node network (one
//!   requester, one lumped server) yields the subpage and rest-of-page
//!   latencies of Table 2, and its occupancy log holds the component
//!   spans of Figure 2. Because resource busy times persist across
//!   operations, overlapping faults and write-backs from different nodes
//!   see the congestion delays the paper's simulator models.
//! * [`NetParams`] — the calibrated constants (fixed CPU costs, DMA and
//!   copy rates) fitted to the paper's measurements.
//!
//! # Examples
//!
//! ```
//! use gms_net::{ClusterNetwork, NetParams, TransferPlan};
//! use gms_units::{Bytes, NodeId, SimTime};
//!
//! // Fault a 1 KB subpage of an 8 KB page with eager fullpage fetch:
//! // node 0 requests, node 1 serves.
//! let mut net = ClusterNetwork::new(NetParams::paper(), 2);
//! let plan = TransferPlan::eager(Bytes::kib(8), Bytes::kib(1));
//! let fault = net.fault(SimTime::ZERO, NodeId::new(0), NodeId::new(1), &plan);
//! let restart_ms = fault.resume_at.as_millis_f64();
//! // Paper, Table 2: 0.52 ms.
//! assert!((0.45..0.60).contains(&restart_ms));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod atm;
mod cluster_net;
mod disk;
mod ethernet;
mod faults;
mod link;
mod params;
mod resource;
mod timeline;

pub use atm::AtmLink;
pub use cluster_net::{ClusterNetwork, FaultAttempt, NodeNet, Occupancy};
pub use disk::{AccessPattern, DiskModel};
pub use ethernet::EthernetLink;
pub use faults::{DegradeWindow, FaultInjector, FaultPlan, NodeEvent};
pub use gms_units::NetResource;
pub use link::{FixedRateLink, LinkModel};
pub use params::NetParams;
pub use resource::Resource;
pub use timeline::{
    BusyTimes, FaultTimeline, MessageArrival, RecvOverhead, SendTimeline, TransferPlan,
};
