//! The Cedar global interconnection networks.
//!
//! Two independent unidirectional omega networks connect the 32 CEs to the
//! 32 global-memory modules: the *forward* network carries requests, the
//! *reverse* network carries replies. See [`omega::Omega`] for the switch
//! model and [`packet::Packet`] for the packet format.

pub mod omega;
pub mod packet;

pub use omega::{NetSink, NetStats, Omega};
pub use packet::{MemReply, MemRequest, Packet, Payload, RequestKind, Stream};
