//! # skyweb-net
//!
//! The TCP wire protocol of the skyline-discovery stack: the sealed codec
//! envelopes of [`skyweb_core::codec`] framed over a socket, so the hidden
//! database finally sits where the paper puts it — behind a *remote,
//! restricted query interface* — and every discovery machine runs
//! unmodified against it.
//!
//! * [`Server`] — a thread-per-connection front end over a shared
//!   [`HiddenDb`](skyweb_hidden_db::HiddenDb): an acceptor plus a worker
//!   pool, one database session per connection, per-connection accounting.
//! * [`RemoteOracle`] — a client implementing
//!   [`PlanOracle`](skyweb_core::PlanOracle), pluggable into
//!   [`DiscoveryDriver::with_oracle`](skyweb_core::DiscoveryDriver::with_oracle).
//! * [`wire`] — the length-validated frame transport underneath both.
//!
//! Remote execution is byte-identical to in-process execution: the server
//! answers plans through the same [`Session`](skyweb_hidden_db::Session)
//! oracle the driver would call directly, so results, query costs and
//! anytime traces match exactly. See `docs/wire-protocol.md` for the handshake, frame kinds,
//! versioning policy and error mapping.
//!
//! ```no_run
//! use skyweb_core::{DiscoveryDriver, Discoverer, DriverConfig, SqDbSky};
//! use skyweb_net::RemoteOracle;
//!
//! let oracle = RemoteOracle::connect("198.51.100.7:7070")?;
//! let machine = SqDbSky::new().machine(&oracle.replica()).unwrap();
//! let result = DiscoveryDriver::with_oracle(oracle, machine, DriverConfig::new())
//!     .run()
//!     .unwrap();
//! println!("skyline: {} tuples", result.skyline.len());
//! # Ok::<(), skyweb_net::NetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod client;
mod server;
pub mod wire;

pub use client::{RemoteInfo, RemoteOracle};
pub use server::{serve, ConnectionReport, ServeReport, Server, ServerConfig, ServerHandle};
pub use wire::{NetError, MAX_FRAME_LEN, MAX_HANDSHAKE_FRAME_LEN};
