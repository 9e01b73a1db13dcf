//! The discovery client: a [`RemoteOracle`] that speaks the wire protocol
//! and plugs into [`DiscoveryDriver::with_oracle`](skyweb_core::DiscoveryDriver::with_oracle),
//! so every discovery machine runs unmodified against a remote database.
//!
//! Transport failures (disconnect, timeout, corrupt frame, or a reply that
//! does not fit its plan or the server's `Welcome`) surface as
//! [`QueryError::ConnectionDropped`] — transient in the
//! [`QueryError::is_transient`] taxonomy, so a driver with a
//! [`RetryPolicy`](skyweb_core::RetryPolicy) degrades gracefully instead of
//! aborting, exactly as it does under injected faults in-process.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use skyweb_core::{
    decode_error_reply, decode_responses, decode_welcome, encode_hello, encode_plan, CodecError,
    Hello, PlanOracle, QueryPlan, KIND_ERROR, KIND_RESPONSES, KIND_WELCOME, WIRE_PROTOCOL,
};
use skyweb_hidden_db::{HiddenDb, PrefixGroup, Query, QueryError, QueryResponse, Schema, Value};

use crate::wire::{self, NetError, MAX_FRAME_LEN, MAX_HANDSHAKE_FRAME_LEN};

/// What the server announced about itself in its welcome frame.
#[derive(Debug, Clone)]
pub struct RemoteInfo {
    /// The wire-protocol version the server speaks.
    pub protocol: u32,
    /// Name of the server's ranking function.
    pub ranker: String,
    /// The interface's top-`k` result cap.
    pub k: u64,
    /// Number of tuples behind the interface (public metadata).
    pub tuple_count: u64,
    /// The public query schema.
    pub schema: Schema,
}

/// A connection to a remote discovery server, usable wherever the driver
/// accepts a [`PlanOracle`].
///
/// Dropping the oracle closes the connection; the server sees a clean
/// hang-up at the next frame boundary.
#[derive(Debug)]
pub struct RemoteOracle {
    stream: TcpStream,
    info: RemoteInfo,
    /// Latched on the first transport failure: later plans short-circuit
    /// to [`QueryError::ConnectionDropped`] instead of poking a dead
    /// socket (a retrying driver still sees a transient error each time).
    broken: bool,
}

impl RemoteOracle {
    /// Connects, handshakes, and validates the wire-protocol version, with
    /// a default client label and no read timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<RemoteOracle, NetError> {
        RemoteOracle::connect_with(addr, "driver", None)
    }

    /// Like [`RemoteOracle::connect`], announcing `label` for the server's
    /// per-connection accounting and bounding every reply wait by
    /// `read_timeout`.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        label: impl Into<String>,
        read_timeout: Option<Duration>,
    ) -> Result<RemoteOracle, NetError> {
        let mut stream = TcpStream::connect(addr)?;
        // Plan frames are small and latency-bound; never batch them behind
        // Nagle. Best effort: a transport that refuses is still correct.
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(read_timeout)?;
        let hello = Hello {
            protocol: WIRE_PROTOCOL,
            label: label.into(),
        };
        wire::write_frame(&mut stream, &encode_hello(&hello))?;
        let Some((kind, frame)) = wire::read_frame(&mut stream, MAX_HANDSHAKE_FRAME_LEN)? else {
            return Err(NetError::Disconnected);
        };
        if kind != KIND_WELCOME {
            return Err(NetError::UnexpectedKind { found: kind });
        }
        let welcome = decode_welcome(&frame)?;
        if welcome.protocol != WIRE_PROTOCOL {
            return Err(NetError::ProtocolMismatch {
                ours: WIRE_PROTOCOL,
                theirs: welcome.protocol,
            });
        }
        Ok(RemoteOracle {
            stream,
            info: RemoteInfo {
                protocol: welcome.protocol,
                ranker: welcome.ranker,
                k: welcome.k,
                tuple_count: welcome.tuple_count,
                schema: welcome.schema,
            },
            broken: false,
        })
    }

    /// What the server announced in its welcome frame.
    pub fn info(&self) -> &RemoteInfo {
        &self.info
    }

    /// An empty local stand-in for the remote database: same schema, same
    /// `k`, zero tuples. Discovery machines read only schema metadata at
    /// construction, so `alg.machine(&oracle.replica())` builds a machine
    /// that then runs entirely against the remote side. (The replica's
    /// ranking function is irrelevant — machines never evaluate it.)
    pub fn replica(&self) -> HiddenDb {
        let k = usize::try_from(self.info.k).unwrap_or(usize::MAX).max(1);
        HiddenDb::with_sum_ranking(self.info.schema.clone(), Vec::new(), k)
    }

    /// One plan round-trip over the socket. The reply must fit the plan
    /// and the `Welcome`, or it fails with [`CodecError::Invalid`]:
    ///
    /// * a `RESPONSES` frame answers every query, an `ERROR` frame fewer
    ///   queries than the plan holds;
    /// * no response carries more than `k` tuples;
    /// * every tuple has one value per schema attribute, each inside its
    ///   attribute's domain.
    ///
    /// The driver and the knowledge base index by these shapes, so a reply
    /// that breaks one would otherwise panic the client.
    fn exchange(
        &mut self,
        queries: &[Query],
        groups: Option<&[PrefixGroup]>,
    ) -> Result<(Vec<QueryResponse>, Option<QueryError>), NetError> {
        if self.broken {
            return Err(NetError::Disconnected);
        }
        let plan = match groups {
            Some(g) => QueryPlan::with_groups(queries.to_vec(), g.to_vec()),
            None => QueryPlan::new(queries.to_vec()),
        };
        wire::write_frame(&mut self.stream, &encode_plan(&plan))?;
        let Some((kind, frame)) = wire::read_frame(&mut self.stream, MAX_FRAME_LEN)? else {
            return Err(NetError::Disconnected);
        };
        let (responses, err) = match kind {
            KIND_RESPONSES => (decode_responses(&frame)?, None),
            KIND_ERROR => {
                let (answered, err) = decode_error_reply(&frame)?;
                (answered, Some(err))
            }
            found => return Err(NetError::UnexpectedKind { found }),
        };
        let counted = match err {
            None => responses.len() == queries.len(),
            Some(_) => responses.len() < queries.len(),
        };
        let schema = &self.info.schema;
        let fits = |values: &[Value]| {
            values.len() == schema.len()
                && values
                    .iter()
                    .zip(schema.attrs())
                    .all(|(&v, spec)| v < spec.domain_size)
        };
        let shaped = responses.iter().all(|r| {
            u64::try_from(r.tuples.len()).is_ok_and(|len| len <= self.info.k)
                && r.tuples.iter().all(|t| fits(&t.values))
        });
        if !(counted && shaped) {
            return Err(NetError::Codec(CodecError::Invalid));
        }
        Ok((responses, err))
    }
}

impl PlanOracle for RemoteOracle {
    fn run_plan_grouped(
        &mut self,
        queries: &[Query],
        groups: Option<&[PrefixGroup]>,
    ) -> (Vec<QueryResponse>, Option<QueryError>) {
        if queries.is_empty() {
            return (Vec::new(), None);
        }
        match self.exchange(queries, groups) {
            Ok(reply) => reply,
            Err(_) => {
                self.broken = true;
                (Vec::new(), Some(QueryError::ConnectionDropped))
            }
        }
    }
}
