//! nvp-serve: a dependency-free HTTP service in front of the simulator.
//!
//! PR 4 made every simulation a pure function of its request — same
//! [`RunRequest`](nvp_repro::catalog::RunRequest), same bytes out, on
//! any machine. This crate turns that property into infrastructure:
//! since results are immutable values, they can be *content-addressed*,
//! and a simulation service becomes a cache in front of a worker pool.
//!
//! The service is built entirely on `std`:
//!
//! * [`json`] — a recursive-descent JSON parser/renderer whose number
//!   formatting matches the trace codec bit-for-bit;
//! * [`key`] — request canonicalization into [`key::SimKey`]s;
//! * [`cache`] — a sharded, LRU-bounded, single-flight body cache;
//! * `fleet` — asynchronous fleet jobs (`POST /v1/fleet`, polled via
//!   `GET /v1/fleet/{id}`), content-addressed by canonical spec;
//! * [`http`] — a minimal HTTP/1.1 subset: persistent connections,
//!   `Content-Length` framing, read deadlines;
//! * [`server`] — the accept loop, routing, admission control, and the
//!   drain path;
//! * [`metrics`] — counters, latency quantiles, and folded trace
//!   summaries for `/metrics`;
//! * [`signal`] — SIGTERM/SIGINT as a blocking wait, without a signals
//!   crate;
//! * [`bench`] — the closed-loop load generator behind
//!   `nvp-serve bench` and `BENCH_serve.json`.
//!
//! See DESIGN.md §10 for the protocol and the byte-identity contract.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bench;
pub mod cache;
pub(crate) mod fleet;
pub mod http;
pub mod json;
pub mod key;
pub mod metrics;
pub mod server;
pub mod signal;

pub use cache::{Flight, FlightError, LeaderToken, Lookup, ResultCache};
pub use key::{BadRequest, ModeSpec, SimKey, SweepSpec};
pub use server::{Server, ServerConfig, ShutdownHandle};
