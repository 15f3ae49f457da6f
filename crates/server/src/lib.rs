//! # `rpq-server`: a concurrent resilience service
//!
//! The complexity classification of the paper splits every tractable
//! resilience computation into **query-only** analysis and **per-database**
//! flow work, and `rpq_resilience::engine` exploits the split with
//! `Engine::prepare` / `PreparedQuery`. This crate turns that amortization
//! into a service: a multi-threaded request/response server speaking a
//! newline-delimited JSON protocol (`prepare`, `solve`, `solve_batch`,
//! `stats`, `shutdown`) over TCP — or over stdin/stdout in pipe mode — backed
//! by a shared [`QueryCache`].
//!
//! The cache is keyed by the **canonicalized query language**
//! ([`rpq_automata::Language::canonical_form`], derived from the minimized
//! DFA): textually different but equivalent regexes (`a|b` vs `b|a`) hit the
//! same cached `PreparedQuery`, so a fleet of clients issuing differently
//! spelled versions of the same query still shares one plan. Plans are
//! `Send + Sync` and shared across worker threads behind an `Arc` — solving
//! is read-only per-database work. Each spelling the cache has seen is
//! remembered as an alias of its canonical entry, so a repeated request
//! neither parses nor canonicalizes its query ([`cache`] module docs).
//!
//! ```
//! use rpq_server::{Client, Request, QuerySpec, Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let running = server.spawn().unwrap();
//! let mut client = Client::connect(running.addr).unwrap();
//! let response = client
//!     .request(&Request::Solve {
//!         query: QuerySpec::new("a x* b"),
//!         db: "s a u\nu x v\nv b t\n".to_string(),
//!     })
//!     .unwrap();
//! assert_eq!(response.get("value").and_then(|v| v.as_int()), Some(1));
//! client.request(&Request::Shutdown).unwrap();
//! running.join().unwrap();
//! ```
//!
//! The wire protocol is documented verb by verb in [`protocol`] and in the
//! repository README; `rpq-cli serve` / `rpq-cli client` are the command-line
//! front ends.

#![forbid(unsafe_code)]
pub mod cache;
pub mod client;
pub mod json;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, QueryCache};
pub use client::Client;
pub use json::{Json, JsonError};
pub use protocol::{QuerySpec, Request, SnapshotSel};
pub use server::{run_pipe, Server, ServerConfig, ServerState, SpawnedServer};
