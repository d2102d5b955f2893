//! A fault-tolerant, std-only serving front end for the popular-matching
//! solver.
//!
//! PRs 4–6 made the solve pipeline fast (zero-allocation warm solves) and
//! ingest hostile-input-safe; this crate makes the *request layer* survive
//! the failure modes a long-lived deployment hits first:
//!
//! * **Backpressure, never unbounded growth** — requests enter through a
//!   [bounded MPSC queue](queue::BoundedQueue); when it is full, [`submit`]
//!   rejects immediately with a typed [`ServeError::Overloaded`] instead of
//!   queueing without limit.
//! * **Deadlines** — a request whose deadline expires while it waits is
//!   *shed* before it ever touches a solver ([`ServeError::DeadlineExpired`]);
//!   a solve that finishes past its deadline is delivered but recorded as a
//!   deadline overrun ([`Response::overran_deadline`]).
//! * **Panic isolation** — every solve runs under `catch_unwind`.  A panic
//!   is trapped inside the worker, the poisoned [`PopularSolver`] (whose
//!   `Workspace` epoch check has latched, see `pm_pram`) is discarded and
//!   rebuilt, and no other request ever observes the corrupted warm state.
//! * **Graceful degradation** — after `K` consecutive failures on one
//!   instance the server answers from the last-good matching (flagged
//!   [`Quality::Stale`]) or a cheap [serial-dictatorship
//!   fallback](degrade::serial_dictatorship) (flagged
//!   [`Quality::Fallback`]) instead of erroring, and re-promotes the full
//!   solver with bounded exponential backoff probes.
//! * **Incremental serving** — [`Server::install_delta`] pins a warm
//!   [`DeltaSolver`](pm_popular::delta::DeltaSolver) per instance id;
//!   [`Server::submit_delta`] queues typed preference mutations, and a
//!   scheduling tick *coalesces* every delta queued for one instance into a
//!   single apply-and-flush round that re-solves only the dirty components
//!   (deadlines, degradation and panic-poisoning semantics carry over; a
//!   poisoned incremental solver re-solves fully on recovery).
//! * **One answer shape** — solve requests and delta ticks run the same
//!   serving round (health gate → isolated attempt → degrade), so both
//!   [`Server::submit`] and [`Server::submit_delta`] hand back a [`Ticket`]
//!   that resolves to a [`Response`]: the matching, its [`Quality`], the
//!   deadline-overrun flag, and [`coalesced`](Response::coalesced) — 1 for
//!   a solve request, the number of deltas answered by one tick's flush
//!   for a delta.
//! * **Fault injection** — the [`faults`] module provides env-driven fail
//!   points (`PM_FAULTS=panic:0.05,delay:10ms,io:0.01`) that power the
//!   chaos-test suite; without the `faults` cargo feature every fail point
//!   compiles to an inlined no-op.
//!
//! The failure model — what can panic, what degrades, what rejects — is
//! documented in `DESIGN.md` §9.
//!
//! ```
//! use std::sync::Arc;
//! use pm_popular::instance::PrefInstance;
//! use pm_serve::{Request, Server, ServerConfig};
//!
//! let inst = Arc::new(PrefInstance::new_strict(3, vec![
//!     vec![0, 1],
//!     vec![0, 2],
//! ]).unwrap());
//!
//! // Explicit inert fault spec: examples must not inherit `PM_FAULTS`.
//! let mut cfg = ServerConfig::default();
//! cfg.faults = pm_serve::faults::Spec::none();
//! let server = Server::start(cfg);
//! let resp = server.call(Request::new(inst, 1)).unwrap();
//! assert!(!resp.is_degraded());
//! server.shutdown();
//! ```
//!
//! [`submit`]: Server::submit
//! [`PopularSolver`]: pm_popular::solver::PopularSolver

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod degrade;
pub mod faults;
pub mod queue;
pub mod server;

pub use server::{
    DeltaRequest, Quality, Request, Response, ServeError, Server, ServerConfig, SolveMode,
    StatsSnapshot, Ticket,
};
