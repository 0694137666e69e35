//! # psmpi — a ParaStation-MPI-like message-passing runtime
//!
//! The DEEP projects run a *global heterogeneous MPI* (ParaStation MPI)
//! across Cluster and Booster: programs may run entirely inside one module,
//! or span both, and the MPI-2 `MPI_Comm_spawn` call implements the offload
//! mechanism — a group of processes on one module collectively spawns a
//! child world on the other module and talks to it through an
//! inter-communicator (paper §III-A, Fig. 4).
//!
//! This crate reimplements that model in Rust:
//!
//! * every rank is a real OS thread; payloads really move (as [`bytes::Bytes`])
//!   through a matching engine with MPI semantics (communicator + tag +
//!   source matching, wildcards, FIFO per pair);
//! * point-to-point (see the table below) and the usual collectives
//!   (implemented as real binomial-tree / pairwise algorithms on top of
//!   point-to-point, exactly like an MPI library);
//! * [`Rank::spawn`] — the offload call: collectively starts a child world
//!   on a chosen set of nodes and returns an [`Intercomm`], while the
//!   children find their parent via [`Rank::parent`];
//! * **virtual time**: each rank carries a virtual clock; compute is charged
//!   through the `hwmodel` cost model ([`Rank::compute`]) and every message
//!   carries a timestamp so that receive clocks advance by the `simnet`
//!   fabric model. A job's virtual runtime is the maximum final clock over
//!   its ranks ([`JobReport`]). This is how the reproduction predicts the
//!   DEEP-ER prototype's performance (Figs. 3, 7, 8) while the application
//!   code really executes.
//!
//! ## Point-to-point: one post/match pair
//!
//! Every send *posts*: it stamps and deposits the envelope and parks the
//! sender-side charge on a [`SendRequest`]. Every receive posts its
//! matching criteria as a [`RecvRequest`]. A blocking call is that same
//! post completed on the spot, so `isend_*` + [`MpiRequest::wait`] and
//! `send_*` cost exactly the same virtual time. The methods differ only in
//! how the payload bytes are produced, and every `*_comm` method takes any
//! [`Comm`] — a [`Communicator`], or an [`Intercomm`] whose ranks index the
//! remote group (Listing 4's `MPI_Issend`/`MPI_Irecv` on the spawn
//! inter-communicator):
//!
//! | payload | blocking, world | blocking, `comm` | request, world | request, `comm` |
//! |---|---|---|---|---|
//! | [`MpiDatatype`] (framed) | — | `send_comm` `recv_comm` | — | — |
//! | raw [`bytes::Bytes`] or [`Wire`] (zero-copy) | — | `send_bytes_comm` `recv_bytes_comm` | — | `isend_bytes_comm` `irecv_bytes_comm` |
//! | `&[T: FixedWidth]` (unframed POD, in place) | `send_slice` `recv_into` | `send_slice_comm` | `isend_slice` `irecv_into` | — |
//!
//! A bytes send takes a `Bytes` or a [`Wire`]: [`Wire::modelled`] charges
//! a modelled wire size instead of the payload length, where xpic moves
//! reduced-scale data at model scale. The world columns hold only the
//! slice calls of the ring and bulk exchanges, which borrow the world;
//! any other caller takes `let w = rank.world();` ([`Rank::world`]) once,
//! one `Arc` clone and none per message, and uses the `*_comm` form.
//! [`Rank::inam_put_sized`] posts a one-sided NAM put through the same
//! [`SendRequest`]; [`Rank::waitall`] drains a batch in posted order.
//!
//! ## Collectives: what happens to a received block
//!
//! | calls | received block |
//! |---|---|
//! | `reduce` `allreduce[_scalar]` | folded into the accumulator off the wire ([`ReduceOp::fold_wire`]), lower-rank operand first; never decoded |
//! | `bcast` `bcast_bytes[_with]` | forwarded by refcount; decoded once per non-root, the root keeps its value |
//! | `gather_bytes` | kept as received: root's vector shares each sender's allocation |
//!
//! These, `barrier` and [`Rank::spawn`] are the whole collective surface:
//! the part of MPI the paper's offload and xPic's solvers use.
//!
//! ## Quick example
//!
//! ```
//! use psmpi::UniverseBuilder;
//! use hwmodel::presets::deep_er_cluster_node;
//!
//! let report = UniverseBuilder::new()
//!     .add_nodes(2, &deep_er_cluster_node())
//!     .run(|rank| {
//!         let w = rank.world();
//!         if rank.rank() == 0 {
//!             rank.send_comm(&w, 1, 7, &vec![1.0f64, 2.0]).unwrap();
//!         } else {
//!             let (v, _st) = rank.recv_comm::<Vec<f64>>(&w, Some(0), Some(7)).unwrap();
//!             assert_eq!(v, vec![1.0, 2.0]);
//!         }
//!     });
//! assert!(report.makespan().as_secs() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod collectives;
pub mod comm;
pub mod datatype;
pub mod envelope;
pub mod pingpong;
pub mod pool;
pub mod rank;
pub mod router;
pub mod spawn;
pub mod universe;

pub use comm::{Comm, CommId, Communicator, Intercomm};
pub use datatype::{FixedWidth, MpiDatatype, Raw, ReduceOp};
pub use envelope::{Envelope, Status, Tag, Wire, TAG_REVOKED};
pub use pool::{BufferPool, PoolStats, DEFAULT_MAX_POOLED_BUFFERS};
pub use rank::{MpiRequest, OpenSpan, PsmpiError, Rank, RecvIntoRequest, RecvRequest, SendRequest};
pub use router::RecvAbort;

/// MPI-flavoured alias for [`PsmpiError`]: the typed error surface a dead
/// node shows up as.
pub use rank::PsmpiError as MpiError;
pub use universe::{JobReport, Universe, UniverseBuilder};
