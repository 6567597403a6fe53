(** Chunk ownership: which subflow carries each connection-level chunk
    above the sender's data ACK.

    A ring buffer of parallel int arrays (dseq, len, owner) in ascending
    dseq order.  The connection's access pattern makes this exact: a
    grant maps fresh bytes at [next_dseq], above every chunk already
    mapped, so it {!append}s at the right edge; the data ACK only rises,
    so {!trim_below} drops acknowledged chunks at the left edge.
    Appends and front trims are O(1) and allocation-free (the arrays
    double on demand and never shrink); {!find} is a binary search.
    Re-mapping a chunk ({!replace}) overwrites it in place, or inserts it
    at its sorted position when its key is absent — O(n), but only on
    the failover path.

    Indices are logical: [0] is the chunk with the lowest dseq.  They are
    stable until the next {!append}, {!replace} or {!trim_below}.

    [Fuzz.chunks_test] drives this module against a [Hashtbl] model, and
    the [mptcp.chunk-owners] audit invariant checks {!consistent} on every
    grant and reinjection of an audited run. *)

type t

val create : unit -> t

val length : t -> int
(** Number of chunks held. *)

val capacity : t -> int
(** Current array capacity (a power of two); grows by doubling when an
    insertion finds the ring full, and never shrinks. *)

val append : t -> dseq:int -> len:int -> owner:int -> unit
(** Add a chunk at the right edge.  Raises [Invalid_argument] if
    [len <= 0] or [dseq] is not above the last chunk's dseq. *)

val trim_below : t -> int -> unit
(** [trim_below t x] drops chunks from the left edge while their dseq is
    below [x]. *)

val find : t -> int -> int
(** Logical index of the chunk whose dseq is exactly the argument, or
    [-1]. *)

val replace : t -> dseq:int -> len:int -> owner:int -> unit
(** Map the chunk at [dseq] to [(len, owner)]: overwrite it in place if
    present, else insert it in dseq order ([Hashtbl.replace]
    semantics).  Raises [Invalid_argument] if [len <= 0]. *)

val dseq_at : t -> int -> int
val len_at : t -> int -> int
val owner_at : t -> int -> int
(** Fields of logical chunk [i].  No bounds check. *)

val consistent : t -> owners:int -> limit:int -> bool
(** [true] iff every chunk is non-empty, chunks are strictly ascending
    and non-overlapping, every owner lies in [\[0, owners)], and the last
    chunk ends at or before [limit]. *)
