(** Simulated wire format.

    Models exactly the header fields the reproduction needs: enough TCP to
    run a real congestion-control loop, the MPTCP data-sequence mapping
    (DSS), and the path {e tag} — the short routing identifier from the
    paper (Motiwala et al.'s path splicing / ECMP-style selector) that
    pins each subflow to its pre-installed route.

    Fields are mutable so {!Pool} can rebuild recycled records in place;
    outside the pool and the queues' [ecn] marking, treat packets as
    immutable.  See doc/PERFORMANCE.md for the freelist discipline. *)

type addr = int
(** Node id in the topology. *)

type tag = int
(** Path selector carried by every packet of a subflow.  Forwarding is
    deterministic per (destination, tag). *)

(** MPTCP Data Sequence Signal: maps this segment's payload into the
    connection-level byte stream. *)
type dss = { dseq : int; dlen : int }

type tcp_kind =
  | Data
  | Ack

type tcp = {
  mutable conn : int;       (** connection id, unique per simulation *)
  mutable subflow : int;    (** subflow index within the connection *)
  mutable kind : tcp_kind;
  mutable seq : int;    (** subflow-level sequence of the first payload byte *)
  mutable payload : int;    (** payload length in bytes (0 for pure ACKs) *)
  mutable ack : int;        (** cumulative subflow-level acknowledgement *)
  mutable sack : (int * int) list;
      (** SACK blocks [(start, end_)] above [ack], at most
          {!max_sack_blocks}, most recently changed first (RFC 2018) *)
  mutable ece : bool;  (** ECN Echo: the receiver saw Congestion Experienced *)
  mutable dss : dss option; (** present on MPTCP data segments *)
  mutable data_ack : int;   (** cumulative connection-level acknowledgement *)
}

val max_sack_blocks : int
(** 3, as fits a TCP option block alongside timestamps. *)

type body =
  | Tcp of tcp
  | Plain  (** cross-traffic payload (CBR / on-off generators) *)

(** Explicit Congestion Notification (RFC 3168), reduced to what the
    transport needs: data packets advertise ECN capability and may be
    marked by a queue; ACKs echo the mark until the sender reacts. *)
type ecn =
  | Not_ect   (** not ECN-capable (cross traffic, ACKs) *)
  | Ect       (** ECN-capable transport, unmarked *)
  | Ce        (** congestion experienced: marked by a router *)

type t = {
  mutable id : int;         (** unique wire id, for tracing *)
  mutable src : addr;
  mutable dst : addr;
  mutable tag : tag;
  mutable size : int;  (** total wire size in bytes, headers included *)
  mutable body : body;
  mutable ecn : ecn;        (** queues mark packets in flight *)
  mutable born : Engine.Time.t;  (** when the packet entered the network *)
  mutable slot : int;
      (** the record's index in the {!Pool} that last gave it one, -1
          for none; the pool's to set, see {!Pool.slot} *)
}

val header_bytes : int
(** Per-segment overhead modelled on IPv4 (20) + TCP (20) + MPTCP DSS
    option (12): 52 bytes. *)

val default_mss : int
(** 1448 payload bytes, so a full data segment is 1500 B on the wire. *)

val wire_bits : t -> int

val is_data : t -> bool
(** [true] for TCP segments carrying payload. *)

val tcp_exn : t -> tcp
(** Raises [Invalid_argument] on non-TCP packets. *)

val make_tcp :
  id:int -> src:addr -> dst:addr -> tag:tag -> born:Engine.Time.t -> tcp -> t
(** Builds a [Not_ect] TCP packet, deriving [size] from kind and
    payload.  The SACK bound check is O(1). *)

val make_plain :
  id:int -> src:addr -> dst:addr -> tag:tag -> born:Engine.Time.t
  -> size:int -> t
(** Cross-traffic packet of explicit wire [size] (>= 1 byte). *)

val copy : t -> t
(** Deep snapshot (including the TCP header record), with no pool slot
    ([slot = -1]).  Anything that
    retains a packet past the handler it was delivered to — e.g. a
    capture trace rendered after the run — must copy, because the pool
    may rewrite the original in place once it is released. *)

val poison_id : int
(** The id stamped on released packets (-2); never a valid wire id. *)

val is_poisoned : t -> bool
(** [true] after {!Pool.release} until the record is re-acquired.  Any
    observation of a poisoned packet outside the pool is a lifecycle
    bug (use-after-release). *)

(** Per-{!Netsim.Net} packet freelist.

    The steady-state hot path recycles one record per simulated packet
    instead of allocating: producers acquire, the network releases on
    every terminal fate (host delivery, qdisc drop, link-down loss,
    no-route).  Recycling is deterministic (LIFO), so pooled runs stay
    bit-identical across domain counts.

    Every record the pool sees gets a slot: its index in the pool's
    record table, kept in the record's [slot] field.  The link queues
    and the scheduler's events carry slots, which are ints, and look
    the records up with {!packet}; the freelist holds slots too.  So a
    record is stored into the pool once, when it first gets its slot,
    and releasing, recycling or queueing it stores no pointer.  The
    pool keeps every record it has given a slot, live or free, for its
    own lifetime.

    An acquire served from the freelist allocates nothing.  Optional
    arguments are where
    garbage can creep back in at the call site: pass the pool as a
    preallocated option ([?pool:opt]) — [~pool:p] boxes a fresh [Some]
    on every call — and likewise pass [?ecn] rather than [~ecn].

    In debug mode (enabled by audited scenarios) releases scrub the
    record, double releases and resurrected packets raise [Failure],
    and the audit ledger sees poisoned ids as conservation violations. *)
module Pool : sig
  type packet = t

  type t

  type stats = {
    acquired : int;   (** acquire calls (fresh + recycled) *)
    recycled : int;   (** acquires served from the freelist *)
    released : int;   (** successful releases *)
    double_releases : int;
        (** releases of an already-poisoned packet (0 in a correct run;
            counted rather than raised unless debug mode is on) *)
  }

  val create : ?debug:bool -> unit -> t
  (** An empty pool; [debug] (default [false]) enables poisoning checks. *)

  val set_debug : t -> bool -> unit

  val stats : t -> stats

  val live : t -> int
  (** Packets acquired and not yet released. *)

  val acquire_tcp :
    ?pool:t -> id:int -> src:addr -> dst:addr -> tag:tag
    -> born:Engine.Time.t -> ?ecn:ecn -> conn:int -> subflow:int
    -> kind:tcp_kind -> seq:int -> payload:int -> ack:int
    -> sack:(int * int) list -> ece:bool -> dss:dss option -> data_ack:int
    -> unit -> packet
  (** Like {!make_tcp} but rebuilds the most recently released record
      in place when [pool] is given and its freelist is non-empty — then
      nothing is allocated (a record last used as a plain packet gets a
      fresh TCP header).  Otherwise a fresh record is built, as by
      {!make_tcp}.  Same validation either way; in debug mode a
      freelist record that is not poisoned (a released packet written
      to since) raises [Failure]. *)

  val acquire_plain :
    ?pool:t -> id:int -> src:addr -> dst:addr -> tag:tag
    -> born:Engine.Time.t -> size:int -> unit -> packet
  (** Like {!make_plain}, recycling a released record as
      {!acquire_tcp} does (a record last used as a TCP segment drops
      its header). *)

  val release : t -> packet -> unit
  (** Returns a packet to the freelist.  The caller asserts nothing will
      read the record again.  A double release is counted (and raises
      [Failure] in debug mode); the record is not pushed twice. *)

  val slot : t -> packet -> int
  (** The record's slot in this pool.  A record that has none here — a
      fresh one, a {!copy}, or one that got its slot from another pool
      — gets the next free index.  A slot is stable across release and
      recycle. *)

  val packet : t -> int -> packet
  (** The record in a slot [slot t p] returned ([packet t (slot t p) ==
      p]).  In debug mode a released (poisoned) record raises
      [Failure]: a queue popped a packet after its release. *)

  val stamp : t -> int -> int
  (** The int kept with a slot (0 until set).  It belongs to whoever
      holds the record at the time: a link stamps a packet with its cut
      count when the packet starts transmission and reads the stamp
      back on arrival.  A packet is on one link at a time, so every
      link of a net shares its pool's stamps. *)

  val set_stamp : t -> int -> int -> unit
  (** [set_stamp t s v] sets slot [s]'s stamp to [v]. *)
end

val pp : Format.formatter -> t -> unit
