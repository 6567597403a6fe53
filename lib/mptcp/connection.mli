(** An MPTCP connection: one byte stream striped over several TCP
    subflows, each pinned to a tagged path.

    This is the system under test in the paper: a bulk transfer (iperf)
    from [s] to [d] over three overlapping paths, with the chosen
    congestion-control algorithm deciding how the stream spreads across
    the paths.  The first path is the default subflow; the others join
    [join_delay] later, as the kernel's path manager would create them
    after connection establishment. *)

type config = {
  sender : Tcp.Sender.config;
  scheduler : Scheduler.policy;
  send_buffer : int option;
      (** connection-level in-flight cap in bytes; [None] (default)
          models iperf's effectively unlimited buffer *)
  join_delay : Engine.Time.t;
      (** when the non-default subflows start (default 10 ms) *)
  start_jitter : Engine.Time.t;
      (** each subflow's start is delayed by an extra uniform draw from
          [\[0, start_jitter\]] (default 0, i.e. fully deterministic);
          requires [rng] at {!establish} to take effect *)
  delayed_ack : bool;
      (** receiver-side delayed ACKs (see {!Tcp.Receiver.create});
          default [false] *)
  reinjection : bool;
      (** opportunistic reinjection with penalization (Raiciu et al.,
          NSDI 2012): when the connection-level [send_buffer] window
          blocks a subflow, the blocking chunk is re-sent on that subflow
          and the slow subflow that owns it gets its window halved.
          Only meaningful together with [send_buffer]; default [false] *)
  rto_cap : int option;
      (** failover threshold: after this many consecutive RTO expiries
          with no forward ACK progress a subflow is declared dead
          ({!deactivate_subflow}), its un-data-acked chunks are re-sent
          on the surviving subflows and the scheduler stops granting it
          data.  [None] (default) disables liveness detection — the
          pre-failover behaviour *)
}

val default_config : config

type t

val establish :
  net:Netsim.Net.t ->
  src:Tcp.Endpoint.t ->
  dst:Tcp.Endpoint.t ->
  conn:int ->
  paths:Path_manager.t ->
  cc:Algorithm.t ->
  ?config:config ->
  ?rng:Engine.Rng.t ->
  ?total_bytes:int ->
  ?start_at:Engine.Time.t ->
  unit -> t
(** Installs the tagged routes, creates one (sender, receiver) pair per
    path and starts the transfer.  [conn] must be unique per simulation;
    tags must be unique per (src, dst) pair.  Raises [Invalid_argument]
    on an empty path list. *)

(** {1 Observation} *)

val subflow_count : t -> int
val subflow_sender : t -> int -> Tcp.Sender.t

val subflow_receiver : t -> int -> Tcp.Receiver.t
(** The receiving end of subflow [i] — exposed so the audit subsystem
    can tap per-subflow deliveries. *)

val subflow_tag : t -> int -> Packet.tag
val subflow_path : t -> int -> Netgraph.Path.t

val subflow_rx_bytes : t -> int -> int
(** In-order subflow-level bytes the receiver got on that subflow. *)

val delivered_bytes : t -> int
(** Connection-level bytes delivered in data-sequence order. *)

val data_ack : t -> int
val reassembly_buffered : t -> int

val data_ack_rx : t -> int
(** Highest connection-level DATA_ACK the sender side has seen; trails
    {!data_ack} by at most the network's round trip. *)

val mapped_bytes : t -> int
(** Distinct connection-level bytes mapped onto any subflow so far —
    an upper bound on what the receiver can have seen.  Accounts for the
    Redundant scheduler's duplicate mappings. *)

val completed_at : t -> Engine.Time.t option

val reinjections : t -> int
(** Count of chunks re-sent on a faster subflow to clear head-of-line
    blocking (see [config.reinjection]). *)

val cc : t -> Algorithm.t

val total_throughput_bps : t -> now:Engine.Time.t -> float
(** Delivered connection-level goodput averaged since [start_at]. *)

(** {1 Path liveness} *)

val liveness : t -> Path_manager.Liveness.t
(** The per-path active flags this connection's scheduler consults. *)

val subflow_active : t -> int -> bool

val deactivate_subflow : t -> int -> unit
(** Declare subflow [i]'s path dead: the scheduler stops granting it
    data, and every chunk it owns above the connection-level cumulative
    ACK is queued for re-transmission on the surviving subflows (chunk
    ownership is tracked whenever [reinjection] or [rto_cap] is on).
    Idempotent.  Called internally when [rto_cap] trips; the event layer
    calls it for scripted [Subflow_close]. *)

val reactivate_subflow : t -> int -> unit
(** Mark subflow [i]'s path usable again and wake its sender.
    Idempotent. *)

val owners_consistent : t -> bool
(** [true] iff the chunk-ownership ring ({!Chunks}) is structurally
    sound: chunks strictly ascending and non-overlapping, every owner a
    valid subflow index, and the last chunk ending at or before the next
    unmapped data-sequence number.  Audit hook ([mptcp.chunk-owners]):
    failover re-sends exactly what this table says a dead subflow
    carried, so drift here means lost or duplicated rescue data. *)

(** {1 Monitoring} *)

type monitor_event =
  | Sched_grant of { subflow : int; dseq : int; len : int }
      (** the scheduler mapped connection-level bytes
          [\[dseq, dseq+len)] onto [subflow] (for the Redundant policy,
          each subflow's private mapping of the shared stream) *)
  | Sched_defer of { subflow : int; preferred : int option }
      (** [subflow] asked for data but the scheduler preferred another
          subflow ([preferred], when known), e.g. min-RTT steering away
          from a slow path *)
  | Reinjected of { subflow : int; dseq : int; len : int; owner : int }
      (** head-of-line-blocking chunk at [dseq] re-sent on [subflow];
          [owner] is the (penalized) subflow that originally carried
          it — or, after a failover, the dead subflow it was rescued
          from *)
  | Subflow_state of { subflow : int; active : bool }
      (** the subflow's path was declared dead ([active = false]) or
          usable again — by the RTO-cap detector or the event layer *)

val set_monitor : t -> (monitor_event -> unit) option -> unit
(** Installs (or clears) a scheduler-decision tap; fires after the
    connection's own state is updated.  [None] (the default) costs one
    mutable load per decision. *)

val monitor : t -> (monitor_event -> unit) option
(** The currently installed tap, so a second subscriber can chain
    rather than clobber it. *)
