(** Structured trace layer: a bounded ring of typed events with both
    simulated and wall-clock timestamps, exportable as Chrome
    [about://tracing] JSON (loads in Perfetto) and as CSV.

    Events live on integer {e tracks} (Chrome "thread" ids) so that
    related events render as one timeline lane: the event loop, each
    MPTCP subflow, each link direction.  The ring keeps the most recent
    65536 events (see {!Ring}); {!recorded}/{!dropped} say how much
    of the run the export covers. *)

type kind =
  | Loop_dispatch  (** the event loop dispatched a timer callback *)
  | Link_enqueue  (** a packet was admitted to a link buffer *)
  | Link_dequeue  (** a packet was delivered at the far end of a link *)
  | Link_drop  (** a packet was discarded by the qdisc *)
  | Link_lost  (** a packet was destroyed by a downed link *)
  | Tcp_sent  (** a fresh data segment left a subflow sender *)
  | Tcp_retransmit  (** a retransmitted segment left a subflow sender *)
  | Tcp_ack  (** a cumulative ACK advanced [snd_una] *)
  | Tcp_cwnd  (** congestion control changed the window *)
  | Tcp_state  (** the sender crossed a loss-state boundary *)
  | Tcp_rx  (** a receiver delivered an in-order segment *)
  | Sched_grant  (** the MPTCP scheduler mapped bytes onto a subflow *)
  | Sched_defer  (** the MPTCP scheduler steered a request elsewhere *)
  | Reinject  (** a head-of-line-blocking chunk was re-sent *)
  | Subflow_state  (** a subflow was declared dead or usable again *)
  | Audit_violation  (** the invariant auditor flagged a violation *)
  | Metrics_snapshot  (** the metrics registry was sampled *)

type event = {
  kind : kind;
  sim_ns : int;  (** simulated time (integer nanoseconds) *)
  wall_ns : int;  (** wall-clock nanoseconds since the trace was created *)
  track : int;  (** timeline lane (Chrome [tid]) *)
  a : int;  (** kind-specific payload, e.g. sequence number *)
  b : int;  (** kind-specific payload, e.g. length in bytes *)
  label : string;  (** free-form annotation; [""] for most events *)
}

type t

val create : unit -> t
(** A fresh trace ring of 65536 events. *)

val record :
  t -> kind -> sim_ns:int -> track:int -> ?a:int -> ?b:int -> ?label:string
  -> unit -> unit
(** Appends one event, stamping the wall clock.  O(1); overwrites the
    oldest event when the ring is full. *)

val name_track : t -> int -> string -> unit
(** Associates a human-readable name with a track; exported as Chrome
    [thread_name] metadata so Perfetto labels the lane. *)

val events : t -> event list
(** Current ring contents, oldest first (ascending [sim_ns]). *)

val recorded : t -> int
(** Total events recorded over the trace's lifetime. *)

val dropped : t -> int
(** Events lost to ring overwrites ([recorded] minus what {!events}
    returns). *)

val write_chrome : t -> out_channel -> unit
(** Chrome trace-event JSON: a single array, one event object per line.
    [ts] is simulated time in microseconds, [pid] is 0, [tid] the track;
    every event is an instant ([ph:"i"]).  Kind payloads and the
    wall-clock stamp ride in [args].  Loads directly in
    [about://tracing] and {{:https://ui.perfetto.dev}Perfetto}. *)

val write_csv : t -> out_channel -> unit
(** CSV with header [kind,sim_ns,wall_ns,track,a,b,label], one event
    per row, oldest first. *)
