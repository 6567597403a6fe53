(** Timed scenario events: the dynamic regimes — failover, handover,
    capacity ramps, lossy links, subflow churn, cross-traffic — that the
    paper's static grid leaves out, scripted as data and applied through
    the timing wheel.

    Link references are topology link ids, subflow references are the
    connection's subflow indices (path-list order).  Events are pure
    data until {!arm} schedules them on a concrete simulation. *)

type action =
  | Link_down of { link : int }
      (** cut both directions: queued and in-flight packets are lost *)
  | Link_up of { link : int }  (** restore a previously cut link *)
  | Capacity_set of { link : int; rate_bps : int }
      (** re-rate both directions; in-transmission packets finish at the
          old rate *)
  | Capacity_ramp of {
      link : int;
      to_bps : int;
      over : Engine.Time.t;
      steps : int;
    }
      (** linear ramp from the rate at fire time to [to_bps], applied as
          [steps] discrete re-rates over [over] *)
  | Delay_set of { link : int; delay : Engine.Time.t }
      (** change both directions' propagation delay (mobility/handover);
          a decrease never reorders a jitter-free link *)
  | Loss_set of { link : int; loss : float }
      (** independent per-packet random loss probability (lossy regime) *)
  | Subflow_close of { subflow : int }
      (** declare the subflow's path dead, as
          {!Mptcp.Connection.deactivate_subflow} *)
  | Subflow_add of { subflow : int }
      (** (re)activate a configured subflow, as
          {!Mptcp.Connection.reactivate_subflow} *)
  | Traffic_start of {
      src : int;
      dst : int;
      tag : Packet.tag;
      rate_bps : int;
      stop_at : Engine.Time.t option;
    }
      (** constant-bit-rate cross-traffic along the shortest path,
          starting at the event time *)
  | Background_start of {
      src : int;
      dst : int;
      classes : int;  (** fluid flow classes to create *)
      flows : int;  (** identical flows aggregated per class *)
      cc : Mptcp.Algorithm.t option;
          (** fluid congestion control per class, or [None] for
              constant-rate (CBR-style) classes *)
      rate_bps : int;  (** per-flow rate, constant-rate classes only *)
      rtt : Engine.Time.t;  (** mean propagation RTT of the classes *)
    }
      (** declare [classes] fluid background flow classes along the
          shortest path, active from the event time.  Unlike every
          other action this one never fires through the scheduler:
          {!Core.Scenario} compiles all declarations into one hybrid
          fluid field whose coarse-tick driver couples to the shared
          link queues ({!Fluid.Background.Driver}); {!arm} treats it
          as a no-op. *)

type t = { at : Engine.Time.t; action : action }

val at : action -> at:Engine.Time.t -> t

val validate :
  topo:Netgraph.Topology.t ->
  ?num_subflows:int ->
  ?reserved_tags:Packet.tag list ->
  t list ->
  string list
(** Static checks before a run: link/node/subflow references in range,
    probabilities in [0, 1], capacity targets not above the link's
    declared capacity (so the static LP stays a valid upper bound for
    the audit), traffic tags disjoint from [reserved_tags].  Returns
    human-readable errors; empty means valid. *)

val arm :
  sched:Engine.Sched.t ->
  net:Netsim.Net.t ->
  ?conn:Mptcp.Connection.t ->
  t list ->
  Netsim.Traffic.t list
(** Schedule every event.  Traffic sources are created immediately
    (routes installed along the current shortest path, emission starting
    at the event time) and returned so callers can read their counters;
    every other action fires through the scheduler at its time.  A
    subflow action raises [Invalid_argument] when it fires without
    [conn]. *)

val pp : Netgraph.Topology.t -> Format.formatter -> t -> unit
