(** The scenario service: batches in, cached-or-fresh results out.

    {!run_batch} is the one submission pipeline: one-shot [serve] calls
    it directly and the resident daemon calls it per submission.  For
    each entry it canonicalizes and hashes the spec ({!Core.Canon}) and
    consults the {!Store}.  A hit returns the cached record (zero
    simulation work).  A miss opens or joins the hash's single flight
    ({!Flights}); the flight's leader simulates it under the store's
    advisory claim ({!simulate_entry}), serially or through
    {!Engine.Pool.submit}/[await], inserts the record and publishes it
    to every follower.  Each outcome — [Hit], [Fresh] or [Shared] — is
    appended to the {!Trend} log under the label it was submitted with
    (a hit's record keeps the label of the run that produced it), so
    the history records every submission.

    Determinism: fresh runs execute the spec with the metrics layer
    attached (observation does not perturb results — see
    doc/OBSERVABILITY.md), and results come back in submission order,
    so a batch's outcomes are bit-identical for every [jobs] value and
    identical between a cached and a fresh pass
    ({!Store.same_results}). *)

type outcome =
  | Hit of Store.record    (** served from the store; no simulation ran *)
  | Fresh of Store.record  (** simulated on this submission *)
  | Shared of Store.record
      (** another run produced it while this submission waited: an
          earlier entry of the same call, another submission's flight,
          or a peer process's claim — zero simulation work here *)

type stats = {
  entries : int;
  hits : int;
  fresh : int;  (** this call's own simulations *)
  shared : int;
  fresh_sim_events : int;
      (** engine events dispatched by this batch's fresh runs — [0]
          exactly when the whole batch was served from the store *)
  wall_s : float;
}

val hash_entry : Batch.entry -> string
(** The content address the service uses for an entry —
    {!Core.Canon.hash} of its spec. *)

type sim_kind =
  | Simulated  (** this process ran the engine *)
  | Adopted
      (** a peer process held the advisory claim and this call adopted
          its record once it landed — zero simulation work here *)

val simulate_entry :
  ?claim:bool ->
  store:Store.t ->
  Batch.entry ->
  hash:string ->
  Store.record * sim_kind
(** Simulate one miss under the store's advisory claim
    ({!Store.try_claim}) and insert the record: the cross-process half
    of single-flight dedup.  While the claim is held, a helper thread
    refreshes its mtime ({!Store.refresh_claim}) every 10 s, so a live
    simulation longer than the staleness horizon is never mistaken for
    a crashed holder and re-run by a peer.  If a live peer already
    claimed [hash], polls for its record instead of re-simulating (a
    stale claim — crashed peer — is taken over).  [~claim:false] always
    simulates and never waits, the [--no-cache] contract.  Every
    {!run_batch} flight leader goes through here, so two processes
    sharing a store run each scenario once between them. *)

(** In-process single-flight: at most one running simulation per hash.

    The first thread to {!Flights.enter} a hash becomes the [Leader]
    and must eventually {!Flights.publish} a result (even a failure) —
    every concurrent [Follower] of that hash blocks in {!Flights.wait}
    until then.  The split between [enter] (non-blocking) and [wait]
    lets a submission dispatch all its misses to the pool before
    awaiting any of them, and lets tests drive the leader/follower
    exchange deterministically. *)
module Flights : sig
  type payload = Store.record * sim_kind
  (** What a flight lands with: the record, and whether this process
      simulated it or adopted a peer process's run. *)

  type slot
  (** One in-flight (or landed) simulation of one hash. *)

  type role =
    | Leader of slot  (** first in: run it, then {!publish} *)
    | Follower of slot  (** someone is on it: {!wait} for the result *)

  type t

  val create : unit -> t

  val inflight : t -> int
  (** Flights currently between [enter] and [publish]. *)

  val enter : t -> hash:string -> role
  (** Join (or open) the flight for [hash].  Never blocks. *)

  val publish : t -> hash:string -> slot -> (payload, exn) result -> unit
  (** Leader only: land the flight, wake every waiter, and retire the
      hash so the next [enter] starts a fresh flight. *)

  val wait : t -> slot -> (payload, exn) result
  (** Block until the slot's leader has published. *)
end

val run_batch :
  ?jobs:int ->
  ?pool:Engine.Pool.t ->
  ?flights:Flights.t ->
  ?cache:bool ->
  store:Store.t ->
  Batch.entry list ->
  (Batch.entry * outcome) list * stats
(** Outcomes in submission order.  [?pool] reuses a caller-owned pool
    (the resident daemon's); otherwise a pool of [?jobs] workers
    (default {!Engine.Pool.default_domains}) is created for the batch
    when more than one flight needs it, and [~jobs:1] runs misses
    serially with no domain spawned.  [?flights] is the single-flight
    table: the daemon passes its resident one so that concurrent
    submissions share a run; by default the call gets a fresh table,
    which still makes a repeated entry [Shared] with the first.  Every
    flight the call opens is published, failures included, so a raise
    never leaves a follower blocked.  [~cache:false] skips lookups
    (everything re-simulates and overwrites the store — the
    [--no-cache] flag).  Raises the first failed entry's exception;
    nothing is then appended to the trend log. *)
