type outcome =
  | Hit of Store.record
  | Fresh of Store.record
  | Shared of Store.record

type stats = {
  entries : int;
  hits : int;
  fresh : int;
  shared : int;
  fresh_sim_events : int;
  wall_s : float;
}

let hash_entry (e : Batch.entry) = Core.Canon.hash e.Batch.spec

(* A fresh run: attach the metrics layer (unless the spec already
   configured observability) so the record captures the final metrics
   snapshot; observation does not perturb results, and obs is excluded
   from the hash, so the cached record still answers plain
   re-submissions.  Gc.minor_words is per-domain in OCaml 5 and the
   whole thunk runs on one domain, so the delta is this run's own
   allocation. *)
let simulate (e : Batch.entry) ~hash () =
  let spec =
    match e.Batch.spec.Core.Scenario.obs with
    | Some _ -> e.Batch.spec
    | None ->
      {
        e.Batch.spec with
        Core.Scenario.obs =
          Some { Obs.Collect.default_conf with Obs.Collect.trace = false };
      }
  in
  let minor0 = Gc.minor_words () in
  let wall0 = Unix.gettimeofday () in
  let result = Core.Scenario.run spec in
  let wall_s = Unix.gettimeofday () -. wall0 in
  let alloc_words = Gc.minor_words () -. minor0 in
  Store.of_result ~hash ~label:e.Batch.label ~wall_s ~alloc_words
    ~created_unix:(Unix.gettimeofday ()) result

type sim_kind = Simulated | Adopted

(* Refresh cadence for a held claim — well inside [Store.try_claim]'s
   default 120 s staleness horizon, so a live simulation of any length
   keeps its lock from ever reading as stale to peers. *)
let claim_refresh_interval_s = 10.

(* Keep a held claim visibly alive: touch its mtime every
   [claim_refresh_interval_s] until [finished].  The thread is
   detached — it exits within one 0.1 s tick of [finished], and a last
   touch racing the release (or a takeover) is a caught ENOENT inside
   [Store.refresh_claim], not a hazard — so the simulating caller never
   waits on a join. *)
let keep_claim_fresh c ~finished =
  ignore
    (Thread.create
       (fun () ->
         let tick = 0.1 in
         let ticks_per_refresh =
           int_of_float (claim_refresh_interval_s /. tick)
         in
         let n = ref 0 in
         while not (Atomic.get finished) do
           Thread.delay tick;
           incr n;
           if !n >= ticks_per_refresh then begin
             n := 0;
             Store.refresh_claim c
           end
         done)
       ())

(* The cross-process single-flight primitive: claim the hash, then
   simulate-and-insert, so a peer process that loses the claim race
   adopts our record instead of re-running the scenario.  The claim is
   advisory — a stale lock (crashed holder) is taken over inside
   [Store.try_claim], so this always terminates with a record. *)
let rec simulate_entry ?(claim = true) ~store (e : Batch.entry) ~hash =
  if not claim then begin
    (* --no-cache: re-simulation was explicitly requested, so never
       adopt a peer's record (and don't make peers wait on us). *)
    let r = simulate e ~hash () in
    Store.insert store r;
    (r, Simulated)
  end
  else
    match Store.try_claim store ~hash with
    | `Claimed c ->
      let finished = Atomic.make false in
      keep_claim_fresh c ~finished;
      Fun.protect
        ~finally:(fun () ->
          Atomic.set finished true;
          Store.release_claim c)
        (fun () ->
          (* Re-check under the claim: a peer may have finished between
             our miss and the claim. *)
          match Store.lookup store ~hash with
          | Some r -> (r, Adopted)
          | None ->
            let r = simulate e ~hash () in
            Store.insert store r;
            (r, Simulated))
    | `Busy -> (
      (* A live peer is simulating this very hash; poll for its record.
         If the peer dies instead, its lock goes stale and the retry's
         [try_claim] takes over. *)
      Unix.sleepf 0.02;
      match Store.lookup store ~hash with
      | Some r -> (r, Adopted)
      | None -> simulate_entry ~claim ~store e ~hash)

module Flights = struct
  type payload = Store.record * sim_kind
  type slot = { mutable result : (payload, exn) result option }
  type role = Leader of slot | Follower of slot

  type t = {
    m : Mutex.t;
    c : Condition.t;
    tbl : (string, slot) Hashtbl.t;
  }

  let create () =
    { m = Mutex.create (); c = Condition.create (); tbl = Hashtbl.create 16 }

  let inflight t =
    Mutex.lock t.m;
    let n = Hashtbl.length t.tbl in
    Mutex.unlock t.m;
    n

  let enter t ~hash =
    Mutex.lock t.m;
    let role =
      match Hashtbl.find_opt t.tbl hash with
      | Some slot -> Follower slot
      | None ->
        let slot = { result = None } in
        Hashtbl.add t.tbl hash slot;
        Leader slot
    in
    Mutex.unlock t.m;
    role

  let publish t ~hash slot res =
    Mutex.lock t.m;
    slot.result <- Some res;
    (* Retire the hash so the next [enter] opens a fresh flight; guard
       against a stale publish retiring a newer flight of the same
       hash. *)
    (match Hashtbl.find_opt t.tbl hash with
    | Some s when s == slot -> Hashtbl.remove t.tbl hash
    | _ -> ());
    Condition.broadcast t.c;
    Mutex.unlock t.m

  let wait t slot =
    Mutex.lock t.m;
    let rec settled () =
      match slot.result with
      | Some r -> r
      | None ->
        Condition.wait t.c t.m;
        settled ()
    in
    let r = settled () in
    Mutex.unlock t.m;
    r
end

(* One entry after its store lookup and flight entry.  A [Lead] owes
   its flight a publish; a [Join] waits on a flight led elsewhere — by
   an earlier entry of this call or by another submission. *)
type item = Cached of Store.record | Lead of Flights.slot | Join of Flights.slot

let run_batch ?jobs ?pool ?flights ?(cache = true) ~store entries =
  let wall0 = Unix.gettimeofday () in
  let flights =
    match flights with Some f -> f | None -> Flights.create ()
  in
  (* Phase 1: hash, look up, and open or join a flight per miss.  An
     opened flight must be published or its followers block forever,
     so a raise here first fails the flights opened so far. *)
  let leads = ref [] in
  let resolve e =
    let hash = hash_entry e in
    match if cache then Store.lookup store ~hash else None with
    | Some r -> Cached r
    | None -> (
      match Flights.enter flights ~hash with
      | Flights.Follower slot -> Join slot
      | Flights.Leader slot ->
        leads := (e, hash, slot) :: !leads;
        Lead slot)
  in
  let items =
    match List.map (fun e -> (e, resolve e)) entries with
    | items -> items
    | exception ex ->
      List.iter
        (fun (_, hash, slot) -> Flights.publish flights ~hash slot (Error ex))
        !leads;
      raise ex
  in
  let leads = List.rev !leads in
  (* Phase 2: simulate every lead — serially, or all enqueued on the
     pool before any is awaited — and publish each as it lands,
     failures included. *)
  let attempt f = match f () with v -> Ok v | exception ex -> Error ex in
  let settle (_, hash, slot) res = Flights.publish flights ~hash slot res in
  let sim (e, hash, _) () = simulate_entry ~claim:cache ~store e ~hash in
  let run_serially () =
    List.iter (fun l -> settle l (attempt (sim l))) leads
  in
  let run_on pool =
    List.map
      (fun l -> (l, attempt (fun () -> Engine.Pool.submit pool (sim l))))
      leads
    |> List.iter (fun (l, ticket) ->
           settle l
             (Result.bind ticket (fun t ->
                  attempt (fun () -> Engine.Pool.await t))))
  in
  (match (leads, pool) with
  | [], _ -> ()
  | _, Some pool -> run_on pool
  | _, None ->
    let domains =
      min
        (match jobs with
        | Some j -> j
        | None -> Engine.Pool.default_domains ())
        (List.length leads)
    in
    if domains <= 1 then run_serially ()
    else begin
      let pool = Engine.Pool.create ~domains () in
      Fun.protect
        ~finally:(fun () -> Engine.Pool.shutdown pool)
        (fun () -> run_on pool)
    end);
  (* Phase 3: this call's own flights have all landed, so no wait
     below can block on one of them. *)
  let landed slot =
    match Flights.wait flights slot with Ok p -> p | Error ex -> raise ex
  in
  let outcomes =
    List.map
      (fun (e, item) ->
        match item with
        | Cached r -> (e, Hit r)
        | Lead slot -> (
          match landed slot with
          | r, Simulated -> (e, Fresh r)
          | r, Adopted -> (e, Shared r))
        | Join slot -> (e, Shared (fst (landed slot))))
      items
  in
  let at_unix = Unix.gettimeofday () in
  List.iter
    (fun ((e : Batch.entry), outcome) ->
      let cached, r =
        match outcome with
        | Fresh r -> (false, r)
        | Hit r | Shared r -> (true, r)
      in
      (* A hit or a shared run carries the record of whichever entry
         simulated it first; the history files it under this one. *)
      Trend.append ~dir:(Store.dir store)
        {
          (Trend.entry_of_record ~at_unix ~cached r) with
          Trend.label = Store.sanitize_atom e.Batch.label;
        })
    outcomes;
  let count p = List.length (List.filter (fun (_, o) -> p o) outcomes) in
  let stats =
    {
      entries = List.length entries;
      hits = count (function Hit _ -> true | _ -> false);
      fresh = count (function Fresh _ -> true | _ -> false);
      shared = count (function Shared _ -> true | _ -> false);
      fresh_sim_events =
        List.fold_left
          (fun acc -> function
            | _, Fresh r -> acc + r.Store.sim_events
            | _ -> acc)
          0 outcomes;
      wall_s = Unix.gettimeofday () -. wall0;
    }
  in
  (outcomes, stats)
