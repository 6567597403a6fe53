(* Fixed-size worker pool on OCaml 5 domains.

   One mutex guards both the job queue and each map call's completion
   state; workers block on [nonempty] and callers on a per-call
   condition.  Jobs are plain thunks, so the pool itself is monomorphic
   and every [run_list]/[map] call closes over its own (polymorphic)
   result array.

   Every worker feeds a module-level accounting aggregate (jobs
   executed, wall seconds spent inside thunks), so `bench --profile`
   can print busy/idle and speedup tables without the jobs themselves
   cooperating.  The accounting costs two [Unix.gettimeofday] calls and
   one short mutex section per job — noise against jobs that are whole
   simulations. *)

type job = Run of (unit -> unit) | Quit

type worker_stats = { jobs : int; busy_s : float }

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  jobs : job Queue.t;
  mutable workers : unit Domain.t array;
  mutable live : bool;
}

let default_domains () = max 1 (Domain.recommended_domain_count ())

(* --- process-wide accounting (for the bench's --profile) --- *)

let acct_mutex = Mutex.create ()
let acct_jobs : int array ref = ref [||]
let acct_busy : float array ref = ref [||]
let acct_pools = ref 0

let acct_grow n =
  if Array.length !acct_jobs < n then begin
    let jobs = Array.make n 0 and busy = Array.make n 0.0 in
    Array.blit !acct_jobs 0 jobs 0 (Array.length !acct_jobs);
    Array.blit !acct_busy 0 busy 0 (Array.length !acct_busy);
    acct_jobs := jobs;
    acct_busy := busy
  end

let acct_job ~worker ~busy =
  Mutex.lock acct_mutex;
  acct_grow (worker + 1);
  !acct_jobs.(worker) <- !acct_jobs.(worker) + 1;
  !acct_busy.(worker) <- !acct_busy.(worker) +. busy;
  Mutex.unlock acct_mutex

let global_worker_stats () =
  Mutex.lock acct_mutex;
  let stats =
    Array.init (Array.length !acct_jobs) (fun i ->
        { jobs = !acct_jobs.(i); busy_s = !acct_busy.(i) })
  in
  Mutex.unlock acct_mutex;
  stats

let global_pools () = !acct_pools

let reset_global_stats () =
  Mutex.lock acct_mutex;
  acct_jobs := [||];
  acct_busy := [||];
  acct_pools := 0;
  Mutex.unlock acct_mutex

(* --- workers --- *)

let rec worker pool index =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.jobs do
    Condition.wait pool.nonempty pool.mutex
  done;
  let job = Queue.pop pool.jobs in
  Mutex.unlock pool.mutex;
  match job with
  | Quit -> ()
  | Run f ->
    let t0 = Unix.gettimeofday () in
    f ();
    let busy = Unix.gettimeofday () -. t0 in
    acct_job ~worker:index ~busy;
    worker pool index

let create ?(domains = default_domains ()) () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let pool =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Queue.create ();
      workers = [||];
      live = true;
    }
  in
  pool.workers <-
    Array.init domains (fun i -> Domain.spawn (fun () -> worker pool i));
  Mutex.lock acct_mutex;
  incr acct_pools;
  Mutex.unlock acct_mutex;
  pool

let size pool = Array.length pool.workers

let shutdown pool =
  if pool.live then begin
    pool.live <- false;
    Mutex.lock pool.mutex;
    Array.iter (fun _ -> Queue.add Quit pool.jobs) pool.workers;
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.mutex;
    Array.iter Domain.join pool.workers
  end

let run_list pool thunks =
  if not pool.live then invalid_arg "Pool.run_list: pool is shut down";
  match thunks with
  | [] -> []
  | [ f ] -> [ f () ]
  | _ ->
    let thunks = Array.of_list thunks in
    let n = Array.length thunks in
    let results = Array.make n None in
    (* Lowest input index wins when several jobs raise, so the propagated
       exception does not depend on worker timing. *)
    let error = ref None in
    let remaining = ref n in
    let finished = Condition.create () in
    Mutex.lock pool.mutex;
    for i = 0 to n - 1 do
      let work () =
        let outcome =
          match thunks.(i) () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock pool.mutex;
        (match outcome with
        | Ok v -> results.(i) <- Some v
        | Error err -> (
          match !error with
          | Some (j, _) when j < i -> ()
          | Some _ | None -> error := Some (i, err)));
        decr remaining;
        if !remaining = 0 then Condition.broadcast finished;
        Mutex.unlock pool.mutex
      in
      Queue.add (Run work) pool.jobs
    done;
    Condition.broadcast pool.nonempty;
    while !remaining > 0 do
      Condition.wait finished pool.mutex
    done;
    Mutex.unlock pool.mutex;
    (match !error with
    | Some (_, (e, bt)) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.to_list
      (Array.map
         (function Some v -> v | None -> assert false (* all jobs ran *))
         results)

(* --- incremental submission (the serve daemon's entry point) --- *)

type 'a outcome =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a ticket = {
  t_mutex : Mutex.t;
  t_done : Condition.t;
  mutable t_outcome : 'a outcome;
}

let submit pool f =
  if not pool.live then invalid_arg "Pool.submit: pool is shut down";
  let ticket =
    { t_mutex = Mutex.create (); t_done = Condition.create ();
      t_outcome = Pending }
  in
  let work () =
    let outcome =
      match f () with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock ticket.t_mutex;
    ticket.t_outcome <- outcome;
    Condition.broadcast ticket.t_done;
    Mutex.unlock ticket.t_mutex
  in
  Mutex.lock pool.mutex;
  Queue.add (Run work) pool.jobs;
  Condition.signal pool.nonempty;
  Mutex.unlock pool.mutex;
  ticket

let await ticket =
  Mutex.lock ticket.t_mutex;
  while (match ticket.t_outcome with Pending -> true | _ -> false) do
    Condition.wait ticket.t_done ticket.t_mutex
  done;
  let outcome = ticket.t_outcome in
  Mutex.unlock ticket.t_mutex;
  match outcome with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let map_pool pool f xs = run_list pool (List.map (fun x -> fun () -> f x) xs)

let map ?domains f xs =
  let domains =
    match domains with Some d -> d | None -> default_domains ()
  in
  if domains < 1 then invalid_arg "Pool.map: domains must be >= 1";
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when domains = 1 -> List.map f xs
  | _ ->
    let pool = create ~domains:(min domains (List.length xs)) () in
    Fun.protect
      ~finally:(fun () -> shutdown pool)
      (fun () -> map_pool pool f xs)
