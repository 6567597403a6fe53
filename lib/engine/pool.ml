(* Fixed-size worker pool on OCaml 5 domains.

   One mutex guards the job queue; workers block on [nonempty].  Jobs
   are plain thunks, so the pool itself is monomorphic: [submit] wraps
   each one to fill its own (polymorphic) ticket, and [map] is [submit]
   and [await] over a list.

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
      (fun () ->
        let tickets = List.map (fun x -> submit pool (fun () -> f x)) xs in
        (* Every job settles before anything is raised, and the
           lowest-index failure wins, whatever the timing. *)
        let outcomes =
          List.map
            (fun t ->
              match await t with
              | v -> Ok v
              | exception e -> Error (e, Printexc.get_raw_backtrace ()))
            tickets
        in
        List.map
          (function
            | Ok v -> v
            | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
          outcomes)
