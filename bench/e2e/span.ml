(* Spans recorded by the benchmark around its calls into each layer:
   workload -> rep -> Scenario.make / run / summary, and request ->
   encode / socket call / decode.  A span's parent is the span open on
   the same thread when it starts, unless given.  Spans live in memory
   and are written once, at exit, as a Chrome-trace JSON file that
   Perfetto loads.

   Recording is off unless [enable] was called, so timed runs pay one
   boolean test per span.  Client threads record concurrently, hence
   the mutex. *)

type span = {
  id : int;
  parent : int;  (* 0 = root *)
  req : int;  (* request id; 0 outside the request path *)
  name : string;
  tid : int;
  t0 : float;  (* seconds since the epoch *)
  mutable t1 : float;
}

let on = ref false
let cap = ref 0
let dropped = ref 0
let spans : span list ref = ref []
let count = ref 0
let next_id = ref 1
let open_on : (int, span) Hashtbl.t = Hashtbl.create 8  (* thread -> innermost *)
let m = Mutex.create ()

(* [limit] bounds memory: spans beyond it are counted, not kept. *)
let enable ~limit =
  on := true;
  cap := limit

let disable () = on := false
let enabled () = !on

let locked f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let start ?parent ?(req = 0) name =
  if not !on then None
  else
    locked (fun () ->
        if !count >= !cap then begin
          incr dropped;
          None
        end
        else begin
          let tid = Thread.id (Thread.self ()) in
          let parent =
            match (parent, Hashtbl.find_opt open_on tid) with
            | Some p, _ -> p
            | None, Some s -> s.id
            | None, None -> 0
          in
          let s =
            { id = !next_id; parent; req; name; tid; t0 = Stat.now (); t1 = nan }
          in
          incr next_id;
          incr count;
          spans := s :: !spans;
          let outer = Hashtbl.find_opt open_on tid in
          Hashtbl.replace open_on tid s;
          Some (s, outer)
        end)

let stop = function
  | None -> ()
  | Some (s, outer) ->
    let t = Stat.now () in
    locked (fun () ->
        s.t1 <- t;
        match outer with
        | Some o -> Hashtbl.replace open_on s.tid o
        | None -> Hashtbl.remove open_on s.tid)

let id = function Some (s, _) -> s.id | None -> 0

(* The innermost open span of this thread (0 if none): the parent to
   hand to threads started inside it. *)
let current () =
  if not !on then 0
  else
    locked (fun () ->
        match Hashtbl.find_opt open_on (Thread.id (Thread.self ())) with
        | Some s -> s.id
        | None -> 0)

(* [f] receives the span's id (0 when not recorded), for handing to
   work started on other threads. *)
let with_ ?parent ?req name f =
  let h = start ?parent ?req name in
  Fun.protect ~finally:(fun () -> stop h) (fun () -> f (id h))

let closed () =
  List.rev (List.filter (fun s -> Float.is_finite s.t1) !spans)

(* Self time: a span's duration minus the time its direct children
   cover.  Children on one thread never overlap; concurrent children
   (the client threads) can cover more than their parent, whose self
   time is then zero. *)
let self_times all =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    all;
  List.map
    (fun s ->
      let kids = Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
      (s, Float.max 0. (s.t1 -. s.t0 -. kids)))
    all

(* Self time summed per span name, largest first, in seconds. *)
let self_by_name () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let n, tot =
        Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (n + 1, tot +. self))
    (self_times (closed ()));
  List.sort
    (fun (_, (_, a)) (_, (_, b)) -> Float.compare b a)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let us x = Json.Num (Float.round (x *. 1e7) /. 10.)

let chrome_events ~pid =
  match closed () with
  | [] -> []
  | all ->
    let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity all in
    List.map
      (fun (s, self) ->
        Json.Obj
          [ ("name", Json.Str s.name);
            ("ph", Json.Str "X");
            ("pid", Json.Num (float_of_int pid));
            ("tid", Json.Num (float_of_int s.tid));
            ("ts", us (s.t0 -. base));
            ("dur", us (s.t1 -. s.t0));
            ( "args",
              Json.Obj
                [ ("id", Json.Num (float_of_int s.id));
                  ("parent", Json.Num (float_of_int s.parent));
                  ("req", Json.Num (float_of_int s.req));
                  ("self_us", us self) ] ) ])
      (self_times all)

let trace_file events =
  Json.Obj
    [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms") ]
