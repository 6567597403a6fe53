type histogram = {
  mutable n : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

type instrument =
  | Gauge of (unit -> float)
  | Histogram of histogram
  | Value of float ref

type snapshot = { sim_ns : int; values : (string * float) list }

type t = {
  instruments : (string, instrument) Hashtbl.t;
  mutable snaps_rev : snapshot list;
}

let create () = { instruments = Hashtbl.create 32; snaps_rev = [] }

let kind_name = function
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Value _ -> "value"

let clash name existing wanted =
  invalid_arg
    (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name existing)
       wanted)

let gauge t name f =
  match Hashtbl.find_opt t.instruments name with
  | Some (Gauge _) | None -> Hashtbl.replace t.instruments name (Gauge f)
  | Some other -> clash name other "gauge"

let histogram t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Histogram h) -> h
  | Some other -> clash name other "histogram"
  | None ->
    let h = { n = 0; sum = 0.0; minv = infinity; maxv = neg_infinity } in
    Hashtbl.replace t.instruments name (Histogram h);
    h

let observe h x =
  h.n <- h.n + 1;
  h.sum <- h.sum +. x;
  if x < h.minv then h.minv <- x;
  if x > h.maxv then h.maxv <- x

let set t name x =
  match Hashtbl.find_opt t.instruments name with
  | Some (Value r) -> r := x
  | Some other -> clash name other "value"
  | None -> Hashtbl.replace t.instruments name (Value (ref x))

let sample name = function
  | Gauge f -> [ (name, f ()) ]
  | Value r -> [ (name, !r) ]
  | Histogram h ->
    let mean = if h.n = 0 then 0.0 else h.sum /. float_of_int h.n in
    [
      (name ^ ".count", float_of_int h.n);
      (name ^ ".sum", h.sum);
      (name ^ ".min", (if h.n = 0 then 0.0 else h.minv));
      (name ^ ".max", (if h.n = 0 then 0.0 else h.maxv));
      (name ^ ".mean", mean);
    ]

let snapshot t ~sim_ns =
  let values =
    Hashtbl.fold (fun name ins acc -> sample name ins @ acc) t.instruments []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  t.snaps_rev <- { sim_ns; values } :: t.snaps_rev

let snapshots t = List.rev t.snaps_rev

let latest t =
  match t.snaps_rev with [] -> None | s :: _ -> Some s

let write_csv t oc =
  output_string oc "sim_ns,name,value\n";
  List.iter
    (fun snap ->
      List.iter
        (fun (name, v) -> Printf.fprintf oc "%d,%s,%.17g\n" snap.sim_ns name v)
        snap.values)
    (snapshots t)
