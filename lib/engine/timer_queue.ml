module type S = sig
  type t
  type handle

  val create : unit -> t
  val length : t -> int
  val is_empty : t -> bool
  val push : t -> key:int -> tie:int -> int -> handle
  val cancel : t -> handle -> unit
  val min_key_exn : t -> int
  val min_tie_exn : t -> int
  val pop_exn : t -> int
end

module Of_wheel : S = struct
  (* The wheel removes cancelled cells eagerly and recycles them, so a
     raw cell index must not be cancelled twice or after its pop.  The
     n-th push's handle is [handles.(n)], and the wheel carries [n]; the
     pop clears the handle's [alive] flag, which honours the
     interface's idempotent-cancel contract without touching the wheel
     itself.  Handles are never reused: the adapter serves test
     programs of a few hundred operations. *)
  type handle = { mutable alive : bool; mutable cell : int; v : int }

  type t = {
    wheel : Wheel.t;
    mutable handles : handle array;
    mutable pushed : int;
  }

  let create () = { wheel = Wheel.create (); handles = [||]; pushed = 0 }
  let length t = Wheel.length t.wheel
  let is_empty t = Wheel.is_empty t.wheel

  let push t ~key ~tie v =
    let h = { alive = true; cell = -1; v } in
    let n = t.pushed in
    if n = Array.length t.handles then begin
      let bigger = Array.make (max 16 (2 * n)) h in
      Array.blit t.handles 0 bigger 0 n;
      t.handles <- bigger
    end;
    t.handles.(n) <- h;
    t.pushed <- n + 1;
    h.cell <- Wheel.push t.wheel ~key ~tie n;
    h

  let cancel t h =
    if h.alive then begin
      h.alive <- false;
      Wheel.cancel t.wheel h.cell
    end

  let min_key_exn t = Wheel.min_key_exn t.wheel
  let min_tie_exn t = Wheel.min_tie_exn t.wheel

  let pop_exn t =
    let h = t.handles.(Wheel.pop_exn t.wheel) in
    h.alive <- false;
    h.v
end

module Of_heap : S = struct
  (* The heap has no random-access removal, so cancellation marks the
     entry dead and pops filter: before any root read the dead prefix
     is dropped, which makes the observable pop stream identical to the
     wheel's eager removal. *)
  type cell = { mutable alive : bool; v : int }
  type handle = cell
  type t = { heap : cell Heap.t; mutable live : int }

  let create () = { heap = Heap.create (); live = 0 }
  let length t = t.live
  let is_empty t = t.live = 0

  let push t ~key ~tie v =
    let cell = { alive = true; v } in
    Heap.push t.heap ~key ~tie cell;
    t.live <- t.live + 1;
    cell

  let cancel t cell =
    if cell.alive then begin
      cell.alive <- false;
      t.live <- t.live - 1;
      if t.live * 2 < Heap.length t.heap then
        Heap.compact t.heap ~keep:(fun c -> c.alive)
    end

  let rec clean t =
    if not (Heap.is_empty t.heap) then begin
      match Heap.peek t.heap with
      | Some (_, _, c) when not c.alive ->
        ignore (Heap.pop_exn t.heap);
        clean t
      | _ -> ()
    end

  let min_key_exn t =
    clean t;
    Heap.min_key_exn t.heap

  let min_tie_exn t =
    clean t;
    Heap.min_tie_exn t.heap

  let pop_exn t =
    clean t;
    let c = Heap.pop_exn t.heap in
    c.alive <- false;
    t.live <- t.live - 1;
    c.v
end
