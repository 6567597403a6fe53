type 'a t = {
  data : 'a option array;
  mutable next : int; (* next write slot *)
  mutable pushed : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  { data = Array.make capacity None; next = 0; pushed = 0 }

let push t x =
  t.data.(t.next) <- Some x;
  t.next <- (t.next + 1) mod Array.length t.data;
  t.pushed <- t.pushed + 1

let length t = min t.pushed (Array.length t.data)
let pushed t = t.pushed
let overwritten t = t.pushed - length t

let get_exn t i =
  match t.data.(i) with Some x -> x | None -> assert false

let iter f t =
  let cap = Array.length t.data in
  if t.pushed <= cap then
    for i = 0 to t.pushed - 1 do
      f (get_exn t i)
    done
  else
    for k = 0 to cap - 1 do
      f (get_exn t ((t.next + k) mod cap))
    done

let to_list t =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc) t;
  List.rev !acc

let clear t =
  Array.fill t.data 0 (Array.length t.data) None;
  t.next <- 0;
  t.pushed <- 0
