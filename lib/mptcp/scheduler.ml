type policy = Min_rtt | Round_robin | Redundant

let policy_name = function
  | Min_rtt -> "minrtt"
  | Round_robin -> "roundrobin"
  | Redundant -> "redundant"

(* Files and flags spell multi-word names with dashes or underscores. *)
let policy_of_string s =
  match String.map (function '-' -> '_' | c -> Char.lowercase_ascii c) s with
  | "minrtt" | "min_rtt" | "default" -> Some Min_rtt
  | "roundrobin" | "round_robin" | "rr" -> Some Round_robin
  | "redundant" -> Some Redundant
  | _ -> None

type decision = Grant | Defer of int option

(* Subflows are read through the caller's accessors, not from a
   snapshot the caller builds: the connection asks on every grant, so
   a decision must not allocate. *)
let decide policy ~cursor ~requester ~count ~srtt_ns ~window_space view =
  match policy with
  | Redundant -> Grant
  | Min_rtt ->
    (* The first subflow with window space and the strictly smallest
       srtt wins. *)
    let best = ref (-1) and best_srtt = ref 0 in
    for i = 0 to count - 1 do
      if window_space view i > 0 then begin
        let srtt = srtt_ns view i in
        if !best < 0 || srtt < !best_srtt then begin
          best := i;
          best_srtt := srtt
        end
      end
    done;
    if !best < 0 || !best = requester then
      Grant (* nobody has space: the requester claims some; trust it *)
    else Defer (Some !best)
  | Round_robin ->
    (* Advance the cursor to the next subflow with window space. *)
    let chosen = ref (-1) and k = ref 0 in
    while !chosen < 0 && !k < count do
      let i = (!cursor + !k) mod count in
      if window_space view i > 0 then chosen := i;
      incr k
    done;
    if !chosen < 0 then Grant
    else if !chosen = requester then begin
      cursor := (!chosen + 1) mod count;
      Grant
    end
    else Defer (Some !chosen)
