type 'a t = { mutable subs : ('a -> unit) array }

let create () = { subs = [||] }

(* Copy-on-subscribe: [emit] reads the array once, so a subscriber
   appended mid-emit lands in a fresh array the running loop never
   sees. *)
let subscribe t f = t.subs <- Array.append t.subs [| f |]

let emit t ev =
  let subs = t.subs in
  for i = 0 to Array.length subs - 1 do
    (Array.unsafe_get subs i) ev
  done
