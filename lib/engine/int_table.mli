(** Hash table from non-negative ints to values, for per-packet lookups.

    The network's per-node route tables and the TCP endpoint's
    (connection, subflow) demux look a key up for every packet.  A
    [(int, _) Hashtbl.t] pays the polymorphic [caml_hash] and a [Some]
    per lookup; this table hashes with one multiply and answers a miss
    with the [absent] value fixed at creation, so {!find} allocates
    nothing and calls nothing. *)

type 'a t

val create : absent:'a -> unit -> 'a t
(** An empty table with room for 4 keys before it first grows.  {!find}
    returns [absent] for a key that is not bound. *)

val find : 'a t -> int -> 'a
(** The value bound to the key, or the table's [absent] value. *)

val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Binds the key, overwriting any earlier binding.  Raises
    [Invalid_argument] on a negative key. *)
