(** Registry of congestion-control algorithms available to MPTCP
    connections: the three the paper measures (CUBIC, LIA, OLIA) plus
    Reno, BALIA and EWTCP for the extension sweeps. *)

type t =
  | Cubic  (** uncoupled, per-subflow CUBIC — Linux's default *)
  | Reno   (** uncoupled, per-subflow Reno AIMD *)
  | Lia
  | Olia
  | Balia
  | Ewtcp
  | Wvegas  (** delay-based coupled control (extension; not in the paper) *)

val all : t list
val coupled : t -> bool
val name : t -> string
val of_string : string -> t option
val factory : t -> Tcp.Cc.factory
val pp : Format.formatter -> t -> unit
