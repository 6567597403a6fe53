(** Subflow scheduling policies.

    Decides which subflow carries the next connection-level chunk.  With
    an unlimited send buffer and a bulk source (the paper's iperf
    setup) every subflow always has data, so the policy is immaterial
    there; it matters when {!Connection} is given a finite send buffer or
    a latency-sensitive source.

    [Min_rtt] is the Linux MPTCP default scheduler the paper used. *)

type policy =
  | Min_rtt      (** prefer the subflow with the lowest smoothed RTT *)
  | Round_robin  (** rotate across subflows with window space *)
  | Redundant
      (** duplicate the stream on every subflow (Vulimiri et al.'s
          latency-via-redundancy, the paper's reference [5]) *)

val policy_name : policy -> string

val policy_of_string : string -> policy option
(** Case-insensitive, with [-] and [_] interchangeable: [min-rtt],
    [min_rtt] and [minrtt] all read as [Min_rtt]. *)

type decision =
  | Grant
  | Defer of int option
      (** refuse the requester; the payload should go to the given
          subflow instead (kick it), or nobody right now *)

val decide :
  policy -> cursor:int ref -> requester:int -> count:int
  -> srtt_ns:('a -> int -> int) -> window_space:('a -> int -> int) -> 'a
  -> decision
(** [decide policy ~cursor ~requester ~count ~srtt_ns ~window_space v]
    chooses among subflows [0 .. count - 1], reading subflow [i]'s
    smoothed RTT in nanoseconds as [srtt_ns v i] and its unused
    congestion window in bytes as [window_space v i].  Nothing is
    allocated unless the requester is refused.

    [Min_rtt]: the first subflow with window space and the strictly
    smallest srtt wins (integer nanoseconds order exactly as float
    seconds do).  [Round_robin]: the first subflow with window space
    from [!cursor] on, cyclically; [cursor] moves past the requester
    when it is granted.  [Redundant] always grants.  [decide] assumes
    the requester has window space (it is pulling), so it grants when
    no subflow reports any. *)
