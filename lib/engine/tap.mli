(** Typed observation points.

    A tap is an append-only array of subscribers.  {!emit} calls each
    one with the event, in subscription order; every subscriber sees
    every event emitted after it subscribed.  Any number of observers
    (the invariant audit, the trace collector, packet captures)
    can subscribe to the same tap in any order without knowing about
    each other.

    Taps only observe: a subscriber must not change the run.  A hook
    that does (the TCP sender's RTO liveness callback) is not a tap.

    The record is [private] so a hot emit site can test for subscribers
    with a plain field read and build its event only behind that test —
    [emit] lives in another module, so under [-opaque] a call to it is
    never inlined:
    {[
      if Array.length t.tap.Engine.Tap.subs > 0 then
        Engine.Tap.emit t.tap (Enqueued p)
    ]}
    An empty tap then costs the test alone: no call, no allocation. *)

type 'a t = private { mutable subs : ('a -> unit) array }

val create : unit -> 'a t
(** A tap with no subscribers. *)

val subscribe : 'a t -> ('a -> unit) -> unit
(** Appends a subscriber.  It sees only events emitted after this call;
    one added while an event is being emitted first sees the next
    event. *)

val emit : 'a t -> 'a -> unit
(** Calls every subscriber with the event, in subscription order.  Does
    nothing on a tap without subscribers. *)
