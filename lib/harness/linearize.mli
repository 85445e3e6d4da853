(** Per-key linearizability checking — the observable content of
    Theorem 1. Operations on distinct keys commute in a dense index, so a
    history is linearizable iff each key's sub-history is linearizable
    against set semantics, checked by memoised DFS (Wing & Gong style). *)

type kind = Insert | Delete | Search

type event = {
  key : int;
  kind : kind;
  ok : bool;
      (** Insert: succeeded; Delete: key was present; Search: key found *)
  inv : int;
  res : int;
}

val pp_event : Format.formatter -> event -> unit

type recorder

val recorder : unit -> recorder

type local
(** A domain-private handle: events buffer locally, stamps come from the
    shared atomic clock. *)

val local : recorder -> local

val record : local -> key:int -> kind:kind -> (unit -> bool) -> bool
(** Run the operation, recording its invocation/response window and
    boolean outcome; returns the outcome. *)

val merge_local : local -> unit
(** Publish a domain's buffered events (call once, after the domain's
    work). *)

val events : recorder -> event list

exception Too_long of int

val check_key : ?initial:bool -> event list -> bool
(** Single-key history linearizable from the given initial presence?
    @raise Too_long beyond 25 events (the bitmask search's bound). *)

type verdict = {
  keys_checked : int;
  violations : (int * event list) list;
  skipped : int list;
}

val check : ?initial:(int -> bool) -> event list -> verdict
val ok : verdict -> bool
