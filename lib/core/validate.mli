(** Structural invariant checker for quiescent trees: verifies the
    "validity of the search structure" Theorem 1 rests on (each non-leaf
    level equals the high-value/link sequence of the level below, Fig 2)
    and reports occupancy statistics. *)

open Repro_storage

type level_stats = {
  level : int;
  nodes : int;
  keys : int;
  min_fill : float;
  avg_fill : float;  (** keys / capacity averaged over the level's nodes *)
}

type report = {
  height : int;
  total_keys : int;
  total_nodes : int;  (** live nodes reachable from the root *)
  levels : level_stats list;
  encoded_bytes : int;  (** page-format size of all reachable nodes *)
  errors : string list;
}

val ok : report -> bool

module Make_on_store (K : Key.S) (S : Page_store.S with type key = K.t) : sig
  val check : (K.t, S.t) Handle.t -> report
  (** Full structural check; call only with no operation in flight. *)

  val leak_check : (K.t, S.t) Handle.t -> Node.ptr list
  (** Quiescent page-leak check: live store pages that are neither
      reachable from the root nor tombstones awaiting reclamation.
      Empty after compaction + reclaim when §5.3 holds. *)

  val leak_check_online : (K.t, S.t) Handle.t -> Node.ptr list
  (** {!leak_check} with writers live: intersects three
      independent reachability walks, filtering pages that are only
      transiently unreachable (mid-split publish, mid-retire). A
      genuine leak survives every pass and is reported. *)

  val check_occupancy : (K.t, S.t) Handle.t -> string list
  (** {!check}'s errors plus one error per non-root node holding fewer
      than k pairs (the §5.1 postcondition, modulo the odd-child caveat
      of the scanning process). *)
end

module Make (K : Key.S) : module type of Make_on_store (K) (Store.For_key (K))
