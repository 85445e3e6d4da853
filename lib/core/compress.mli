(** The scanning compression process (§5.1–5.2, Fig 7): walks each level
    via links under the parents one level up, rearranging disjoint pairs
    of adjacent siblings that contain a sparse node. Runs concurrently
    with searches, insertions and deletions; locks three nodes at a time. *)

open Repro_storage

module Make_on_store (K : Key.S) (S : Page_store.S with type key = K.t) : sig
  val compress_pass : ?phase:int -> (K.t, S.t) Handle.t -> Handle.ctx -> int
  (** All levels bottom-up, then root-collapse attempts. Returns the
      number of structural changes. [phase] = 1 staggers each level's
      disjoint pairing by one child — an extension beyond Fig 7 that
      removes the paper's odd-child blind spot when phases alternate. *)

  val compress_to_fixpoint : (K.t, S.t) Handle.t -> Handle.ctx -> int
  (** Run alternating-phase passes until one changeless pass in each
      phase (at most 1000 passes); returns how many passes changed
      something. Emptying a tree
      takes O(log2 n) passes (§5.1, experiment E7). *)
end

module Make (K : Key.S) : module type of Make_on_store (K) (Store.For_key (K))
