(** Pure node algebra for B-link trees (paper §2.1, Figs 1–3).

    A node covers the interval (low, high]. Internal: [m] keys and [m+1]
    children, child [c_j] covering [(k_j, k_{j+1}]] with [k_0 = low],
    [k_{m+1} = high]. Leaf: [m] keys with [m] record pointers. Every node
    carries its high value and right link (Lehman–Yao) plus its low value
    and deletion state (Sagiv's compression).

    All operations are pure; the store publishes each new version with a
    single atomic write, giving the paper's indivisible get/put model. *)

type ptr = int

val nil : ptr

val vrec_level : int
(** Pseudo-level (0xFFFF) marking version-record pages: serialized
    {!Record_store} chains stored through the same page store as the tree.
    Not a tree level — traversals and leak checks skip pages tagged with
    it. *)

type state =
  | Live
  | Deleted of ptr
      (** forwarding pointer: the left sibling the contents merged into, or
          the new root after a root removal (§5.2 case 1) *)

type 'k t = {
  level : int;  (** 0 = leaf *)
  keys : 'k array;
  ptrs : ptr array;
      (** leaf: record pointers, [|ptrs| = |keys|]; internal: children,
          [|ptrs| = |keys| + 1] *)
  low : 'k Bound.t;
  high : 'k Bound.t;
  link : ptr option;  (** right neighbour at the same level *)
  is_root : bool;  (** the root bit of §3.3 *)
  state : state;
}

val is_leaf : 'k t -> bool
val is_deleted : 'k t -> bool
val nkeys : 'k t -> int

val is_safe : order:int -> 'k t -> bool
(** Fewer than 2k pairs: an insertion cannot overflow it. *)

val is_sparse : order:int -> 'k t -> bool
(** Below k pairs: a compression candidate (§5.1). *)

module Make (K : Key.S) : sig
  type node = K.t t

  val bcompare : K.t Bound.t -> K.t Bound.t -> int
  val key_vs_bound : K.t -> K.t Bound.t -> int

  val rank : node -> K.t -> int
  (** Number of keys strictly smaller than [k]. *)

  val rank_b : node -> K.t Bound.t -> int
  (** {!rank} generalised to bounds (the compactor navigates by high
      values, which may be +inf). *)

  val mem : node -> K.t -> bool

  val child_for : node -> K.t -> ptr
  (** Child to follow for [k]; requires an internal node and [k <= high]. *)

  val child_for_b : node -> K.t Bound.t -> ptr

  (** The [next(A, v)] step of Fig 4. *)
  type step = Link of ptr | Child of ptr | Here

  val next : node -> K.t -> step

  val leaf_find : node -> K.t -> ptr option

  val empty_root : unit -> node
  (** The initial tree: one empty leaf with the root bit set. *)

  val new_root : level:int -> left_ptr:ptr -> right_ptr:ptr -> sep:K.t -> node
  (** Fresh root above a split old root (Fig 6). *)

  val leaf_insert : node -> K.t -> ptr -> node
  (** Requires: leaf, in range, not present, not full. *)

  val leaf_set_payload : node -> K.t -> ptr -> (node * ptr) option
  (** Replace the record pointer stored with a key; returns the new node
      and the old pointer, or [None] when absent. *)

  val leaf_delete : node -> K.t -> node option
  (** [None] when absent. The high value is never adjusted (§2.1 fn 7). *)

  val leaf_split : node -> K.t -> ptr -> right_ptr:ptr -> node * node
  (** Split a full leaf while inserting; the left half keeps ceil(n/2)
      pairs, gets [high =] its largest key and [link = right_ptr]. *)

  val internal_insert : node -> K.t -> ptr -> node
  (** Insert the pair (separator, pointer-to-new-right-node) "immediately
      to the left of the smallest key u such that k < u" (§3.1): the
      pointer lands just after the split child's old pointer. *)

  val internal_split : node -> K.t -> ptr -> right_ptr:ptr -> node * node
  (** The middle key becomes the boundary (left's high / right's low) and
      is stored in neither half. *)

  val can_merge : order:int -> node -> node -> bool
  (** Whether a node and its right neighbour fit in one node; for internal
      nodes the boundary returns as a separator (hence the +1). *)

  val merge : node -> node -> node
  (** Merge the right neighbour into the left (§5.2): the left takes all
      pairs plus the right's high value and link. *)

  val redistribute : node -> node -> node * node * K.t
  (** Rebalance so both halves hold >= k pairs; returns the new boundary,
      which must also replace the parent's separator. *)

  val mark_deleted : node -> fwd:ptr -> node
  (** Tombstone with a forwarding pointer; the link is cleared (readers
      continue via [fwd], whose link already bypasses this node). *)

  val child_slot : node -> ptr -> int option
  (** Index [j] with [ptrs.(j) = child]. *)

  val slot_high : node -> int -> K.t Bound.t
  (** High value of the range child slot [j] covers. *)

  val slot_low : node -> int -> K.t Bound.t

  val has_pair : node -> ptr:ptr -> high:K.t Bound.t -> bool
  (** The §5.4 validity test: the parent still holds the pair (p, v). *)

  val remove_merged_pair : node -> right_slot:int -> node
  (** Drop the old separator and the merged-away child's pointer (Fig 7). *)

  val replace_separator : node -> right_slot:int -> sep:K.t -> node

  val pp : Format.formatter -> node -> unit
  val to_string : node -> string

  val check : ?order:int -> node -> string list
  (** Local invariant violations, human-readable; [] when clean. *)
end
