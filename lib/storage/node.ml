(** Pure node algebra for B-link trees (paper §2.1, Figs 1–3).

    A node covers the half-open key interval (low, high]. Internal nodes
    hold [m] keys and [m+1] child pointers: child [c_j] covers
    [(k_j, k_{j+1}]] where [k_0 = low] and [k_{m+1} = high]. Leaves hold
    [m] keys with [m] record pointers. Every node additionally stores its
    {e high value} and a {e link} to its right neighbour (the B-link
    extension of Lehman–Yao), plus — required by Sagiv's compression — its
    {e low value} and a deletion state with a forwarding pointer.

    All operations here are pure: they return new nodes and never mutate.
    The store publishes a node with a single atomic write, which is what
    makes the paper's "rewriting a node is indivisible" model hold. *)

type ptr = int

let nil : ptr = -1

(** Pseudo-level tag for version-record pages: pages at this level are not
    tree nodes at all but serialized {!Record_store} version chains riding
    the same page store (one WAL, one replay, one replication stream).
    Chosen as the u16 ceiling so the codec's level field carries it
    unchanged and no real tree can reach it (heights are < 64). Tree
    walkers, {!Validate.leak_check} and friends must skip these pages. *)
let vrec_level = 0xFFFF

type state =
  | Live
  | Deleted of ptr
      (** forwarding pointer to the left sibling the contents merged into
          (§5.2 case 1), or to the new root when a root is removed *)

type 'k t = {
  level : int;  (** 0 = leaf *)
  keys : 'k array;
  ptrs : ptr array;  (** leaf: record ptrs, [|ptrs|=|keys|]; internal: children, [|ptrs|=|keys|+1] *)
  low : 'k Bound.t;
  high : 'k Bound.t;
  link : ptr option;  (** right neighbour at the same level *)
  is_root : bool;  (** the root bit of §3.3 *)
  state : state;
}

let is_leaf n = n.level = 0
let is_deleted n = match n.state with Deleted _ -> true | Live -> false
let nkeys n = Array.length n.keys

(** A node is safe when an insertion cannot overflow it (fewer than 2k pairs). *)
let is_safe ~order n = nkeys n < 2 * order

(** A node is sparse — a compression candidate — below k pairs (§5.1). *)
let is_sparse ~order n = nkeys n < order

module Make (K : Key.S) = struct
  type node = K.t t

  let bcompare = Bound.compare K.compare
  let key_vs_bound k b = Bound.compare_key K.compare k b

  (** Number of keys strictly smaller than [k] (binary search). *)
  let rank n k =
    let lo = ref 0 and hi = ref (nkeys n) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare n.keys.(mid) k < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  let mem n k =
    let r = rank n k in
    r < nkeys n && K.compare n.keys.(r) k = 0

  (** Number of keys strictly smaller than bound [b]. Generalises {!rank}
      so the compression processes can navigate by a node's high value,
      which may be +inf (§5.4 parent search). *)
  let rank_b n b =
    let lo = ref 0 and hi = ref (nkeys n) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Bound.compare_key K.compare n.keys.(mid) b < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (** The child pointer to follow for [k]; internal nodes only, and only
      when [k <= high] (otherwise the link must be followed instead). *)
  let child_for n k =
    assert (not (is_leaf n));
    n.ptrs.(rank n k)

  (** {!child_for} by bound: the child whose range contains values up to [b]. *)
  let child_for_b n b =
    assert (not (is_leaf n));
    n.ptrs.(rank_b n b)

  (** The [next(A, v)] of Fig 4: where a search for [k] goes from node [n]. *)
  type step = Link of ptr | Child of ptr | Here

  let next n k =
    if key_vs_bound k n.high > 0 then
      match n.link with
      | Some p -> Link p
      | None -> Here (* high = +inf, cannot happen with k <= +inf *)
    else if is_leaf n then Here
    else Child (child_for n k)

  (** Leaf lookup: the record pointer stored with [k], if present. *)
  let leaf_find n k =
    assert (is_leaf n);
    let r = rank n k in
    if r < nkeys n && K.compare n.keys.(r) k = 0 then Some n.ptrs.(r) else None

  (* -- array splicing helpers -- *)

  let insert_at arr i v =
    let n = Array.length arr in
    Array.init (n + 1) (fun j -> if j < i then arr.(j) else if j = i then v else arr.(j - 1))

  let remove_at arr i =
    let n = Array.length arr in
    Array.init (n - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

  let sub = Array.sub

  (* -- constructors -- *)

  (** The initial tree: a single empty leaf that is also the root. *)
  let empty_root () =
    {
      level = 0;
      keys = [||];
      ptrs = [||];
      low = Bound.Neg_inf;
      high = Bound.Pos_inf;
      link = None;
      is_root = true;
      state = Live;
    }

  (** A fresh root above [left] and [right] after a root split (Fig 6,
      [insert-into-unsafe-root]): children [\[left; right\]] separated by
      [left]'s new high value. *)
  let new_root ~level ~left_ptr ~right_ptr ~sep =
    {
      level;
      keys = [| sep |];
      ptrs = [| left_ptr; right_ptr |];
      low = Bound.Neg_inf;
      high = Bound.Pos_inf;
      link = None;
      is_root = true;
      state = Live;
    }

  (* -- leaf updates -- *)

  (** Insert pair (k, p) into a non-full leaf. Caller must have checked
      [mem n k = false] and low < k <= high. *)
  let leaf_insert n k p =
    assert (is_leaf n);
    let r = rank n k in
    { n with keys = insert_at n.keys r k; ptrs = insert_at n.ptrs r p }

  (** Replace the record pointer stored with [k]; returns the new node and
      the old pointer, or [None] when [k] is absent. Payload updates never
      touch the search structure. *)
  let leaf_set_payload n k p =
    assert (is_leaf n);
    let r = rank n k in
    if r < nkeys n && K.compare n.keys.(r) k = 0 then begin
      let old = n.ptrs.(r) in
      let ptrs = Array.copy n.ptrs in
      ptrs.(r) <- p;
      Some ({ n with ptrs }, old)
    end
    else None

  (** Remove [k] from a leaf; [None] if absent. The high value is {e not}
      adjusted (paper §2.1 footnote 7: deletions may make the high value
      exceed the largest stored key). *)
  let leaf_delete n k =
    assert (is_leaf n);
    let r = rank n k in
    if r < nkeys n && K.compare n.keys.(r) k = 0 then
      Some { n with keys = remove_at n.keys r; ptrs = remove_at n.ptrs r }
    else None

  (** Split a full leaf while inserting (k, p), as one atomic rewrite of
      [n] after the new right sibling is written (Fig 3). [right_ptr] is the
      page allocated for the new node. Returns (left, right): [left] keeps
      the first half, gets high = its largest key and link = [right_ptr];
      [right] takes the rest plus [n]'s old high value and link. *)
  let leaf_split n k p ~right_ptr =
    assert (is_leaf n);
    let keys = insert_at n.keys (rank n k) k
    and ptrs = insert_at n.ptrs (rank n k) p in
    let total = Array.length keys in
    let mid = (total + 1) / 2 in
    let sep = keys.(mid - 1) in
    let left =
      {
        n with
        keys = sub keys 0 mid;
        ptrs = sub ptrs 0 mid;
        high = Bound.Key sep;
        link = Some right_ptr;
        is_root = false;
      }
    and right =
      {
        n with
        keys = sub keys mid (total - mid);
        ptrs = sub ptrs mid (total - mid);
        low = Bound.Key sep;
        is_root = false;
      }
    in
    (left, right)

  (* -- internal-node updates -- *)

  (** Insert the pair (k, p) — a separator key and the pointer to the new
      node that covers (k, next separator] — "immediately to the left of the
      smallest key u such that k < u" (§3.1). *)
  let internal_insert n k p =
    assert (not (is_leaf n));
    let r = rank n k in
    { n with keys = insert_at n.keys r k; ptrs = insert_at n.ptrs (r + 1) p }

  (** Split a full internal node while inserting (k, p). The middle key
      becomes the boundary: left's new high value and right's low value;
      it is stored in neither half (it will be inserted into the parent). *)
  let internal_split n k p ~right_ptr =
    assert (not (is_leaf n));
    let keys = insert_at n.keys (rank n k) k
    and ptrs = insert_at n.ptrs (rank n k + 1) p in
    let total = Array.length keys in
    let mid = total / 2 in
    let sep = keys.(mid) in
    let left =
      {
        n with
        keys = sub keys 0 mid;
        ptrs = sub ptrs 0 (mid + 1);
        high = Bound.Key sep;
        link = Some right_ptr;
        is_root = false;
      }
    and right =
      {
        n with
        keys = sub keys (mid + 1) (total - mid - 1);
        ptrs = sub ptrs (mid + 1) (total - mid);
        low = Bound.Key sep;
        is_root = false;
      }
    in
    (left, right)

  (* -- compression updates (§5) -- *)

  (** Whether merging [a] and its right neighbour [b] yields a node within
      capacity ("2k or fewer pairs" for leaves; for internal nodes the old
      boundary returns as a separator, hence the +1). *)
  let can_merge ~order a b =
    assert (a.level = b.level);
    if is_leaf a then nkeys a + nkeys b <= 2 * order
    else nkeys a + nkeys b + 1 <= 2 * order

  (** Merge right neighbour [b] into [a]: [a] takes all pairs plus [b]'s
      high value and link (§5.2 case 1). *)
  let merge a b =
    assert (a.level = b.level);
    assert (bcompare a.high b.low = 0);
    let keys, ptrs =
      if is_leaf a then (Array.append a.keys b.keys, Array.append a.ptrs b.ptrs)
      else
        ( Array.concat [ a.keys; [| Bound.get_key a.high |]; b.keys ],
          Array.append a.ptrs b.ptrs )
    in
    { a with keys; ptrs; high = b.high; link = b.link }

  (** Rebalance pairs between [a] and its right neighbour [b] so that both
      hold at least k pairs (§5.2 case 2). Returns (a', b', new boundary);
      the boundary is [a']'s high value and [b']'s low value and must also
      replace the old separator in the parent. *)
  let redistribute a b =
    assert (a.level = b.level);
    assert (bcompare a.high b.low = 0);
    if is_leaf a then begin
      let keys = Array.append a.keys b.keys and ptrs = Array.append a.ptrs b.ptrs in
      let total = Array.length keys in
      let mid = (total + 1) / 2 in
      let sep = keys.(mid - 1) in
      let a' =
        { a with keys = sub keys 0 mid; ptrs = sub ptrs 0 mid; high = Bound.Key sep }
      and b' =
        {
          b with
          keys = sub keys mid (total - mid);
          ptrs = sub ptrs mid (total - mid);
          low = Bound.Key sep;
        }
      in
      (a', b', sep)
    end
    else begin
      let keys = Array.concat [ a.keys; [| Bound.get_key a.high |]; b.keys ]
      and ptrs = Array.append a.ptrs b.ptrs in
      let total = Array.length keys in
      let mid = total / 2 in
      let sep = keys.(mid) in
      let a' =
        { a with keys = sub keys 0 mid; ptrs = sub ptrs 0 (mid + 1); high = Bound.Key sep }
      and b' =
        {
          b with
          keys = sub keys (mid + 1) (total - mid - 1);
          ptrs = sub ptrs (mid + 1) (total - mid);
          low = Bound.Key sep;
        }
      in
      (a', b', sep)
    end

  (** Tombstone a node, forwarding readers to [fwd] (§5.2 case 1; also used
      for removed roots). The link is cleared: readers continue via [fwd],
      whose link already bypasses this node. *)
  let mark_deleted n ~fwd =
    { n with keys = [||]; ptrs = [||]; link = None; is_root = false; state = Deleted fwd }

  (* -- parent-side pair bookkeeping (§5.4) -- *)

  (** Index [j] such that [parent.ptrs.(j) = child], if any. *)
  let child_slot parent child =
    let rec go j =
      if j >= Array.length parent.ptrs then None
      else if parent.ptrs.(j) = child then Some j
      else go (j + 1)
    in
    go 0

  (** High value of the range that child slot [j] covers: [keys.(j)] or the
      parent's own high value for the rightmost child. *)
  let slot_high parent j =
    if j < nkeys parent then Bound.Key parent.keys.(j) else parent.high

  (** Low value of the range that child slot [j] covers. *)
  let slot_low parent j = if j = 0 then parent.low else Bound.Key parent.keys.(j - 1)

  (** Parent has the pair (p, v) — pointer [p] to a child whose slot's high
      value equals [v] — the §5.4 validity test before compressing. *)
  let has_pair parent ~ptr ~high =
    match child_slot parent ptr with
    | None -> false
    | Some j -> bcompare (slot_high parent j) high = 0

  (** After merging child slot [j+1]'s node into slot [j]'s: drop the old
      separator [keys.(j)] and the pointer [ptrs.(j+1)] ("the old high value
      of A and the pointer to B are deleted from F", Fig 7). *)
  let remove_merged_pair parent ~right_slot:j1 =
    assert (j1 >= 1);
    { parent with keys = remove_at parent.keys (j1 - 1); ptrs = remove_at parent.ptrs j1 }

  (** After redistribution between slots [j] and [j+1]: the separator
      [keys.(j)] becomes the new boundary. *)
  let replace_separator parent ~right_slot:j1 ~sep =
    assert (j1 >= 1);
    let keys = Array.copy parent.keys in
    keys.(j1 - 1) <- sep;
    { parent with keys }

  (* -- diagnostics -- *)

  let pp_bound fmt b = Format.pp_print_string fmt (Bound.to_string K.to_string b)

  let pp fmt n =
    Format.fprintf fmt "@[<h>{L%d%s%s (%a,%a] keys=[%s] ptrs=[%s] link=%s}@]" n.level
      (if n.is_root then " root" else "")
      (match n.state with Deleted f -> Printf.sprintf " DEL->%d" f | Live -> "")
      pp_bound n.low pp_bound n.high
      (String.concat ";" (Array.to_list (Array.map K.to_string n.keys)))
      (String.concat ";" (Array.to_list (Array.map string_of_int n.ptrs)))
      (match n.link with Some p -> string_of_int p | None -> "nil")

  let to_string n = Format.asprintf "%a" pp n

  (** Local structural invariants; returns human-readable violations.
      Version-record pages are opaque payload carriers, not nodes — no
      structural claims apply. *)
  let check ?order n =
    if n.level = vrec_level then []
    else
    let errs = ref [] in
    let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
    let m = nkeys n in
    if is_leaf n then begin
      if Array.length n.ptrs <> m then err "leaf |ptrs|=%d <> |keys|=%d" (Array.length n.ptrs) m
    end
    else if not (is_deleted n) && Array.length n.ptrs <> m + 1 then
      err "internal |ptrs|=%d <> |keys|+1=%d" (Array.length n.ptrs) (m + 1);
    for i = 0 to m - 2 do
      if K.compare n.keys.(i) n.keys.(i + 1) >= 0 then
        err "keys not strictly sorted at %d" i
    done;
    if m > 0 then begin
      if key_vs_bound n.keys.(0) n.low <= 0 then err "first key <= low";
      if key_vs_bound n.keys.(m - 1) n.high > 0 then err "last key > high"
    end;
    if bcompare n.low n.high >= 0 && not (is_deleted n) then err "low >= high";
    (match order with
    | Some k when not (is_deleted n) && not n.is_root ->
        if m > 2 * k then err "overflow: %d keys > 2k=%d" m (2 * k)
    | _ -> ());
    (match (n.link, n.high) with
    | None, b when not (is_deleted n) && Bound.is_key b ->
        err "nil link but finite high value"
    | Some _, Bound.Pos_inf -> err "rightmost node has a link"
    | _ -> ());
    List.rev !errs
end
