(** Shared restructuring steps of the compression processes (§5.2, §5.4):
    merging / redistributing a pair of adjacent siblings under their
    parent's lock, and collapsing the root.

    Lock discipline (Theorem 2): the parent F is locked first, then the two
    adjacent children — three simultaneous locks, arcs only go downwards or
    to a sibling under the already-locked parent, so no cycle can form with
    the one-lock insertions.

    Rewrite order (§5.2, crediting Rechter & Salzberg): the child that
    {e gains} data is rewritten first, then the parent, then the other
    child. Each node is unlocked immediately after it is rewritten. This
    confines the reader "wrong node" hazard to case (2): data moved from B
    leftwards into A while a reader was en route to B — which the reader
    detects via B's low value and handles by restarting. *)

open Repro_storage

(** Ablation toggle (benchmarks only): when true, redistribution rewrites
    the {e losing} child first — the opposite of the paper's advice — so
    the cost of the advice can be measured as extra case-(2) restarts.
    Global and unsynchronised by design: set it before a run, never
    during. *)
let ablate_losing_child_first = ref false

module Make_on_store (K : Key.S) (S : Page_store.S with type key = K.t) = struct
  module N = Node.Make (K)
  module A = Access.Make_on_store (K) (S)
  open Handle

  type outcome = Merged | Redistributed | Untouched

  (* Enqueue [ptr] (whose lock the caller holds) for later compression. *)
  let enqueue (ctx : ctx) queue ~ptr ~level ~high ~stack =
    Cqueue.push queue ~update:true ~ptr ~level ~high ~stack ~stamp:0;
    ctx.stats.Stats.enqueued <- ctx.stats.Stats.enqueued + 1

  (** Rearrange the adjacent pair (A = [one], B = [two]) under parent [f]
      (locked at [fptr]); [right_slot] is B's slot in [f]. All three locks
      are held on entry and released here, each immediately after its node
      is rewritten. With [enqueue_children] (the queue-driven mode, §5.4),
      nodes that end up (or remain) sparse are pushed onto the queue while
      their lock is held; [stack] is the path above the children's level. *)
  let rearrange t (ctx : ctx) ?queue ~fptr ~f ~right_slot ~one_ptr ~(a : K.t Node.t)
      ~two_ptr ~(b : K.t Node.t) ~enqueue_children ~stack () : outcome =
    let queue = match queue with Some q -> q | None -> t.queue in
    let k = t.order in
    let sparse n = Node.is_sparse ~order:k n in
    let parent_stack = match stack with _ :: rest -> rest | [] -> [] in
    if not (sparse a || sparse b) then begin
      (* "A does not have to be compressed, since it is now at least half
         full": unlock without rewriting. *)
      A.unlock t ctx one_ptr;
      A.unlock t ctx fptr;
      A.unlock t ctx two_ptr;
      Untouched
    end
    else if N.can_merge ~order:k a b then begin
      (* All pairs fit in A: B's contents move left into A, B is deleted,
         and the pair (old high of A, ptr to B) disappears from F. *)
      let merged = N.merge a b in
      let f' = N.remove_merged_pair f ~right_slot in
      A.put t ctx one_ptr merged;
      if enqueue_children && sparse merged && not merged.Node.is_root then
        enqueue ctx queue ~ptr:one_ptr ~level:merged.Node.level ~high:merged.Node.high
          ~stack;
      A.unlock t ctx one_ptr;
      A.put t ctx fptr f';
      if enqueue_children && sparse f' && not f'.Node.is_root then
        enqueue ctx queue ~ptr:fptr ~level:f'.Node.level ~high:f'.Node.high
          ~stack:parent_stack;
      A.unlock t ctx fptr;
      A.put t ctx two_ptr (N.mark_deleted b ~fwd:one_ptr);
      Cqueue.remove queue two_ptr;
      if queue != t.queue then Cqueue.remove t.queue two_ptr;
      Epoch.retire t.epoch two_ptr;
      A.unlock t ctx two_ptr;
      ctx.stats.Stats.merges <- ctx.stats.Stats.merges + 1;
      Merged
    end
    else begin
      (* Together more than 2k pairs: shift pairs so both hold at least k.
         The gaining child is rewritten first. *)
      let a', b', sep = N.redistribute a b in
      let f' = N.replace_separator f ~right_slot ~sep in
      let gains_left = Node.nkeys a' > Node.nkeys a in
      let gains_left = if !ablate_losing_child_first then not gains_left else gains_left in
      if gains_left then begin
        A.put t ctx one_ptr a';
        A.unlock t ctx one_ptr;
        A.put t ctx fptr f';
        A.unlock t ctx fptr;
        A.put t ctx two_ptr b';
        A.unlock t ctx two_ptr
      end
      else begin
        A.put t ctx two_ptr b';
        A.unlock t ctx two_ptr;
        A.put t ctx fptr f';
        A.unlock t ctx fptr;
        A.put t ctx one_ptr a';
        A.unlock t ctx one_ptr
      end;
      ctx.stats.Stats.redistributions <- ctx.stats.Stats.redistributions + 1;
      Redistributed
    end

  (* Make [new_root_ptr] (locked, already rewritten with the root bit set,
     prime block updated, lock released by caller) the forwarding target of
     the removed chain. *)
  let retire_chain t ctx ~fwd chain =
    List.iter
      (fun ptr ->
        let n = S.get t.store ptr in
        A.put t ctx ptr (N.mark_deleted n ~fwd);
        Cqueue.remove t.queue ptr;
        Epoch.retire t.epoch ptr;
        A.unlock t ctx ptr)
      chain

  (** Merge the two children of root [f] (locked at [fptr]) into a new
      root, reducing the height (§5.4's second special case). On success
      all locks (including [fptr]'s) are consumed and [true] is returned;
      on failure the children are unlocked but [fptr] stays locked so the
      caller can fall back to an ordinary pair rearrangement. *)
  let collapse_two_children t (ctx : ctx) ~fptr ~(f : K.t Node.t) : bool =
    assert (Node.nkeys f = 1);
    let left = f.Node.ptrs.(0) and right = f.Node.ptrs.(1) in
    A.lock t ctx left;
    let ln = S.get t.store left in
    if Node.is_deleted ln || ln.Node.link <> Some right then begin
      A.unlock t ctx left;
      false
    end
    else begin
      A.lock t ctx right;
      let rn = S.get t.store right in
      if Node.is_deleted rn || rn.Node.link <> None || not (N.can_merge ~order:t.order ln rn)
      then begin
        A.unlock t ctx right;
        A.unlock t ctx left;
        false
      end
      else begin
        let merged = { (N.merge ln rn) with Node.is_root = true } in
        A.put t ctx left merged;
        Prime_block.collapse_to t.prime ~level:merged.Node.level ~root_ptr:left;
        A.unlock t ctx left;
        A.put t ctx right (N.mark_deleted rn ~fwd:left);
        Cqueue.remove t.queue right;
        Epoch.retire t.epoch right;
        A.unlock t ctx right;
        A.put t ctx fptr (N.mark_deleted f ~fwd:left);
        Cqueue.remove t.queue fptr;
        Epoch.retire t.epoch fptr;
        A.unlock t ctx fptr;
        ctx.stats.Stats.merges <- ctx.stats.Stats.merges + 1;
        true
      end
    end

  (** Attempt to reduce the tree's height (§5.4's special cases). Locks the
      root; if the root has a single child, walks the single-child chain
      down (any number of levels) to the first node D with more than one
      child or a leaf, makes D the new root, and tombstones the chain. If
      the root has exactly two children that fit in one node, merges them
      into a new root. Returns [true] if the height changed.

      The chain walk aborts if any node on it has a non-nil link: then
      other nodes exist at that level — their pairs are pending insertion
      into the level above, so collapsing would strand them. *)
  let try_collapse_root t (ctx : ctx) : bool =
    let prime = Prime_block.read t.prime in
    let root_ptr = Prime_block.root prime in
    A.lock t ctx root_ptr;
    let r = S.get t.store root_ptr in
    if Node.is_deleted r || not r.Node.is_root || Node.is_leaf r then begin
      A.unlock t ctx root_ptr;
      false
    end
    else if Node.nkeys r = 0 then begin
      (* Single child: walk down while each node is the only one at its
         level (link = nil) and has a single child. *)
      let rec walk locked ptr =
        A.lock t ctx ptr;
        let n = S.get t.store ptr in
        if n.Node.link <> None || Node.is_deleted n then begin
          (* More nodes at this level (pending pair insertions above) —
             cannot collapse; release everything. *)
          A.unlock t ctx ptr;
          List.iter (A.unlock t ctx) locked;
          false
        end
        else if (not (Node.is_leaf n)) && Node.nkeys n = 0 then
          walk (ptr :: locked) n.Node.ptrs.(0)
        else begin
          (* n is the new root. Per §5.4: rewrite it with the root bit on,
             rewrite the prime block, release its lock, then tombstone the
             chain top-down. *)
          A.put t ctx ptr { n with Node.is_root = true };
          Prime_block.collapse_to t.prime ~level:n.Node.level ~root_ptr:ptr;
          A.unlock t ctx ptr;
          retire_chain t ctx ~fwd:ptr (List.rev locked);
          true
        end
      in
      walk [ root_ptr ] r.Node.ptrs.(0)
    end
    else if Node.nkeys r = 1 then begin
      (* Two children: mergeable only if the left's link is the right and
         the right's link is nil (no pending siblings at that level). *)
      if collapse_two_children t ctx ~fptr:root_ptr ~f:r then true
      else begin
        A.unlock t ctx root_ptr;
        false
      end
    end
    else begin
      A.unlock t ctx root_ptr;
      false
    end
end
