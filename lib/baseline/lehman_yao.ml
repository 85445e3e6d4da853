(** The Lehman–Yao B-link tree (ACM TODS 1981) — the algorithm the paper
    improves on, implemented faithfully as the principal baseline.

    Differences from {!Repro_core.Sagiv}:
    - An inserter that splits a node {e keeps that node's lock} while it
      locates and locks the parent, and the parent-level right-move uses
      lock coupling — so an insertion holds up to {b three} locks
      simultaneously (experiment E1 measures exactly this);
    - updaters therefore cannot overtake one another on the way up;
    - deletion is leaf-only and nothing is ever compressed: nodes only
      grow in number (the space/height cost experiment E3 quantifies).

    Readers take no locks, as in the paper. The same storage substrate
    (store, page latches, prime block) is used so comparisons measure the
    algorithms, not the infrastructure. *)

open Repro_storage
open Repro_core

module Make (K : Key.S) = struct
  module N = Node.Make (K)

  type t = { store : K.t Store.t; prime : Prime_block.t; order : int }

  let create ?(order = 8) () =
    let store = Store.create () in
    let root = Store.alloc store (N.empty_root ()) in
    { store; prime = Prime_block.create ~root_ptr:root; order }

  let get t (ctx : Handle.ctx) ptr =
    ctx.Handle.stats.Stats.gets <- ctx.Handle.stats.Stats.gets + 1;
    Store.get t.store ptr

  let put t (ctx : Handle.ctx) ptr n =
    ctx.Handle.stats.Stats.puts <- ctx.Handle.stats.Stats.puts + 1;
    Store.put t.store ptr n

  let lock t (ctx : Handle.ctx) ptr =
    Store.lock t.store ptr;
    Stats.on_lock ctx.Handle.stats

  let unlock t (ctx : Handle.ctx) ptr =
    Stats.on_unlock ctx.Handle.stats;
    Store.unlock t.store ptr

  let kvb k b = Bound.compare_key K.compare k b

  (* Descend to [to_level], stacking the nodes through which we move down
     (Fig 5's movedown-and-stack; LY's procedure is the same). *)
  let down t ctx k ~to_level =
    let prime = Prime_block.read t.prime in
    let rec go ptr level stack =
      let n = get t ctx ptr in
      if kvb k n.Node.high > 0 then begin
        ctx.Handle.stats.Stats.link_follows <- ctx.Handle.stats.Stats.link_follows + 1;
        match n.Node.link with Some p -> go p level stack | None -> assert false
      end
      else if level = to_level then (ptr, n, stack)
      else go (N.child_for n k) (level - 1) (ptr :: stack)
    in
    go (Prime_block.root prime) (prime.Prime_block.levels - 1) []

  (* Right-move while holding locks: lock the next node before releasing
     the current one (LY's move.right). Up to 2 locks held transiently. *)
  let move_right_locked t ctx k ptr =
    let rec go ptr n =
      if kvb k n.Node.high > 0 then begin
        ctx.Handle.stats.Stats.link_follows <- ctx.Handle.stats.Stats.link_follows + 1;
        match n.Node.link with
        | Some p ->
            lock t ctx p;
            unlock t ctx ptr;
            go p (get t ctx p)
        | None -> assert false
      end
      else (ptr, n)
    in
    go ptr (get t ctx ptr)

  let search t (ctx : Handle.ctx) k =
    ctx.Handle.stats.Stats.ops <- ctx.Handle.stats.Stats.ops + 1;
    (* [down] already right-moves at each level, including the leaf level *)
    let _ptr, n, _stack = down t ctx k ~to_level:0 in
    N.leaf_find n k

  (* Wait (§3.3 scenario) until the prime block has a level above [level]
     and return its leftmost node. *)
  let wait_for_level t (ctx : Handle.ctx) ~level =
    let backoff = Repro_util.Backoff.create () in
    let rec go () =
      let prime = Prime_block.read t.prime in
      match Prime_block.leftmost_at prime ~level with
      | Some p -> p
      | None ->
          ctx.Handle.stats.Stats.waits <- ctx.Handle.stats.Stats.waits + 1;
          Repro_util.Backoff.once backoff;
          go ()
    in
    go ()

  let insert t (ctx : Handle.ctx) k payload : [ `Ok | `Duplicate ] =
    ctx.Handle.stats.Stats.ops <- ctx.Handle.stats.Stats.ops + 1;
    let lptr, _n, stack = down t ctx k ~to_level:0 in
    lock t ctx lptr;
    let lptr, leaf = move_right_locked t ctx k lptr in
    (* Invariant of the loop: [aptr] is locked and is the correct node at
       [level] for the pair (ikey, iptr). *)
    let rec do_insertion ~level ~ikey ~iptr aptr (a : K.t Node.t) ~stack =
      if level = 0 && N.mem a ikey then begin
        unlock t ctx aptr;
        `Duplicate
      end
      else if Node.is_safe ~order:t.order a then begin
        let a' =
          if level = 0 then N.leaf_insert a ikey iptr else N.internal_insert a ikey iptr
        in
        put t ctx aptr a';
        unlock t ctx aptr;
        `Ok
      end
      else if a.Node.is_root then begin
        (* Split the root while holding its lock; install the new root
           before releasing, so only one root can be created. *)
        let bptr = Store.reserve t.store in
        let a', b =
          if level = 0 then N.leaf_split a ikey iptr ~right_ptr:bptr
          else N.internal_split a ikey iptr ~right_ptr:bptr
        in
        put t ctx bptr b;
        put t ctx aptr a';
        ctx.Handle.stats.Stats.splits <- ctx.Handle.stats.Stats.splits + 1;
        let sep = Bound.get_key a'.Node.high in
        let rptr =
          Store.alloc t.store
            (N.new_root ~level:(level + 1) ~left_ptr:aptr ~right_ptr:bptr ~sep)
        in
        Prime_block.push_root t.prime ~root_ptr:rptr;
        unlock t ctx aptr;
        `Ok
      end
      else begin
        (* Split, then — the LY discipline — find and lock the parent
           BEFORE releasing this node's lock, so no updater can overtake
           us on the way up. Three locks held at the peak. *)
        let bptr = Store.reserve t.store in
        let a', b =
          if level = 0 then N.leaf_split a ikey iptr ~right_ptr:bptr
          else N.internal_split a ikey iptr ~right_ptr:bptr
        in
        put t ctx bptr b;
        put t ctx aptr a';
        ctx.Handle.stats.Stats.splits <- ctx.Handle.stats.Stats.splits + 1;
        let sep = Bound.get_key a'.Node.high in
        let pptr, stack =
          match stack with
          | p :: rest -> (p, rest)
          | [] -> (wait_for_level t ctx ~level:(level + 1), [])
        in
        lock t ctx pptr;
        let pptr, pnode = move_right_locked t ctx sep pptr in
        unlock t ctx aptr;
        do_insertion ~level:(level + 1) ~ikey:sep ~iptr:bptr pptr pnode ~stack
      end
    in
    do_insertion ~level:0 ~ikey:k ~iptr:payload lptr leaf ~stack

  (* LY deletion: "search for the leaf, lock it, delete, unlock" — no
     restructuring ever. *)
  let delete t (ctx : Handle.ctx) k =
    ctx.Handle.stats.Stats.ops <- ctx.Handle.stats.Stats.ops + 1;
    let lptr, _n, _stack = down t ctx k ~to_level:0 in
    lock t ctx lptr;
    let lptr, leaf = move_right_locked t ctx k lptr in
    match N.leaf_delete leaf k with
    | None ->
        unlock t ctx lptr;
        false
    | Some leaf' ->
        put t ctx lptr leaf';
        unlock t ctx lptr;
        true

  let height t = (Prime_block.read t.prime).Prime_block.levels

  let cardinal t =
    let prime = Prime_block.read t.prime in
    let rec walk ptr acc =
      let n = Store.get t.store ptr in
      let acc = acc + Node.nkeys n in
      match n.Node.link with Some p -> walk p acc | None -> acc
    in
    match Prime_block.leftmost_at prime ~level:0 with Some p -> walk p 0 | None -> 0
end
