(** Queue-driven compression processes (§5.4).

    A deletion that leaves a node under half full enqueues it (with its
    level, high value and descent stack). Any number of compactor workers
    pop entries — higher levels first, per the paper's footnote 17 — and
    compress them: locate the parent F (same search as an insertion's
    parent search), validate that F still holds the pair (ptr, high),
    lock F + the node + one neighbour, and merge or redistribute.

    All of the paper's cases are implemented: discard when the node's high
    value changed (another process is responsible, Theorem 2's argument);
    requeue when the neighbour's pair has not yet been inserted into F;
    the left-neighbour fallback when the node is F's rightmost child;
    requeue-behind-the-parent when F has a single pointer; and the root
    special cases (including multi-level collapse and whole-level-deleted
    detection, via {!Access}'s level checks). *)

open Repro_storage

module Make_on_store (K : Key.S) (S : Page_store.S with type key = K.t) = struct
  module N = Node.Make (K)
  module A = Access.Make_on_store (K) (S)
  module R = Restructure.Make_on_store (K) (S)
  open Handle

  let bcompare = N.bcompare

  type step =
    | Empty  (** queue was empty *)
    | Compressed  (** merged or redistributed a pair *)
    | Collapsed  (** reduced the tree height *)
    | Requeued
    | Discarded  (** stale entry dropped *)

  let requeue (ctx : ctx) queue ~update (e : K.t Cqueue.entry) ~high =
    Cqueue.push queue ~update ~ptr:e.Cqueue.ptr ~level:e.Cqueue.level ~high
      ~stack:e.Cqueue.stack ~stamp:e.Cqueue.stamp;
    ctx.stats.Stats.requeued <- ctx.stats.Stats.requeued + 1

  let discard (ctx : ctx) =
    ctx.stats.Stats.discarded <- ctx.stats.Stats.discarded + 1;
    Discarded

  (* Process entry [e]: the §5.4 state machine. Called with the epoch
     pinned. *)
  let rec process (t : (K.t, S.t) Handle.t) (ctx : ctx) ~queue (e : K.t Cqueue.entry) : step =
    let ap = e.Cqueue.ptr in
    (* Quick unlocked peek: the node may be gone, reused, or full again. *)
    match (try `Node (S.get t.store ap) with Page_store.Freed_page _ -> `Freed) with
    | `Freed -> discard ctx
    | `Node a0 ->
        if
          Node.is_deleted a0
          || a0.Node.level <> e.Cqueue.level
          || not (Node.is_sparse ~order:t.order a0)
        then discard ctx
        else if a0.Node.is_root then discard ctx
        else begin
          (* Locate and lock the parent: the node at level+1 that should
             contain the high value we have for A. *)
          match
            (try
               `F
                 (A.acquire t ctx e.Cqueue.high ~level:(e.Cqueue.level + 1)
                    ~on_missing:A.Give_up ?start:None ~stack:e.Cqueue.stack ())
             with A.Level_missing -> `Gone)
          with
          | `Gone ->
              (* The whole level above was deleted: A's level became the
                 root after A was enqueued — nothing to do. *)
              discard ctx
          | `F (fptr, f, _stack) -> with_parent t ctx ~queue e fptr f
        end

  and with_parent t (ctx : ctx) ~queue (e : K.t Cqueue.entry) fptr (f : K.t Node.t) :
      step =
    let ap = e.Cqueue.ptr in
    match N.child_slot f ap with
    | Some j when bcompare (N.slot_high f j) e.Cqueue.high = 0 ->
        with_pair t ctx ~queue e fptr f j
    | Some _ | None -> (
        (* F does not have the pair (p, v). *)
        A.unlock t ctx fptr;
        match (try `Node (S.get t.store ap) with Page_store.Freed_page _ -> `Freed) with
        | `Freed -> discard ctx
        | `Node a ->
            if Node.is_deleted a then discard ctx
            else if bcompare a.Node.high e.Cqueue.high <> 0 then
              (* A was split or compressed since: whoever did it is
                 responsible for any further compression of A. *)
              discard ctx
            else begin
              (* The pointer to A is pending insertion into the parent
                 level (A is a fresh right-half of a split? — no: A's own
                 pair is missing, e.g. its left sibling split/merged
                 rearranged F). Try again later. *)
              requeue ctx queue ~update:false e ~high:e.Cqueue.high;
              Requeued
            end)

  and with_pair t (ctx : ctx) ~queue (e : K.t Cqueue.entry) fptr (f : K.t Node.t) j :
      step =
    let ap = e.Cqueue.ptr in
    let nchildren = Array.length f.Node.ptrs in
    if nchildren = 1 then begin
      if f.Node.is_root then begin
        A.unlock t ctx fptr;
        (* Root with a single child: height reduction. *)
        if R.try_collapse_root t ctx then Collapsed
        else begin
          requeue ctx queue ~update:false e ~high:e.Cqueue.high;
          Requeued
        end
      end
      else begin
        (* F has only A: F itself must be compressed first (it is sparse,
           hence queued — and popped before A thanks to level priority),
           or pointers are pending insertion into F. *)
        A.unlock t ctx fptr;
        requeue ctx queue ~update:false e ~high:e.Cqueue.high;
        Requeued
      end
    end
    else if f.Node.is_root && nchildren = 2 && R.collapse_two_children t ctx ~fptr ~f then
      Collapsed
    else if j < nchildren - 1 then begin
      (* Case (1): right neighbour. *)
      A.lock t ctx ap;
      let a = S.get t.store ap in
      if Node.is_deleted a then begin
        A.unlock t ctx ap;
        A.unlock t ctx fptr;
        discard ctx
      end
      else begin
        match a.Node.link with
        | None ->
            A.unlock t ctx ap;
            A.unlock t ctx fptr;
            discard ctx
        | Some two_ptr -> (
            match N.child_slot f two_ptr with
            | Some right_slot ->
                A.lock t ctx two_ptr;
                let b = S.get t.store two_ptr in
                let outcome =
                  R.rearrange t ctx ~queue ~fptr ~f ~right_slot ~one_ptr:ap ~a ~two_ptr
                    ~b ~enqueue_children:true ~stack:e.Cqueue.stack ()
                in
                if outcome = R.Untouched then discard ctx else Compressed
            | None ->
                (* A's right sibling's pair is not yet in F (pending
                   insertion). Try the left neighbour if there is one;
                   otherwise requeue A — with updated info, since we hold
                   A's lock. *)
                if j > 0 then try_left t ctx ~queue e fptr f j ~a_locked:true
                else begin
                  requeue ctx queue ~update:true e ~high:a.Node.high;
                  A.unlock t ctx ap;
                  A.unlock t ctx fptr;
                  Requeued
                end)
      end
    end
    else
      (* Case (2): A is F's rightmost child — left neighbour. *)
      try_left t ctx ~queue e fptr f j ~a_locked:false

  and try_left t (ctx : ctx) ~queue (e : K.t Cqueue.entry) fptr (f : K.t Node.t) j
      ~a_locked : step =
    let ap = e.Cqueue.ptr in
    let bl = f.Node.ptrs.(j - 1) in
    A.lock t ctx bl;
    let bn = S.get t.store bl in
    if (not (Node.is_deleted bn)) && bn.Node.link = Some ap then begin
      if not a_locked then A.lock t ctx ap;
      let a = S.get t.store ap in
      if Node.is_deleted a then begin
        A.unlock t ctx ap;
        A.unlock t ctx bl;
        A.unlock t ctx fptr;
        discard ctx
      end
      else begin
        let outcome =
          R.rearrange t ctx ~queue ~fptr ~f ~right_slot:j ~one_ptr:bl ~a:bn ~two_ptr:ap
            ~b:a ~enqueue_children:true ~stack:e.Cqueue.stack ()
        in
        if outcome = R.Untouched then discard ctx else Compressed
      end
    end
    else begin
      (* The left sibling's link does not point to A (a split in between):
         requeue. If we hold A's lock, refresh the queued info. *)
      A.unlock t ctx bl;
      if a_locked then begin
        let a = S.get t.store ap in
        requeue ctx queue ~update:true e ~high:a.Node.high;
        A.unlock t ctx ap
      end
      else requeue ctx queue ~update:false e ~high:e.Cqueue.high;
      A.unlock t ctx fptr;
      Requeued
    end

  (** Pop and process one entry from [queue] (default: the tree's shared
      queue, §5.4 arrangement (2)). *)
  let step ?queue (t : (K.t, S.t) Handle.t) (ctx : ctx) : step =
    let queue = match queue with Some q -> q | None -> t.queue in
    match Cqueue.pop queue with
    | None -> Empty
    | Some e -> Epoch.with_pin t.epoch ~slot:ctx.slot (fun () -> process t ctx ~queue e)

  (** §5.4 arrangement (3): a compression process with its own private
      queue, initiated for one node (typically by the deletion that made
      it sparse). Seeds a fresh queue with the node, then compresses it
      and every consequence (sparse merge survivors, sparse parents) until
      the private queue is empty. Runs concurrently with everything else;
      a bound of 100,000 steps stops livelock against a hostile
      interleaving. Returns the number of merges+redistributions
      performed. *)
  let compact_node (t : (K.t, S.t) Handle.t) (ctx : ctx) ~ptr ~level ~high ~stack =
    let max_steps = 100_000 in
    let queue : K.t Cqueue.t = Cqueue.create () in
    Cqueue.push queue ~update:true ~ptr ~level ~high ~stack ~stamp:0;
    let changes = ref 0 in
    let steps = ref 0 in
    let continue_ = ref true in
    while !continue_ && !steps < max_steps do
      incr steps;
      match step ~queue t ctx with
      | Empty -> continue_ := false
      | Compressed | Collapsed -> incr changes
      | Requeued | Discarded -> ()
    done;
    !changes

  (** Drain the queue (e.g. after a quiescent delete phase). Requeued
      entries are retried; a bound of 10,000,000 steps stops
      pathological schedules. *)
  let run_until_empty (t : (K.t, S.t) Handle.t) (ctx : ctx) =
    let max_steps = 10_000_000 in
    let rec go n =
      if n >= max_steps then `Step_limit
      else
        match step t ctx with
        | Empty -> `Drained
        | Compressed | Collapsed | Requeued | Discarded -> go (n + 1)
    in
    go 0

  (** Background worker: process entries until [stop] is set, backing off
      while the queue is empty. *)
  let run_worker (t : (K.t, S.t) Handle.t) (ctx : ctx) ~(stop : bool Atomic.t) =
    let backoff = Repro_util.Backoff.create () in
    while not (Atomic.get stop) do
      match step t ctx with
      | Empty ->
          ctx.stats.Stats.waits <- ctx.stats.Stats.waits + 1;
          Repro_util.Backoff.once backoff
      | Compressed | Collapsed | Requeued | Discarded -> Repro_util.Backoff.reset backoff
    done
end

module Make (K : Key.S) = Make_on_store (K) (Store.For_key (K))
